"""Executable axiom checks with concrete witnesses.

Each checker examines one fully specified scenario and returns an
AxiomVerdict.  Scenarios whose preconditions fail raise ScenarioRejected
instead of returning a verdict: a vacuously true scenario must not be
counted as evidence that an axiom holds.  Randomized batteries over these
checkers live in `harness`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce
from operator import add, sub
from typing import Callable, Sequence

from . import lp
from .geometry import _hull2d, geometry_for, image_gap
from .measure import (
    Coarsening,
    Density,
    EventSet,
    ImproperPushforward,
    TOL_EXACT,
    TOL_MEASURE,
    _values_along,
    belief_distance,
    cell_values,
    common_grid,
    merged_breakpoints,
    pushforward_coarsening,
)
from .prefs import (
    Act,
    INDIFFERENT,
    OutcomeSpace,
    Preference,
    Profile,
    Utility,
    _exact_utility,
    _normalized_utility,
    compare,
    discount_to_belief,
    preference_distance,
    pushforward,
)
from .swf import SwfResult

Swf = Callable[[Profile], SwfResult]


class ScenarioRejected(Exception):
    """The scenario does not meet the axiom's preconditions; it carries no
    information either way."""


@dataclass(frozen=True)
class AxiomVerdict:
    axiom: str
    satisfied: bool
    trials: int
    witness: dict | None = None
    notes: str = ""

    def as_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "verdict": "satisfied-on-sample" if self.satisfied else "violated",
            "trials": self.trials,
            "witness": self.witness,
            "notes": self.notes,
        }


def agreement_gap(act: Act, beliefs: Sequence[Density], space: OutcomeSpace) -> float:
    """How far the beliefs are from agreeing on the act, the paper's "acts
    about which beliefs agree": the largest gap in an outcome's probability
    between the act's pushforward under the first belief and under each
    other belief.  Every pushforward is taken; 0.0 for a single belief."""
    first, *others = [pushforward(act, d, space).values_of(space.labels) for d in beliefs]
    return max([abs(x - y) for other in others for x, y in zip(first, other)], default=0.0)


# ---------------------------------------------------------------------------
# co-redundancy certification


@dataclass(frozen=True)
class CoRedundancyCertificate:
    """Witness that acts factoring through the coarsening and using only
    the listed outcomes already span the full utility image.

    `method` is "exact" when the comparison covers every unit direction
    (one or two concerned agents), "sampled" when it covers only the
    `directions` probing directions.  `directions` counts what was
    compared: the probing directions of `geometry.direction_set` for one
    agent or for three or more; for two agents the vertices of the full
    image's polygon, each measured against the restricted polygon, which
    makes `residual` the largest support gap itself (`geometry.image_gap`).
    It is 0 when the two images were shown equal without comparing
    anything: two agents whose outcome hull is spanned by the subset,
    with `residual` the fiber bound of `certify_coredundancy`.  That bound
    is 0.0 under the identity coarsening and of rounding size where a
    coarsening keeps each fiber's masses proportional (at most 1.4e-16 on
    the IRA battery's merge-pairs streams).  Either way an off-subset
    outcome at a turn the hull takes as straight (sine at most 1e-14,
    `geometry._hull2d`) may lie just outside, unmeasured."""

    coarsening: Coarsening
    outcomes: tuple[str, ...]
    pushforwards: tuple[tuple[int, Density], ...]
    residual: float
    method: str
    directions: int


@dataclass(frozen=True)
class Refused:
    """Certification failure: reason is "image-mismatch" or
    "improper-pushforward".  An image mismatch carries a unit direction
    where the full image's support exceeds the restricted one's by
    `residual`, and the method and count of the comparison, as in
    `CoRedundancyCertificate`: for two agents the direction runs from the
    nearest restricted point to the farthest full-polygon vertex, and
    `directions` counts the full polygon's vertices."""

    reason: str
    detail: str
    direction: tuple[float, ...] | None = None
    residual: float | None = None
    method: str | None = None
    directions: int = 0


def _fiber_residual(
    q: Coarsening, beliefs: Sequence[Density], pushed: Sequence[Density]
) -> float:
    """Sum over the fibers of q of how far the two agents' source masses
    are from proportional, plus how far each fiber's total is from the
    pushed masses: the bound of `certify_coredundancy`.

    The source cells cut each piece's interval at both beliefs' breakpoints
    and at the pull-backs of the pushed grid's points, so each cell s
    carries masses D_s and maps into one cell t of that grid, whose pushed
    masses are D_t.  With E_t = sum of D_s over s -> t,
    c_s = 1'D_s / 1'E_t and e_s = D_s - c_s E_t, the residual is
    sum_s |e_s|_1 + sum_t |E_t - D_t|_1.  The identity coarsening pushes
    each belief to itself; every fiber is then one cell with its own
    masses, and the residual is 0.0 without a walk."""
    (d1, d2), (p1, p2) = beliefs, pushed
    if p1 is d1 and p2 is d2:
        return 0.0
    grid, (t1, t2) = common_grid(pushed)
    pulled = []
    for piece in q.maps:
        pulled.append(piece.sa)
        inner = grid[bisect_right(grid, piece.ta) : bisect_left(grid, piece.tb)]
        pulled += map(piece.backward, inner)
    src, (m1, m2) = common_grid(beliefs, pulled)
    e1, e2 = [0.0] * len(t1), [0.0] * len(t2)
    fiber = []  # the target cell of each source cell
    pieces = iter(q.maps)
    sb = 0.0
    for a, b, x1, x2 in zip(src, src[1:], m1, m2):
        if a >= sb:  # every piece starts at a point of src
            piece = next(pieces)
            sb = piece.sb
            lo, hi = bisect_left(grid, piece.ta), bisect_left(grid, piece.tb)
        # the piece's target cell that holds the image of the midpoint
        k = bisect_right(grid, piece.forward(0.5 * (a + b)), lo + 1, hi) - 1
        fiber.append(k)
        e1[k] += x1
        e2[k] += x2
    residual = reduce(add, map(abs, map(sub, e1, t1)), 0.0)
    residual += reduce(add, map(abs, map(sub, e2, t2)), 0.0)
    for k, x1, x2 in zip(fiber, m1, m2):
        # |e_s|_1 = 2 |D_s1 E_t2 - D_s2 E_t1| / 1'E_t
        total = e1[k] + e2[k]
        if total > 0.0:
            residual += 2.0 * abs(x1 * e2[k] - x2 * e1[k]) / total
    return residual


def certify_coredundancy(
    profile: Profile, q: Coarsening, outcomes: Sequence[str]
) -> CoRedundancyCertificate | Refused:
    """Decides whether acts factoring through q into the outcome subset
    reach the whole image of the concerned agents, by comparing the two
    support functions.  With one or two concerned agents the comparison
    is exact: one agent compares two intervals, two agents the two image
    polygons, whose largest vertex distance is the largest support gap
    (`geometry.image_gap`).  With more it is sampled over `direction_set`.

    Two agents are first tried by a fiber bound, under any coarsening.
    The full image is the sum over source cells s of D_s conv(U), the
    restricted one the sum over pushed cells t of D_t conv(U_O), where D
    is the diagonal of the two agents' masses on a cell, U holds the
    utility points of all outcomes and U_O those of the subset
    (`_fiber_residual` builds the cells, and E_t, c_s and e_s).  When
    every vertex of conv(U) is a subset outcome's point, h_U = h_{U_O}.
    Support functions add over Minkowski summands and are sublinear, and
    utilities lie in [0, 1] (to within TOL_EXACT, a factor 1 + 1e-12 on
    what follows), so h_{U_O} moves by at most |a - b|_1 between
    directions a and b.  Splitting each D_s into c_s E_t + e_s then bounds
    the support gap at every unit direction by the residual
    sum_s |e_s|_1 + sum_t |E_t - D_t|_1.  A residual of at
    most TOL_MEASURE certifies without probing a direction.  Otherwise the
    polygons decide, and give a refusal its direction.  conv(U) is
    `geometry._hull2d`'s hull, which takes turns of sine at most 1e-14 as
    straight, so an outcome at such a turn does not stop the certificate
    though it may lie just outside."""
    outs = profile.space.subset(outcomes)
    ids = profile.concerned
    if not ids:
        raise ValueError("certification needs a concerned agent")
    agents = profile.agents
    push = []
    for i in ids:
        try:
            push.append((i, pushforward_coarsening(q, agents[i].belief)))
        except ImproperPushforward as exc:
            return Refused("improper-pushforward", f"agent {i}: {exc}")
    push = tuple(push)
    if len(ids) == 2:
        (i, d1), (j, d2) = push
        u, v = agents[i].utility, agents[j].utility
        points = [(u.value(lab), v.value(lab)) for lab in profile.space.labels]
        kept = {(u.value(lab), v.value(lab)) for lab in outs}
        if all(p in kept for p in _hull2d(points)):
            residual = _fiber_residual(q, (agents[i].belief, agents[j].belief), (d1, d2))
            if residual <= TOL_MEASURE:
                return CoRedundancyCertificate(q, outs, push, residual, "exact", 0)
    full = geometry_for(profile)
    restricted = geometry_for(profile, q, outs)
    residual, direction, method, count = image_gap(full, restricted)
    if residual > TOL_MEASURE:
        unit = "vertices" if len(ids) == 2 else "directions"
        return Refused(
            "image-mismatch",
            f"support gap {residual:.3e} ({method}, {count} {unit})",
            direction,
            residual,
            method,
            count,
        )
    return CoRedundancyCertificate(q, outs, push, residual, method, count)


# ---------------------------------------------------------------------------
# the six axioms


def check_faithfulness(swf: Swf, space: OutcomeSpace, n_agents: int = 3) -> AxiomVerdict:
    """Society must be completely indifferent when every agent is."""
    profile = Profile(space, (INDIFFERENT,) * n_agents)
    result = swf(profile)
    ok = result.preference.is_indifferent
    witness = None
    if not ok:
        witness = {
            "n_agents": n_agents,
            "society_utility": None if result.raw_utility is None else list(result.raw_utility),
        }
    return AxiomVerdict("faithfulness", ok, 1, witness)


def check_anonymity(swf: Swf, profile: Profile) -> AxiomVerdict:
    """Society's preference at this profile must be unchanged by every
    transposition of two agents.  Only the transpositions are applied, each
    to this one profile; that does not show invariance under every
    permutation of it, since invariance under generators at one profile
    does not compose into invariance under their products.

    A transposition of two equal preferences (two indifferent agents, say)
    gives a profile equal to this one, on which a rule, a deterministic
    function of its profile, gives this result again: it counts in
    `trials` but the rule is not called."""
    base = swf(profile).preference
    agents = profile.agents
    n = len(agents)
    trials = 0
    for i in range(n):
        for j in range(i + 1, n):
            trials += 1
            if agents[i] == agents[j]:
                continue
            swapped = swf(profile.swapped(i, j)).preference
            dist = preference_distance(base, swapped)
            if dist > TOL_MEASURE:
                return AxiomVerdict(
                    "anonymity",
                    False,
                    trials,
                    {"swap": [i, j], "distance": dist},
                )
    return AxiomVerdict("anonymity", True, trials)


def check_no_belief_imposition(swf: Swf, profile: Profile, agent: int) -> AxiomVerdict:
    """If society's belief without agent i differs from agent i's, adding
    the agent must not make society's belief exactly the agent's."""
    own = profile.agents[agent]
    if own.is_indifferent:
        raise ScenarioRejected("agent is completely indifferent")
    full = swf(profile)
    reduced = swf(profile.replace(agent, INDIFFERENT))
    if full.preference.is_indifferent or reduced.preference.is_indifferent:
        raise ScenarioRejected("society must be represented with and without the agent")
    d_without = belief_distance(reduced.preference.belief, own.belief)
    d_with = belief_distance(full.preference.belief, own.belief)
    violated = d_without > TOL_MEASURE and d_with <= TOL_MEASURE
    witness = None
    if violated:
        witness = {
            "agent": agent,
            "distance_without_agent": d_without,
            "distance_with_agent": d_with,
        }
    return AxiomVerdict("no-belief-imposition", not violated, 1, witness)


def _is_constant_act(act: Act) -> bool:
    return len(act.outcomes_used()) == 1


def check_restricted_monotonicity(
    swf: Swf,
    base: Profile,
    agent: int,
    newpref: Preference,
    f: Act,
    g: Act,
) -> AxiomVerdict:
    """An indifferent agent acquires a preference whose belief agrees with
    society's on the acts in question; society must then follow the
    agent's weak/strict ranking of f against g.

    The belief agreement is checked act by act, as pushforward lotteries
    within TOL_MEASURE, and is skipped when the new agent holds society's
    belief object itself."""
    if not base.agents[agent].is_indifferent:
        raise ScenarioRejected("agent must be indifferent at the base profile")
    if newpref.is_indifferent:
        raise ScenarioRejected("the acquired preference must be represented")
    before = swf(base)
    if before.preference.is_indifferent:
        # Complete indifference is represented by every belief, so the
        # pushforward precondition can only hold universally: constant acts.
        if not (_is_constant_act(f) and _is_constant_act(g)):
            raise ScenarioRejected("indifferent-society branch needs constant acts")
        notes = "indifferent-society branch (constant acts)"
    else:
        soc_belief = before.preference.belief
        if newpref.belief is not soc_belief:
            for act in (f, g):
                gap = agreement_gap(act, (soc_belief, newpref.belief), base.space)
                if gap > TOL_MEASURE:
                    raise ScenarioRejected(f"pushforward mismatch {gap:.3e}")
        if before.compare(f, g).verdict != "tie":
            raise ScenarioRejected("society is not indifferent between f and g at base")
        notes = ""
    agent_verdict = compare(newpref, f, g).verdict
    after_verdict = swf(base.replace(agent, newpref)).compare(f, g).verdict
    violated = after_verdict != agent_verdict
    witness = None
    if violated:
        witness = {
            "agent": agent,
            "agent_verdict": agent_verdict,
            "society_verdict": after_verdict,
        }
    return AxiomVerdict("restricted-monotonicity", not violated, 1, witness, notes)


def _restricted_view(
    result: SwfResult, q: Coarsening, outcomes: tuple[str, ...]
) -> tuple[Density, Utility] | None:
    """Society's preference seen only through acts that factor through q
    into the outcome subset: the coarsened belief, and the raw utility
    renormalized on the subset by `_normalized_utility`, the rule the
    rules themselves apply.  None when that restriction is indifference."""
    if result.preference.is_indifferent:
        return None
    raw = result.raw_map
    norm = _normalized_utility(outcomes, [raw[o] for o in outcomes])
    if norm is None:
        return None
    return pushforward_coarsening(q, result.preference.belief), norm


def check_independence_redundant_acts(
    swf: Swf,
    p: Profile,
    p2: Profile,
    q: Coarsening,
    outcomes: Sequence[str],
) -> AxiomVerdict:
    """Two profiles that agree on the co-redundant restriction (same
    coarsened beliefs, same utilities on the outcome subset) must yield
    societies that agree on that restriction as well."""
    outs = tuple(outcomes)
    pushed = []
    for prof, tag in ((p, "p"), (p2, "p'")):
        cert = certify_coredundancy(prof, q, outs)
        if isinstance(cert, Refused):
            raise ScenarioRejected(f"{tag}: co-redundancy refused ({cert.reason}: {cert.detail})")
        pushed.append(dict(cert.pushforwards))
    if p.concerned != p2.concerned:
        raise ScenarioRejected("profiles differ in which agents are concerned")
    for i in p.concerned:
        a, b = p.agents[i], p2.agents[i]
        push_gap = belief_distance(pushed[0][i], pushed[1][i])
        if push_gap > TOL_MEASURE:
            raise ScenarioRejected(f"agent {i} coarsened beliefs differ by {push_gap:.3e}")
        u_gap = max(abs(a.utility.value(o) - b.utility.value(o)) for o in outs)
        if u_gap > TOL_EXACT:
            raise ScenarioRejected(f"agent {i} utilities differ on the subset by {u_gap:.3e}")
    r1 = _restricted_view(swf(p), q, outs)
    r2 = _restricted_view(swf(p2), q, outs)
    if (r1 is None) != (r2 is None):
        witness = {"restriction_indifferent": ["p" if r1 is None else "p'"]}
        return AxiomVerdict("independence-redundant-acts", False, 1, witness)
    if r1 is None:
        return AxiomVerdict("independence-redundant-acts", True, 1)
    belief_gap = belief_distance(r1[0], r2[0])
    util_gap = max(abs(x - y) for x, y in zip(r1[1].values_of(outs), r2[1].values_of(outs)))
    violated = belief_gap > TOL_MEASURE or util_gap > TOL_EXACT
    witness = None
    if violated:
        witness = {"belief_gap": belief_gap, "utility_gap": util_gap}
    return AxiomVerdict("independence-redundant-acts", not violated, 1, witness)


def check_restricted_pareto(swf: Swf, profile: Profile, f: Act, g: Act) -> AxiomVerdict:
    """Unanimity is binding only when both acts induce the same outcome
    distribution under every concerned agent's belief."""
    ids = profile.concerned
    if not ids:
        raise ScenarioRejected("no concerned agents")
    beliefs = [profile.agents[i].belief for i in ids]
    for act in (f, g):
        if agreement_gap(act, beliefs, profile.space) > TOL_MEASURE:
            raise ScenarioRejected("act pushforwards differ across agents")
    verdicts = [compare(profile.agents[i], f, g).verdict for i in ids]
    n_first = verdicts.count("first")
    n_second = verdicts.count("second")
    if n_first and n_second:
        raise ScenarioRejected("no unanimous direction")
    society = swf(profile).compare(f, g).verdict
    expected = "first" if n_first else ("second" if n_second else "tie")
    violated = society != expected
    witness = None
    if violated:
        witness = {
            "agent_verdicts": verdicts,
            "society_verdict": society,
            "expected": expected,
        }
    return AxiomVerdict("restricted-pareto", not violated, 1, witness)


# ---------------------------------------------------------------------------
# spurious unanimity


def common_belief_feasible(
    profile: Profile,
    f: Act,
    g: Act,
    favor: str = "f",
    pinned: Sequence[tuple[EventSet, float]] = (),
) -> list[tuple[float, float, float]] | None:
    """Searches for one belief under which every concerned agent weakly
    prefers the favored act.  Returns per-segment masses of such a belief,
    or None when no belief exists.

    The candidate belief only matters through the masses it gives the
    cells on which both acts are constant, so an LP over those cell
    masses decides the full (infinite-dimensional) question.
    """
    if favor not in ("f", "g"):
        raise ValueError("favor must be 'f' or 'g'")
    hi, lo = (f, g) if favor == "f" else (g, f)
    ends = [x for ev, _ in pinned for ab in ev.intervals for x in ab]
    bps = merged_breakpoints((), hi.breakpoints() + lo.breakpoints() + tuple(ends))
    lefts = bps[:-1]
    labels = (_values_along(act.breakpoints(), [s[2] for s in act.segments], lefts) for act in (hi, lo))
    pairs = list(zip(*labels))
    ids = profile.concerned
    # One mass per cell, then one slack per concerned agent: the favored
    # act's advantage minus the slack is zero, so the advantage is >= 0.
    A = [[1.0] * len(lefts) + [0.0] * len(ids)]
    for r, i in enumerate(ids):
        u = profile.agents[i].utility
        slack = [-1.0 if j == r else 0.0 for j in range(len(ids))]
        A.append([u.value(h) - u.value(l) for h, l in pairs] + slack)
    for ev, _ in pinned:
        A.append([1.0 if hit else 0.0 for hit in ev.contains_along(lefts)] + [0.0] * len(ids))
    x = lp.feasible_point(A, [1.0] + [0.0] * len(ids) + [target for _, target in pinned])
    if x is None:
        return None
    return list(zip(lefts, bps[1:], x))


@dataclass(frozen=True)
class SpuriousUnanimityReport:
    favored: str | None
    strict_agents: tuple[int, ...]
    agent_diffs: tuple[tuple[int, float], ...]
    common_belief: tuple[tuple[float, float, float], ...] | None
    spurious: bool

    def as_dict(self) -> dict:
        return {
            "favored": self.favored,
            "strict_agents": list(self.strict_agents),
            "agent_diffs": [[i, d] for i, d in self.agent_diffs],
            "common_belief": None
            if self.common_belief is None
            else [list(row) for row in self.common_belief],
            "spurious": self.spurious,
        }


def detect_spurious_unanimity(profile: Profile, f: Act, g: Act) -> SpuriousUnanimityReport:
    """Unanimity plus the non-existence of any single belief rationalizing
    it marks the agreement as spurious."""
    comps = [(i, compare(profile.agents[i], f, g)) for i in profile.concerned]
    diffs = tuple((i, c.diff) for i, c in comps)
    verdicts = [c.verdict for _, c in comps]
    if "second" not in verdicts:
        favored, strict_verdict = "f", "first"
    elif "first" not in verdicts:
        favored, strict_verdict = "g", "second"
    else:
        return SpuriousUnanimityReport(None, (), diffs, None, False)
    strict = tuple(i for i, c in comps if c.verdict == strict_verdict)
    belief = common_belief_feasible(profile, f, g, favor=favored)
    return SpuriousUnanimityReport(
        favored,
        strict,
        diffs,
        None if belief is None else tuple(belief),
        belief is None,
    )


# ---------------------------------------------------------------------------
# continuity


@dataclass(frozen=True)
class ContinuityReport:
    agent: int
    rows: tuple[tuple[float, float, float], ...]  # (step, input size, output distance)
    flagged: bool
    flag_pair: tuple[float, float] | None

    def as_dict(self) -> dict:
        return {
            "agent": self.agent,
            "rows": [list(r) for r in self.rows],
            "flagged": self.flagged,
            "flag_pair": None if self.flag_pair is None else list(self.flag_pair),
        }


def _median_cut(d: Density) -> float:
    """Bisection for where the CDF reaches one half.  The monotone CDF is
    below it left of the cell [a, b) where it crosses, not from b on, and
    the cell's own line inside."""
    bp = d.breakpoints
    k = bisect_left([d.cdf(x) for x in bp], 0.5) - 1
    a, b, base, slope = bp[k], bp[k + 1], d.cdf(bp[k]), d.values[k]
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid < a or (mid < b and base + slope * (mid - a) < 0.5):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _tilted(d: Density) -> Density:
    """A fixed nearby density: half the mass pushed toward the left of the
    median cut (scale 1.5 left, 0.5 right), rescaled to a belief by
    `discount_to_belief`."""
    cut = _median_cut(d)
    bps = merged_breakpoints([d], extra=[cut])
    vals = []
    for b, v in zip(bps[1:], cell_values(d, bps)):
        scale = 1.5 if b <= cut + 1e-15 else 0.5
        vals.append(v * scale)
    return discount_to_belief(bps, vals)


_PROBE_STEPS = (1e-1, 1e-2, 1e-3, 1e-4)


def continuity_probe(swf: Swf, profile: Profile, agent: int | None = None) -> ContinuityReport:
    """Perturbs one agent's belief and utility by decreasing sup-norm
    amounts and watches whether the output preference distance shrinks
    along with the input; a two-decade ratio failure flags the rule."""
    ids = profile.concerned
    if len(ids) < 2:
        raise ScenarioRejected("continuity probe needs at least two concerned agents")
    target = ids[0] if agent is None else agent
    pref = profile.agents[target]
    if pref.is_indifferent:
        raise ScenarioRejected("perturbation target must be concerned")
    d, u = pref.belief, pref.utility
    rho = _tilted(d)
    bps = merged_breakpoints([d, rho])
    cells = list(zip(cell_values(d, bps), cell_values(rho, bps)))
    sup_b = max(abs(x - y) for x, y in cells)
    v = {lab: u.value(lab) ** 2 for lab in u.labels}
    sup_u = max(abs(v[lab] - u.value(lab)) for lab in u.labels)
    scale = max(sup_b, sup_u)
    base = swf(profile).preference
    rows = []
    for step in _PROBE_STEPS:
        t = 0.0 if scale <= 0.0 else min(1.0, step / scale)
        mixed_vals = tuple([(1.0 - t) * x + t * y for x, y in cells])
        mixed_belief = Density._derived(bps, mixed_vals)
        # u is valid, so its mix with u^2 stays within about 2 * TOL_EXACT
        # of [0, 1]: a check could only refuse a utility given as valid
        mixed_utility = _exact_utility(
            {lab: (1.0 - t) * u.value(lab) + t * v[lab] for lab in u.labels}
        )
        moved = swf(profile.replace(target, Preference(mixed_belief, mixed_utility)))
        rows.append((float(step), t * scale, preference_distance(base, moved.preference)))
    flagged = False
    flag_pair = None
    for i in range(len(rows) - 2):
        big, small = rows[i], rows[i + 2]
        if small[2] > max(big[2] / 10.0, 100.0 * TOL_MEASURE):
            flagged = True
            flag_pair = (big[0], small[0])
            break
    return ContinuityReport(target, tuple(rows), flagged, flag_pair)
