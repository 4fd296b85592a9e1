"""Randomized scenario batteries for the axiom checkers.

Scenario construction does the heavy lifting here: most axioms only bind
under preconditions (pushforward agreement, society ties, co-redundancy
certificates), so profiles and acts are built to satisfy those exactly
and the checkers re-verify them.  Every battery is driven by one integer
seed; each trial derives its own child seed, so any violation witness
can be replayed bit-for-bit.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import lru_cache
from math import fsum
from operator import mul
from typing import Callable, Iterable, Mapping, Sequence

from .axioms import (
    AxiomVerdict,
    ScenarioRejected,
    Swf,
    check_anonymity,
    check_faithfulness,
    check_independence_redundant_acts,
    check_no_belief_imposition,
    check_restricted_monotonicity,
    check_restricted_pareto,
    continuity_probe,
)
from .measure import Coarsening, Density, Infeasible, TOL_MEASURE, cell_values
from .prefs import (
    Act,
    INDIFFERENT,
    Lottery,
    OutcomeSpace,
    Preference,
    Profile,
    Utility,
    _cut_at_mass,
    _exact_utility,
    compare,
    discount_to_belief,
    pushforward,
    realize_lottery_act,
)
from .swf import RULE_NAMES, SwfResult, rule_by_name

GRID = 16

MATRIX_AXIOMS = (
    "faithfulness",
    "anonymity",
    "no-belief-imposition",
    "restricted-monotonicity",
    "independence-redundant-acts",
    "continuity",
)

# each alternative rule is built to trade away specific axioms; the
# matrix run is expected to find witnesses for exactly these
EXPECTED_VIOLATIONS: dict[str, frozenset[str]] = {
    "baru": frozenset(),
    "swf1": frozenset({"restricted-monotonicity"}),
    "swf2": frozenset({"independence-redundant-acts"}),
    "swf3": frozenset({"faithfulness"}),
    "swf4": frozenset({"no-belief-imposition", "anonymity"}),
    "swf5": frozenset({"continuity"}),
    "swf6": frozenset({"anonymity"}),
}


def child_seed(seed: int, tag: str, index: int) -> int:
    digest = hashlib.sha256(f"{seed}:{tag}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# draws from the generator
#
# Every draw reads a `random.Random` only through `getrandbits`, the
# Mersenne Twister's raw bits, and `random()`, whose sequence CPython
# guarantees across versions.  Each helper below computes what CPython
# 3.10-3.13's `random.Random` method of the same name computes, so it
# returns the same values and leaves the generator in the same state; a
# seed's draws no longer depend on how a later CPython spells `randrange`
# or `sample`.  A uniform draw on [a, b] is written out as
# `a + (b - a) * rng.random()`, which is `Random.uniform(a, b)`.


def _below(rng: random.Random, n: int) -> int:
    """`Random._randbelow(n)`: n.bit_length() random bits, drawn again
    while they read n or more.  n must be at least 1."""
    if n < 1:
        raise ValueError(f"need a positive bound, not {n}")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _randint(rng: random.Random, a: int, b: int) -> int:
    """`Random.randint(a, b)`, which is `Random.randrange(a, b + 1)`."""
    return a + _below(rng, b - a + 1)


def _choice(rng: random.Random, seq: Sequence):
    """`Random.choice(seq)`."""
    return seq[_below(rng, len(seq))]


def _sample(rng: random.Random, population: Sequence, k: int) -> list:
    """`Random.sample(population, k)` by its pool method, the one CPython
    takes for at most 21 items: each pick is a random index among the
    items not yet picked, and the last of those moves into its place.  A
    larger population raises ValueError, since CPython samples it
    another way."""
    n = len(population)
    if n > 21:
        raise ValueError(f"the pool method covers at most 21 items, not {n}")
    if not 0 <= k <= n:
        raise ValueError(f"cannot sample {k} of {n} items")
    pool = list(population)
    picked = []
    for i in range(n, n - k, -1):
        j = _below(rng, i)
        picked.append(pool[j])
        pool[j] = pool[i - 1]
    return picked


# ---------------------------------------------------------------------------
# random building blocks


def random_space(rng: random.Random, lo: int = 4, hi: int = 6) -> OutcomeSpace:
    return _space(_randint(rng, lo, hi))


@lru_cache(maxsize=None)
def _space(n: int) -> OutcomeSpace:
    """The outcomes o1 .. on, built once per n and shared: an
    `OutcomeSpace` is immutable."""
    return OutcomeSpace(tuple(f"o{k + 1}" for k in range(n)))


# Each random object below has one builder, which every draw goes through.
# A drawn object is built from parts that are valid by construction, so the
# builders skip the checks (`Density._derived`, `Profile._derived`,
# `_exact_utility`).


def _lattice_breakpoints(rng: random.Random, k: int) -> tuple[float, ...]:
    """0, k - 1 distinct random cuts on the 1/GRID lattice, and 1: the
    breakpoints of k cells."""
    cuts = sorted(_sample(rng, range(1, GRID), k - 1))
    return (0.0, *(c / GRID for c in cuts), 1.0)


def _utility_values(rng: random.Random, labels: Sequence[str]) -> dict[str, float]:
    """0 at one random label, 1 at another, and uniform on [0.05, 0.95] at
    the rest, in label order."""
    lo, hi = _sample(rng, labels, 2)
    return {
        lab: 0.0 if lab == lo else 1.0 if lab == hi else 0.05 + (0.95 - 0.05) * rng.random()
        for lab in labels
    }


def _convex_weights(rng: random.Random, k: int) -> list[float]:
    """k weights, each uniform on [0.05, 1] before they are scaled to sum to 1."""
    ws = [0.05 + (1.0 - 0.05) * rng.random() for _ in range(k)]
    tot = fsum(ws)
    return [w / tot for w in ws]


def _placed_profile(
    space: OutcomeSpace, n: int, slots: Sequence[int], prefs: Iterable[Preference]
) -> Profile:
    """n agents, the k-th preference in the k-th slot and complete
    indifference elsewhere; n is at least three and each preference is
    drawn over the space's outcomes."""
    agents = [INDIFFERENT] * n
    for i, p in zip(slots, prefs):
        agents[i] = p
    return Profile._derived(space, agents)


def random_density(rng: random.Random) -> Density:
    """Piecewise-constant density with breakpoints on the 1/GRID lattice."""
    bps = _lattice_breakpoints(rng, _randint(rng, 2, 4))
    raw = [0.15 + (2.0 - 0.15) * rng.random() for _ in bps[1:]]
    total = fsum(v * (bps[j + 1] - bps[j]) for j, v in enumerate(raw))
    return Density._derived(bps, tuple(v / total for v in raw))


def random_utility(rng: random.Random, space: OutcomeSpace) -> Utility:
    """Utility 0 at one random outcome, 1 at another, and uniform on
    [0.05, 0.95] at the rest: an `_exact_utility`."""
    return _exact_utility(_utility_values(rng, space.labels))


def _random_preference(rng: random.Random, space: OutcomeSpace) -> Preference:
    return Preference(random_density(rng), random_utility(rng, space))


def random_act(rng: random.Random, space: OutcomeSpace) -> Act:
    bps = _lattice_breakpoints(rng, _randint(rng, 2, 5))
    return Act.from_segments(
        tuple((a, b, _choice(rng, space.labels)) for a, b in zip(bps, bps[1:]))
    )


def reversal(u: Utility) -> Utility:
    """1 - u.  It swaps u's exact 0 and 1 and keeps every other value in
    [0, 1], so the reversal of a drawn utility is an `_exact_utility`."""
    return _exact_utility({lab: 1.0 - v for lab, v in u.items})


def _is_common_utility(profile: Profile) -> bool:
    """All concerned agents share one utility up to reversal, within
    TOL_MEASURE.  Each agent's values are read once, and the comparison
    with the first agent ends at the first outcome that rules out both."""
    ids = profile.concerned
    if len(ids) < 2:
        return False
    labs = profile.space.labels
    base = profile.agents[ids[0]].utility.values_of(labs)
    for i in ids[1:]:
        same = rev = True
        for x, b in zip(profile.agents[i].utility.values_of(labs), base):
            same = same and abs(x - b) <= TOL_MEASURE
            rev = rev and abs(x - (1.0 - b)) <= TOL_MEASURE
            if not (same or rev):
                return False
    return True


def random_profile(
    rng: random.Random,
    space: OutcomeSpace | None = None,
    n_agents: int | None = None,
    n_concerned: int | None = None,
) -> Profile:
    space = space if space is not None else random_space(rng)
    n = n_agents if n_agents is not None else _randint(rng, 3, 4)
    if n < 3:
        raise ValueError("a profile needs at least three agents")
    k = n_concerned if n_concerned is not None else (2 if rng.random() < 0.7 else 3)
    slots = sorted(_sample(rng, range(n), min(k, n)))
    for _ in range(30):
        prof = _placed_profile(space, n, slots, [_random_preference(rng, space) for _ in slots])
        if not _is_common_utility(prof):
            return prof
    raise ScenarioRejected("could not draw a non-common-utility profile")


# ---------------------------------------------------------------------------
# serialization (witness replay / profile files)


def preference_as_dict(p: Preference) -> dict:
    if p.is_indifferent:
        return {"belief": None, "utility": None}
    return {"belief": p.belief.as_dict(), "utility": dict(p.utility.as_mapping())}


class DecodeError(ValueError):
    """A profile or preference dict that does not decode.  `error` says
    what failed, `detail` gives the underlying message if there is one, and
    `where` locates the failure, as {"agent": 1} for an agent entry."""

    def __init__(self, error: str, detail: str = "", **where):
        super().__init__(f"{error}: {detail}" if detail else error)
        self.error, self.detail, self.where = error, detail, where


def _mapping(data: object) -> Mapping:
    if not isinstance(data, Mapping):
        raise TypeError(f"expected an object, got {type(data).__name__}")
    return data


def _grid(data: Mapping) -> tuple[float, ...] | None:
    grid = data.get("grid")
    return None if grid is None else tuple(map(float, grid))


def _preference(data: object, grid: tuple[float, ...] | None) -> Preference:
    data = _mapping(data)
    belief, utility = data.get("belief"), data.get("utility")
    if belief is not None and "breakpoints" not in _mapping(belief):
        if grid is None:
            raise DecodeError("belief without breakpoints needs a top-level grid")
        belief = {"breakpoints": grid, "values": belief["values"]}
    return Preference(
        None if belief is None else Density.from_dict(belief),
        None if utility is None else Utility(_mapping(utility)),
    )


def preference_from_dict(data: Mapping) -> Preference:
    """Inverse of `preference_as_dict`, and the decoder of the CLI's
    preference files and `params` preferences.  A belief given without
    breakpoints takes the dict's top-level `grid`; every number passes
    through float().  Both fields null is complete indifference; one null
    field raises ValueError, as `Preference` does.  Malformed input raises
    KeyError, TypeError or ValueError."""
    return _preference(data, _grid(_mapping(data)))


def profile_as_dict(profile: Profile) -> dict:
    return {
        "outcomes": list(profile.space.labels),
        "agents": [preference_as_dict(p) for p in profile.agents],
    }


def profile_from_dict(data: Mapping) -> Profile:
    """Inverse of `profile_as_dict`, and the decoder of the CLI's profile
    files: witnesses and files share it.  Agent entries decode as in
    `preference_from_dict`, with the profile's top-level `grid`.  A bad
    outcome list or agent entry raises `DecodeError` saying which; other
    malformed input raises KeyError, TypeError or ValueError."""
    try:
        space = OutcomeSpace(tuple(str(x) for x in data["outcomes"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise DecodeError("invalid outcome space", str(exc)) from exc
    grid = _grid(data)
    prefs = []
    for k, entry in enumerate(data["agents"]):
        try:
            prefs.append(_preference(entry, grid))
        except DecodeError as exc:
            raise DecodeError(exc.error, exc.detail, agent=k) from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise DecodeError("invalid preference", str(exc), agent=k) from exc
    return Profile(space, tuple(prefs))


# ---------------------------------------------------------------------------
# scenario generators


def _fiber_tilt(rng: random.Random, d: Density, cell_bps: Sequence[float]) -> Density:
    """Move mass around inside each cell of the given grid, leaving every
    cell's total mass unchanged, so pushforwards through the grid agree."""
    new_bps: list[float] = [0.0]
    new_vals: list[float] = []
    cells = sorted(set([0.0, 1.0] + [float(x) for x in cell_bps if 0.0 < x < 1.0]))
    for a, b in zip(cells[:-1], cells[1:]):
        inner = [x for x in d.breakpoints if a < x < b]
        pts = [a, *inner, b]
        if len(pts) == 2:
            m = 0.5 * (a + b)
            if a < m < b:
                pts = [a, m, b]
        vals = cell_values(d, pts)
        widths = [y - x for x, y in zip(pts[:-1], pts[1:])]
        if len(pts) == 2:
            # sliver cell with no splittable interior: pass it through
            new_bps.append(b)
            new_vals.append(vals[0])
            continue
        j = _randint(rng, 1, len(pts) - 2)
        mass_left = fsum(v * w for v, w in zip(vals[:j], widths[:j]))
        mass_right = fsum(v * w for v, w in zip(vals[j:], widths[j:]))
        if mass_left <= 1e-6 or mass_right <= 1e-6:
            fl = fr = 1.0
        else:
            hi = min(0.3, 0.9 * mass_right / mass_left)
            e = -0.3 + (hi - -0.3) * rng.random()
            fl = 1.0 + e
            fr = 1.0 - e * mass_left / mass_right
        for kk, v in enumerate(vals):
            new_bps.append(pts[kk + 1])
            new_vals.append(v * (fl if kk < j else fr))
    return Density._derived(tuple(new_bps), tuple(new_vals))


def rm_scenario(
    rng: random.Random, swf: Swf, variant: str
) -> tuple[Profile, int, Preference, Act, Act]:
    """A restricted-monotonicity scenario: a base profile with an
    indifferent agent, the agent's new preference and acts f and g that
    society ranks as a tie at the base.

    "indifferent": two agents with reversed utilities leave society
    indifferent under equal-weight rules, and f and g are constant acts.
    Otherwise f is built to tie with a random g under society's belief (a
    tie that rounding breaks is the checker's to refuse), and the new
    agent holds that belief ("aligned", the same object) or one tilted
    inside the cells of f and g ("tilted"); up to 40 random utilities are
    tried for one that strictly ranks f against g.  For a utility in
    [0, 1] the difference of expected utilities is at most the L1 distance
    between the lotteries f and g induce under that belief, plus rounding,
    so when that distance is at most 5e-7 no try can reach 1e-6: the draw
    is rejected after its first failed try, with the message it would give
    after 40."""
    space = random_space(rng)
    n = _randint(rng, 3, 4)
    if variant == "indifferent":
        # two agents whose utilities sum to a constant leave society
        # completely indifferent under equal-weight rules
        u = random_utility(rng, space)
        pair = (Preference(random_density(rng), u), Preference(random_density(rng), reversal(u)))
        base = _placed_profile(space, n, (1, 2), pair)
        newpref = _random_preference(rng, space)
        labs = newpref.utility.labels
        lo = min(labs, key=newpref.utility.value)
        hi = max(labs, key=newpref.utility.value)
        return base, 0, newpref, Act.constant(hi), Act.constant(lo)

    base = random_profile(rng, space, n_agents=n, n_concerned=2)
    agent = next(i for i in range(n) if base.agents[i].is_indifferent)
    before = swf(base)
    if before.preference.is_indifferent:
        raise ScenarioRejected("society indifferent at base")
    raw = before.raw_map
    lo_lab = min(raw, key=raw.get)
    hi_lab = max(raw, key=raw.get)
    if raw[hi_lab] - raw[lo_lab] < 0.05:
        raise ScenarioRejected("society utility nearly flat")
    g = random_act(rng, space)
    evg = before.ev(g)
    tstar = min(max((evg - raw[lo_lab]) / (raw[hi_lab] - raw[lo_lab]), 0.0), 1.0)
    c = min(max(_cut_at_mass(before.belief, 0.0, 1.0, tstar), 0.0), 1.0)
    segs = []
    if c > 0.0:
        segs.append((0.0, c, hi_lab))
    if c < 1.0:
        segs.append((c, 1.0, lo_lab))
    f = Act.from_segments(tuple(segs))
    if variant == "tilted":
        grid = sorted(set(f.breakpoints()) | set(g.breakpoints()))
        belief = _fiber_tilt(rng, before.belief, grid)
    else:
        belief = before.belief
    for k in range(40):
        npref = Preference(belief, random_utility(rng, space))
        if abs(compare(npref, f, g).diff) >= 1e-6:
            return base, agent, npref, f, g
        if k == 0:
            # tested only after a failed try: most draws succeed at once
            pf, pg = (pushforward(a, belief, space).values_of(space.labels) for a in (f, g))
            if fsum(abs(x - y) for x, y in zip(pf, pg)) <= 5e-7:
                break
    raise ScenarioRejected("no strictly opinionated new agent found")


def _merge_pairs_coarsening() -> Coarsening:
    """Halves of each 1/8 cell fold onto the cell: the target algebra is
    the 1/8 grid and each fiber is a sibling pair of 1/16 cells."""
    pieces = []
    for j in range(8):
        ta, tb = j / 8, (j + 1) / 8
        pieces.append((2 * j / GRID, (2 * j + 1) / GRID, ta, tb, +1))
        pieces.append(((2 * j + 1) / GRID, (2 * j + 2) / GRID, ta, tb, +1))
    return Coarsening(tuple(pieces))


def _pairflat_density(rng: random.Random) -> Density:
    """Density constant on each sibling pair of 1/16 cells, with its eight
    values on the 1/8 grid."""
    raw = [0.15 + (2.0 - 0.15) * rng.random() for _ in range(8)]
    return discount_to_belief([j / 8 for j in range(9)], raw)


def ira_scenario(
    rng: random.Random, variant: str
) -> tuple[Profile, Profile, Coarsening, tuple[str, ...]]:
    space = random_space(rng, 5, 6)
    m = _randint(rng, 3, 4)
    outcomes = tuple(sorted(_sample(rng, space.labels, m), key=space.index))
    off = tuple(lab for lab in space.labels if lab not in outcomes)
    n = _randint(rng, 3, 4)
    slots = sorted(_sample(rng, range(n), 2))

    def fill_off(per_agent: list[dict[str, float]]) -> list[dict[str, float]]:
        # off-subset utility vectors sit strictly inside the hull of the
        # subset's vectors, one shared convex weighting per outcome
        filled = [dict(v) for v in per_agent]
        for lab in off:
            lam = _convex_weights(rng, m)
            for vals in filled:
                vals[lab] = fsum(l * vals[o] for l, o in zip(lam, outcomes))
        return filled

    on_vals = [_utility_values(rng, outcomes) for _ in slots]
    if max(abs(on_vals[0][o] - on_vals[1][o]) for o in outcomes) < 0.05:
        raise ScenarioRejected("agents nearly share a utility on the subset")
    u1 = fill_off(on_vals)
    u2 = fill_off(on_vals)

    if variant == "merge":
        q = _merge_pairs_coarsening()
        beliefs1 = [_pairflat_density(rng) for _ in slots]
        tilts = [-0.4 + (0.4 - -0.4) * rng.random() for _ in range(8)]
        bps = tuple(j / GRID for j in range(GRID + 1))
        beliefs2 = []
        for d in beliefs1:
            vv = []
            for j, v in enumerate(d.values):
                vv.extend((v * (1.0 + tilts[j]), v * (1.0 - tilts[j])))
            beliefs2.append(Density._derived(bps, tuple(vv)))
    else:
        q = Coarsening.identity()
        beliefs1 = [random_density(rng) for _ in slots]
        beliefs2 = list(beliefs1)

    # an off-subset value is a convex combination of values in [0, 1], so
    # each utility's drawn 0 and 1 stay its least and largest values, up
    # to rounding
    p1 = _placed_profile(space, n, slots, map(Preference, beliefs1, map(_exact_utility, u1)))
    p2 = _placed_profile(space, n, slots, map(Preference, beliefs2, map(_exact_utility, u2)))
    return p1, p2, q, outcomes


def pareto_scenario(
    rng: random.Random, constant: bool
) -> tuple[Profile, Act, Act]:
    """A restricted-Pareto scenario: a random profile and acts f, g that
    every concerned agent ranks alike by at least 1e-3.

    `constant`: up to 60 random pairs of outcomes are tried as constant
    acts.  Otherwise up to 60 random lotteries are tried for one whose
    expected utility, for every agent, is at least 0.05 below the least
    utility any agent gives `star`, the outcome where that least utility is
    largest; f mixes `star` into the lottery, and both lotteries are
    realized as acts with the same pushforward under every belief."""
    prof = random_profile(rng)
    ids = prof.concerned
    utils = [prof.agents[i].utility for i in ids]
    if constant:
        for _ in range(60):
            x, y = _sample(rng, prof.space.labels, 2)
            diffs = [u.value(x) - u.value(y) for u in utils]
            if all(d >= 1e-3 for d in diffs) or all(d <= -1e-3 for d in diffs):
                return prof, Act.constant(x), Act.constant(y)
        raise ScenarioRejected("no unanimous pair of constant acts")
    beliefs = [prof.agents[i].belief for i in ids]
    labs = prof.space.labels
    # each agent's utilities in label order, read once for every try below
    rows = [u.values_of(labs) for u in utils]
    lows = [min(col) for col in zip(*rows)]
    floor = max(lows)
    star = labs[lows.index(floor)]
    for _ in range(60):
        ps = _convex_weights(rng, len(labs))
        evs = [fsum(map(mul, row, ps)) for row in rows]
        if floor < max(evs) + 0.05:
            continue
        probs = dict(zip(labs, ps))
        t = 0.25 + (0.75 - 0.25) * rng.random()
        lot_g = Lottery(probs, prof.space)
        lot_f = Lottery(
            {lab: (1.0 - t) * p + (t if lab == star else 0.0) for lab, p in probs.items()},
            prof.space,
        )
        try:
            f = realize_lottery_act(beliefs, lot_f, prof.space)
            g = realize_lottery_act(beliefs, lot_g, prof.space)
        except Infeasible as exc:
            raise ScenarioRejected(f"lottery realization infeasible: {exc}")
        return prof, f, g
    raise ScenarioRejected("no unanimously improving lottery found")


def continuity_scenario(rng: random.Random, twin: bool) -> tuple[Profile, int]:
    if not twin:
        prof = random_profile(rng)
        return prof, _choice(rng, prof.concerned)
    space = random_space(rng)
    n = _randint(rng, 3, 4)
    slots = sorted(_sample(rng, range(n), 3))
    shared = _random_preference(rng, space)
    placed = (shared, Preference(shared.belief, shared.utility), _random_preference(rng, space))
    prof = _placed_profile(space, n, slots, placed)
    if _is_common_utility(prof):
        raise ScenarioRejected("twin profile degenerated to a common utility")
    return prof, slots[1]


# ---------------------------------------------------------------------------
# scenario codec (witness replay)

# scenario keys holding package objects, with their JSON encoder and
# decoder; every other key holds a plain JSON value
_SCENARIO_CODECS: dict[str, tuple[Callable, Callable]] = {
    "profile": (profile_as_dict, profile_from_dict),
    "profile2": (profile_as_dict, profile_from_dict),
    "base": (profile_as_dict, profile_from_dict),
    "newpref": (preference_as_dict, preference_from_dict),
    "f": (Act.as_dict, Act.from_dict),
    "g": (Act.as_dict, Act.from_dict),
    "coarsening": (Coarsening.as_dict, Coarsening.from_dict),
    "outcomes": (list, tuple),
}


def scenario_as_dict(scenario: Mapping) -> dict:
    return {
        key: _SCENARIO_CODECS[key][0](v) if key in _SCENARIO_CODECS else v
        for key, v in scenario.items()
    }


def scenario_from_dict(data: Mapping) -> dict:
    return {
        key: _SCENARIO_CODECS[key][1](v) if key in _SCENARIO_CODECS else v
        for key, v in data.items()
    }


def violation_witness(
    axiom: str, trial: int | None, seed: int | None, scenario: Mapping, detail: dict | None
) -> dict:
    """The JSON witness of a violated scenario; `rerun_witness` replays it."""
    return {
        "axiom": axiom,
        "trial": trial,
        "seed": seed,
        "scenario": scenario_as_dict(scenario),
        "detail": detail,
    }


# ---------------------------------------------------------------------------
# axiom specs


@dataclass(frozen=True)
class AxiomSpec:
    """One axiom's battery: `draw(rng, t, swf)` builds trial t's scenario
    (package objects keyed as in `_SCENARIO_CODECS`) and `check(swf,
    scenario)` judges the rule on it.  `zero(profile)` lists the scenarios
    that a supplied profile alone makes, the CLI's scenario zero; it is
    None where the check needs more than a profile.  Batteries, witness
    replay and scenario zero all go through the same `check`."""

    draw: Callable[[random.Random, int, Swf], dict]
    check: Callable[[Swf, Mapping], AxiomVerdict]
    zero: Callable[[Profile], list[dict]] | None = None


# The specs name the checkers inside their bodies, so each call looks the
# checker up as a module global; a tracer that swaps those attributes sees
# every call.


def _draw_faithfulness(rng: random.Random, t: int, swf: Swf) -> dict:
    space = random_space(rng)
    return {"outcomes": space.labels, "n_agents": _randint(rng, 3, 5)}


def _draw_profile_agent(rng: random.Random, t: int, swf: Swf) -> dict:
    prof = random_profile(rng)
    return {"profile": prof, "agent": _choice(rng, prof.concerned)}


def _draw_rm(rng: random.Random, t: int, swf: Swf) -> dict:
    if t % 13 == 0:
        variant = "indifferent"
    elif t % 3 == 0:
        variant = "tilted"
    else:
        variant = "aligned"
    base, agent, newpref, f, g = rm_scenario(rng, swf, variant)
    return {"base": base, "agent": agent, "newpref": newpref, "f": f, "g": g, "variant": variant}


def _draw_ira(rng: random.Random, t: int, swf: Swf) -> dict:
    variant = "merge" if t % 4 == 0 else "identity"
    p, p2, q, outcomes = ira_scenario(rng, variant)
    return {"profile": p, "profile2": p2, "coarsening": q, "outcomes": outcomes, "variant": variant}


def _draw_pareto(rng: random.Random, t: int, swf: Swf) -> dict:
    prof, f, g = pareto_scenario(rng, constant=bool(t % 2))
    return {"profile": prof, "f": f, "g": g}


def _draw_continuity(rng: random.Random, t: int, swf: Swf) -> dict:
    prof, agent = continuity_scenario(rng, twin=(t % 4 == 0))
    return {"profile": prof, "agent": agent}


def _zero_per_agent(profile: Profile) -> list[dict]:
    return [{"profile": profile, "agent": agent} for agent in profile.concerned]


def _check_continuity(swf: Swf, sc: Mapping) -> AxiomVerdict:
    rep = continuity_probe(swf, sc["profile"], sc["agent"])
    return AxiomVerdict("continuity", not rep.flagged, 1, rep.as_dict() if rep.flagged else None)


AXIOM_SPECS: dict[str, AxiomSpec] = {
    "faithfulness": AxiomSpec(
        _draw_faithfulness,
        lambda swf, sc: check_faithfulness(swf, OutcomeSpace(sc["outcomes"]), sc["n_agents"]),
    ),
    "anonymity": AxiomSpec(
        lambda rng, t, swf: {"profile": random_profile(rng)},
        lambda swf, sc: check_anonymity(swf, sc["profile"]),
        lambda profile: [{"profile": profile}],
    ),
    "no-belief-imposition": AxiomSpec(
        _draw_profile_agent,
        lambda swf, sc: check_no_belief_imposition(swf, sc["profile"], sc["agent"]),
        _zero_per_agent,
    ),
    "restricted-monotonicity": AxiomSpec(
        _draw_rm,
        lambda swf, sc: check_restricted_monotonicity(
            swf, sc["base"], sc["agent"], sc["newpref"], sc["f"], sc["g"]
        ),
    ),
    "independence-redundant-acts": AxiomSpec(
        _draw_ira,
        lambda swf, sc: check_independence_redundant_acts(
            swf, sc["profile"], sc["profile2"], sc["coarsening"], sc["outcomes"]
        ),
    ),
    "restricted-pareto": AxiomSpec(
        _draw_pareto,
        lambda swf, sc: check_restricted_pareto(swf, sc["profile"], sc["f"], sc["g"]),
    ),
    "continuity": AxiomSpec(_draw_continuity, _check_continuity, _zero_per_agent),
}


def _spec(axiom: str) -> AxiomSpec:
    if axiom not in AXIOM_SPECS:
        raise ValueError(f"unknown axiom {axiom!r}")
    return AXIOM_SPECS[axiom]


# ---------------------------------------------------------------------------
# batteries


# The benchmark (perfbench/) times and traces batteries through this
# function, so it stays a module global that `run_axiom_battery` calls by
# name, `run_one(rng, t)` returns `(verdict, scenario)` with a
# deterministic `repr`, `notes` reads "N scenarios rejected", and the
# ScenarioRejected messages keep their wording.  A rule must be a
# deterministic function of its profile: `run_one` evaluates it once per
# profile object, with a store that each call of `run_one` starts empty,
# so a replayed trial does the trial's whole work again.
def _run_battery(
    axiom: str,
    trials: int,
    seed: int,
    run_one: Callable[[random.Random, int], tuple[AxiomVerdict, dict]],
) -> AxiomVerdict:
    rejected, run, witness = 0, trials, None
    for t in range(trials):
        cseed = child_seed(seed, axiom, t)
        rng = random.Random(cseed)
        try:
            verdict, scenario = run_one(rng, t)
        except ScenarioRejected:
            rejected += 1
            continue
        if not verdict.satisfied:
            run, witness = t + 1, violation_witness(axiom, t, cseed, scenario, verdict.witness)
            break
    notes = f"{rejected} scenarios rejected" if rejected else ""
    return AxiomVerdict(axiom, witness is None, run, witness, notes)


def _once_per_profile(swf: Swf) -> Swf:
    """`swf` evaluated once per `Profile` object: a second call with the
    same object returns the first call's result.  The store holds each
    profile, so no other object can take its id while the store lives."""
    store: dict[int, tuple[Profile, SwfResult]] = {}

    def rule(profile: Profile) -> SwfResult:
        hit = store.get(id(profile))
        if hit is None:
            hit = store[id(profile)] = (profile, swf(profile))
        return hit[1]

    return rule


def run_axiom_battery(swf: Swf, axiom: str, trials: int, seed: int) -> AxiomVerdict:
    """Run `trials` trials of the axiom's battery against the rule, trial t
    on its own `random.Random(child_seed(seed, axiom, t))`; the verdict of
    the first violated trial, with its witness, or "satisfied-on-sample".
    `trials` must be at least 1.

    The rule must be a deterministic function of its profile: within a
    trial it is evaluated once per profile object, and the draw and the
    check share the result (restricted monotonicity's base profile, say).
    Nothing is kept from one trial to the next."""
    if trials < 1:
        raise ValueError(f"need at least one trial, not {trials}")
    spec = _spec(axiom)

    def run_one(rng: random.Random, t: int) -> tuple[AxiomVerdict, dict]:
        rule = _once_per_profile(swf)
        scenario = spec.draw(rng, t, rule)
        return spec.check(rule, scenario), scenario

    return _run_battery(axiom, trials, seed, run_one)


def matrix_counts(trials: int) -> dict[str, int]:
    """Split a per-rule trial budget over the six checked axioms."""
    if trials < len(MATRIX_AXIOMS):
        raise ValueError("need at least one trial per axiom")
    # Anonymity takes what is left, about 0.26 of the rest.
    shares = {
        "no-belief-imposition": 0.26,
        "restricted-monotonicity": 0.26,
        "independence-redundant-acts": 0.13,
        "continuity": 0.09,
    }
    counts = {"faithfulness": 1, "anonymity": 1}
    rest = trials - 1
    for axiom, share in shares.items():
        counts[axiom] = max(1, round(share * rest))
    # On the smallest budgets the shares round up past the budget; the
    # largest of them gives back until anonymity keeps its one trial.
    while sum(counts.values()) > trials:
        counts[max(shares, key=counts.get)] -= 1
    counts["anonymity"] += trials - sum(counts.values())
    return counts


def run_matrix(
    rules: Sequence[str] | None = None, trials: int = 10001, seed: int = 20240801
) -> dict:
    """Run every axiom battery against every rule.

    Returns a JSON-ready report: per rule, per axiom, the merged verdict
    with the first witness (replayable via `rerun_witness`)."""
    names = tuple(rules) if rules is not None else RULE_NAMES
    counts = matrix_counts(trials)
    report: dict = {"seed": seed, "trials": trials, "rules": {}}
    for name in names:
        swf = rule_by_name(name)
        per: dict[str, dict] = {}
        for axiom in MATRIX_AXIOMS:
            bseed = child_seed(seed, f"{name}:{axiom}", 0)
            per[axiom] = run_axiom_battery(swf, axiom, counts[axiom], bseed).as_dict()
        report["rules"][name] = per
    return report


def matrix_violations(report: dict) -> dict[str, frozenset[str]]:
    return {
        name: frozenset(
            axiom for axiom, v in axioms.items() if v["verdict"] == "violated"
        )
        for name, axioms in report["rules"].items()
    }


def rerun_witness(swf: Swf, witness: Mapping) -> AxiomVerdict:
    """Replay a witness through its axiom's check; deterministic given the
    recorded scenario."""
    return _spec(witness["axiom"]).check(swf, scenario_from_dict(witness["scenario"]))
