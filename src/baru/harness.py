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
from math import fsum
from typing import Callable, Mapping, Sequence

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
from .measure import Coarsening, Density, Infeasible, TOL_EXACT
from .prefs import (
    Act,
    INDIFFERENT,
    Lottery,
    OutcomeSpace,
    Preference,
    Profile,
    Utility,
    _cut_at_mass,
    compare,
    realize_lottery_act,
)
from .swf import RULE_NAMES, rule_by_name

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
# random building blocks


def random_space(rng: random.Random, lo: int = 4, hi: int = 6) -> OutcomeSpace:
    n = rng.randint(lo, hi)
    return OutcomeSpace(tuple(f"o{k + 1}" for k in range(n)))


def random_density(rng: random.Random, pieces: int | None = None) -> Density:
    """Piecewise-constant density with breakpoints on the 1/GRID lattice."""
    k = pieces if pieces is not None else rng.randint(2, 4)
    cuts = sorted(rng.sample(range(1, GRID), k - 1))
    bps = (0.0, *(c / GRID for c in cuts), 1.0)
    raw = [rng.uniform(0.15, 2.0) for _ in range(k)]
    total = fsum(v * (bps[j + 1] - bps[j]) for j, v in enumerate(raw))
    return Density(bps, tuple(v / total for v in raw))


def random_utility(rng: random.Random, space: OutcomeSpace) -> Utility:
    lo, hi = rng.sample(space.labels, 2)
    vals = {}
    for lab in space.labels:
        if lab == lo:
            vals[lab] = 0.0
        elif lab == hi:
            vals[lab] = 1.0
        else:
            vals[lab] = rng.uniform(0.05, 0.95)
    return Utility(vals)


def random_act(rng: random.Random, space: OutcomeSpace, max_pieces: int = 5) -> Act:
    k = rng.randint(2, max_pieces)
    cuts = sorted(rng.sample(range(1, GRID), k - 1))
    bps = (0.0, *(c / GRID for c in cuts), 1.0)
    return Act.from_segments(
        tuple((bps[j], bps[j + 1], rng.choice(space.labels)) for j in range(k)),
        merge=True,
    )


def reversal(u: Utility) -> Utility:
    return Utility({lab: 1.0 - u.value(lab) for lab in u.labels})


def _is_common_utility(profile: Profile, tol: float = 1e-9) -> bool:
    """All concerned agents share one utility up to reversal."""
    ids = profile.concerned
    if len(ids) < 2:
        return False
    labs = profile.space.labels
    base = profile.agents[ids[0]].utility
    for i in ids[1:]:
        u = profile.agents[i].utility
        same = all(abs(u.value(l) - base.value(l)) <= tol for l in labs)
        rev = all(abs(u.value(l) - (1.0 - base.value(l))) <= tol for l in labs)
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
    n = n_agents if n_agents is not None else rng.randint(3, 4)
    k = n_concerned if n_concerned is not None else (2 if rng.random() < 0.7 else 3)
    slots = sorted(rng.sample(range(n), min(k, n)))
    for _ in range(30):
        prefs: list[Preference] = [INDIFFERENT] * n
        for i in slots:
            prefs[i] = Preference(random_density(rng), random_utility(rng, space))
        prof = Profile(space, tuple(prefs))
        if not _is_common_utility(prof):
            return prof
    raise ScenarioRejected("could not draw a non-common-utility profile")


# ---------------------------------------------------------------------------
# serialization (witness replay / profile files)


def preference_as_dict(p: Preference) -> dict:
    if p.is_indifferent:
        return {"belief": None, "utility": None}
    return {"belief": p.belief.as_dict(), "utility": dict(p.utility.as_mapping())}


def preference_from_dict(data: Mapping) -> Preference:
    if data.get("belief") is None or data.get("utility") is None:
        return INDIFFERENT
    return Preference(
        Density.from_dict(data["belief"]),
        Utility({str(k): float(v) for k, v in data["utility"].items()}),
    )


def profile_as_dict(profile: Profile) -> dict:
    return {
        "outcomes": list(profile.space.labels),
        "agents": [preference_as_dict(p) for p in profile.agents],
    }


def profile_from_dict(data: Mapping) -> Profile:
    space = OutcomeSpace(tuple(str(x) for x in data["outcomes"]))
    return Profile(space, tuple(preference_from_dict(a) for a in data["agents"]))


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
        vals = [d.value_at(0.5 * (x + y)) for x, y in zip(pts[:-1], pts[1:])]
        widths = [y - x for x, y in zip(pts[:-1], pts[1:])]
        if len(pts) == 2:
            # sliver cell with no splittable interior: pass it through
            new_bps.append(b)
            new_vals.append(vals[0])
            continue
        j = rng.randrange(1, len(pts) - 1)
        mass_left = fsum(v * w for v, w in zip(vals[:j], widths[:j]))
        mass_right = fsum(v * w for v, w in zip(vals[j:], widths[j:]))
        if mass_left <= 1e-6 or mass_right <= 1e-6:
            fl = fr = 1.0
        else:
            e = rng.uniform(-0.3, min(0.3, 0.9 * mass_right / mass_left))
            fl = 1.0 + e
            fr = 1.0 - e * mass_left / mass_right
        for kk, v in enumerate(vals):
            new_bps.append(pts[kk + 1])
            new_vals.append(v * (fl if kk < j else fr))
    return Density(tuple(new_bps), tuple(new_vals))


def rm_scenario(
    rng: random.Random, swf: Swf, variant: str
) -> tuple[Profile, int, Preference, Act, Act]:
    space = random_space(rng)
    n = rng.randint(3, 4)
    if variant == "indifferent":
        # two agents whose utilities sum to a constant leave society
        # completely indifferent under equal-weight rules
        u = random_utility(rng, space)
        prefs: list[Preference] = [INDIFFERENT] * n
        prefs[1] = Preference(random_density(rng), u)
        prefs[2] = Preference(random_density(rng), reversal(u))
        base = Profile(space, tuple(prefs))
        newpref = Preference(random_density(rng), random_utility(rng, space))
        labs = newpref.utility.labels
        lo = min(labs, key=newpref.utility.value)
        hi = max(labs, key=newpref.utility.value)
        f = Act.from_segments(((0.0, 1.0, hi),))
        g = Act.from_segments(((0.0, 1.0, lo),))
        return base, 0, newpref, f, g

    base = random_profile(rng, space, n_agents=n, n_concerned=2)
    agent = next(i for i in range(n) if base.agents[i].is_indifferent)
    before = swf(base)
    if before.preference.is_indifferent:
        raise ScenarioRejected("society indifferent at base")
    raw = dict(before.raw_utility)
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
    if abs(before.ev(f) - evg) > TOL_EXACT:
        raise ScenarioRejected("society tie construction drifted")
    if variant == "tilted":
        grid = sorted(set(f.breakpoints()) | set(g.breakpoints()))
        belief = _fiber_tilt(rng, before.belief, grid)
    else:
        belief = before.belief
    for _ in range(40):
        npref = Preference(belief, random_utility(rng, space))
        if abs(compare(npref, f, g).diff) >= 1e-6:
            return base, agent, npref, f, g
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


def _pairflat_density(rng: random.Random) -> tuple[Density, list[float]]:
    """Density constant on each sibling pair of 1/16 cells; returns the
    eight pair values too."""
    raw = [rng.uniform(0.15, 2.0) for _ in range(8)]
    total = fsum(v / 8.0 for v in raw)
    vals = [v / total for v in raw]
    bps = tuple(j / 8 for j in range(9))
    return Density(bps, tuple(vals)), vals


def ira_scenario(
    rng: random.Random, variant: str
) -> tuple[Profile, Profile, Coarsening, tuple[str, ...]]:
    space = random_space(rng, 5, 6)
    m = rng.randint(3, 4)
    outcomes = tuple(sorted(rng.sample(space.labels, m), key=space.index))
    off = tuple(lab for lab in space.labels if lab not in outcomes)
    n = rng.randint(3, 4)
    slots = sorted(rng.sample(range(n), 2))

    def base_vals() -> list[dict[str, float]]:
        per_agent: list[dict[str, float]] = []
        for _ in slots:
            lo, hi = rng.sample(outcomes, 2)
            vals = {}
            for lab in outcomes:
                vals[lab] = 0.0 if lab == lo else 1.0 if lab == hi else rng.uniform(0.05, 0.95)
            per_agent.append(vals)
        return per_agent

    def fill_off(per_agent: list[dict[str, float]]) -> list[dict[str, float]]:
        # off-subset utility vectors sit strictly inside the hull of the
        # subset's vectors, one shared convex weighting per outcome
        filled = [dict(v) for v in per_agent]
        for lab in off:
            ws = [rng.uniform(0.05, 1.0) for _ in outcomes]
            tot = fsum(ws)
            lam = [w / tot for w in ws]
            for vals in filled:
                vals[lab] = fsum(l * vals[o] for l, o in zip(lam, outcomes))
        return filled

    on_vals = base_vals()
    if max(abs(on_vals[0][o] - on_vals[1][o]) for o in outcomes) < 0.05:
        raise ScenarioRejected("agents nearly share a utility on the subset")
    u1 = fill_off(on_vals)
    u2 = fill_off(on_vals)

    if variant == "merge":
        q = _merge_pairs_coarsening()
        flats = [_pairflat_density(rng) for _ in slots]
        beliefs1 = [d for d, _ in flats]
        tilts = [rng.uniform(-0.4, 0.4) for _ in range(8)]
        beliefs2 = []
        for _, vals in flats:
            bps = tuple(j / GRID for j in range(GRID + 1))
            vv = []
            for j, v in enumerate(vals):
                vv.extend((v * (1.0 + tilts[j]), v * (1.0 - tilts[j])))
            beliefs2.append(Density(bps, tuple(vv)))
    else:
        q = Coarsening.identity()
        beliefs1 = [random_density(rng) for _ in slots]
        beliefs2 = list(beliefs1)

    def build(beliefs: list[Density], utils: list[dict[str, float]]) -> Profile:
        prefs: list[Preference] = [INDIFFERENT] * n
        for k, i in enumerate(slots):
            prefs[i] = Preference(beliefs[k], Utility(utils[k]))
        return Profile(space, tuple(prefs))

    return build(beliefs1, u1), build(beliefs2, u2), q, outcomes


def pareto_scenario(
    rng: random.Random, constant: bool
) -> tuple[Profile, Act, Act]:
    prof = random_profile(rng)
    ids = prof.concerned
    utils = [prof.agents[i].utility for i in ids]
    if constant:
        for _ in range(60):
            x, y = rng.sample(prof.space.labels, 2)
            diffs = [u.value(x) - u.value(y) for u in utils]
            if all(d >= 1e-3 for d in diffs) or all(d <= -1e-3 for d in diffs):
                f = Act.from_segments(((0.0, 1.0, x),))
                g = Act.from_segments(((0.0, 1.0, y),))
                return prof, f, g
        raise ScenarioRejected("no unanimous pair of constant acts")
    beliefs = [prof.agents[i].belief for i in ids]
    labs = prof.space.labels
    for _ in range(60):
        raw = [rng.uniform(0.05, 1.0) for _ in labs]
        tot = fsum(raw)
        lot_g = Lottery({lab: v / tot for lab, v in zip(labs, raw)}, prof.space)
        evs = [fsum(u.value(lab) * lot_g.value(lab) for lab in labs) for u in utils]
        star = max(labs, key=lambda lab: min(u.value(lab) for u in utils))
        floor = min(u.value(star) for u in utils)
        if floor < max(evs) + 0.05:
            continue
        t = rng.uniform(0.25, 0.75)
        lot_f = Lottery(
            {
                lab: (1.0 - t) * lot_g.value(lab) + (t if lab == star else 0.0)
                for lab in labs
            },
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
        return prof, rng.choice(prof.concerned)
    space = random_space(rng)
    n = rng.randint(3, 4)
    slots = sorted(rng.sample(range(n), 3))
    shared = Preference(random_density(rng), random_utility(rng, space))
    prefs: list[Preference] = [INDIFFERENT] * n
    prefs[slots[0]] = shared
    prefs[slots[1]] = Preference(shared.belief, shared.utility)
    prefs[slots[2]] = Preference(random_density(rng), random_utility(rng, space))
    prof = Profile(space, tuple(prefs))
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
    scenario)` judges the rule on it.  Batteries, witness replay and the
    CLI's scenario zero all go through the same `check`."""

    draw: Callable[[random.Random, int, Swf], dict]
    check: Callable[[Swf, Mapping], AxiomVerdict]


# The specs name the checkers inside their bodies, so each call looks the
# checker up as a module global; a tracer that swaps those attributes sees
# every call.


def _draw_faithfulness(rng: random.Random, t: int, swf: Swf) -> dict:
    space = random_space(rng)
    return {"outcomes": space.labels, "n_agents": rng.randint(3, 5)}


def _draw_profile_agent(rng: random.Random, t: int, swf: Swf) -> dict:
    prof = random_profile(rng)
    return {"profile": prof, "agent": rng.choice(prof.concerned)}


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
    ),
    "no-belief-imposition": AxiomSpec(
        _draw_profile_agent,
        lambda swf, sc: check_no_belief_imposition(swf, sc["profile"], sc["agent"]),
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
    "continuity": AxiomSpec(_draw_continuity, _check_continuity),
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
# ScenarioRejected messages keep their wording.
def _run_battery(
    axiom: str,
    trials: int,
    seed: int,
    run_one: Callable[[random.Random, int], tuple[AxiomVerdict, dict]],
) -> AxiomVerdict:
    rejected = 0
    for t in range(trials):
        cseed = child_seed(seed, axiom, t)
        rng = random.Random(cseed)
        try:
            verdict, scenario = run_one(rng, t)
        except ScenarioRejected:
            rejected += 1
            continue
        if not verdict.satisfied:
            witness = violation_witness(axiom, t, cseed, scenario, verdict.witness)
            notes = f"{rejected} scenarios rejected" if rejected else ""
            return AxiomVerdict(axiom, False, t + 1, witness, notes)
    notes = f"{rejected} scenarios rejected" if rejected else ""
    return AxiomVerdict(axiom, True, trials, None, notes)


def run_axiom_battery(swf: Swf, axiom: str, trials: int, seed: int) -> AxiomVerdict:
    spec = _spec(axiom)

    def run_one(rng: random.Random, t: int) -> tuple[AxiomVerdict, dict]:
        scenario = spec.draw(rng, t, swf)
        return spec.check(swf, scenario), scenario

    return _run_battery(axiom, trials, seed, run_one)


def matrix_counts(trials: int) -> dict[str, int]:
    """Split a per-rule trial budget over the six checked axioms."""
    if trials < len(MATRIX_AXIOMS):
        raise ValueError("need at least one trial per axiom")
    shares = {
        "anonymity": 0.26,
        "no-belief-imposition": 0.26,
        "restricted-monotonicity": 0.26,
        "independence-redundant-acts": 0.13,
        "continuity": 0.09,
    }
    counts = {"faithfulness": 1}
    rest = trials - 1
    for axiom, share in shares.items():
        counts[axiom] = max(1, round(share * rest))
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
