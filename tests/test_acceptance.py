"""Acceptance gate: the nine desk-scale checks the package promises.

One test per criterion, each a single pass/fail line under -v.  The two
randomized batteries (criteria 5 and 6) run at full scale here, so this
module dominates the suite's runtime.
"""

import hashlib
import itertools
import json
import random
import time
from math import fsum

import pytest

from baru import (
    Act,
    Density,
    EventSet,
    INDIFFERENT,
    Lottery,
    OutcomeSpace,
    Preference,
    Profile,
    baru,
    common_belief_feasible,
    detect_spurious_unanimity,
    expected_utility,
    geometric_pool,
    halving_subalgebra,
    image_polytope,
    lyapunov_event,
    measure,
    normalize_utility,
    pushforward,
    realize_lottery_act,
    run_matrix,
    matrix_violations,
    scenarios,
    weighted,
    WeightedAggregation,
)
from baru.axioms import ScenarioRejected
from baru.geometry import _hull2d
from baru.harness import (
    EXPECTED_VIOLATIONS,
    MATRIX_AXIOMS,
    child_seed,
    preference_as_dict,
    random_act,
    random_density,
    random_profile,
    random_space,
    random_utility,
    rerun_witness,
    run_axiom_battery,
)
from baru.swf import rule_by_name

SIX_RULES = ("swf1", "swf2", "swf3", "swf4", "swf5", "swf6")

# The contract's bits: criterion 5's matrix report, the replays of its seven
# witnesses, and criterion 6's seven verdicts.  A change that moves one on
# purpose records the old and new digests, and why, in CHANGES.md.
MATRIX_SHA256 = "14bbf1c9d1cc20f8f6a84fa67db775b5bd5e591ed2f67cfbde60886289896f78"
REPLAYS_SHA256 = "4404e3fb42d88b71572a57db83047944325022885010a305d63fa1060ee8d0e2"
VERDICTS_SHA256 = "340496f5c50448aa3ea0db042b654b2f0126e62409201b356b6f6096e2e92234"


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def test_criterion_1_table1_expected_utilities(table1):
    profile, f, g = table1
    t0 = time.perf_counter()
    evs = [
        (expected_utility(profile.agents[i], f), expected_utility(profile.agents[i], g))
        for i in profile.concerned
    ]
    elapsed = time.perf_counter() - t0
    assert evs[0][0] == pytest.approx(0.9, abs=1e-12)
    assert evs[0][1] == pytest.approx(0.9, abs=1e-12)
    assert evs[1][0] == pytest.approx(0.9, abs=1e-12)
    assert evs[1][1] == pytest.approx(0.8, abs=1e-12)
    assert elapsed < 1.0


def test_criterion_2_common_belief_window(table1):
    profile, f, g = table1
    left = EventSet.from_intervals(((0.0, 0.5),))

    def feasible_at(p: float) -> bool:
        return common_belief_feasible(profile, f, g, "g", ((left, p),)) is not None

    assert feasible_at(0.2 + 1e-6)
    assert feasible_at(0.9 - 1e-6)
    assert not feasible_at(0.2 - 1e-6)
    assert not feasible_at(0.9 + 1e-6)
    assert common_belief_feasible(profile, f, g, "f") is None
    report = detect_spurious_unanimity(profile, f, g)
    assert report.favored == "f"
    assert report.common_belief is None
    assert report.spurious


def test_criterion_3_full_pareto_failure(table1):
    profile, f, g = table1
    for i in profile.concerned:  # unanimity: everyone weakly prefers f
        diff = expected_utility(profile.agents[i], f) - expected_utility(profile.agents[i], g)
        assert diff >= -1e-12
    result = baru(profile)
    assert result.ev(f) == pytest.approx(1.0, abs=1e-12)
    assert result.ev(g) == pytest.approx(1.7, abs=1e-12)
    assert result.compare(f, g).verdict == "second"


def test_criterion_4_horse_race():
    third = 1.0 / 3.0
    bps = (0.0, third, 2 * third, 1.0)
    d1 = Density(bps, (0.0, 1.5, 1.5))
    d2 = Density(bps, (1.5, 0.0, 1.5))
    pool = geometric_pool((d1, d2))
    probs = [measure(pool, EventSet.from_intervals(((a, b),))) for a, b in zip(bps, bps[1:])]
    assert probs == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)

    rep = scenarios.horses()
    for row in rep.agent_evs:
        assert list(row) == pytest.approx([0.5, 0.5], abs=1e-12)
    assert rep.baru_verdict == "tie"
    assert list(rep.pooled_horse_probs) == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)
    assert rep.pooled_verdict == "second"  # bet 2 strictly above bet 1


def test_criterion_5_independence_matrix():
    t0 = time.perf_counter()
    report = run_matrix(SIX_RULES, trials=10001, seed=20240801)
    elapsed = time.perf_counter() - t0
    assert matrix_violations(report) == {name: EXPECTED_VIOLATIONS[name] for name in SIX_RULES}
    for name in SIX_RULES:
        for axiom, v in report["rules"][name].items():
            if v["verdict"] == "violated":
                assert v["witness"] is not None
            else:
                assert v["verdict"] == "satisfied-on-sample"
    assert report["seed"] == 20240801 and report["trials"] == 10001
    assert elapsed < 300.0
    assert _digest(report) == MATRIX_SHA256, "the matrix report's bits moved"

    replays = []
    for name in SIX_RULES:
        for axiom, v in report["rules"][name].items():
            if v["verdict"] == "violated":
                replay = rerun_witness(rule_by_name(name), v["witness"])
                assert not replay.satisfied, f"{name} {axiom}: the witness no longer replays"
                replays.append(replay.as_dict())
    assert len(replays) == 7
    assert _digest(replays) == REPLAYS_SHA256, "the witness replays' bits moved"


def _completed(verdict) -> int:
    rejected = int(verdict.notes.split()[0]) if verdict.notes else 0
    return verdict.trials - rejected


def test_criterion_6_baru_axiom_suite():
    t0 = time.perf_counter()
    verdicts = []
    for axiom in MATRIX_AXIOMS:
        v = run_axiom_battery(baru, axiom, 11000, child_seed(20240801, f"baru:{axiom}", 0))
        assert v.satisfied, f"{axiom}: {v.witness}"
        assert v.as_dict()["verdict"] == "satisfied-on-sample"
        assert _completed(v) >= 10000
        verdicts.append(v.as_dict())
    pareto = run_axiom_battery(
        baru, "restricted-pareto", 12000, child_seed(20240801, "baru:restricted-pareto", 0)
    )
    assert pareto.satisfied and _completed(pareto) >= 10000
    assert time.perf_counter() - t0 < 300.0
    verdicts.append(pareto.as_dict())
    assert _digest(verdicts) == VERDICTS_SHA256, "the baru suite's verdicts' bits moved"


def _density_up_to(rng: random.Random, max_pieces: int = 20) -> Density:
    cuts = sorted({round(rng.uniform(0.01, 0.99), 6) for _ in range(rng.randint(0, max_pieces - 1))})
    bps = (0.0, *cuts, 1.0)
    raw = [rng.uniform(0.1, 3.0) for _ in range(len(bps) - 1)]
    total = fsum(v * (bps[j + 1] - bps[j]) for j, v in enumerate(raw))
    return Density(bps, tuple(v / total for v in raw))


def test_criterion_7_constructive_lemmas():
    rng = random.Random(20240807)
    space = OutcomeSpace(("w", "x", "y", "z"))
    for _ in range(1000):
        beliefs = [_density_up_to(rng) for _ in range(rng.randint(1, 4))]

        # event -> joint masses -> event attaining the same masses
        a = rng.uniform(0.0, 0.6)
        b = rng.uniform(a + 0.05, min(a + 0.7, 1.0))
        seed_event = EventSet.from_intervals(((a, b),))
        targets = [measure(d, seed_event) for d in beliefs]
        event = lyapunov_event(beliefs, targets)
        for d, t in zip(beliefs, targets):
            assert abs(measure(d, event) - t) <= 1e-9

        # lottery -> act -> pushforward equals the lottery for every belief
        w = [rng.uniform(0.0, 1.0) for _ in space.labels]
        total = fsum(w)
        lottery = Lottery({lab: v / total for lab, v in zip(space.labels, w)}, space)
        act = realize_lottery_act(beliefs, lottery, space)
        want = lottery.as_mapping()
        for d in beliefs:
            got = pushforward(act, d, space).as_mapping()
            for lab in space.labels:
                assert abs(got.get(lab, 0.0) - want.get(lab, 0.0)) <= 1e-9

    d1 = Density.from_state_probs((0.9, 0.1))
    d2 = Density.from_state_probs((0.1, 0.9))
    part = halving_subalgebra(d1, d2, 6)
    assert len(part.cells) == 64
    for cell in part.cells:
        assert measure(d1, cell) == pytest.approx(2**-6, abs=1e-9)
        assert measure(d2, cell) == pytest.approx(2**-6, abs=1e-9)


def test_criterion_8_image_polytope(table1):
    profile, f, g = table1
    poly = image_polytope(profile)
    h = poly.support_of((1.0, 1.0))
    assert h == pytest.approx(1.8, abs=1e-12)
    act = poly.attaining_act((1.0, 1.0))
    attained = fsum(expected_utility(profile.agents[i], act) for i in profile.concerned)
    assert attained == pytest.approx(1.8, abs=1e-12)
    hull_bound = max(
        fsum(profile.agents[i].utility.value(lab) for i in profile.concerned)
        for lab in profile.space.labels
    )
    assert hull_bound == pytest.approx(1.7, abs=1e-12)
    assert h > hull_bound + 0.09

    # identical beliefs collapse the image to the outcome hull
    rng = random.Random(20240808)
    for _ in range(20):
        space = random_space(rng)
        shared = random_density(rng)
        prof = Profile(
            space,
            (
                Preference(shared, random_utility(rng, space)),
                Preference(shared, random_utility(rng, space)),
                INDIFFERENT,
            ),
        )
        ipoly = image_polytope(prof)
        cells = list(zip(shared.breakpoints[:-1], shared.breakpoints[1:]))
        pts = []
        for combo in itertools.product(space.labels, repeat=len(cells)):
            grid_act = Act.from_segments([(lo, hi, lab) for (lo, hi), lab in zip(cells, combo)])
            pts.append(tuple(expected_utility(prof.agents[i], grid_act) for i in prof.concerned))
        want = sorted(_hull2d(pts))
        got = sorted(map(tuple, ipoly.vertices))
        assert len(got) == len(want)
        for gv, wv in zip(got, want):
            assert gv == pytest.approx(wv, abs=1e-9)
        outcome_pts = [
            tuple(prof.agents[i].utility.value(lab) for i in prof.concerned)
            for lab in space.labels
        ]
        for v in got:  # every vertex sits on an outcome point
            assert min(max(abs(v[0] - p[0]), abs(v[1] - p[1])) for p in outcome_pts) <= 1e-9


def test_criterion_9_invariance_battery():
    rng = random.Random(20240809)
    checked = 0
    attempts = 0
    while checked < 1000:
        attempts += 1
        assert attempts <= 1100
        try:
            prof = random_profile(rng)
        except ScenarioRejected:
            continue
        base = baru(prof)
        f, g = random_act(rng, prof.space), random_act(rng, prof.space)
        base_verdict = base.compare(f, g).verdict

        perm = list(range(len(prof.agents)))
        rng.shuffle(perm)
        permuted = Profile(prof.space, tuple(prof.agents[j] for j in perm))
        assert preference_as_dict(baru(permuted).preference) == preference_as_dict(base.preference)

        k = rng.randint(0, len(prof.agents))
        padded = Profile(prof.space, prof.agents[:k] + (INDIFFERENT,) + prof.agents[k:])
        assert preference_as_dict(baru(padded).preference) == preference_as_dict(base.preference)

        rescaled_prefs = []
        for p in prof.agents:
            if p.is_indifferent:
                rescaled_prefs.append(INDIFFERENT)
                continue
            scale, shift = rng.uniform(0.25, 4.0), rng.uniform(-2.0, 2.0)
            raw = {lab: scale * p.utility.value(lab) + shift for lab in prof.space.labels}
            rescaled_prefs.append(Preference(p.belief, normalize_utility(raw, prof.space)))
        rescaled = Profile(prof.space, tuple(rescaled_prefs))
        assert baru(rescaled).compare(f, g).verdict == base_verdict

        n = len(prof.agents)
        bw = tuple(rng.uniform(0.2, 3.0) for _ in range(n))
        uw = tuple(rng.uniform(0.2, 3.0) for _ in range(n))
        cb, cu = rng.uniform(0.1, 8.0), rng.uniform(0.1, 8.0)
        r1 = weighted(prof, WeightedAggregation(bw, uw))
        r2 = weighted(
            prof,
            WeightedAggregation(tuple(cb * x for x in bw), tuple(cu * x for x in uw)),
        )
        assert r1.compare(f, g).verdict == r2.compare(f, g).verdict
        checked += 1
    assert checked >= 1000
