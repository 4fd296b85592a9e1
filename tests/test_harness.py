"""Seeded scenario generators, battery plumbing, the expected-violation
matrix at reduced trial counts, and witness replay."""

import json
import random

import pytest

from baru import (
    INDIFFERENT,
    OutcomeSpace,
    baru,
    preference_from_dict,
    profile_as_dict,
    profile_from_dict,
    rerun_witness,
    rule_by_name,
    run_axiom_battery,
    run_matrix,
    matrix_violations,
)
from baru.axioms import (
    ScenarioRejected,
    check_independence_redundant_acts,
    check_restricted_monotonicity,
    check_restricted_pareto,
)
from baru.harness import (
    AXIOM_SPECS,
    EXPECTED_VIOLATIONS,
    MATRIX_AXIOMS,
    child_seed,
    continuity_scenario,
    ira_scenario,
    matrix_counts,
    pareto_scenario,
    preference_as_dict,
    random_act,
    random_density,
    random_profile,
    random_space,
    random_utility,
    reversal,
    rm_scenario,
    scenario_as_dict,
    scenario_from_dict,
)

SPACE = OutcomeSpace(("a", "b", "c", "d"))


def test_child_seed_deterministic_and_spread():
    a = child_seed(1, "x", 0)
    assert a == child_seed(1, "x", 0)
    assert a != child_seed(1, "x", 1)
    assert a != child_seed(1, "y", 0)
    assert a != child_seed(2, "x", 0)


def test_random_space_bounds(rng):
    for _ in range(20):
        space = random_space(rng)
        assert 4 <= len(space.labels) <= 6
        assert len(set(space.labels)) == len(space.labels)


def test_random_density_is_valid(rng):
    for _ in range(50):
        d = random_density(rng)
        assert d.mass(0.0, 1.0) == pytest.approx(1.0, abs=1e-9)
        assert all(v >= 0.0 for v in d.values)


def test_random_utility_hits_bounds(rng):
    for _ in range(50):
        space = random_space(rng)
        u = random_utility(rng, space)
        vals = [u.value(lab) for lab in space.labels]
        assert min(vals) == 0.0 and max(vals) == 1.0


def test_random_act_tiles(rng):
    for _ in range(50):
        act = random_act(rng, SPACE)
        assert act.segments[0][0] == 0.0 and act.segments[-1][1] == 1.0


def test_reversal_flips_normalized_utility(rng):
    u = random_utility(rng, SPACE)
    r = reversal(u)
    for lab in SPACE.labels:
        assert r.value(lab) == pytest.approx(1.0 - u.value(lab), abs=1e-12)


def test_random_profile_avoids_common_utility(rng):
    for _ in range(30):
        prof = random_profile(rng)
        assert len(prof.concerned) >= 2
        us = [prof.agents[i].utility for i in prof.concerned]
        for other in us[1:]:
            same = all(
                abs(us[0].value(lab) - other.value(lab)) <= 1e-9
                for lab in prof.space.labels
            )
            flipped = all(
                abs(us[0].value(lab) - (1.0 - other.value(lab))) <= 1e-9
                for lab in prof.space.labels
            )
            assert not same and not flipped


def test_profile_serialization_round_trip(rng):
    prof = random_profile(rng)
    blob = json.dumps(profile_as_dict(prof))
    back = profile_from_dict(json.loads(blob))
    assert back.space.labels == prof.space.labels
    for a, b in zip(prof.agents, back.agents):
        assert a.is_indifferent == b.is_indifferent
        if not a.is_indifferent:
            assert a.belief.breakpoints == b.belief.breakpoints
            assert a.belief.values == b.belief.values


def test_preference_serialization_indifferent():
    assert preference_from_dict(preference_as_dict(INDIFFERENT)).is_indifferent


def test_rm_scenario_accepted_by_checker(rng):
    for t in range(12):
        variant = ("aligned", "tilted", "indifferent")[t % 3]
        base, agent, newpref, f, g = rm_scenario(rng, baru, variant)
        v = check_restricted_monotonicity(baru, base, agent, newpref, f, g)
        assert v.satisfied


def test_ira_scenario_accepted_by_checker(rng):
    for t in range(8):
        variant = "merge" if t % 2 else "identity"
        p, p2, q, outs = ira_scenario(rng, variant)
        v = check_independence_redundant_acts(baru, p, p2, q, outs)
        assert v.satisfied


def test_pareto_scenario_accepted_by_checker(rng):
    accepted = 0
    for t in range(20):
        try:
            prof, f, g = pareto_scenario(rng, constant=bool(t % 2))
        except ScenarioRejected:
            continue  # rejection is a normal generator outcome
        v = check_restricted_pareto(baru, prof, f, g)
        assert v.satisfied
        accepted += 1
    assert accepted >= 10


def test_continuity_scenario_shapes(rng):
    prof, agent = continuity_scenario(rng, twin=True)
    assert agent in prof.concerned
    twin_partner = [
        i
        for i in prof.concerned
        if i != agent
        and prof.agents[i].belief.values == prof.agents[agent].belief.values
    ]
    assert twin_partner  # exact copy present somewhere


def test_battery_reports_rejections(rng):
    v = run_axiom_battery(baru, "restricted-pareto", 30, 11)
    assert v.satisfied
    assert v.trials == 30


def test_axiom_specs_cover_every_battery():
    assert set(AXIOM_SPECS) == set(MATRIX_AXIOMS) | {"restricted-pareto"}


@pytest.mark.parametrize("axiom", sorted(AXIOM_SPECS))
def test_scenario_codec_round_trip(axiom):
    # a replay must check exactly the scenario the battery checked
    drawn = 0
    for t in range(8):  # spans every variant a spec picks by trial index
        try:
            sc = AXIOM_SPECS[axiom].draw(random.Random(child_seed(5, axiom, t)), t, baru)
        except ScenarioRejected:
            continue
        assert scenario_from_dict(json.loads(json.dumps(scenario_as_dict(sc)))) == sc
        drawn += 1
    assert drawn >= 4


def test_unknown_axiom_raises():
    with pytest.raises(ValueError, match="unknown axiom"):
        run_axiom_battery(baru, "no-such-axiom", 3, 1)
    with pytest.raises(ValueError, match="unknown axiom"):
        rerun_witness(baru, {"axiom": "no-such-axiom", "scenario": {}})


def test_matrix_counts_partition():
    for trials in (6, 100, 10001):
        counts = matrix_counts(trials)
        assert sum(counts.values()) == trials
        assert counts["faithfulness"] == 1
        assert set(counts) == set(MATRIX_AXIOMS)
    with pytest.raises(ValueError):
        matrix_counts(3)


BATTERY_SPOT_CHECKS = (
    # rule, axiom, trials enough to expose the designed defect
    ("swf1", "restricted-monotonicity", 150),
    ("swf2", "independence-redundant-acts", 40),
    ("swf3", "faithfulness", 1),
    ("swf4", "no-belief-imposition", 60),
    ("swf4", "anonymity", 40),
    ("swf5", "continuity", 20),
    ("swf6", "anonymity", 10),
)


@pytest.mark.parametrize("rule,axiom,trials", BATTERY_SPOT_CHECKS)
def test_designed_defects_surface(rule, axiom, trials):
    seed = child_seed(20240801, f"{rule}:{axiom}", 0)
    v = run_axiom_battery(rule_by_name(rule), axiom, trials, seed)
    assert not v.satisfied
    assert v.witness is not None


@pytest.mark.parametrize(
    "axiom,trials",
    [(a, 25 if a == "continuity" else 60) for a in (*MATRIX_AXIOMS, "restricted-pareto")],
)
def test_baru_clean_small_batteries(axiom, trials):
    seed = child_seed(20240801, f"baru:{axiom}", 0)
    v = run_axiom_battery(baru, axiom, trials, seed)
    assert v.satisfied, v.witness


def test_witness_rerun_is_deterministic():
    seed = child_seed(20240801, "swf6:anonymity", 0)
    v = run_axiom_battery(rule_by_name("swf6"), "anonymity", 10, seed)
    assert not v.satisfied
    blob = json.loads(json.dumps(v.witness))  # survive a serialization trip
    again = rerun_witness(rule_by_name("swf6"), blob)
    assert not again.satisfied
    # the rerun reproduces the underlying checker's witness exactly
    assert json.loads(json.dumps(again.witness)) == blob["detail"]


def test_witness_rerun_rm_defect():
    seed = child_seed(20240801, "swf1:restricted-monotonicity", 0)
    v = run_axiom_battery(rule_by_name("swf1"), "restricted-monotonicity", 150, seed)
    assert not v.satisfied
    again = rerun_witness(rule_by_name("swf1"), v.witness)
    assert not again.satisfied


def test_run_matrix_small_swf3():
    report = run_matrix(rules=("swf3",), trials=30, seed=20240801)
    got = matrix_violations(report)
    assert got["swf3"] == frozenset({"faithfulness"})
    assert report["rules"]["swf3"]["faithfulness"]["verdict"] == "violated"
    assert report["seed"] == 20240801


def test_expected_violations_table_shape():
    assert set(EXPECTED_VIOLATIONS) == {"baru", "swf1", "swf2", "swf3", "swf4", "swf5", "swf6"}
    assert EXPECTED_VIOLATIONS["baru"] == frozenset()
    for name, axs in EXPECTED_VIOLATIONS.items():
        assert axs <= set(MATRIX_AXIOMS)
