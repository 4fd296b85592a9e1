"""The aggregation rules: belief averaging with summed relative
utilities, the six flawed contrasts, the Nash solver, pooling, and the
registry."""

import math
import random

import numpy as np
import pytest

from baru import (
    Act,
    Density,
    DegenerateNashPoint,
    INDIFFERENT,
    NullPool,
    OutcomeSpace,
    Preference,
    Profile,
    Utility,
    WeightedAggregation,
    baru,
    default_anchor,
    ex_ante_scores,
    expected_utility,
    geometric_pool,
    rule_by_name,
    swf1,
    swf2,
    swf3,
    swf4,
    swf5,
    swf6,
    weighted,
)
from baru import swf as swf_module
from baru.axioms import continuity_probe
from baru.geometry import direction_set, geometry_for, support_values
from baru.swf import PHANTOM_ID, _max_product_polygon, _nash_point, ramp_utility
from baru.harness import AXIOM_SPECS, child_seed, random_profile

SPACE = OutcomeSpace(("a", "b", "c", "d"))


def test_baru_table1_society(table1):
    profile, f, g = table1
    result = baru(profile)
    assert result.belief.mass(0.0, 0.5) == pytest.approx(0.5, abs=1e-12)
    assert result.belief.mass(0.5, 1.0) == pytest.approx(0.5, abs=1e-12)
    raw = dict(result.raw_utility)
    assert raw["a"] == pytest.approx(1.0, abs=1e-12)
    assert raw["c"] == pytest.approx(1.7, abs=1e-12)
    assert result.ev(f) == pytest.approx(1.0, abs=1e-12)
    assert result.ev(g) == pytest.approx(1.7, abs=1e-12)
    assert result.compare(f, g).verdict == "second"


def test_baru_ignores_indifferent_agents(table1):
    profile, _, _ = table1
    base = baru(profile)
    more = Profile(profile.space, (*profile.agents, INDIFFERENT, INDIFFERENT))
    padded = baru(more)
    assert padded.belief.breakpoints == base.belief.breakpoints
    assert padded.belief.values == base.belief.values
    assert dict(padded.raw_utility) == dict(base.raw_utility)


def test_baru_all_indifferent_is_indifferent():
    result = baru(Profile(SPACE, (INDIFFERENT,) * 3))
    assert result.preference.is_indifferent
    assert result.belief is None and result.raw_utility is None


def test_baru_constant_sum_is_indifferent_but_keeps_belief():
    u = Utility({"a": 1.0, "b": 0.0, "c": 0.3, "d": 0.6})
    rev = Utility({"a": 0.0, "b": 1.0, "c": 0.7, "d": 0.4})
    prof = Profile(
        SPACE,
        (
            Preference(Density.from_state_probs((0.8, 0.2)), u),
            Preference(Density.from_state_probs((0.4, 0.6)), rev),
            INDIFFERENT,
        ),
    )
    result = baru(prof)
    assert result.preference.is_indifferent
    assert result.belief is not None  # diagnostics survive the tie
    assert result.belief.mass(0.0, 0.5) == pytest.approx(0.6, abs=1e-12)


def test_ex_ante_scores_table1(table1):
    profile, f, g = table1
    assert ex_ante_scores(profile, (f, g)) == pytest.approx((1.8, 1.7), abs=1e-12)


def test_swf4_imposes_first_agents_belief(table1):
    profile, f, g = table1
    result = swf4(profile)
    assert result.belief.mass(0.0, 0.5) == pytest.approx(0.9, abs=1e-12)
    assert result.ev(f) == pytest.approx(1.0, abs=1e-12)
    assert result.ev(g) == pytest.approx(1.7, abs=1e-12)


def test_swf6_equals_explicit_double_weighting(table1):
    profile, f, g = table1
    a = swf6(profile)
    w = WeightedAggregation((2.0, 1.0, 1.0), (2.0, 1.0, 1.0))
    b = weighted(profile, w)
    assert a.belief.values == b.belief.values
    assert dict(a.raw_utility) == dict(b.raw_utility)
    assert a.belief.mass(0.0, 0.5) == pytest.approx((2 * 0.9 + 0.1) / 3, abs=1e-12)


def test_weighted_scale_invariance_of_comparisons(table1):
    profile, f, g = table1
    w1 = WeightedAggregation((2.0, 1.0, 1.0), (2.0, 1.0, 1.0))
    w2 = WeightedAggregation((6.0, 3.0, 3.0), (10.0, 5.0, 5.0))
    r1 = weighted(profile, w1)
    r2 = weighted(profile, w2)
    assert r1.compare(f, g).verdict == r2.compare(f, g).verdict
    assert r1.belief.values == pytest.approx(r2.belief.values, abs=1e-12)


def test_weighted_needs_one_weight_per_agent(table1):
    profile, _, _ = table1
    with pytest.raises(ValueError):
        weighted(profile, WeightedAggregation((1.0, 1.0), (1.0, 1.0)))
    with pytest.raises(ValueError):
        WeightedAggregation((1.0, -1.0, 1.0), (1.0, 1.0, 1.0))


def test_swf3_phantom_speaks_alone():
    phantom = default_anchor(SPACE)
    result = swf3(Profile(SPACE, (INDIFFERENT,) * 3), phantom)
    assert not result.preference.is_indifferent
    assert dict(result.utility_weights) == {PHANTOM_ID: 1.0}


def test_swf2_weights_favor_anchor_neighbours(table1):
    profile, _, _ = table1
    anchor = profile.agents[0]  # anchor sits exactly on agent 0
    result = swf2(profile, anchor)
    w = dict(result.utility_weights)
    assert w[0] == pytest.approx(2.0, abs=1e-12)  # distance 0
    assert w[1] == pytest.approx(1.0, abs=1e-12)  # distance 1
    with pytest.raises(ValueError):
        swf2(profile, INDIFFERENT)


def test_swf5_twin_group_overweighted(table1):
    profile, _, _ = table1
    p1, p2 = profile.agents[0], profile.agents[1]
    twins = Profile(SPACE, (p1, p1, p2))
    result = swf5(twins)
    # default alpha(m) = m*m: twin group weight 4 split over two members,
    # lone agent weight 1; belief = (4 p1 + 1 p2) / 5
    assert result.belief.mass(0.0, 0.5) == pytest.approx(
        (4 * 0.9 + 0.1) / 5, abs=1e-12
    )
    raw = dict(result.raw_utility)
    assert raw["a"] == pytest.approx(4.0, abs=1e-12)
    assert raw["b"] == pytest.approx(1.0, abs=1e-12)


def test_swf5_custom_alpha_proportional_matches_baru(table1):
    profile, _, _ = table1
    p1, p2 = profile.agents[0], profile.agents[1]
    twins = Profile(SPACE, (p1, p1, p2))
    prop = swf5(twins, lambda m: float(m))
    plain = baru(twins)
    assert prop.belief.values == pytest.approx(plain.belief.values, abs=1e-12)
    assert dict(prop.raw_utility) == pytest.approx(dict(plain.raw_utility), abs=1e-12)


def _assert_nash_certified(profile, x):
    """Solver-independent certificate: x lies in the image, and no image
    point improves the linearised log-product at x (h(1/x) <= 1/x . x = n)."""
    geom = geometry_for(profile)
    n = geom.dimension
    assert np.all(x > 0.0)
    assert support_values(geom, 1.0 / x)[0] <= n * (1.0 + 1e-9)
    dirs = direction_set(n)
    assert np.all(dirs @ x <= support_values(geom, dirs) + 1e-9)


def _simplex_profile():
    space = OutcomeSpace(("o1", "o2", "o3", "o4"))
    prefs = tuple(
        Preference(
            Density.uniform(),
            Utility({lab: float(lab == f"o{i}") for lab in space.labels}),
        )
        for i in (1, 2, 3)
    )
    return Profile(space, prefs)


def test_nash_point_simplex_oracle():
    # unit-vector utilities and one dead outcome: the image is the corner
    # simplex, whose log-product maximum is the barycenter
    profile = _simplex_profile()
    point = _nash_point(profile)
    assert np.abs(point - 1.0 / 3.0).max() <= 1e-8
    _assert_nash_certified(profile, point)


@pytest.mark.parametrize("trial", [56, 65, 75])
def test_nash_point_certified_on_criterion5_continuity_scenarios(monkeypatch, trial):
    # The slowest solves of swf1's criterion-5 continuity stream: the
    # probe's smallest step leaves each nearly degenerate, and trial 56
    # holds twin agents, whose Hessian is singular.
    seed = child_seed(child_seed(20240801, "swf1:continuity", 0), "continuity", trial)
    scenario = AXIOM_SPECS["continuity"].draw(random.Random(seed), trial, swf1)
    solved = []

    def recording(profile):
        x = _nash_point(profile)
        solved.append((profile, x))
        return x

    monkeypatch.setattr(swf_module, "_nash_point", recording)
    continuity_probe(swf1, scenario["profile"], scenario["agent"])
    assert len(solved) == 5
    for profile, x in solved:
        _assert_nash_certified(profile, x)


@pytest.mark.parametrize("n_agents", [3, 4])
def test_nash_point_certified_on_random_profiles(rng, n_agents):
    for _ in range(4):
        profile = random_profile(rng, space=SPACE, n_agents=n_agents, n_concerned=n_agents)
        _assert_nash_certified(profile, _nash_point(profile))


def test_nash_solver_raises_when_rounds_run_out(monkeypatch):
    # Agent i likes outcome o_i and believes in state i.  One round keeps
    # only the constant acts, whose hull tops out at 1/3 per agent, while
    # the act giving each agent its outcome on its own state reaches 0.8:
    # the solver must refuse rather than return the uncertified point.
    space = OutcomeSpace(("o1", "o2", "o3", "o4"))
    prefs = tuple(
        Preference(
            Density.from_state_probs(tuple(0.8 if s == i else 0.1 for s in range(3))),
            Utility({lab: float(lab == f"o{i + 1}") for lab in space.labels}),
        )
        for i in range(3)
    )
    profile = Profile(space, prefs)
    _assert_nash_certified(profile, _nash_point(profile))
    monkeypatch.setattr(swf_module, "_NASH_ROUNDS", 1)
    with pytest.raises(DegenerateNashPoint):
        _nash_point(profile)


def test_swf1_simplex_weights_equalize():
    result = swf1(_simplex_profile())
    ws = [w for _, w in result.utility_weights]
    assert max(ws) - min(ws) <= 1e-7


def test_nash_point_two_agents_exact(table1):
    profile, _, _ = table1
    x, y = _nash_point(profile)
    assert x * y > 0.80  # comfortably inside the positive orthant
    result = swf1(profile)
    w = dict(result.utility_weights)
    assert w[0] == pytest.approx(y, abs=1e-12)
    assert w[1] == pytest.approx(x, abs=1e-12)


def test_swf1_permutation_exact_weights(rng):
    profile = random_profile(rng, space=SPACE, n_agents=3, n_concerned=3)
    base = dict(swf1(profile).utility_weights)
    prefs = profile.agents
    for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)):
        shuffled = Profile(SPACE, tuple(prefs[p] for p in perm))
        got = dict(swf1(shuffled).utility_weights)
        for new_pos, old_pos in enumerate(perm):
            assert got[new_pos] == base[old_pos]  # bit-identical


def test_max_product_polygon_square():
    assert _max_product_polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))) == (
        1.0,
        1.0,
    )


def test_max_product_polygon_edge_interior():
    # triangle face x + y = 1: the product peaks mid-edge
    x, y = _max_product_polygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    assert (x, y) == pytest.approx((0.5, 0.5), abs=1e-12)


def test_max_product_polygon_tie_raises():
    # synthetic tied maximizers (no convex image of normalized utilities
    # can produce this; the guard protects against malformed input)
    with pytest.raises(DegenerateNashPoint):
        _max_product_polygon(((1.0, 0.5), (1.0, 0.0), (0.5, 1.0), (0.0, 1.0)))


def test_geometric_pool_concentrates_on_shared_support():
    d1 = Density((0.0, 0.25, 0.5, 1.0), (0.0, 2.0, 1.0))
    d2 = Density((0.0, 0.25, 0.5, 1.0), (2.0, 0.0, 1.0))
    pool = geometric_pool((d1, d2))
    assert pool.mass(0.5, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_geometric_pool_null_raises():
    d1 = Density((0.0, 0.5, 1.0), (2.0, 0.0))
    d2 = Density((0.0, 0.5, 1.0), (0.0, 2.0))
    with pytest.raises(NullPool):
        geometric_pool((d1, d2))


def test_rule_registry_runs_everything(table1):
    profile, f, g = table1
    for name in ("baru", "swf1", "swf2", "swf3", "swf4", "swf5", "swf6"):
        result = rule_by_name(name)(profile)
        assert result.concerned == (0, 1)
        assert not result.preference.is_indifferent
    with pytest.raises(ValueError):
        rule_by_name("nope")


def test_ramp_and_default_anchor():
    u = ramp_utility(SPACE)
    assert u.value("a") == 0.0 and u.value("d") == 1.0
    assert u.value("b") == pytest.approx(1.0 / 3.0, abs=1e-15)
    anchor = default_anchor(SPACE)
    assert not anchor.is_indifferent
    assert anchor.belief.values == (1.0,)
