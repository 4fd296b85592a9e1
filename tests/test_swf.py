"""The aggregation rules: belief averaging with summed relative
utilities, the six flawed contrasts, the Nash solver, pooling, and the
registry."""

import hashlib
import itertools
import math
import operator
import random
from fractions import Fraction

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
    RULE_NAMES,
    TOL_MEASURE,
    Utility,
    WeightedAggregation,
    baru,
    default_anchor,
    ex_ante_scores,
    expected_utility,
    geometric_pool,
    normalize_utility,
    rule_by_name,
    swf1,
    swf2,
    swf3,
    swf4,
    swf5,
    swf6,
    weighted,
)
from baru import geometry as geometry_module
from baru import swf as swf_module
from baru.axioms import continuity_probe
from baru.geometry import ProfileGeometry, direction_set, geometry_for, minkowski_polygon
from baru.measure import cell_values, merged_breakpoints, segment_masses
from baru.swf import (
    PHANTOM_ID,
    _canonical_order,
    _merge,
    _nash_point,
    _pareto_walk,
    ramp_utility,
)
from baru.harness import (
    AXIOM_SPECS,
    child_seed,
    profile_from_dict,
    random_density,
    random_profile,
    random_utility,
)

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


def test_raw_map_is_built_once_and_kept_out_of_repr_and_equality(table1):
    profile, f, _ = table1
    result, again = baru(profile), baru(profile)
    text = repr(result)
    result.ev(f)
    assert result.raw_map is result.raw_map
    assert result.raw_map == dict(result.raw_utility)
    assert repr(result) == text and "raw_map" not in text
    assert result == again


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


def _merge_reference(profile, contribs):
    """`_merge`'s summed utility built the way it was before: the weighted
    sums through a dict into `normalize_utility`; the reference for
    `_merge`."""
    live = [(p, uw) for _, p, _, uw in contribs if not p.is_indifferent]
    labels = profile.space.labels
    uws = [uw for _, uw in live]
    utils = [list(map(p.utility.value, labels)) for p, _ in live]
    raw = tuple(
        [(lab, math.fsum(map(operator.mul, uws, col))) for lab, col in zip(labels, zip(*utils))]
    )
    return raw, normalize_utility(dict(raw), profile.space)


def _bits(pairs):
    return [(k, v.hex()) for k, v in pairs]


def test_merge_utility_matches_normalize_utility(rng):
    for _ in range(500):
        profile = random_profile(rng)
        contribs = [
            (i, profile.agents[i], rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0))
            for i in profile.concerned
        ]
        result = _merge(profile, contribs)
        raw, norm = _merge_reference(profile, contribs)
        assert _bits(result.raw_utility) == _bits(raw)
        assert _bits(result.preference.utility.items) == _bits(norm.items)


def test_merge_flat_sum_is_indifferent():
    # u and its reversal sum to one everywhere; a third agent at a small
    # utility weight leaves a range below or above TOL_EXACT (1e-12)
    d = Density.uniform()
    profile = Profile(
        SPACE,
        (
            Preference(d, Utility({"a": 1.0, "b": 0.0, "c": 0.3, "d": 0.6})),
            Preference(d, Utility({"a": 0.0, "b": 1.0, "c": 0.7, "d": 0.4})),
            Preference(d, Utility({"a": 0.0, "b": 0.5, "c": 1.0, "d": 0.5})),
        ),
    )
    for weight, flat in ((0.0, True), (1e-13, True), (1e-11, False)):
        contribs = [(i, p, 1.0, weight if i == 2 else 1.0) for i, p in enumerate(profile.agents)]
        result = _merge(profile, contribs)
        raw, norm = _merge_reference(profile, contribs)
        assert result.preference.is_indifferent == flat == (norm is None)
        assert result.belief == d
        assert _bits(result.raw_utility) == _bits(raw)


def test_merge_non_finite_sum_raises(table1):
    profile, _, _ = table1
    contribs = [(i, profile.agents[i], 1.0, math.inf) for i in profile.concerned]
    with pytest.raises(ValueError, match="finite"):
        _merge(profile, contribs)


def test_merge_missing_label_raises(table1):
    profile, _, _ = table1
    phantom = Preference(Density.uniform(), ramp_utility(OutcomeSpace(("w", "x", "y", "z"))))
    with pytest.raises(ValueError, match="unknown outcome 'a'"):
        swf3(profile, phantom)


def _fsum_outcome(weights, rows):
    """`_column_sums`' reference: fsum of each column's products, or the
    type and text of what fsum raises."""
    try:
        return [math.fsum(map(operator.mul, weights, col)) for col in zip(*rows)]
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def test_column_sums_match_fsum_bit_for_bit():
    r = random.Random(20)
    pool = (0.0, -0.0, 1.0, -1.0, 0.1, 1e-300, -1e-300, 5e-324, 1e300, -1e300)

    def draw():
        return r.choice(pool) if r.random() < 0.3 else r.uniform(-2.0, 2.0) * 10.0 ** r.randint(-20, 20)

    for k in (1, 2, 3):
        for _ in range(3000):
            weights = [r.uniform(0.05, 3.0) for _ in range(k)]
            rows = [[draw() for _ in range(6)] for _ in range(k)]
            got = swf_module._column_sums(weights, rows)
            assert repr(got) == repr(_fsum_outcome(weights, rows))


def test_column_sums_non_finite_follows_fsum():
    big = 1.5e308
    for weights, rows in (
        ([1.0, 1.0], [[big], [big]]),  # two finite terms that overflow
        ([1.0], [[big * 10]]),
        ([1.0, 1.0], [[math.inf], [1.0]]),
        ([1.0, 1.0], [[math.inf], [-math.inf]]),
        ([1.0, 1.0], [[math.nan], [1.0]]),
        ([1.0, 1.0, 1.0], [[big], [big], [-big]]),
    ):
        want = _fsum_outcome(weights, rows)
        try:
            got = swf_module._column_sums(weights, rows)
        except (OverflowError, ValueError) as exc:
            got = type(exc), str(exc)
        assert repr(got) == repr(want)


@pytest.mark.parametrize("n_believers", [1, 2, 3])
def test_merge_belief_matches_fsum_reference(rng, n_believers):
    # one, two and three believers at random weights, and a density that
    # holds -0.0: fsum turns it into 0.0, and the short sums must too
    signed_zero = Density((0.0, 0.25, 1.0), (4.0, -0.0))
    for trial in range(300):
        beliefs = [random_density(rng) for _ in range(n_believers)]
        if trial % 3 == 0:
            beliefs[0] = signed_zero
        agents = [Preference(d, random_utility(rng, SPACE)) for d in beliefs]
        profile = Profile(SPACE, tuple(agents) + (INDIFFERENT,) * max(0, 3 - n_believers))
        bws = [rng.uniform(0.1, 3.0) for _ in agents]
        contribs = [(i, p, bw, 1.0) for i, (p, bw) in enumerate(zip(agents, bws))]
        total = math.fsum(bws)
        weights = [bw / total for bw in bws]
        bps = merged_breakpoints(beliefs)
        want = _fsum_outcome(weights, [cell_values(d, bps) for d in beliefs])
        belief = _merge(profile, contribs).belief
        assert belief.breakpoints == bps
        assert list(map(float.hex, belief.values)) == list(map(float.hex, want))


def test_merge_two_term_utility_overflow_raises(table1):
    # outcome c sums 0.9 and 0.8 of 1.5e308, past the largest float: fsum
    # raises, and so does the short sum's fallback
    profile, _, _ = table1
    contribs = [(i, profile.agents[i], 1.0, 1.5e308) for i in profile.concerned]
    with pytest.raises(OverflowError):
        _merge(profile, contribs)


def test_every_rule_aggregates_beliefs_at_the_mass_tolerance(edge_profile):
    # each belief integrates to 1 + 0.9999999 * TOL_MEASURE, and rounding
    # puts their mean's mass past 1 + TOL_MEASURE; a society belief derived
    # from checked beliefs is not checked against TOL_MEASURE again
    profile = profile_from_dict(edge_profile)
    for i in profile.concerned:
        assert 0.9999998 * TOL_MEASURE < profile.agents[i].belief.cdf(1.0) - 1.0 <= TOL_MEASURE
    assert baru(profile).belief.cdf(1.0) - 1.0 > TOL_MEASURE
    for name in RULE_NAMES:
        result = rule_by_name(name)(profile)
        assert not result.preference.is_indifferent, name


# sha256 of repr(rule(p)) over p running through the first 40 anonymity
# draws, every transposition of each and each one with a concerned agent
# made indifferent (300 profiles): the bits every rule must keep through
# the short column sums and the derived profiles
RULE_PINS = {
    "baru": "1f178ef8b5bceff590782c87e9749e146278178433de6951119c2153104eb9c0",
    "swf1": "bfb306b3c5d7856a1a0691885e485b82c1903a9b886a318b1ea4968d2d777b36",
    "swf2": "9408b6ca48c4cbae25e515f47874d1042f49fc6b3348fdd2d7a6427d71d471a2",
    "swf3": "b10133e409051d473ecf4de5cfc19e8d7235b6162b3481755eecdbcb6e9c1d8c",
    "swf4": "b4e1480aeb0c59d7b80377bd509c8500adb2d16c1a488e3621a54178a31b0b51",
    "swf5": "1f178ef8b5bceff590782c87e9749e146278178433de6951119c2153104eb9c0",
    "swf6": "5e39d535e626395db30555cf88c0520dc3708ccb13d704765da9d53478c271de",
}


def _pinned_profiles():
    for t in range(40):
        p = random_profile(random.Random(child_seed(20240801, "anonymity", t)))
        yield p
        n = len(p.agents)
        for i, j in itertools.combinations(range(n), 2):
            yield p.swapped(i, j)
        for i in p.concerned:
            yield p.replace(i, INDIFFERENT)


def test_rule_outputs_pinned():
    assert set(RULE_PINS) == set(RULE_NAMES)
    profiles = list(_pinned_profiles())
    assert len(profiles) == 300
    for name in RULE_NAMES:
        rule = rule_by_name(name)
        h = hashlib.sha256()
        for p in profiles:
            h.update(repr(rule(p)).encode())
        assert h.hexdigest() == RULE_PINS[name], name


@pytest.mark.parametrize("name", RULE_NAMES)
def test_rule_is_a_function_of_the_profile_value(name):
    # the batteries evaluate a rule once per profile object in a trial,
    # which holds only if equal profiles give equal results
    rule = rule_by_name(name)
    for seed in range(40):
        p, q = (random_profile(random.Random(seed)) for _ in range(2))
        assert p is not q and p == q
        a, b = rule(p), rule(q)
        assert a == b and repr(a) == repr(b)


def test_baru_swapped_profile_is_bit_identical(rng):
    # fsum makes the aggregate independent of agent order, bit for bit;
    # preference_distance's exact-zero shortcut for equal preferences and
    # the anonymity battery lean on that
    for _ in range(300):
        profile = random_profile(rng)
        base = baru(profile).preference
        for i in range(len(profile.agents)):
            for j in range(i + 1, len(profile.agents)):
                assert baru(profile.swapped(i, j)).preference == base


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
    _assert_tensor_certified(geometry_for(profile).tensor, x)


def _assert_tensor_certified(tensor, x):
    """Solver-independent certificate: x lies in the image of the (S, X, n)
    contribution tensor, and no image point improves the linearised
    log-product at x (h(1/x) <= 1/x . x = n), for the support function
    h(c) = sum over segments of max over outcomes of c . tensor[s, x]."""
    n = tensor.shape[2]
    x = np.asarray(x)

    def support(dirs):
        return (tensor @ np.atleast_2d(dirs).T).max(axis=1).sum(axis=0)

    assert np.all(x > 0.0)
    assert support(1.0 / x)[0] <= n * (1.0 + 1e-9)
    dirs = direction_set(n)
    assert np.all(dirs @ x <= support(dirs) + 1e-9)


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
    point = np.asarray(_nash_point(profile))
    assert np.abs(point - 1.0 / 3.0).max() <= 1e-8
    _assert_nash_certified(profile, point)


def _continuity_solves(monkeypatch, trial):
    """The five (profile, point) solves of swf1 in criterion 5's
    continuity trial."""
    seed = child_seed(child_seed(20240801, "swf1:continuity", 0), "continuity", trial)
    scenario = AXIOM_SPECS["continuity"].draw(random.Random(seed), trial, swf1)
    solved = []

    def recording(profile):
        x = _nash_point(profile)
        solved.append((profile, x))
        return x

    with monkeypatch.context() as m:
        m.setattr(swf_module, "_nash_point", recording)
        continuity_probe(swf1, scenario["profile"], scenario["agent"])
    return solved


@pytest.mark.parametrize("trial", [56, 65, 75])
def test_nash_point_certified_on_criterion5_continuity_scenarios(monkeypatch, trial):
    # The slowest solves of swf1's criterion-5 continuity stream: the
    # probe's smallest step leaves each nearly degenerate, and trial 56
    # holds twin agents, whose Hessian is singular.
    solved = _continuity_solves(monkeypatch, trial)
    assert len(solved) == 5
    for profile, x in solved:
        _assert_nash_certified(profile, x)


@pytest.mark.parametrize("n_agents", [3, 4])
def test_nash_point_certified_on_random_profiles(rng, n_agents):
    for _ in range(4):
        profile = random_profile(rng, space=SPACE, n_agents=n_agents, n_concerned=n_agents)
        _assert_nash_certified(profile, _nash_point(profile))


def test_nash_solver_raises_when_rounds_run_out(monkeypatch):
    # Agent i likes outcome o_i best, believes in state i with 0.8, 0.5 and
    # 0.5, and values the shared outcome o4 at 0.5, 0.5 and 0.75.  The
    # start's vertices, each agent's best act and the all-ones one, do not
    # hold the bargaining point, which takes four rounds: cut to one, the
    # solver must refuse rather than return the uncertified point.
    space = OutcomeSpace(("o1", "o2", "o3", "o4"))
    own, shared = (0.8, 0.5, 0.5), (0.5, 0.5, 0.75)
    prefs = tuple(
        Preference(
            Density.from_state_probs(
                tuple(own[i] if s == i else (1.0 - own[i]) / 2.0 for s in range(3))
            ),
            Utility(
                {
                    lab: 1.0 if lab == f"o{i + 1}" else shared[i] if lab == "o4" else 0.0
                    for lab in space.labels
                }
            ),
        )
        for i in range(3)
    )
    profile = Profile(space, prefs)
    _assert_nash_certified(profile, _nash_point(profile))
    monkeypatch.setattr(swf_module, "_NASH_ROUNDS", 1)
    with pytest.raises(DegenerateNashPoint):
        _nash_point(profile)


def test_nash_start_holds_the_bargaining_act(monkeypatch):
    # Agent i likes only outcome o_i and believes in state i with 0.8.  The
    # start's all-ones vertex is the act giving each agent its outcome on
    # its own state, 0.8 per agent and the bargaining point, so one round
    # certifies it; the constant acts' hull tops out at 1/3 per agent.
    space = OutcomeSpace(("o1", "o2", "o3", "o4"))
    prefs = tuple(
        Preference(
            Density.from_state_probs(tuple(0.8 if s == i else 0.1 for s in range(3))),
            Utility({lab: float(lab == f"o{i + 1}") for lab in space.labels}),
        )
        for i in range(3)
    )
    monkeypatch.setattr(swf_module, "_NASH_ROUNDS", 1)
    point = np.asarray(_nash_point(Profile(space, prefs)))
    assert np.abs(point - 0.8).max() <= 1e-12


def _nash_frank_wolfe_reference(tensor):
    """The solver with its Newton loop on numpy arrays, each step a
    `np.linalg.lstsq` fit; the reference for the Python-float loop."""
    S, _, n = tensor.shape
    seg = np.arange(S)
    starts = [tensor[seg, (tensor @ c).argmax(axis=1), :].sum(axis=0) for c in (np.ones(n), *np.eye(n))]
    P = np.array(list(dict.fromkeys(map(tuple, starts))))
    lam = np.full(len(P), 1.0 / len(P))
    for _ in range(swf_module._NASH_ROUNDS):
        for _ in range(swf_module._NEWTON_STEPS):
            D = (P[1:] - P[0]) / (P.T @ lam)
            step = np.linalg.lstsq(D.T, np.ones(n), rcond=None)[0]
            d = np.concatenate(([-step.sum()], step))
            decrement = float(np.linalg.norm(step @ D))
            if decrement <= 1e-15:
                break
            neg = d < 0.0
            ratios = -lam[neg] / d[neg]
            tmax = float(ratios.min()) if neg.any() else np.inf
            damped = 1.0 / (1.0 + decrement)
            lam = lam + min(tmax, damped) * d
            if tmax <= damped:
                lam[np.flatnonzero(neg)[ratios.argmin()]] = 0.0
            keep = lam > 0.0
            P, lam = P[keep], lam[keep] / lam[keep].sum()
        cur = P.T @ lam
        grad = 1.0 / cur
        vertex = tensor[seg, (tensor @ grad).argmax(axis=1), :].sum(axis=0)
        gap = float(grad @ (vertex - cur))
        if gap <= 1e-12 * n:
            return cur
        P = np.vstack([P, vertex])
        lam = np.append(lam * (1.0 - 1e-3), 1e-3)
    raise DegenerateNashPoint("reference ran out of rounds")


def _frank_wolfe_on(tensor):
    """`_nash_frank_wolfe` on an (S, X, n) tensor, given as its rows of
    products: one per agent, segment after segment."""
    S, X, n = tensor.shape
    rows = tensor.transpose(2, 0, 1).reshape(n, S * X).tolist()
    return np.asarray(swf_module._nash_frank_wolfe(rows, X))


def _collinear_start_tensors(rng):
    """Tensors whose start vertices are three distinct collinear points.

    Each segment holds a middle point c and c +- d, with the same
    direction d in every segment and sum(d) = 0, all on the 1/8 lattice so
    that the sums are exact.  The all-ones direction ties over each
    segment and picks the middle, listed first.  e_i picks an end when
    d_i != 0, and both ends occur because sum(d) = 0, so the first hull is
    a line and every D is rank-deficient until a vertex leaves."""
    tensors = [np.array([[[0.5, 0.5, 1.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]]])]
    while len(tensors) < 12:
        n = 3 + len(tensors) % 2
        d = [rng.randint(-4, 4) / 8 for _ in range(n - 1)]
        d.append(-math.fsum(d))
        if not d[-1] or abs(d[-1]) > 1.0:
            continue
        segs = []
        for _ in range(1 + len(tensors) % 3):
            c = [rng.randint(8, 16) / 8 for _ in range(n)]
            segs.append([c, [a + b for a, b in zip(c, d)], [a - b for a, b in zip(c, d)]])
        tensors.append(np.array(segs))
    return tensors


def test_nash_frank_wolfe_matches_lstsq_reference(rng, monkeypatch):
    profiles = [
        random_profile(rng, space=SPACE, n_agents=n, n_concerned=n) for n in (3, 4) for _ in range(150)
    ]
    profiles += [_twin_profile(rng, n) for n in (3, 4) for _ in range(30)]
    for trial in (56, 65, 75):
        profiles += [profile for profile, _ in _continuity_solves(monkeypatch, trial)]
    crafted = _collinear_start_tensors(rng)
    deficient = 0
    newton_step = swf_module._newton_step

    def counting(cols, n):
        nonlocal deficient
        if cols and np.linalg.matrix_rank(np.array(cols)) < min(len(cols), n):
            deficient += 1
        return newton_step(cols, n)

    monkeypatch.setattr(swf_module, "_newton_step", counting)
    for profile in profiles:
        perm = _canonical_order(profile)
        tensor = np.ascontiguousarray(geometry_for(profile).tensor[:, :, perm])
        got = np.empty(len(perm))
        want = np.empty(len(perm))
        got[perm] = _frank_wolfe_on(tensor)
        want[perm] = _nash_frank_wolfe_reference(tensor)
        _assert_nash_certified(profile, got)
        _assert_nash_certified(profile, want)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    for tensor in crafted:
        got = _frank_wolfe_on(tensor)
        want = _nash_frank_wolfe_reference(tensor)
        _assert_tensor_certified(tensor, got)
        _assert_tensor_certified(tensor, want)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert deficient >= 20


def test_frank_wolfe_reads_the_geometry_rows(monkeypatch, rng):
    # the contribution points have one builder: the solve gets the
    # geometry's own rows, in canonical order
    built, received = [], []
    geometry_for_, frank_wolfe = swf_module.geometry_for, swf_module._nash_frank_wolfe

    def recording_geometry_for(profile):
        built.append(geometry_for_(profile))
        return built[-1]

    def recording_frank_wolfe(rows, width):
        received.append((rows, width))
        return frank_wolfe(rows, width)

    monkeypatch.setattr(swf_module, "geometry_for", recording_geometry_for)
    monkeypatch.setattr(swf_module, "_nash_frank_wolfe", recording_frank_wolfe)
    for n in (3, 4, 3, 4):
        profile = random_profile(rng, space=SPACE, n_agents=n, n_concerned=n)
        _nash_point(profile)
        (rows, width), geom = received[-1], built[-1]
        perm = _canonical_order(profile)
        assert width == len(geom.labels) and len(rows) == n
        assert all(row is geom.rows[k] for row, k in zip(rows, perm))


def test_best_vertex_takes_first_maximum_and_folds_segments():
    # the oracle's picks and sums, bit for bit: numpy's first maximum per
    # segment, then the picked points added segment after segment; lattice
    # values make ties within a segment common
    rng = random.Random(2016)
    ties = 0
    for trial in range(600):
        S, X, n = rng.randint(1, 6), rng.randint(2, 5), rng.randint(3, 4)
        draw = (lambda: rng.randint(0, 3) / 4) if trial % 2 else rng.random
        tensor = np.array([[[draw() for _ in range(n)] for _ in range(X)] for _ in range(S)])
        scores = tensor @ np.array([rng.randint(1, 4) / 2 for _ in range(n)])
        picks = scores.argmax(axis=1)
        want = tensor[0, picks[0]]
        for s in range(1, S):
            want = want + tensor[s, picks[s]]
        rows = tensor.transpose(2, 0, 1).reshape(n, S * X).tolist()
        got = geometry_module._best_vertex(rows, X, scores.ravel().tolist())
        assert [v.hex() for v in got] == [v.hex() for v in want.tolist()]
        ties += any((row == row.max()).sum() > 1 for row in scores)
    assert ties >= 50


def test_newton_step_branches_match_lstsq():
    # full column rank (back substitution), more columns than rows, twin
    # rows, a zero column, and no columns at all (the single-vertex hull)
    cases = [
        [[1.0, 0.5, -0.2], [0.3, -1.0, 0.4]],
        [[1.0, 0.5, -0.2], [0.3, -1.0, 0.4], [0.2, 0.1, 1.0], [-0.7, 0.6, 0.5]],
        [[1.0, 1.0, -0.2], [0.3, 0.3, 0.4], [0.5, 0.5, 0.9]],
        [[0.0, 0.0, 0.0], [0.3, -1.0, 0.4]],
        [],
    ]
    for cols in cases:
        step, decrement = swf_module._newton_step(cols, 3)
        if not cols:
            assert (step, decrement) == ([], 0.0)
            continue
        A = np.array(cols).T
        want = np.linalg.lstsq(A, np.ones(3), rcond=None)[0]
        assert np.abs(np.array(step) - want).max() <= 1e-14
        assert decrement == pytest.approx(float(np.linalg.norm(A @ want)), abs=1e-14)


@pytest.mark.parametrize("n_agents", [2, 3, 4])
def test_nash_point_folds_without_builtin_sum(rng, forbid_float_sum, n_agents):
    # builtin sum compensates from Python 3.12 on; a float sum anywhere on
    # the solve would make swf1's bits depend on the interpreter
    profiles = [
        random_profile(rng, space=SPACE, n_agents=max(n_agents, 3), n_concerned=n_agents)
        for _ in range(5)
    ]
    if n_agents > 2:
        profiles.append(_twin_profile(rng, n_agents))
    forbid_float_sum()
    for profile in profiles:
        x = _nash_point(profile)
        assert np.all(np.asarray(x) > 0.0)


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


def test_nash_point_reaches_thin_turn_outcome(thin_pair):
    # the Pareto chain runs v -> c -> p; dropping c's thin turn would leave
    # v, whose product 0.5000005 is below c's 0.5000009975
    profile, points = thin_pair
    x, y = _nash_point(profile)
    cx, cy = points["c"]
    assert x * y >= cx * cy
    assert x * y == pytest.approx(0.5000009975, abs=1e-14)


def _twin_profile(rng, n_agents):
    """Agents 0 and 1 share one preference; the rest are drawn freely."""
    drawn = random_profile(rng, space=SPACE, n_agents=3, n_concerned=n_agents - 1)
    prefs = [drawn.agents[i] for i in drawn.concerned]
    return Profile(SPACE, (prefs[0], *prefs))


def test_swf1_permutation_exact_weights(rng):
    profiles = [
        random_profile(rng, space=SPACE, n_agents=3, n_concerned=3),
        random_profile(rng, space=SPACE, n_agents=4, n_concerned=4),
        _twin_profile(rng, 3),
    ]
    # two concerned agents: the Pareto walk runs in canonical order too
    profiles += [random_profile(rng, space=SPACE, n_agents=3, n_concerned=2) for _ in range(8)]
    for profile in profiles:
        base = dict(swf1(profile).utility_weights)
        prefs = profile.agents
        for perm in itertools.permutations(range(len(prefs))):
            shuffled = Profile(SPACE, tuple(prefs[p] for p in perm))
            got = dict(swf1(shuffled).utility_weights)
            for new_pos, old_pos in enumerate(perm):
                assert got.get(new_pos) == base.get(old_pos)  # bit-identical


def _nash_point_geometry_route(profile):
    """The two-agent point with the rows built apart from `geometry_for`,
    as `_nash_point` built them before it read that geometry: the grid
    merged and the rows built over the agents in canonical order, then the
    Pareto walk; the reference for `_nash_point`."""
    perm = _canonical_order(profile)
    agents = [profile.agents[profile.concerned[k]] for k in perm]
    bps = merged_breakpoints([p.belief for p in agents])
    masses = [segment_masses(p.belief, bps) for p in agents]
    utils = [p.utility.values_of(profile.space.labels) for p in agents]
    out = np.empty(2)
    out[perm] = _pareto_walk(masses, utils)
    return out


def _sparse_density(rng, zeros):
    """Density on 1/16-lattice cells; with `zeros`, some cells hold no mass."""
    k = rng.randint(1, 5)
    bps = (0.0, *(c / 16 for c in sorted(rng.sample(range(1, 16), k - 1))), 1.0)
    vals = [rng.uniform(0.1, 2.0) for _ in range(k)]
    if zeros and k > 1:
        for s in rng.sample(range(k), rng.randint(1, k - 1)):
            vals[s] = 0.0
    total = math.fsum(v * (b - a) for v, a, b in zip(vals, bps, bps[1:]))
    return Density(bps, tuple(v / total for v in vals))


def test_two_agent_nash_point_matches_geometry_route():
    rng = random.Random(20241019)
    seen = dict.fromkeys(("one-zero", "both-zero", "duplicate", "lattice"), 0)
    for trial in range(2000):
        space = OutcomeSpace(tuple(f"o{x}" for x in range(rng.randint(4, 7))))
        X = len(space.labels)
        lattice = trial % 4 == 1
        utils = []
        while len(utils) < 2:
            raw = [rng.randint(0, 4) / 4 if lattice else rng.random() for _ in range(X)]
            utils.append(raw)
            if trial % 3 == 0:
                for _ in range(rng.randint(1, X - 2)):
                    i, j = rng.randrange(X), rng.randrange(X)
                    for u in utils:
                        u[i] = u[j]
            if any(max(u) == min(u) for u in utils):
                utils = []
        prefs = [INDIFFERENT] * rng.randint(3, 4)
        for slot, raw in zip(rng.sample(range(len(prefs)), 2), utils):
            u = normalize_utility(dict(zip(space.labels, raw)), space)
            prefs[slot] = Preference(_sparse_density(rng, trial % 2 == 1), u)
        profile = Profile(space, tuple(prefs))
        got = _nash_point(profile)
        want = _nash_point_geometry_route(profile)
        assert [x.hex() for x in got] == [x.hex() for x in want.tolist()]
        agents = [profile.agents[i] for i in profile.concerned]
        bps = merged_breakpoints([p.belief for p in agents])
        zeros = [(m1 == 0.0) + (m2 == 0.0) for m1, m2 in zip(*(segment_masses(p.belief, bps) for p in agents))]
        seen["one-zero"] += 1 in zeros
        seen["both-zero"] += 2 in zeros
        seen["duplicate"] += len(set(zip(*(map(p.utility.value, space.labels) for p in agents)))) < X
        seen["lattice"] += lattice
    assert min(seen.values()) >= 200, seen


def test_pareto_walk_square():
    # the unit square's corners: (1, 1) is the only Pareto point
    assert _pareto_walk([[1.0], [1.0]], [[0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0]]) == (1.0, 1.0)


def test_pareto_walk_edge_interior():
    # triangle face x + y = 1: the product peaks mid-edge
    x, y = _pareto_walk([[1.0], [1.0]], [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert (x, y) == pytest.approx((0.5, 0.5), abs=1e-12)


def test_pareto_walk_start_matches_chain_when_scaled_x_collide():
    # two hull vertices one ulp apart in x scale to the same x; the walk
    # must still start where its chain starts, not on the vertex above,
    # or it takes the edge between them twice and leaves the image
    u1, u2 = [0.0, 0.9, 0.9 - 2.0**-53], [0.0, 0.0, 1.0]
    m1 = 0.011
    assert m1 * u1[1] == m1 * u1[2]
    x, y = _pareto_walk([[m1], [1.0]], [u1, u2])
    assert y == 1.0
    assert x == m1 * u1[1] + m1 * (u1[2] - u1[1])


def _max_product_polygon_reference(verts):
    """The product's maximum over a convex CCW polygon, from every vertex
    and every edge's interior peak; with `minkowski_polygon` it was the
    two-agent route before the Pareto walk."""
    cands = list(verts)
    for (x0, y0), (x1, y1) in zip(verts, verts[1:] + verts[:1]):
        dx, dy = x1 - x0, y1 - y0
        if abs(dx) > 1e-15 and abs(dy) > 1e-15:
            ts = -(dx * y0 + dy * x0) / (2.0 * dx * dy)
            if 0.0 < ts < 1.0:
                cands.append((x0 + ts * dx, y0 + ts * dy))
    return max(cands, key=lambda p: max(p[0], 0.0) * max(p[1], 0.0))


def _pareto_walk_exact(masses, utils):
    """The Pareto walk in rationals, on the exact hull of the float
    inputs; it rounds once, at the end."""
    pts = sorted(set(zip(map(Fraction, utils[0]), map(Fraction, utils[1]))))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1]) <= (
                out[-1][1] - out[-2][1]
            ) * (p[0] - out[-2][0]):
                out.pop()
            out.append(p)
        return out

    hull = pts if len(pts) <= 2 else half(pts)[:-1] + half(pts[::-1])[:-1]
    first = hull.index(max(hull))
    last = hull.index(max(hull, key=lambda p: (p[1], p[0])))
    chain = [hull[(first + j) % len(hull)] for j in range((last - first) % len(hull) + 1)]
    x = y = Fraction(0)
    edges = []
    for m1, m2 in zip(map(Fraction, masses[0]), map(Fraction, masses[1])):
        if m1 > 0 and m2 > 0:
            x, y = x + m1 * chain[0][0], y + m2 * chain[0][1]
            edges += [(m1 * (q[0] - p[0]), m2 * (q[1] - p[1])) for p, q in zip(chain, chain[1:])]
        else:
            x, y = x + m1 * max(map(Fraction, utils[0])), y + m2 * max(map(Fraction, utils[1]))
    # every chain edge points up and to the left: angle order is slope order
    edges.sort(key=lambda e: e[1] / e[0])
    for ex, ey in edges:
        rise = ex * y + ey * x
        if rise <= 0:
            break
        if rise < -2 * ex * ey:
            t = rise / (-2 * ex * ey)
            x, y = x + t * ex, y + t * ey
            break
        x, y = x + ex, y + ey
    return float(x), float(y)


def test_pareto_walk_matches_polygon_route():
    rng = random.Random(20240810)
    seen = dict.fromkeys(
        ("one-zero", "both-zero", "duplicate", "collinear", "lattice", "single-vertex"), 0
    )
    trials = 0
    while trials < 2400:
        S, X = rng.randint(1, 7), rng.randint(2, 7)
        kind = ("random", "duplicate", "lattice", "thirds", "single")[trials % 5]
        if kind == "lattice":
            utils = [[rng.randint(0, 4) / 4 for _ in range(X)] for _ in range(2)]
        elif kind == "thirds":
            # collinear in exact arithmetic, off by rounding in floats
            ramp = [x / (X - 1) for x in range(X)]
            utils = [ramp, ramp[::-1] if rng.random() < 0.5 else [rng.random() for _ in range(X)]]
        else:
            utils = [[rng.random() for _ in range(X)] for _ in range(2)]
        if kind == "duplicate":
            for _ in range(rng.randint(1, X)):
                i, j = rng.randrange(X), rng.randrange(X)
                utils[0][i], utils[1][i] = utils[0][j], utils[1][j]
        if kind == "single":
            # one point beats every other in both coordinates
            k = rng.randrange(X)
            utils[0][k], utils[1][k] = max(utils[0]) + 0.25, max(utils[1]) + 0.25
        masses = [[rng.random() for _ in range(S)] for _ in range(2)]
        if trials % 3 == 0:
            for s in range(S):
                r = rng.random()
                if r < 0.5:
                    masses[rng.randrange(2)][s] = 0.0
                elif r < 0.7:
                    masses[0][s] = masses[1][s] = 0.0
        if min(max(masses[0]), max(masses[1]), max(utils[0]), max(utils[1])) <= 0.0:
            continue  # the product is zero everywhere, as for no profile
        trials += 1
        geom = ProfileGeometry(
            (0, 1), tuple(f"o{x}" for x in range(X)), tuple(np.linspace(0.0, 1.0, S + 1)),
            tuple(masses), tuple(utils),
        )
        want = np.array(_max_product_polygon_reference(list(minkowski_polygon(geom))))
        got = np.array(_pareto_walk(masses, utils))
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        exact = np.array(_pareto_walk_exact(masses, utils))
        assert np.abs(got - exact).max() <= 1e-15 * np.abs(exact).max()
        zeros = [(m1 == 0.0) + (m2 == 0.0) for m1, m2 in zip(*masses)]
        seen["one-zero"] += 1 in zeros
        seen["both-zero"] += 2 in zeros
        seen["duplicate"] += len(set(zip(*utils))) < X
        seen["collinear"] += kind == "thirds"
        seen["lattice"] += kind == "lattice"
        seen["single-vertex"] += kind == "single"
    assert min(seen.values()) >= 200, seen


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


def test_default_anchor_built_once_per_space(table1):
    assert default_anchor(OutcomeSpace(SPACE.labels)) is default_anchor(SPACE)
    profile, _, _ = table1
    fresh = Preference(Density.uniform(), ramp_utility(profile.space))
    for name, rule in (("swf2", swf2), ("swf3", swf3)):
        assert rule_by_name(name)(profile) == rule(profile, fresh)


def _geometric_pool_reference(densities):
    """`geometric_pool` with its own rescaling, as before it called
    `discount_to_belief`."""
    from math import fsum

    from baru.measure import TOL_EXACT, cell_values

    n = len(densities)
    bps = merged_breakpoints(densities)
    vals = []
    for col in zip(*(cell_values(d, bps) for d in densities)):
        prod = 1.0
        for v in col:
            prod *= v
        vals.append(prod ** (1.0 / n) if prod > 0.0 else 0.0)
    total = fsum(v * (bps[s + 1] - bps[s]) for s, v in enumerate(vals))
    if total <= TOL_EXACT:
        raise NullPool("pooled density integrates to zero")
    return Density(bps, tuple(v / total for v in vals))


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except NullPool as exc:
        return f"NullPool({exc})"


def test_geometric_pool_matches_own_rescaling(rng):
    def density():
        cuts = sorted({rng.randrange(1, 16) / 16 for _ in range(rng.randint(0, 4))})
        bps = (0.0, *cuts, 1.0)
        raw = [rng.choice((0.0, 0.0, rng.uniform(0.1, 3.0))) for _ in range(len(bps) - 1)]
        raw[rng.randrange(len(raw))] = rng.uniform(0.1, 3.0)
        total = sum(v * (b - a) for v, a, b in zip(raw, bps[:-1], bps[1:]))
        return Density(bps, tuple(v / total for v in raw))

    null = 0
    for _ in range(2100):
        ds = [density() for _ in range(rng.randint(1, 4))]
        got = _outcome(geometric_pool, ds)
        assert got == _outcome(_geometric_pool_reference, ds)
        null += got.startswith("NullPool")
    assert 100 < null < 2000
    halves = (Density((0.0, 0.5, 1.0), (2.0, 0.0)), Density((0.0, 0.5, 1.0), (0.0, 2.0)))
    with pytest.raises(NullPool, match="pooled density integrates to zero"):
        geometric_pool(halves)


def test_swf1_lone_agent_is_baru_without_geometry():
    from baru.harness import random_density, random_utility

    # swf solves on Python floats alone: no numpy
    assert not {"np", "numpy"} & set(vars(swf_module))
    rng = random.Random(4401)
    for _ in range(300):
        lone = Preference(random_density(rng), random_utility(rng, SPACE))
        slot = rng.randrange(3)
        agents = tuple(lone if k == slot else INDIFFERENT for k in range(3))
        profile = Profile(SPACE, agents)
        got, want = swf1(profile), baru(profile)
        assert got == want and repr(got) == repr(want)
    nobody = Profile(SPACE, (INDIFFERENT,) * 3)
    assert repr(swf1(nobody)) == repr(baru(nobody))
