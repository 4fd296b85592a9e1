"""Acts, normalized utilities, preferences, expected utility, lottery
realization, the reduction to few-outcome acts, and the uniform metric."""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from baru import (
    Act,
    Density,
    INDIFFERENT,
    Lottery,
    OutcomeSpace,
    Preference,
    Profile,
    TOL_MEASURE,
    Utility,
    ZeroFunction,
    baru,
    compare,
    discount_to_belief,
    expected_utility,
    normalize_utility,
    preference_distance,
    pushforward,
    realize_lottery_act,
    simple_reduction,
)
from baru.axioms import ScenarioRejected, agreement_gap
from baru.harness import (
    AXIOM_SPECS,
    child_seed,
    profile_from_dict,
    random_density,
    random_profile,
    random_utility,
)
from baru.measure import merged_breakpoints, segment_masses
from baru.prefs import _cut_at_mass, act_value

SPACE = OutcomeSpace(("a", "b", "c", "d"))


def test_outcome_space_needs_four_distinct_labels():
    with pytest.raises(ValueError):
        OutcomeSpace(("a", "b", "c"))
    with pytest.raises(ValueError):
        OutcomeSpace(("a", "b", "c", "c"))
    assert SPACE.index("c") == 2
    assert "c" in SPACE and "z" not in SPACE


def test_outcome_subset_is_checked():
    assert SPACE.subset(iter(["c", "a"])) == ("c", "a")
    with pytest.raises(ValueError, match="outcome subset must be non-empty"):
        SPACE.subset(())
    with pytest.raises(ValueError, match="unknown outcome 'x'"):
        SPACE.subset(("a", "x"))


def test_act_must_tile_unit_interval():
    with pytest.raises(ValueError):
        Act(((0.0, 0.5, "a"),))
    with pytest.raises(ValueError):
        Act(((0.0, 0.5, "a"), (0.6, 1.0, "b")))
    with pytest.raises(ValueError):
        Act(((0.5, 1.0, "a"), (0.0, 0.5, "b")))  # constructor wants order
    act = Act.from_segments(((0.5, 1.0, "a"), (0.0, 0.5, "b")))  # sorts
    assert act.outcome_at(0.25) == "b"
    assert act.outcome_at(0.75) == "a"


def test_act_merge_joins_adjacent_equal_labels():
    act = Act.from_segments(((0.0, 0.3, "a"), (0.3, 0.7, "a"), (0.7, 1.0, "b")))
    assert act.segments == ((0.0, 0.7, "a"), (0.7, 1.0, "b"))
    assert act.outcomes_used() == ("a", "b")


def test_act_dict_round_trip():
    act = Act.from_segments(((0.0, 0.25, "d"), (0.25, 1.0, "a")))
    assert Act.from_dict(act.as_dict()) == act


def test_utility_requires_unit_normalization():
    with pytest.raises(ValueError):
        Utility({"a": 0.2, "b": 0.9})
    u = Utility({"a": 0.0, "b": 1.0, "c": 0.25})
    assert u.value("c") == 0.25
    with pytest.raises(ValueError):
        u.value("missing")


def test_utility_repr_tells_ninth_digit_apart():
    # six significant digits would print both as 0.123457
    u = Utility({"a": 0.0, "b": 1.0, "c": 0.123456789})
    v = Utility({"a": 0.0, "b": 1.0, "c": 0.12345678})
    assert repr(u) != repr(v)
    assert "0.123456789" in repr(u)


def test_utility_rejects_non_finite_values():
    with pytest.raises(ValueError):
        Utility({"a": 0.0, "b": 1.0, "c": math.nan})
    with pytest.raises(ValueError):
        Utility({"a": 0.0, "b": 1.0, "c": math.inf})
    with pytest.raises(ValueError):
        normalize_utility({"a": math.nan, "b": 1.0, "c": 1.0, "d": 1.0}, SPACE)
    with pytest.raises(ValueError):
        normalize_utility({"a": 0.0, "b": 1.0, "c": -math.inf, "d": 1.0}, SPACE)


def test_normalize_utility_strips_positive_affine_maps():
    raw = {"a": 3.0, "b": -1.0, "c": 2.6, "d": -1.0}
    u = normalize_utility(raw, SPACE)
    v = normalize_utility({k: 2.5 * x + 7.0 for k, x in raw.items()}, SPACE)
    assert u is not None and v is not None
    for lab in SPACE.labels:
        assert u.value(lab) == pytest.approx(v.value(lab), abs=1e-12)
    assert u.value("a") == 1.0 and u.value("b") == 0.0


def test_normalize_utility_constant_is_indifference():
    assert normalize_utility({lab: 4.2 for lab in SPACE.labels}, SPACE) is None


def test_normalize_utility_rejects_bad_support():
    with pytest.raises(ValueError):
        normalize_utility({"a": 1.0}, SPACE)
    with pytest.raises(ValueError):
        normalize_utility({**{l: 0.0 for l in SPACE.labels}, "zz": 1.0}, SPACE)


def test_preference_pairs_or_nothing():
    with pytest.raises(ValueError):
        Preference(Density.uniform(), None)
    with pytest.raises(ValueError):
        Preference(None, Utility({"a": 0.0, "b": 1.0}))
    assert INDIFFERENT.is_indifferent
    assert not Preference(Density.uniform(), Utility({"a": 0.0, "b": 1.0})).is_indifferent


def test_profile_validation():
    p = Preference(Density.uniform(), Utility({lab: float(lab == "a") for lab in SPACE.labels}))
    with pytest.raises(ValueError):
        Profile(SPACE, (p, p))  # fewer than three agents
    mismatched = Preference(Density.uniform(), Utility({"x": 0.0, "y": 1.0}))
    with pytest.raises(ValueError):
        Profile(SPACE, (p, mismatched, INDIFFERENT))
    prof = Profile(SPACE, (p, INDIFFERENT, p))
    assert prof.concerned == (0, 2)
    swapped = prof.swapped(0, 1)
    assert swapped.concerned == (1, 2)
    replaced = prof.replace(0, INDIFFERENT)
    assert replaced.concerned == (2,)


def _checked(profile):
    """The same profile built by the public constructor, with every check."""
    return Profile(profile.space, tuple(profile.agents))


def test_derived_profiles_equal_checked_ones():
    # swapped and replace check nothing they received already checked
    rng = random.Random(31)
    for _ in range(200):
        prof = random_profile(rng)
        n = len(prof.agents)
        derived = [prof.swapped(i, j) for i in range(-n, n) for j in range(n)]
        derived += [prof.replace(i, INDIFFERENT) for i in range(-n, n)]
        other = Preference(random_density(rng), random_utility(rng, prof.space))
        derived += [prof.replace(i, other) for i in range(n)]
        derived += [prof.permuted(rng.sample(range(n), n))]
        for d in derived:
            want = _checked(d)
            assert d == want and hash(d) == hash(want)
            assert d.concerned == want.concerned and type(d.concerned) is tuple
            assert repr(d) == repr(want)


# Each use of the unchecked builders of lotteries, profiles and
# utilities: every one builds from parts that are valid already.
DERIVED_SITES = {
    ("prefs", "pushforward", "Lottery._derived"),
    ("prefs", "Profile.replace", "Profile._derived"),
    ("prefs", "Profile.permuted", "Profile._derived"),
    ("prefs", "Profile.swapped", "Profile._derived"),
    ("prefs", "_normalized_utility", "_exact_utility"),
    ("harness", "_placed_profile", "Profile._derived"),
    ("harness", "random_utility", "_exact_utility"),
    ("harness", "reversal", "_exact_utility"),
    ("harness", "ira_scenario", "_exact_utility"),
    ("axioms", "continuity_probe", "_exact_utility"),
}


def test_unchecked_builders_are_used_only_at_derivation_sites(unchecked_references):
    assert {ref for ref in unchecked_references if ref[2] != "Density._derived"} == DERIVED_SITES
    # outside input is checked in full: the CLI, the decoders, and the
    # coarsened and rescaled beliefs
    for module, function, _ in unchecked_references:
        assert module != "cli" and "from_dict" not in function, (module, function)
        assert function not in ("_preference", "pushforward_coarsening", "discount_to_belief")


def test_battery_draws_build_what_the_checked_constructors_build(checked_twins):
    # 2 000 draws of each battery against baru, and the continuity probe on
    # each continuity draw, with every unchecked build compared with the
    # checked one; the callers are the sites above (a builder handed to
    # map() is called from the loop that consumes it)
    for axiom, spec in AXIOM_SPECS.items():
        for t in range(2000):
            rng = random.Random(child_seed(20240801, f"twins:{axiom}", t))
            try:
                scenario = spec.draw(rng, t, baru)
            except ScenarioRejected:
                continue
            if axiom == "continuity":
                assert spec.check(baru, scenario).satisfied
    assert set(checked_twins) == {
        ("Density._derived", "_merge"),
        ("Density._derived", "random_density"),
        ("Density._derived", "_fiber_tilt"),
        ("Density._derived", "ira_scenario"),
        ("Density._derived", "continuity_probe"),
        ("Lottery._derived", "pushforward"),
        ("Profile._derived", "_placed_profile"),
        ("Profile._derived", "replace"),
        ("_exact_utility", "random_utility"),
        ("_exact_utility", "reversal"),
        ("_exact_utility", "_placed_profile"),
        ("_exact_utility", "continuity_probe"),
    }


def test_replace_checks_the_incoming_preference():
    p = Preference(Density.uniform(), Utility({lab: float(lab == "a") for lab in SPACE.labels}))
    prof = Profile(SPACE, (p, INDIFFERENT, p))
    foreign = Preference(Density.uniform(), Utility({"w": 0.0, "x": 1.0, "y": 0.0, "z": 0.0}))
    fewer = Preference(Density.uniform(), Utility({"a": 0.0, "b": 1.0, "c": 0.0}))
    for k in (1, -2):
        with pytest.raises(ValueError, match="^agent 1 is not a Preference$"):
            prof.replace(k, "not a preference")
        for bad in (foreign, fewer):
            msg = "^agent 1 utility is not over the profile's outcomes$"
            with pytest.raises(ValueError, match=msg):
                prof.replace(k, bad)
            with pytest.raises(ValueError, match=msg):
                Profile(SPACE, (p, bad, p))


def test_derived_profiles_refuse_out_of_range_agents():
    p = Preference(Density.uniform(), Utility({lab: float(lab == "a") for lab in SPACE.labels}))
    prof = Profile(SPACE, (p, INDIFFERENT, p))
    for call in (
        lambda: prof.swapped(0, 3),
        lambda: prof.swapped(-4, 1),
        lambda: prof.replace(3, INDIFFERENT),
        lambda: prof.replace(-4, p),
    ):
        with pytest.raises(IndexError):
            call()
    with pytest.raises(ValueError, match="not a permutation"):
        prof.permuted([0, 1, 1])


def test_expected_utility_hand_value(table1):
    profile, f, g = table1
    assert expected_utility(profile.agents[0], f) == pytest.approx(0.9, abs=1e-15)
    assert expected_utility(profile.agents[0], g) == pytest.approx(0.9, abs=1e-15)
    assert expected_utility(profile.agents[1], f) == pytest.approx(0.9, abs=1e-15)
    assert expected_utility(profile.agents[1], g) == pytest.approx(0.8, abs=1e-15)
    assert expected_utility(INDIFFERENT, f) == 0.0


def test_expected_utility_and_society_ev_share_one_fold(table1):
    profile, f, g = table1
    society = baru(profile)
    raw = dict(society.raw_utility)
    for act in (f, g):
        for pref in profile.agents[:2]:
            assert expected_utility(pref, act) == act_value(pref.belief, pref.utility.value, act)
        assert society.ev(act) == act_value(society.belief, raw.__getitem__, act)


def test_compare_verdicts(table1):
    profile, f, g = table1
    assert compare(profile.agents[0], f, g).verdict == "tie"
    assert compare(profile.agents[1], f, g).verdict == "first"
    assert compare(profile.agents[1], g, f).verdict == "second"


def test_pushforward_masses(table1):
    profile, f, _ = table1
    lot = pushforward(f, profile.agents[0].belief, profile.space)
    assert lot.value("a") == pytest.approx(0.9, abs=1e-12)
    assert lot.value("b") == pytest.approx(0.1, abs=1e-12)
    assert lot.value("c") == 0.0


def test_pushforward_of_a_society_belief_past_the_mass_tolerance(edge_profile):
    # baru's society belief on this profile integrates past 1 + TOL_MEASURE
    # by rounding alone; its pushforwards are its masses, unchecked, and
    # restricted monotonicity's agreement check can compare them
    profile = profile_from_dict(edge_profile)
    society = baru(profile).belief
    assert society.cdf(1.0) - 1.0 > TOL_MEASURE
    for lab in profile.space.labels:
        lot = pushforward(Act.constant(lab), society, profile.space)
        assert lot.as_mapping() == {x: society.cdf(1.0) if x == lab else 0.0 for x in lot.labels}
        gap = agreement_gap(Act.constant(lab), (society, profile.agents[0].belief), profile.space)
        assert gap <= 2 * TOL_MEASURE


def test_lottery_validation():
    with pytest.raises(ValueError):
        Lottery({"a": 0.7, "b": 0.7})
    with pytest.raises(ValueError):
        Lottery({"a": -0.1, "b": 1.1})
    with pytest.raises(ValueError):
        Lottery({"zz": 1.0}, SPACE)
    lot = Lottery({"a": 1.0}, SPACE)
    assert lot.value("d") == 0.0


def test_lottery_rejects_non_finite_probabilities():
    with pytest.raises(ValueError):
        Lottery({"a": math.nan, "b": 1.0})
    with pytest.raises(ValueError):
        Lottery({"a": math.inf, "b": -math.inf})


def _random_belief(rng: random.Random) -> Density:
    cuts = sorted({rng.randrange(1, 32) / 32 for _ in range(rng.randint(0, 5))})
    bps = (0.0, *cuts, 1.0)
    raw = [rng.uniform(0.1, 3.0) for _ in range(len(bps) - 1)]
    total = math.fsum(v * (b - a) for v, a, b in zip(raw, bps[:-1], bps[1:]))
    return Density(bps, tuple(v / total for v in raw))


def test_expected_utility_and_pushforward_match_per_segment_masses(rng):
    # one CDF value per act edge gives exactly Density.mass of each segment
    for _ in range(300):
        belief = _random_belief(rng)
        edges = sorted({0.0, 1.0, *(rng.random() for _ in range(rng.randint(0, 6)))})
        act = Act(tuple((a, b, rng.choice(SPACE.labels)) for a, b in zip(edges[:-1], edges[1:])))
        u = Utility({"a": 0.0, "b": 1.0, "c": rng.random(), "d": rng.random()})
        masses = [belief.mass(a, b) for a, b, _ in act.segments]
        assert expected_utility(Preference(belief, u), act) == math.fsum(
            m * u.value(lab) for m, (_, _, lab) in zip(masses, act.segments)
        )
        lot = pushforward(act, belief, SPACE)
        for lab in SPACE.labels:
            assert lot.value(lab) == math.fsum(
                m for m, (_, _, x) in zip(masses, act.segments) if x == lab
            )


def test_realize_lottery_act_single_belief():
    target = Lottery({"a": 0.25, "b": 0.5, "c": 0.25}, SPACE)
    d = Density.from_state_probs((0.7, 0.3))
    act = realize_lottery_act((d,), target, SPACE)
    got = pushforward(act, d, SPACE)
    for lab in SPACE.labels:
        assert got.value(lab) == pytest.approx(target.value(lab), abs=TOL_MEASURE)


def test_realize_lottery_act_two_beliefs_simultaneously():
    target = Lottery({"a": 0.4, "d": 0.6}, SPACE)
    d1 = Density.from_state_probs((0.9, 0.1))
    d2 = Density.from_state_probs((0.2, 0.8))
    act = realize_lottery_act((d1, d2), target, SPACE)
    for d in (d1, d2):
        got = pushforward(act, d, SPACE)
        for lab in SPACE.labels:
            assert got.value(lab) == pytest.approx(target.value(lab), abs=TOL_MEASURE)


def test_simple_reduction_preserves_all_expectations(table1):
    profile, f, _ = table1
    reduced = simple_reduction(profile, f)
    for i in profile.concerned:
        assert expected_utility(profile.agents[i], reduced) == pytest.approx(
            expected_utility(profile.agents[i], f), abs=1e-9
        )


def test_simple_reduction_bounds_range_per_group(rng):
    # agents 1..2 share the utility vector, so their groups collapse and
    # the focal agent keeps at most two outcomes per group
    space = SPACE
    u_shared = Utility({"a": 0.0, "b": 1.0, "c": 1.0, "d": 0.0})
    u_focal = Utility({"a": 0.0, "b": 0.9, "c": 0.3, "d": 1.0})
    prof = Profile(
        space,
        (
            Preference(Density.uniform(), u_focal),
            Preference(Density.from_state_probs((0.3, 0.7)), u_shared),
            Preference(Density.from_state_probs((0.6, 0.4)), u_shared),
        ),
    )
    act = Act.from_segments(
        ((0.0, 0.2, "a"), (0.2, 0.45, "d"), (0.45, 0.8, "b"), (0.8, 1.0, "c"))
    )
    reduced = simple_reduction(prof, act)
    for i in prof.concerned:
        assert expected_utility(prof.agents[i], reduced) == pytest.approx(
            expected_utility(prof.agents[i], act), abs=1e-9
        )
    # groups under u_shared: {a, d} -> 0 and {b, c} -> 1; two outcomes each
    groups = {0.0: set(), 1.0: set()}
    for lab in reduced.outcomes_used():
        groups[u_shared.value(lab)].add(lab)
    assert all(len(g) <= 2 for g in groups.values())


def _cut_at_mass_per_edge(density, a, b, target):
    """`_cut_at_mass` with one `value_at` search per cell, kept as the
    reference for the bits of the one-walk version."""
    inner = [p for p in density.breakpoints if a < p < b]
    edges = [a] + inner + [b]
    acc = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        v = density.value_at(lo)
        m = v * (hi - lo)
        if acc + m >= target - 1e-15:
            if v <= 0.0:
                return lo
            return min(lo + (target - acc) / v, hi)
        acc += m
    return b


def test_cut_at_mass_matches_per_edge_reference():
    # lattice densities from the batteries' draw and densities with
    # arbitrary breakpoints and zero cells; interval ends fall on
    # breakpoints, on 0 and 1, or anywhere, and targets run past the mass
    rng = random.Random(4242)
    for trial in range(3000):
        if trial % 2:
            density = random_density(rng)
        else:
            bps = (0.0, *sorted(rng.sample([rng.random() for _ in range(8)], rng.randint(1, 5))), 1.0)
            masses = [0.0 if rng.random() < 0.3 else rng.random() for _ in bps[1:]]
            masses[-1] += 1e-3
            total = math.fsum(masses)
            density = Density.from_masses(bps, [m / total for m in masses])
        ends = [*density.breakpoints, rng.random(), rng.random()]
        a, b = sorted(rng.choice(ends) for _ in range(2))
        target = rng.uniform(0.0, 1.2) * density.mass(a, b)
        got = _cut_at_mass(density, a, b, target)
        assert got.hex() == _cut_at_mass_per_edge(density, a, b, target).hex()


def test_preference_distance_identical_zero(table1):
    profile, _, _ = table1
    assert preference_distance(profile.agents[0], profile.agents[0]) == 0.0


def _preference_distance_reference(p, q):
    """The signed two-pass form: max over outcomes of +gap, then of -gap."""
    labels = p.utility.labels
    bps = merged_breakpoints((p.belief, q.belief))
    mp, mq = segment_masses(p.belief, bps), segment_masses(q.belief, bps)
    up = [p.utility.value(lab) for lab in labels]
    uq = [q.utility.value(lab) for lab in labels]
    best = 0.0
    for sign in (1.0, -1.0):
        total = math.fsum(
            max(sign * (mp[s] * up[k] - mq[s] * uq[k]) for k in range(len(labels)))
            for s in range(len(mp))
        )
        best = max(best, total)
    return best


def test_preference_distance_matches_two_pass_reference(rng):
    for _ in range(300):
        p, q = (
            Preference(
                _random_belief(rng),
                Utility({"a": 0.0, "b": 1.0, "c": rng.random(), "d": rng.random()}),
            )
            for _ in range(2)
        )
        assert preference_distance(p, q) == _preference_distance_reference(p, q)
        assert preference_distance(p, p) == _preference_distance_reference(p, p) == 0.0


def test_preference_distance_table1_pair(table1):
    profile, _, _ = table1
    assert preference_distance(profile.agents[0], profile.agents[1]) == pytest.approx(
        1.0, abs=1e-12
    )


def test_preference_distance_indifference_conventions(table1):
    profile, _, _ = table1
    assert preference_distance(INDIFFERENT, INDIFFERENT) == 0.0
    assert preference_distance(profile.agents[0], INDIFFERENT) == 1.0


def test_preference_distance_equal_beliefs_is_sup_utility_gap(rng):
    # with a common belief the bang-bang supremum collapses to a weighted
    # L-infinity utility gap; on a uniform belief it is the plain sup gap
    for _ in range(25):
        vals1 = {lab: rng.random() for lab in SPACE.labels}
        vals2 = {lab: rng.random() for lab in SPACE.labels}
        u1 = normalize_utility(vals1, SPACE)
        u2 = normalize_utility(vals2, SPACE)
        if u1 is None or u2 is None:
            continue
        p = Preference(Density.uniform(), u1)
        q = Preference(Density.uniform(), u2)
        want = max(abs(u1.value(lab) - u2.value(lab)) for lab in SPACE.labels)
        assert preference_distance(p, q) == pytest.approx(want, abs=1e-12)


def test_preference_distance_beats_any_single_act(table1, rng):
    profile, f, g = table1
    p, q = profile.agents[0], profile.agents[1]
    d = preference_distance(p, q)
    for act in (f, g, Act.constant("a"), Act.constant("d")):
        gap = abs(expected_utility(p, act) - expected_utility(q, act))
        assert gap <= d + 1e-12


def test_discount_to_belief():
    d = discount_to_belief((0.0, 0.5, 1.0), (2.0, 1.0))
    assert d.mass(0.0, 0.5) == pytest.approx(2.0 / 3.0, abs=1e-12)
    with pytest.raises(ZeroFunction):
        discount_to_belief((0.0, 1.0), (0.0,))
    with pytest.raises(ValueError):
        discount_to_belief((0.0, 1.0), (-1.0,))


@st.composite
def lotteries(draw):
    weights = [draw(st.floats(min_value=0.0, max_value=1.0)) for _ in SPACE.labels]
    total = math.fsum(weights)
    if total <= 0.0:
        weights = [1.0] * len(weights)
        total = float(len(weights))
    return Lottery({lab: w / total for lab, w in zip(SPACE.labels, weights)}, SPACE)


@given(lotteries(), st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=120, deadline=None)
# one outcome takes the whole space, leaving nothing for two tiny weights
@example(Lottery({"a": 0.0, "b": 1.0, "c": 1.53e-30, "d": 1.53e-30}, SPACE), 0.5)
# a single weighted outcome: no allocation LP at all
@example(Lottery({"c": 1.0}, SPACE), 0.3)
def test_realize_lottery_round_trip_property(lot, p):
    d1 = Density.from_state_probs((p, 1.0 - p))
    d2 = Density.uniform()
    act = realize_lottery_act((d1, d2), lot, SPACE)
    for d in (d1, d2):
        got = pushforward(act, d, SPACE)
        for lab in SPACE.labels:
            assert abs(got.value(lab) - lot.value(lab)) <= 1e-9
