"""Single-scenario axiom checkers, co-redundancy certification, spurious
unanimity, the three-horse demonstration, and the continuity probe."""

import hashlib
import math
import random

import numpy as np
import pytest

from baru import (
    Act,
    Coarsening,
    Density,
    EventSet,
    INDIFFERENT,
    OutcomeSpace,
    Preference,
    Profile,
    Utility,
    baru,
    check_anonymity,
    check_faithfulness,
    check_independence_redundant_acts,
    check_no_belief_imposition,
    check_restricted_monotonicity,
    check_restricted_pareto,
    common_belief_feasible,
    complementary_ignorance_demo,
    continuity_probe,
    default_anchor,
    detect_spurious_unanimity,
    expected_utility,
    rule_by_name,
    swf3,
    swf4,
    swf5,
    swf6,
)
from baru.axioms import (
    CoRedundancyCertificate,
    Refused,
    ScenarioRejected,
    _fiber_residual,
    agreement_gap,
    certify_coredundancy,
)
from baru import axioms as axioms_module
from baru import harness, lp
from baru.geometry import _hull2d, geometry_for, image_gap, support_values
from baru.harness import child_seed, ira_scenario, random_profile, random_utility, reversal
from baru.measure import TOL_MEASURE, pushforward_coarsening
from baru.prefs import discount_to_belief

SPACE = OutcomeSpace(("a", "b", "c", "d"))


def _last_dictator(profile: Profile):
    """Toy rule for violation tests: only the last concerned agent counts."""
    last = profile.concerned[-1]
    solo = tuple(
        p if j == last else INDIFFERENT for j, p in enumerate(profile.agents)
    )
    return baru(Profile(profile.space, solo))


def _reversed_utilities(profile: Profile):
    """Toy anti-utilitarian rule: aggregates the reversed utilities."""
    flipped = tuple(
        p if p.is_indifferent else Preference(p.belief, reversal(p.utility))
        for p in profile.agents
    )
    return baru(Profile(profile.space, flipped))


# -- faithfulness -----------------------------------------------------------


def test_faithfulness_baru_satisfied():
    assert check_faithfulness(baru, SPACE).satisfied


def test_faithfulness_phantom_rule_violated():
    phantom = default_anchor(SPACE)
    v = check_faithfulness(lambda pr: swf3(pr, phantom), SPACE)
    assert not v.satisfied
    assert v.witness["society_utility"] is not None
    assert v.as_dict()["verdict"] == "violated"


# -- anonymity ---------------------------------------------------------------


def test_anonymity_baru_satisfied(table1):
    profile, _, _ = table1
    v = check_anonymity(baru, profile)
    assert v.satisfied
    assert v.trials == 3  # all transpositions of three agents


def test_anonymity_positional_rule_violated(table1):
    profile, _, _ = table1
    v = check_anonymity(swf6, profile)
    assert not v.satisfied
    assert "swap" in v.witness and v.witness["distance"] > 0.0


def test_anonymity_skips_transpositions_of_equal_agents(table1):
    # Swapping the two indifferent agents gives a profile equal to this one,
    # so the rule is not called for it; the swap still counts as a trial.
    profile, _, _ = table1
    profile = Profile(profile.space, (*profile.agents, INDIFFERENT))
    calls = []

    def counting(prof):
        calls.append(prof)
        return baru(prof)

    v = check_anonymity(counting, profile)
    assert v.satisfied and v.trials == 6
    assert len(calls) == 6
    assert all(prof != profile for prof in calls[1:])


# -- no belief imposition ----------------------------------------------------


def test_nbi_baru_satisfied(table1):
    profile, _, _ = table1
    assert check_no_belief_imposition(baru, profile, 0).satisfied
    assert check_no_belief_imposition(baru, profile, 1).satisfied


def test_nbi_dictator_violated(table1):
    profile, _, _ = table1
    v = check_no_belief_imposition(swf4, profile, 0)
    assert not v.satisfied
    assert v.witness["distance_with_agent"] <= 1e-9
    assert v.witness["distance_without_agent"] > 1e-9


def test_nbi_rejects_indifferent_agent(table1):
    profile, _, _ = table1
    with pytest.raises(ScenarioRejected):
        check_no_belief_imposition(baru, profile, 2)


# -- restricted monotonicity --------------------------------------------------


def test_rm_baru_follows_new_agent(table1):
    profile, _, _ = table1
    base = Profile(SPACE, (profile.agents[0], INDIFFERENT, profile.agents[1]))
    society = baru(base)
    f, g = Act.constant("a"), Act.constant("b")
    assert society.compare(f, g).verdict == "tie"
    newpref = Preference(
        society.preference.belief,
        Utility({"a": 1.0, "b": 0.0, "c": 0.5, "d": 0.0}),
    )
    v = check_restricted_monotonicity(baru, base, 1, newpref, f, g)
    assert v.satisfied


def test_rm_last_dictator_ignores_new_agent(table1):
    profile, f, g = table1
    # society is the last agent alone, which ties f and g; the acquired
    # preference strictly ranks them, and society must not shrug it off
    base = Profile(SPACE, (profile.agents[1], INDIFFERENT, profile.agents[0]))
    tie_holder = profile.agents[0]
    assert _last_dictator(base).compare(f, g).verdict == "tie"
    newpref = Preference(tie_holder.belief, profile.agents[1].utility)
    v = check_restricted_monotonicity(_last_dictator, base, 1, newpref, f, g)
    assert not v.satisfied
    assert v.witness["agent_verdict"] == "second"
    assert v.witness["society_verdict"] == "tie"


def test_rm_rejects_concerned_slot(table1):
    profile, f, g = table1
    with pytest.raises(ScenarioRejected):
        check_restricted_monotonicity(baru, profile, 0, profile.agents[0], f, g)


def test_rm_rejects_unbalanced_acts(table1):
    profile, f, g = table1
    base = Profile(SPACE, (profile.agents[0], INDIFFERENT, profile.agents[1]))
    newpref = Preference(Density.from_state_probs((0.2, 0.8)), profile.agents[0].utility)
    # f's pushforward differs between society's belief and the new one
    with pytest.raises(ScenarioRejected):
        check_restricted_monotonicity(baru, base, 1, newpref, f, g)


def test_rm_skips_belief_agreement_for_society_belief_itself(monkeypatch):
    # the battery's "aligned" draw hands the new agent society's own belief
    # object; the rule is evaluated once per profile, as in the battery
    rule = harness._once_per_profile(baru)
    rng = random.Random(child_seed(20240801, "restricted-monotonicity", 1))
    sc = harness.AXIOM_SPECS["restricted-monotonicity"].draw(rng, 1, rule)
    assert sc["variant"] == "aligned"
    base, agent, newpref, f, g = sc["base"], sc["agent"], sc["newpref"], sc["f"], sc["g"]
    belief = rule(base).preference.belief
    assert newpref.belief is belief
    calls = []
    real = axioms_module.pushforward
    monkeypatch.setattr(axioms_module, "pushforward", lambda *a: calls.append(a) or real(*a))
    assert check_restricted_monotonicity(rule, base, agent, newpref, f, g).satisfied
    assert calls == []
    # an equal belief in another object is compared act by act
    copy = Preference(Density(belief.breakpoints, belief.values), newpref.utility)
    assert check_restricted_monotonicity(rule, base, agent, copy, f, g).satisfied
    assert len(calls) == 4
    # and a different one is still rejected
    other = Preference(Density.uniform(), newpref.utility)
    with pytest.raises(ScenarioRejected, match="pushforward mismatch"):
        check_restricted_monotonicity(rule, base, agent, other, f, g)


def test_rm_rejects_society_strictness(table1):
    profile, f, g = table1
    base = Profile(SPACE, (profile.agents[0], INDIFFERENT, profile.agents[1]))
    society = baru(base)
    newpref = Preference(society.preference.belief, profile.agents[0].utility)
    # society strictly prefers g at base, so the scenario is vacuous; the
    # checker is the only place that tests the drawn tie
    with pytest.raises(ScenarioRejected, match="society is not indifferent between f and g at base"):
        check_restricted_monotonicity(baru, base, 1, newpref, f, g)


def test_rm_indifferent_society_needs_constant_acts():
    u = Utility({"a": 1.0, "b": 0.0, "c": 0.3, "d": 0.6})
    prof = Profile(SPACE, (INDIFFERENT, INDIFFERENT, INDIFFERENT))
    newpref = Preference(Density.uniform(), u)
    fork = Act.from_segments(((0.0, 0.5, "a"), (0.5, 1.0, "b")))
    with pytest.raises(ScenarioRejected):
        check_restricted_monotonicity(baru, prof, 0, newpref, fork, Act.constant("c"))
    v = check_restricted_monotonicity(
        baru, prof, 0, newpref, Act.constant("a"), Act.constant("b")
    )
    assert v.satisfied and "indifferent-society" in v.notes


# -- independence of redundant acts ------------------------------------------


def test_ira_identical_profiles_trivially_pass(table1):
    profile, _, _ = table1
    v = check_independence_redundant_acts(
        baru, profile, profile, Coarsening.identity(), profile.space.labels
    )
    assert v.satisfied


def test_ira_rejects_unconcerned_mismatch(table1):
    profile, _, _ = table1
    other = Profile(SPACE, (profile.agents[0], INDIFFERENT, profile.agents[1]))
    with pytest.raises(ScenarioRejected):
        check_independence_redundant_acts(
            baru, profile, other, Coarsening.identity(), profile.space.labels
        )


def test_certify_identity_full_outcomes(table1):
    profile, _, _ = table1
    cert = certify_coredundancy(profile, Coarsening.identity(), profile.space.labels)
    assert isinstance(cert, CoRedundancyCertificate)
    assert cert.residual <= 1e-9


def test_certify_refuses_single_outcome(table1):
    profile, _, _ = table1
    out = certify_coredundancy(profile, Coarsening.identity(), ("a",))
    assert isinstance(out, Refused)
    assert out.reason == "image-mismatch"
    assert out.direction is not None and out.residual > 1e-9


@pytest.mark.parametrize(
    "outcomes, message",
    [((), "outcome subset must be non-empty"), (("a", "x"), "unknown outcome 'x'")],
    ids=["empty", "unknown"],
)
def test_certify_refuses_bad_outcome_subset(table1, outcomes, message):
    profile, _, _ = table1
    with pytest.raises(ValueError, match=message):
        certify_coredundancy(profile, Coarsening.identity(), outcomes)


def test_certify_needs_a_concerned_agent():
    nobody = Profile(SPACE, (INDIFFERENT,) * 3)
    with pytest.raises(ValueError, match="certification needs a concerned agent"):
        certify_coredundancy(nobody, Coarsening.identity(), ("a", "b"))


def test_certify_refuses_improper_pushforward(table1):
    # the second piece's slope is 2e-320: agent 0's pushed density overflows
    profile, _, _ = table1
    steep = Coarsening.from_dict({"pieces": [[0, 0.5, 0, 1, 1], [0.5, 1, 0, 1e-320, 1]]})
    out = certify_coredundancy(profile, steep, ("a", "b"))
    assert isinstance(out, Refused)
    assert out.reason == "improper-pushforward"
    assert out.detail.startswith("agent 0: ")


def test_certify_interior_outcome_is_redundant():
    # outcome d's utility pair (0.5, 0.35) lies in the hull of the other
    # three with shared coefficients, so dropping it never shrinks the image
    u1 = Utility({"a": 0.0, "b": 1.0, "c": 0.5, "d": 0.5})
    u2 = Utility({"a": 0.0, "b": 0.3, "c": 1.0, "d": 0.35})
    prof = Profile(
        SPACE,
        (
            Preference(Density.from_state_probs((0.7, 0.3)), u1),
            Preference(Density.from_state_probs((0.4, 0.6)), u2),
            INDIFFERENT,
        ),
    )
    cert = certify_coredundancy(prof, Coarsening.identity(), ("a", "b", "c"))
    assert isinstance(cert, CoRedundancyCertificate)
    assert cert.residual <= 1e-9


def _support_gap(profile, q, outcomes, dirs):
    full = support_values(geometry_for(profile), dirs)
    return np.abs(full - support_values(geometry_for(profile, q, outcomes), dirs))


def test_certify_refuses_thin_gap(thin_gap):
    # a sampled test misses the gap: it lives in a cone of about 2e-5 rad
    # around n, between two of the 720 sweep directions
    profile, n, delta = thin_gap
    q = Coarsening.identity()
    out = certify_coredundancy(profile, q, ("a", "b", "c"))
    assert isinstance(out, Refused)
    assert out.reason == "image-mismatch"
    assert out.method == "exact"
    assert out.residual >= delta * (1.0 - 1e-6)
    direction = np.array(out.direction)
    assert np.arccos(min(1.0, float(direction @ np.array(n)))) < 2e-5
    assert _support_gap(profile, q, ("a", "b", "c"), direction[None, :])[0] > 1e-9


def test_certify_refuses_thin_turn_outcome(thin_pair):
    # c is a hull vertex by its sine, though an absolute 1e-14 cross-product
    # test would drop it; the polygons then measure its distance
    profile, _ = thin_pair
    out = certify_coredundancy(profile, Coarsening.identity(), ("o", "p", "a", "v"))
    assert isinstance(out, Refused)
    assert out.reason == "image-mismatch"
    assert out.residual == pytest.approx(4.45e-7, rel=0.05)


def test_certify_reports_method_and_directions(table1, rng):
    profile, _, _ = table1
    cert = certify_coredundancy(profile, Coarsening.identity(), profile.space.labels)
    assert (cert.method, cert.directions) == ("exact", 0)
    refused = certify_coredundancy(profile, Coarsening.identity(), ("a",))
    assert refused.method == "exact" and refused.directions > 0
    three = random_profile(rng, space=SPACE, n_agents=3, n_concerned=3)
    cert3 = certify_coredundancy(three, Coarsening.identity(), three.space.labels)
    assert isinstance(cert3, CoRedundancyCertificate)
    assert (cert3.method, cert3.directions) == ("sampled", 1000)


def test_certify_exact_residual_bounds_dense_gap():
    # IRA scenarios with one subset outcome dropped: the residual is the
    # largest support gap, so it covers the gap at 100 000 evenly spread
    # directions and exceeds their largest by no more than their spacing allows
    rng = random.Random(4242)
    angles = 2.0 * np.pi * np.arange(100_000) / 100_000
    dense = np.column_stack([np.cos(angles), np.sin(angles)])
    refused = certified = 0
    while refused + certified < 24:
        try:
            p, p2, q, outs = ira_scenario(rng, "merge" if (refused + certified) % 3 == 0 else "identity")
        except ScenarioRejected:
            continue
        for prof in (p, p2):
            k = rng.randrange(len(outs))
            sub = outs[:k] + outs[k + 1 :]
            out = certify_coredundancy(prof, q, sub)
            assert out.method == "exact"
            gap = max(
                float(_support_gap(prof, q, sub, dense[k : k + 10_000]).max())
                for k in range(0, len(dense), 10_000)
            )
            assert gap <= out.residual + 1e-12
            assert out.residual <= gap * 1.001 + 1e-12
            if isinstance(out, Refused):
                refused += 1
            else:
                certified += 1
    assert refused and certified


def _polygon_path_certifies(profile, outcomes, q=None) -> bool:
    """The polygon decision for two agents under the coarsening q (the
    identity when None), without the fiber bound in front of it."""
    residual, _, _, _ = image_gap(geometry_for(profile), geometry_for(profile, q, outcomes))
    return residual <= TOL_MEASURE


def _two_agent_case(rng: random.Random) -> tuple[Profile, tuple[str, ...]]:
    """Two concerned agents with beliefs on one random grid (some cells
    empty for one agent), utilities that often repeat a point or put one
    on a hull edge, and a random outcome subset."""
    labels = tuple("abcdefg"[: rng.randint(4, 7)])
    cuts = sorted({round(rng.random(), 3) for _ in range(rng.randint(0, 3))} - {0.0, 1.0})
    bps = (0.0, *cuts, 1.0)
    agents = []
    for _ in range(2):
        masses = [rng.random() * (rng.random() > 0.25) for _ in range(len(bps) - 1)]
        if not any(masses):
            masses[rng.randrange(len(masses))] = 1.0
        total = sum(masses)
        grid = rng.choice((None, (0.0, 0.5, 1.0), (0.0, 0.25, 0.5, 0.75, 1.0)))
        raw = [rng.choice(grid) if grid else rng.random() for _ in labels]
        raw[0], raw[-1] = 0.0, 1.0  # normalised: minimum 0, maximum 1
        rng.shuffle(raw)
        agents.append(
            Preference(
                Density.from_masses(bps, [v / total for v in masses]),
                Utility(dict(zip(labels, raw))),
            )
        )
    profile = Profile(OutcomeSpace(labels), (agents[0], INDIFFERENT, agents[1]))
    subset = tuple(lab for lab in labels if rng.random() < 0.7) or labels[:1]
    return profile, subset


def test_certify_hull_decision_matches_kink_path():
    # the hull test decides before the polygon path (once named for the
    # kink directions it swept); both must agree
    rng = random.Random(60601)
    q = Coarsening.identity()
    tally = {"hull": 0, "polygon-certified": 0, "refused": 0}
    for _ in range(2000):
        profile, subset = _two_agent_case(rng)
        out = certify_coredundancy(profile, q, subset)
        assert isinstance(out, CoRedundancyCertificate) == _polygon_path_certifies(profile, subset)
        if isinstance(out, Refused):
            tally["refused"] += 1
            assert out.directions > 0
        elif out.directions == 0:
            tally["hull"] += 1
            assert out.residual == 0.0
        else:
            tally["polygon-certified"] += 1
    assert min(tally.values()) >= 10, tally


def test_axioms_binds_no_numpy():
    # the two-agent fall-through compares polygons inside `geometry`;
    # `axioms` itself works on Python floats
    assert not {"np", "numpy"} & set(vars(axioms_module))


def _uv_profile(u1: dict, u2: dict, d1=None, d2=None) -> Profile:
    space = OutcomeSpace(tuple(u1))
    d1 = d1 or Density.from_state_probs((0.7, 0.3))
    d2 = d2 or Density.from_state_probs((0.4, 0.6))
    return Profile(
        space, (Preference(d1, Utility(u1)), Preference(d2, Utility(u2)), INDIFFERENT)
    )


def test_certify_hull_collinear_outcome_on_edge():
    # d = (0.5, 0) sits on the hull edge from a = (0, 0) to b = (1, 0)
    prof = _uv_profile(
        {"a": 0.0, "b": 1.0, "c": 0.0, "d": 0.5}, {"a": 0.0, "b": 0.0, "c": 1.0, "d": 0.0}
    )
    cert = certify_coredundancy(prof, Coarsening.identity(), ("a", "b", "c"))
    assert isinstance(cert, CoRedundancyCertificate)
    assert (cert.method, cert.directions, cert.residual) == ("exact", 0, 0.0)


def test_certify_hull_duplicate_point_outside_subset():
    # d has b's utility point, so dropping d drops no hull vertex
    prof = _uv_profile(
        {"a": 0.0, "b": 1.0, "c": 0.2, "d": 1.0}, {"a": 0.0, "b": 0.3, "c": 1.0, "d": 0.3}
    )
    cert = certify_coredundancy(prof, Coarsening.identity(), ("a", "b", "c"))
    assert isinstance(cert, CoRedundancyCertificate)
    assert (cert.method, cert.directions, cert.residual) == ("exact", 0, 0.0)
    swapped = certify_coredundancy(prof, Coarsening.identity(), ("a", "c", "d"))
    assert isinstance(swapped, CoRedundancyCertificate) and swapped.directions == 0
    assert isinstance(certify_coredundancy(prof, Coarsening.identity(), ("a", "c")), Refused)


def test_certify_mutually_singular_beliefs():
    # each cell carries one agent's mass only
    left, right = Density.from_state_probs((1.0, 0.0)), Density.from_state_probs((0.0, 1.0))
    u1 = {"a": 0.0, "b": 1.0, "c": 0.4, "d": 1.0}
    u2 = {"a": 0.0, "b": 0.2, "c": 1.0, "d": 1.0}
    prof = _uv_profile(u1, u2, left, right)
    cert = certify_coredundancy(prof, Coarsening.identity(), ("a", "b", "c", "d"))
    assert (cert.method, cert.directions, cert.residual) == ("exact", 0, 0.0)
    # d = (1, 1) is a hull vertex outside the subset, but each cell sees a
    # single agent, whose range [0, 1] the subset already spans: the
    # polygons certify what the hull test cannot
    cert = certify_coredundancy(prof, Coarsening.identity(), ("a", "b", "c"))
    assert isinstance(cert, CoRedundancyCertificate)
    assert cert.method == "exact" and cert.directions > 0



def _fibered_coarsening(rng: random.Random) -> Coarsening:
    """Up to five pieces, forwards or reversed, with dyadic or arbitrary
    source ends; their targets tile [0, 1), the spare pieces land anywhere
    and some targets widen, so fibers often gather several pieces."""
    k = rng.randint(1, 5)
    if rng.random() < 0.5:
        cuts = {rng.randrange(1, 32) / 32 for _ in range(k - 1)}
    else:
        cuts = {rng.uniform(0.01, 0.99) for _ in range(k - 1)}
    src = sorted(cuts | {0.0, 1.0})
    k = len(src) - 1
    tiles = sorted({rng.randrange(1, 16) / 16 for _ in range(rng.randint(0, k - 1))} | {0.0, 1.0})
    targets = list(zip(tiles, tiles[1:]))
    while len(targets) < k:
        a, b = sorted(rng.sample(range(17), 2))
        targets.append((a / 16, b / 16))
    rng.shuffle(targets)
    pieces = []
    for sa, sb, (ta, tb) in zip(src, src[1:], targets):
        if rng.random() < 0.2:
            ta, tb = ta * rng.random(), tb + (1.0 - tb) * rng.random()
        pieces.append((sa, sb, ta, tb, rng.choice((1, -1))))
    return Coarsening(tuple(pieces))


def _pulled_back(q: Coarsening, g: Density, weights) -> Density:
    """weights[p] * g(q(x)) * |q'(x)| on piece p, rescaled to a belief: its
    pushforward is g reweighted by the pieces over each point, and every
    fiber's masses are in proportion to the pieces' weights."""
    pts = {0.0, 1.0}
    for sa, sb, ta, tb, orient in q.pieces:
        pts.add(sa)
        slope = (tb - ta) / (sb - sa)
        for u in g.breakpoints:
            if ta < u < tb:
                x = sa + (u - ta) / slope if orient > 0 else sb - (u - ta) / slope
                if 0.0 < x < 1.0:
                    pts.add(x)
    bps = sorted(pts)
    vals = []
    for a, b in zip(bps, bps[1:]):
        mid = 0.5 * (a + b)
        p = max(k for k, piece in enumerate(q.pieces) if piece[0] <= mid)
        sa, sb, ta, tb, orient = q.pieces[p]
        slope = (tb - ta) / (sb - sa)
        y = ta + (mid - sa) * slope if orient > 0 else ta + (sb - mid) * slope
        vals.append(weights[p] * g.value_at(y) * slope)
    return discount_to_belief(bps, vals)


def _random_target(rng: random.Random) -> Density:
    """A density on up to five cells, with dyadic or arbitrary cuts."""
    cuts = {rng.choice((rng.random(), rng.randrange(1, 16) / 16)) for _ in range(rng.randint(0, 4))}
    bps = (0.0, *sorted(cuts - {0.0}), 1.0)
    return discount_to_belief(bps, [rng.uniform(0.1, 2.0) for _ in bps[1:]])


def _fibered_case(rng: random.Random) -> tuple[Profile, Coarsening, tuple[str, ...], bool]:
    """Two agents whose beliefs pull random densities back through a random
    coarsening with shared piece weights, so that every fiber carries
    proportional masses, except where one agent's weight on one piece is
    tilted; utilities and subset as in `_two_agent_case`, the subset often
    holding every hull vertex.  The flag tells whether nothing was tilted."""
    q = _fibered_coarsening(rng)
    weights = [rng.uniform(0.2, 2.0) for _ in q.pieces]
    tilted = list(weights)
    if rng.random() < 0.3:
        tilted[rng.randrange(len(q.pieces))] *= 1.0 + rng.choice((1e-12, 1e-6, 0.3))
    beliefs = [_pulled_back(q, _random_target(rng), w) for w in (weights, tilted)]
    profile, subset = _two_agent_case(rng)
    utilities = [a.utility for a in profile.agents if not a.is_indifferent]
    if rng.random() < 0.2:
        # the unit square's corners span every scaled image alike, so the
        # images agree whether or not the fibers are proportional
        labels = profile.space.labels
        corners = dict(zip(labels, ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))))
        utilities = [
            Utility({lab: corners.get(lab, (rng.random(), rng.random()))[k] for lab in labels})
            for k in (0, 1)
        ]
    profile = Profile(
        profile.space,
        (Preference(beliefs[0], utilities[0]), INDIFFERENT, Preference(beliefs[1], utilities[1])),
    )
    if rng.random() < 0.5:
        u, v = (profile.agents[i].utility for i in profile.concerned)
        hull = set(_hull2d([(u.value(lab), v.value(lab)) for lab in profile.space.labels]))
        subset = tuple(
            lab
            for lab in profile.space.labels
            if lab in subset or (u.value(lab), v.value(lab)) in hull
        )
    return profile, q, subset, tilted == weights


def test_certify_fiber_bound_decision_matches_kink_path():
    # the fiber bound decides before the polygon path (once named for the
    # kink directions it swept); both must agree, on the IRA battery's
    # merge-pairs scenarios and on random coarsenings
    rng = random.Random(151515)
    tally = {"fiber": 0, "polygon-certified": 0, "refused": 0, "merge": 0}
    cases = draws = 0
    while cases < 2400:
        draws += 1
        if draws % 6 == 0:
            try:
                p, p2, q, outs = ira_scenario(rng, "merge")
            except ScenarioRejected:
                continue
            k = rng.randrange(len(outs))
            batch = [(p, q, outs, True), (p2, q, outs, True), (p, q, outs[:k] + outs[k + 1 :], True)]
            tally["merge"] += 3
        else:
            batch = [_fibered_case(rng)]
        for profile, q, subset, proportional in batch:
            cases += 1
            if proportional:
                # the bound is tight where it claims to be: rounding only
                beliefs = [profile.agents[i].belief for i in profile.concerned]
                pushed = [pushforward_coarsening(q, d) for d in beliefs]
                assert _fiber_residual(q, beliefs, pushed) <= 1e-12
            out = certify_coredundancy(profile, q, subset)
            assert isinstance(out, CoRedundancyCertificate) == _polygon_path_certifies(profile, subset, q)
            assert out.method == "exact"
            if isinstance(out, Refused):
                tally["refused"] += 1
                assert out.directions > 0
            elif out.directions == 0:
                tally["fiber"] += 1
                assert out.residual <= TOL_MEASURE
            else:
                tally["polygon-certified"] += 1
    assert min(tally.values()) >= 20, tally


def test_ira_restriction_indifferent_at_one_profile(table1):
    # the two profiles are equal, so co-redundant on the identity; a rule
    # completely indifferent at just one of them violates the axiom
    profile, _, _ = table1
    twin = Profile(profile.space, profile.agents)
    q, outs = Coarsening.identity(), profile.space.labels

    def blind(pr):
        return baru(Profile(pr.space, (INDIFFERENT,) * len(pr.agents)))

    def blind_at_profile(pr):
        return blind(pr) if pr is profile else baru(pr)

    v = check_independence_redundant_acts(blind_at_profile, profile, twin, q, outs)
    assert not v.satisfied and v.witness == {"restriction_indifferent": ["p"]}
    v = check_independence_redundant_acts(blind_at_profile, twin, profile, q, outs)
    assert not v.satisfied and v.witness == {"restriction_indifferent": ["p'"]}
    v = check_independence_redundant_acts(blind, profile, twin, q, outs)
    assert v.satisfied and v.witness is None


def test_coarsening_piece_maps_bits_pinned():
    # sha256 of every pushforward's grid and values and of the fiber
    # residual, over the IRA battery's merge-pairs scenarios (tilted second
    # profiles included) and random coarsenings with reversed pieces
    rng = random.Random(212121)
    digest = hashlib.sha256()
    seen = dict.fromkeys(("merge", "reversed", "proportional", "random"), 0)
    draws = 0
    while draws < 2000:
        if draws % 4 == 0:
            try:
                p, p2, q, _ = ira_scenario(rng, "merge")
            except ScenarioRejected:
                continue
            prof = p if draws % 8 == 0 else p2
            beliefs = [prof.agents[i].belief for i in prof.concerned]
            seen["merge"] += 1
        else:
            q = _fibered_coarsening(rng)
            if draws % 4 == 1:
                weights = [rng.uniform(0.2, 2.0) for _ in q.pieces]
                beliefs = [_pulled_back(q, _random_target(rng), weights) for _ in range(2)]
                seen["proportional"] += 1
            else:
                beliefs = [_random_target(rng) for _ in range(2)]
                seen["random"] += 1
            seen["reversed"] += any(piece[4] < 0 for piece in q.pieces)
        draws += 1
        pushed = [pushforward_coarsening(q, d) for d in beliefs]
        for d in pushed:
            digest.update(repr((d.breakpoints, d.values)).encode())
        digest.update(repr(_fiber_residual(q, beliefs, pushed)).encode())
    assert min(seen.values()) >= 400, seen
    assert digest.hexdigest() == "fd716343d1189869aa57c92575311fd6bf1ab75eee4a3ed193a25748f24e2b3d"


def test_fiber_residual_walk_is_zero_on_identity():
    # beliefs pushed to equal copies, not to themselves: the walk runs, every
    # fiber is one cell with its own masses, and the residual is exactly 0.0
    rng = random.Random(1616)
    for _ in range(200):
        profile, _ = _two_agent_case(rng)
        beliefs = [profile.agents[i].belief for i in profile.concerned]
        copies = [Density(d.breakpoints, d.values) for d in beliefs]
        assert _fiber_residual(Coarsening.identity(), beliefs, copies) == 0.0


def test_fiber_residual_counts_pushed_masses_off_the_fiber_totals():
    # pairflat beliefs have proportional fibers under merge-pairs, so only
    # the fiber totals' distance from the given pushed masses is left
    rng = random.Random(1818)
    q = harness._merge_pairs_coarsening()
    beliefs = [harness._pairflat_density(rng) for _ in range(2)]
    others = [harness._pairflat_density(rng) for _ in range(2)]
    residual = _fiber_residual(q, beliefs, [pushforward_coarsening(q, d) for d in others])
    cells = [(j / 8, (j + 1) / 8) for j in range(8)]
    want = sum(abs(d.mass(a, b) - e.mass(a, b)) for d, e in zip(beliefs, others) for a, b in cells)
    assert residual == pytest.approx(want, rel=1e-12) and want > 0.1


def test_certify_merge_pairs_folds_without_builtin_sum(forbid_float_sum):
    # the residual of a fiber-bound certificate is a left fold, so its bits
    # do not depend on the interpreter
    rng = random.Random(1919)
    cases = []
    while len(cases) < 40:
        try:
            p, p2, q, outs = ira_scenario(rng, "merge")
        except ScenarioRejected:
            continue
        cases += [(p, q, outs), (p2, q, outs)]
    forbid_float_sum()
    fiber = 0
    for profile, q, outs in cases:
        out = certify_coredundancy(profile, q, outs)
        fiber += isinstance(out, CoRedundancyCertificate) and out.directions == 0
    assert fiber == len(cases)


def test_certify_proportional_fibers_off_subset_vertex_takes_kink_path():
    # pairflat beliefs under merge-pairs: every fiber's masses are
    # proportional, but d = (1, 1) is a hull vertex outside the subset, so
    # the polygon path decides
    rng = random.Random(1717)
    q = harness._merge_pairs_coarsening()
    d1, d2 = harness._pairflat_density(rng), harness._pairflat_density(rng)
    prof = _uv_profile(
        {"a": 0.0, "b": 1.0, "c": 0.3, "d": 1.0}, {"a": 0.0, "b": 0.2, "c": 1.0, "d": 1.0}, d1, d2
    )
    pushed = [pushforward_coarsening(q, d) for d in (d1, d2)]
    assert _fiber_residual(q, (d1, d2), pushed) <= 1e-15
    cert = certify_coredundancy(prof, q, ("a", "b", "c", "d"))
    assert isinstance(cert, CoRedundancyCertificate) and cert.directions == 0
    out = certify_coredundancy(prof, q, ("a", "b", "c"))
    assert isinstance(out, Refused) and out.directions > 0
    assert out.residual > TOL_MEASURE


def test_certify_table1_fold_fiber_bound_falls_through(table1):
    # each half's fiber pairs (0.45, 0.05) with (0.05, 0.45): far from
    # proportional, so the polygons decide, and refuse
    profile, _, _ = table1
    fold = Coarsening(((0.0, 0.5, 0.0, 1.0, 1), (0.5, 1.0, 0.0, 1.0, 1)))
    beliefs = [profile.agents[i].belief for i in profile.concerned]
    residual = _fiber_residual(fold, beliefs, [pushforward_coarsening(fold, d) for d in beliefs])
    assert residual == pytest.approx(1.6)
    out = certify_coredundancy(profile, fold, profile.space.labels)
    assert isinstance(out, Refused) and out.reason == "image-mismatch" and out.directions > 0


# -- restricted Pareto ---------------------------------------------------------


def test_pareto_baru_follows_unanimity(table1):
    profile, _, _ = table1
    v = check_restricted_pareto(baru, profile, Act.constant("a"), Act.constant("d"))
    assert v.satisfied


def test_pareto_reversing_rule_violates(table1):
    profile, _, _ = table1
    v = check_restricted_pareto(
        _reversed_utilities, profile, Act.constant("a"), Act.constant("d")
    )
    assert not v.satisfied
    assert v.witness["expected"] == "first"
    assert v.witness["society_verdict"] == "second"


def test_pareto_rejects_mismatched_pushforwards(table1):
    profile, f, g = table1
    with pytest.raises(ScenarioRejected, match="act pushforwards differ across agents"):
        check_restricted_pareto(baru, profile, f, g)


def test_agreement_gap(table1):
    profile, f, g = table1
    beliefs = [profile.agents[i].belief for i in profile.concerned]
    # the fork gives outcome a mass 0.9 under one belief and 0.1 under the other
    assert agreement_gap(f, beliefs, SPACE) == pytest.approx(0.8, abs=1e-15)
    assert agreement_gap(g, beliefs, SPACE) == 0.0
    assert agreement_gap(f, beliefs[:1], SPACE) == 0.0
    assert agreement_gap(f, beliefs + [Density.uniform()], SPACE) == pytest.approx(0.8, abs=1e-15)


def test_pareto_rejects_disagreement(table1):
    profile, _, _ = table1
    with pytest.raises(ScenarioRejected):
        check_restricted_pareto(baru, profile, Act.constant("a"), Act.constant("b"))


# -- spurious unanimity ----------------------------------------------------------


def test_table1_unanimity_is_spurious(table1):
    profile, f, g = table1
    rep = detect_spurious_unanimity(profile, f, g)
    assert rep.favored == "f"
    assert rep.strict_agents == (1,)
    assert rep.spurious and rep.common_belief is None


def test_table1_reversed_unanimity_favours_g(table1):
    profile, f, g = table1
    rep = detect_spurious_unanimity(profile, g, f)
    assert rep.favored == "g"
    assert rep.strict_agents == (1,)
    assert rep.as_dict()["agent_diffs"] == [[0, 0.0], [1, -0.09999999999999998]]
    assert rep.spurious and rep.common_belief is None


def test_split_verdicts_are_no_unanimity(table1):
    profile, _, _ = table1
    rep = detect_spurious_unanimity(profile, Act.constant("a"), Act.constant("b"))
    assert rep.favored is None
    assert rep.strict_agents == ()
    assert rep.common_belief is None and not rep.spurious


def test_common_belief_exists_for_g(table1):
    profile, f, g = table1
    masses = common_belief_feasible(profile, f, g, favor="g")
    assert masses is not None
    for i in profile.concerned:
        u = profile.agents[i].utility
        adv = sum(
            m * (u.value(g.outcome_at(a)) - u.value(f.outcome_at(a)))
            for a, _, m in masses
        )
        assert adv >= -1e-9


def _common_belief_feasible_reference(profile, f, g, favor="f", pinned=()):
    """`common_belief_feasible` as a per-cell scan: a numpy matrix filled
    by `Act.outcome_at` and an interval test at each cell's midpoint.  It
    agrees except on cells one ulp wide, whose midpoint can round to the
    right end."""
    hi, lo = (f, g) if favor == "f" else (g, f)
    extra = list(hi.breakpoints()) + list(lo.breakpoints())
    for ev, _ in pinned:
        for a, b in ev.intervals:
            extra.extend((a, b))
    bps = tuple(sorted(set([0.0, 1.0] + [float(x) for x in extra])))
    segs = list(zip(bps[:-1], bps[1:]))
    S = len(segs)
    ids = profile.concerned
    n_rows = 1 + len(ids) + len(pinned)
    A = np.zeros((n_rows, S + len(ids)))
    b = np.zeros(n_rows)
    A[0, :S] = 1.0
    b[0] = 1.0
    for r, i in enumerate(ids):
        u = profile.agents[i].utility
        for s, (a0, b0) in enumerate(segs):
            mid = a0 + 0.5 * (b0 - a0)
            A[1 + r, s] = u.value(hi.outcome_at(mid)) - u.value(lo.outcome_at(mid))
        A[1 + r, S + r] = -1.0
    for k, (ev, target) in enumerate(pinned):
        for s, (a0, b0) in enumerate(segs):
            mid = 0.5 * (a0 + b0)
            if any(a <= mid < b for a, b in ev.intervals):
                A[1 + len(ids) + k, s] = 1.0
        b[1 + len(ids) + k] = float(target)
    x = lp.feasible_point(A, b)
    if x is None:
        return None
    return [(a0, b0, float(x[s])) for s, (a0, b0) in enumerate(segs)]


def _cut(rng: random.Random) -> float:
    """A point inside (0, 1): on the 1/16 lattice, which the acts and
    events then share, or anywhere."""
    return rng.randrange(1, 16) / 16 if rng.random() < 0.5 else rng.uniform(0.01, 0.99)


def test_common_belief_feasible_matches_per_cell_reference():
    rng = random.Random(20240818)
    tally = {"feasible": 0, "infeasible": 0, "pinned at 0": 0, "pinned at 1": 0}
    agents_seen, pins_seen = set(), set()
    for trial in range(2400):
        n = rng.randint(1, 3)
        agents = [Preference(Density.uniform(), random_utility(rng, SPACE)) for _ in range(n)]
        agents += [INDIFFERENT] * (3 - n + rng.randint(0, 1))
        rng.shuffle(agents)
        profile = Profile(SPACE, tuple(agents))
        f, g = (
            Act.from_segments([(a, b, rng.choice(SPACE.labels)) for a, b in zip(bps, bps[1:])])
            for bps in (
                (0.0, *sorted({_cut(rng) for _ in range(rng.randint(0, 4))}), 1.0) for _ in "fg"
            )
        )
        pinned = []
        for _ in range(rng.randint(0, 2)):
            pool = (0.0, 1.0, _cut(rng), _cut(rng), _cut(rng), _cut(rng))
            ends = sorted({rng.choice(pool) for _ in range(2 * rng.randint(1, 3))})
            event = EventSet.from_intervals(zip(ends[::2], ends[1::2]))
            if event.intervals:
                tally["pinned at 0"] += event.intervals[0][0] == 0.0
                tally["pinned at 1"] += event.intervals[-1][1] == 1.0
            pinned.append((event, rng.uniform(0.0, 1.0)))
        favor = "fg"[trial % 2]
        got = common_belief_feasible(profile, f, g, favor, pinned)
        assert repr(got) == repr(_common_belief_feasible_reference(profile, f, g, favor, pinned))
        tally["infeasible" if got is None else "feasible"] += 1
        agents_seen.add(n)
        pins_seen.add(len(pinned))
    assert agents_seen == {1, 2, 3} and pins_seen == {0, 1, 2}
    assert min(tally.values()) >= 200, tally


def test_common_belief_feasible_reads_one_ulp_cells_at_left_end():
    # g switches one ulp after f; the midpoint of the cell between them
    # rounds to its right end, where g already shows "d"
    x = 0.3
    y = math.nextafter(x, 1.0)
    assert x + 0.5 * (y - x) == y
    f = Act.from_segments(((0.0, x, "a"), (x, 1.0, "b")))
    g = Act.from_segments(((0.0, y, "c"), (y, 1.0, "d")))
    u = Utility({"a": 0.0, "b": 0.0, "c": 1.0, "d": 0.0})
    profile = Profile(SPACE, (Preference(Density.uniform(), u), INDIFFERENT, INDIFFERENT))
    masses = common_belief_feasible(profile, f, g, favor="f")
    assert masses is not None
    adv = sum(m * (u.value(f.outcome_at(a)) - u.value(g.outcome_at(a))) for a, _, m in masses)
    assert adv >= -1e-9


def test_shared_belief_unanimity_not_spurious():
    u1 = Utility({"a": 0.0, "b": 1.0, "c": 0.6, "d": 0.1})
    u2 = Utility({"a": 0.0, "b": 1.0, "c": 0.2, "d": 0.9})
    shared = Density.from_state_probs((0.5, 0.5))
    prof = Profile(
        SPACE,
        (Preference(shared, u1), Preference(shared, u2), INDIFFERENT),
    )
    rep = detect_spurious_unanimity(prof, Act.constant("b"), Act.constant("a"))
    assert rep.favored == "f"
    assert not rep.spurious
    assert rep.common_belief is not None


# -- complementary ignorance -----------------------------------------------------


def test_horse_race_report_values():
    rep = complementary_ignorance_demo()
    for evs in rep.agent_evs:
        assert evs == pytest.approx((0.5, 0.5), abs=1e-12)
    assert rep.baru_verdict == "tie"
    assert rep.pooled_horse_probs == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)
    assert rep.pooled_verdict == "second"
    assert rep.pushforwards_match


# -- continuity --------------------------------------------------------------------


def test_continuity_baru_smooth(table1):
    profile, _, _ = table1
    rep = continuity_probe(baru, profile)
    assert not rep.flagged
    # output distances decay along with the input perturbations
    assert rep.rows[-1][2] < rep.rows[0][2]


def test_continuity_multiplicity_rule_jumps(table1):
    profile, _, _ = table1
    p1, p2 = profile.agents[0], profile.agents[1]
    twins = Profile(SPACE, (p1, p1, p2))
    rep = continuity_probe(swf5, twins, agent=0)
    assert rep.flagged
    assert rep.flag_pair is not None


def test_continuity_probe_takes_a_utility_at_the_exact_tolerance(utility_near_one):
    # u and u^2 mix past 1 + TOL_EXACT at b; the probe builds the mix
    # unchecked, as it builds the mixed belief
    rep = continuity_probe(baru, utility_near_one, 0)
    assert rep.agent == 0 and len(rep.rows) == 4 and not rep.flagged


def test_continuity_requires_two_concerned(table1):
    profile, _, _ = table1
    solo = Profile(SPACE, (profile.agents[0], INDIFFERENT, INDIFFERENT))
    with pytest.raises(ScenarioRejected):
        continuity_probe(baru, solo)


def _median_cut_reference(d: Density) -> float:
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if d.cdf(mid) < 0.5:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_median_cut_matches_cdf_bisection(rng):
    from baru.axioms import _median_cut

    for _ in range(300):
        cuts = sorted({rng.randrange(1, 32) / 32 for _ in range(rng.randint(0, 5))})
        bps = (0.0, *cuts, 1.0)
        raw = [rng.choice((0.0, rng.uniform(0.1, 3.0))) for _ in range(len(bps) - 1)]
        if sum(raw) == 0.0:
            raw[0] = 1.0
        total = sum(v * (b - a) for v, a, b in zip(raw, bps[:-1], bps[1:]))
        d = Density(bps, tuple(v / total for v in raw))
        assert _median_cut(d) == _median_cut_reference(d)
    # the median on a breakpoint, and a median in a cell after an empty one
    for d in (
        Density((0.0, 0.5, 1.0), (1.0, 1.0)),
        Density((0.0, 0.25, 0.5, 1.0), (0.0, 2.0, 1.0)),
    ):
        assert _median_cut(d) == _median_cut_reference(d)


def _restricted_view_reference(result, q, outcomes):
    """The IRA check's restriction before it shared `_normalized_utility`:
    its own (v - lo) / (hi - lo), into a dict."""
    from baru.measure import TOL_EXACT, pushforward_coarsening

    if result.preference.is_indifferent:
        return None
    raw = dict(result.raw_utility)
    vals = [raw[o] for o in outcomes]
    lo, hi = min(vals), max(vals)
    if hi - lo <= TOL_EXACT:
        return None
    norm = {o: (raw[o] - lo) / (hi - lo) for o in outcomes}
    return pushforward_coarsening(q, result.preference.belief), norm


def test_restricted_view_matches_own_range_rule(rng):
    from dataclasses import replace

    from baru import RULE_NAMES
    from baru.axioms import _restricted_view
    from baru.harness import _merge_pairs_coarsening

    rules = [rule_by_name(name) for name in RULE_NAMES]
    coarsenings = (Coarsening.identity(), _merge_pairs_coarsening())
    seen = {"view": 0, "flat": 0, "indifferent": 0}
    for trial in range(2100):
        profile = random_profile(rng)
        if trial % 11 == 0:
            # an agent and its reversal: baru's summed utility is flat
            p = profile.agents[profile.concerned[0]]
            twin = Preference(p.belief, reversal(p.utility))
            profile = Profile(profile.space, (p, twin, INDIFFERENT))
        result = rules[0 if trial % 11 == 0 else trial % len(rules)](profile)
        labels = profile.space.labels
        outs = tuple(rng.sample(labels, rng.randint(1, len(labels))))
        if trial % 7 == 0 and not result.preference.is_indifferent:
            # raw utilities spread by at most a few TOL_EXACT on the subset
            base = rng.uniform(-1.0, 2.0)
            spread = rng.choice((0.0, 5e-13, 1e-12, 2e-12, 1e-9))
            raw = tuple((lab, base + rng.uniform(0.0, spread)) for lab in labels)
            result = replace(result, raw_utility=raw)
        q = coarsenings[trial % 2]
        got = _restricted_view(result, q, outs)
        want = _restricted_view_reference(result, q, outs)
        assert (got is None) == (want is None)
        if got is None:
            seen["indifferent" if result.preference.is_indifferent else "flat"] += 1
            continue
        seen["view"] += 1
        assert repr(got[0]) == repr(want[0])
        assert [repr(v) for v in got[1].values_of(outs)] == [repr(want[1][o]) for o in outs]
        assert set(got[1].labels) == set(outs)
    assert min(seen.values()) > 20, seen


def _tilted_reference(d: Density) -> Density:
    """`_tilted` with its own rescaling, as before `discount_to_belief`."""
    from math import fsum

    from baru.axioms import _median_cut
    from baru.measure import cell_values, merged_breakpoints

    cut = _median_cut(d)
    bps = merged_breakpoints([d], extra=[cut])
    vals = []
    for b, v in zip(bps[1:], cell_values(d, bps)):
        scale = 1.5 if b <= cut + 1e-15 else 0.5
        vals.append(v * scale)
    total = fsum(v * (b - a) for v, (a, b) in zip(vals, zip(bps[:-1], bps[1:])))
    return Density(bps, tuple(v / total for v in vals))


def test_tilted_matches_own_rescaling(rng):
    from baru.axioms import _tilted
    from baru.harness import random_density

    for trial in range(2100):
        if trial % 2:
            d = random_density(rng)
        else:
            cuts = sorted({rng.random() for _ in range(rng.randint(0, 6))} - {0.0})
            bps = (0.0, *cuts, 1.0)
            raw = [rng.choice((0.0, rng.uniform(0.01, 5.0))) for _ in range(len(bps) - 1)]
            raw[rng.randrange(len(raw))] = rng.uniform(0.01, 5.0)
            total = sum(v * (b - a) for v, a, b in zip(raw, bps[:-1], bps[1:]))
            d = Density(bps, tuple(v / total for v in raw))
        assert repr(_tilted(d)) == repr(_tilted_reference(d))
