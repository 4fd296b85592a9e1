"""Worked scenarios exercising the aggregation rules at desk scale.

Three set pieces, each small enough to verify by hand:

* `table1`: two agents with opposed beliefs unanimously (weakly) prefer a
  state-contingent act, yet no single belief rationalizes that unanimity;
  belief averaging reverses the verdict and the ex-ante scores show why.
* `horses`: complementary ignorance.  Opinion pooling concludes from the
  agents' combined knowledge; belief averaging deliberately does not.
* `fig1`: two profiles agreeing on a co-redundant restriction, where an
  anchor-weighted rule lets a redundant outcome swing the restricted
  verdict while the equal-weight rule cannot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .axioms import (
    agreement_gap,
    check_independence_redundant_acts,
    common_belief_feasible,
    detect_spurious_unanimity,
    SpuriousUnanimityReport,
)
from .harness import profile_as_dict
from .measure import Coarsening, Density, EventSet, TOL_MEASURE
from .prefs import (
    Act,
    INDIFFERENT,
    OutcomeSpace,
    Preference,
    Profile,
    Utility,
    compare,
    expected_utility,
)
from .swf import SwfResult, baru, ex_ante_scores, geometric_pool, swf2


@dataclass(frozen=True)
class Table1Scenario:
    profile: Profile = field(compare=False)
    f: Act
    g: Act
    agent_evs: tuple[tuple[float, float], ...]
    society: SwfResult = field(compare=False)
    society_evs: tuple[float, float]
    society_verdict: str
    ex_ante: tuple[float, float]
    spurious: SpuriousUnanimityReport = field(compare=False)
    common_belief_window: tuple[float, float]

    def as_dict(self) -> dict:
        return {
            "agent_evs": [list(r) for r in self.agent_evs],
            "society_evs": list(self.society_evs),
            "society_verdict": self.society_verdict,
            "ex_ante": list(self.ex_ante),
            "spurious": self.spurious.as_dict(),
            "common_belief_window": list(self.common_belief_window),
            "profile": profile_as_dict(self.profile),
            "acts": {"f": self.f.as_dict(), "g": self.g.as_dict()},
        }


def _window_edge(profile: Profile, f: Act, g: Act, lo: float, hi: float) -> float:
    """Bisect the feasibility boundary of the weak-g common-belief region
    in the mass assigned to the left half of the state space."""
    left = EventSet.from_intervals(((0.0, 0.5),))

    def feasible(p: float) -> bool:
        return common_belief_feasible(profile, f, g, "g", ((left, p),)) is not None

    flo, fhi = feasible(lo), feasible(hi)
    if flo == fhi:
        raise ValueError("bisection bracket does not straddle the boundary")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if feasible(mid) == flo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def table1() -> Table1Scenario:
    space = OutcomeSpace(("a", "b", "c", "d"))
    u1 = Utility({"a": 1.0, "b": 0.0, "c": 0.9, "d": 0.0})
    u2 = Utility({"a": 0.0, "b": 1.0, "c": 0.8, "d": 0.0})
    p1 = Preference(Density.from_state_probs((0.9, 0.1)), u1)
    p2 = Preference(Density.from_state_probs((0.1, 0.9)), u2)
    profile = Profile(space, (p1, p2, INDIFFERENT))
    f = Act.from_segments(((0.0, 0.5, "a"), (0.5, 1.0, "b")))
    g = Act.from_segments(((0.0, 1.0, "c"),))
    agent_evs = tuple(
        (expected_utility(profile.agents[i], f), expected_utility(profile.agents[i], g))
        for i in profile.concerned
    )
    society = baru(profile)
    society_evs = (society.ev(f), society.ev(g))
    window = (
        _window_edge(profile, f, g, 0.0, 0.5),
        _window_edge(profile, f, g, 0.5, 1.0),
    )
    return Table1Scenario(
        profile,
        f,
        g,
        agent_evs,
        society,
        society_evs,
        society.compare(f, g).verdict,
        ex_ante_scores(profile, (f, g)),
        detect_spurious_unanimity(profile, f, g),
        window,
    )


@dataclass(frozen=True)
class ComplementaryIgnoranceReport:
    profile: Profile = field(compare=False)
    bet1: Act
    bet2: Act
    agent_evs: tuple[tuple[float, float], ...]
    baru_verdict: str
    pooled: Density = field(compare=False)
    pooled_horse_probs: tuple[float, float, float]
    pooled_verdict: str
    pushforwards_match: bool

    def as_dict(self) -> dict:
        return {
            "agent_evs": [list(r) for r in self.agent_evs],
            "averaging_verdict": self.baru_verdict,
            "pooled_horse_probs": list(self.pooled_horse_probs),
            "pooled_verdict": self.pooled_verdict,
            "pushforwards_match": self.pushforwards_match,
            "bets": {"bet1": self.bet1.as_dict(), "bet2": self.bet2.as_dict()},
        }


def horses() -> ComplementaryIgnoranceReport:
    """Two agents each know a different horse will lose; averaging their
    posteriors keeps both bets even, while the geometric pool concludes
    horse 3 wins for sure and backs the second bet."""
    space = OutcomeSpace(("win", "lose", "refund", "double"))
    # Horses occupy [0, 0.25), [0.25, 0.5), [0.5, 1).
    belief1 = Density((0.0, 0.25, 0.5, 1.0), (0.0, 2.0, 1.0))  # knows horse 1 lost
    belief2 = Density((0.0, 0.25, 0.5, 1.0), (2.0, 0.0, 1.0))  # knows horse 2 lost
    utility = Utility({"win": 1.0, "lose": 0.0, "refund": 0.4, "double": 0.7})
    profile = Profile(
        space,
        (Preference(belief1, utility), Preference(belief2, utility), INDIFFERENT),
    )
    bet1 = Act.from_segments([(0.0, 0.5, "win"), (0.5, 1.0, "lose")])  # horses 1 or 2
    bet2 = Act.from_segments([(0.0, 0.5, "lose"), (0.5, 1.0, "win")])  # horse 3
    evs = tuple(
        (
            expected_utility(profile.agents[i], bet1),
            expected_utility(profile.agents[i], bet2),
        )
        for i in profile.concerned
    )
    verdict = baru(profile).compare(bet1, bet2).verdict
    pooled = geometric_pool([belief1, belief2])
    probs = (pooled.mass(0.0, 0.25), pooled.mass(0.25, 0.5), pooled.mass(0.5, 1.0))
    pooled_pref = Preference(pooled, utility)
    pooled_verdict = compare(pooled_pref, bet1, bet2).verdict
    match = all(
        agreement_gap(bet, (belief1, belief2), space) <= TOL_MEASURE for bet in (bet1, bet2)
    )
    return ComplementaryIgnoranceReport(
        profile, bet1, bet2, evs, verdict, pooled, probs, pooled_verdict, match
    )


@dataclass(frozen=True)
class Fig1Scenario:
    profile: Profile = field(compare=False)
    profile2: Profile = field(compare=False)
    anchor: Preference = field(compare=False)
    coarsening: Coarsening
    outcomes: tuple[str, ...]
    anchored_verdict: dict
    equal_weight_verdict: dict

    def as_dict(self) -> dict:
        return {
            "outcomes": list(self.outcomes),
            "anchored": self.anchored_verdict,
            "equal_weight": self.equal_weight_verdict,
        }


def fig1() -> Fig1Scenario:
    """Identical uniform beliefs; the profiles differ only in how much the
    agents value the fifth outcome, which never beats the other four."""
    space = OutcomeSpace(("o1", "o2", "o3", "o4", "o5"))
    outcomes = ("o1", "o2", "o3", "o4")
    uniform = Density.uniform()
    u1 = {"o1": 0.4, "o2": 1.0, "o3": 0.9, "o4": 0.0, "o5": 0.52}
    u2 = {"o1": 0.0, "o2": 0.5, "o3": 1.0, "o4": 0.7, "o5": 0.35}
    u1b = dict(u1, o5=0.6)
    u2b = dict(u2, o5=0.75)

    def build(a: dict, b: dict) -> Profile:
        return Profile(
            space,
            (
                Preference(uniform, Utility(a)),
                Preference(uniform, Utility(b)),
                INDIFFERENT,
            ),
        )

    p = build(u1, u2)
    p2 = build(u1b, u2b)
    anchor = Preference(
        uniform, Utility({"o1": 0.2, "o2": 0.8, "o3": 1.0, "o4": 0.0, "o5": 1.0})
    )
    q = Coarsening.identity()
    anchored = check_independence_redundant_acts(
        lambda pr: swf2(pr, anchor), p, p2, q, outcomes
    )
    equal = check_independence_redundant_acts(baru, p, p2, q, outcomes)
    return Fig1Scenario(
        p, p2, anchor, q, outcomes, anchored.as_dict(), equal.as_dict()
    )


# The worked scenarios by the name the command line gives them.
SCENARIOS = {"table1": table1, "horses": horses, "fig1": fig1}
