"""Society preference rules.

`baru` is the headline rule: average the concerned agents' beliefs, add
their normalized utilities.  The numbered alternatives (`swf1` .. `swf6`)
are deliberately flawed contrasts; each one trades away a different axiom
and the checkers in `axioms` are expected to catch exactly that trade.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum
from typing import Callable, Sequence

import numpy as np

from .geometry import geometry_for, minkowski_polygon
from .measure import (
    Density,
    TOL_EXACT,
    TOL_MEASURE,
    belief_distance,
    merged_breakpoints,
)
from .prefs import (
    Act,
    Comparison,
    INDIFFERENT,
    Preference,
    Profile,
    Utility,
    expected_utility,
    normalize_utility,
    preference_distance,
)

PHANTOM_ID = -1


class DegenerateNashPoint(Exception):
    """The bargaining solve found no usable maximiser: a flat or zero
    product, or no certified point within the solver's round cap.  Not
    reachable from valid profiles; kept as a guard."""


class NullPool(Exception):
    """Geometric opinion pooling hit mutually singular beliefs: the pooled
    density integrates to zero and cannot be renormalized."""


@dataclass(frozen=True)
class SwfResult:
    """Society preference plus the diagnostics that produced it.

    `belief` and `raw_utility` are kept even when the society is
    indifferent (constant summed utility), so callers can still inspect
    the averaged belief.  Weights are (agent_id, weight) pairs; a phantom
    contributor appears under PHANTOM_ID.
    """

    preference: Preference
    belief: Density | None
    raw_utility: tuple[tuple[str, float], ...] | None
    belief_weights: tuple[tuple[int, float], ...]
    utility_weights: tuple[tuple[int, float], ...]
    concerned: tuple[int, ...]

    def ev(self, act: Act) -> float:
        """Society expectation of the act under the raw (unnormalized)
        summed utility.  Zero when nobody is concerned."""
        if self.belief is None or self.raw_utility is None:
            return 0.0
        raw = dict(self.raw_utility)
        return fsum(self.belief.mass(a, b) * raw[lab] for a, b, lab in act.segments)

    def compare(self, f: Act, g: Act) -> Comparison:
        return Comparison(self.ev(f) - self.ev(g))


def _merge(
    profile: Profile,
    contribs: Sequence[tuple[int, Preference, float, float]],
) -> SwfResult:
    """Combine represented preferences into a society result.

    Each contribution is (agent_id, preference, belief_weight,
    utility_weight).  Belief weights are renormalized to sum to one;
    utility weights are applied as given.  fsum keeps the aggregation
    independent of contributor order.
    """
    concerned = profile.concerned
    live = [(i, p, bw, uw) for i, p, bw, uw in contribs if not p.is_indifferent]
    if not live:
        return SwfResult(INDIFFERENT, None, None, (), (), concerned)
    total_bw = fsum(bw for _, _, bw, _ in live)
    if total_bw <= 0.0:
        raise ValueError("belief weights must have positive total")
    bps = merged_breakpoints([p.belief for _, p, bw, _ in live if bw > 0.0])
    values = []
    for s in range(len(bps) - 1):
        mid = 0.5 * (bps[s] + bps[s + 1])
        values.append(
            fsum((bw / total_bw) * p.belief.value_at(mid) for _, p, bw, _ in live if bw > 0.0)
        )
    belief = Density(bps, tuple(values))
    labels = profile.space.labels
    raw = tuple(
        (lab, fsum(uw * p.utility.value(lab) for _, p, _, uw in live)) for lab in labels
    )
    norm = normalize_utility({lab: v for lab, v in raw}, profile.space)
    pref = INDIFFERENT if norm is None else Preference(belief, norm)
    return SwfResult(
        pref,
        belief,
        raw,
        tuple((i, bw) for i, _, bw, _ in live),
        tuple((i, uw) for i, _, _, uw in live),
        concerned,
    )


def baru(profile: Profile) -> SwfResult:
    """Belief-averaging relative utilitarianism: equal weights for every
    concerned agent, indifferent agents ignored."""
    contribs = [(i, profile.agents[i], 1.0, 1.0) for i in profile.concerned]
    return _merge(profile, contribs)


@dataclass(frozen=True)
class WeightedAggregation:
    """Positive per-agent weights for beliefs and utilities separately."""

    belief: tuple[float, ...]
    utility: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.belief) != len(self.utility):
            raise ValueError("weight vectors must have equal length")
        if any(w <= 0.0 for w in self.belief) or any(w <= 0.0 for w in self.utility):
            raise ValueError("weights must be strictly positive")


def weighted(profile: Profile, weights: WeightedAggregation) -> SwfResult:
    """Weighted variant: belief weights are renormalized over the
    concerned agents, utility weights renormalized to mean one so that
    scale-equivalent weight vectors aggregate identically."""
    if len(weights.belief) != len(profile.agents):
        raise ValueError("need one weight per agent")
    mean_uw = fsum(weights.utility) / len(weights.utility)
    contribs = [
        (i, profile.agents[i], weights.belief[i], weights.utility[i] / mean_uw)
        for i in profile.concerned
    ]
    return _merge(profile, contribs)


# ---------------------------------------------------------------------------
# swf1: Nash-bargaining weights


def _max_product_polygon(verts: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Maximise x*y over a convex polygon given CCW vertices."""
    cands = list(verts)
    k = len(verts)
    if k >= 2:
        for t in range(k):
            (x0, y0), (x1, y1) = verts[t], verts[(t + 1) % k]
            dx, dy = x1 - x0, y1 - y0
            if abs(dx) > 1e-15 and abs(dy) > 1e-15:
                ts = -(dx * y0 + dy * x0) / (2.0 * dx * dy)
                if 0.0 < ts < 1.0:
                    cands.append((x0 + ts * dx, y0 + ts * dy))
    def prod(p: tuple[float, float]) -> float:
        return max(p[0], 0.0) * max(p[1], 0.0)

    best = max(cands, key=prod)
    best_prod = prod(best)
    for p in cands:
        # Distinct near-tied maximisers mean the weights are not pinned
        # down.  The product is quadratically flat around the tangency, so
        # candidates within ~sqrt(prod tol) of the maximiser tie by noise;
        # only far-apart ties (possible when the input is not a convex CCW
        # polygon, never for a profile image) signal real degeneracy.
        if prod(p) >= best_prod - 1e-9 * max(1.0, best_prod):
            if max(abs(p[0] - best[0]), abs(p[1] - best[1])) > 1e-3:
                raise DegenerateNashPoint(
                    f"bargaining point is not unique: {best!r} vs {p!r}"
                )
    return best


def _canonical_order(profile: Profile) -> list[int]:
    """Positions of the concerned agents sorted by preference content, so
    that relabelling the agents cannot change the solver's float path."""
    labs = profile.space.labels
    keys = []
    for pos, i in enumerate(profile.concerned):
        p = profile.agents[i]
        keys.append(
            (
                p.belief.breakpoints,
                p.belief.values,
                tuple(p.utility.value(lab) for lab in labs),
                pos,
            )
        )
    return [k[-1] for k in sorted(keys)]


def _nash_point(profile: Profile) -> np.ndarray:
    geom = geometry_for(profile)
    n = geom.dimension
    if n == 1:
        hi = float(geom.tensor.max(axis=1).sum(axis=0)[0])
        return np.array([hi])
    if n == 2:
        x, y = _max_product_polygon(minkowski_polygon(geom))
        return np.array([x, y])
    perm = _canonical_order(profile)
    x_canon = _nash_frank_wolfe(np.ascontiguousarray(geom.tensor[:, :, perm]))
    out = np.empty(n)
    out[perm] = x_canon
    return out


# Rounds of the fully corrective loop before the solve gives up; each
# round adds one vertex, and criterion 5's 7321 solves need at most ten.
_NASH_ROUNDS = 100
# Newton steps per round on the hull of the kept vertices.
_NEWTON_STEPS = 60


# The benchmark (perfbench/) traces this solver by name as `swf.nash`, so
# it stays a module global that takes the (S, X, n) tensor and returns the
# point.
def _nash_frank_wolfe(tensor: np.ndarray) -> np.ndarray:
    """Maximise sum(log x_i) over the image polytope.

    Fully corrective Frank-Wolfe (simplicial decomposition; Lacoste-Julien
    & Jaggi, NeurIPS 2015): maximise over the hull of the kept vertices by
    damped Newton steps on their weights, then ask the per-segment argmax
    oracle for the vertex that best improves the linearised objective.
    The Frank-Wolfe gap bounds the log-product suboptimality; the point is
    returned only once the gap is at most 1e-12 * n, and
    `DegenerateNashPoint` is raised when the rounds run out first.
    """
    S, X, n = tensor.shape
    seg = np.arange(S)
    # The constant acts: every utility peaks at 1, so their barycentre is
    # strictly positive.
    P = tensor.sum(axis=0)
    lam = np.full(X, 1.0 / X)
    for _ in range(_NASH_ROUNDS):
        for _ in range(_NEWTON_STEPS):
            # With P[0] taking the remaining weight, the Newton step on the
            # other weights is the least-squares fit D.T @ step ~ 1 for
            # D = (P[1:] - P[0]) / x.  Fitting D rather than solving with
            # the Hessian D @ D.T keeps thin faces resolvable, and lstsq
            # takes the rank deficiency that twin agents cause.
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
                # the blocking vertex leaves the set at once
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
    raise DegenerateNashPoint(
        f"Frank-Wolfe gap {gap!r} still above {1e-12 * n!r} after {_NASH_ROUNDS} rounds"
    )


def swf1(profile: Profile) -> SwfResult:
    """Nash-weighted rule: utility weight of agent i is the product of the
    other agents' coordinates at the bargaining point of the image."""
    concerned = profile.concerned
    if not concerned:
        return SwfResult(INDIFFERENT, None, None, (), (), ())
    point = _nash_point(profile)
    product = float(np.prod(point))
    if product <= TOL_MEASURE:
        raise DegenerateNashPoint(f"nash product {product!r} is not positive")
    contribs = []
    for pos, i in enumerate(concerned):
        w = product / float(point[pos])
        contribs.append((i, profile.agents[i], 1.0, w))
    return _merge(profile, contribs)


# ---------------------------------------------------------------------------
# swf2: anchor-distance weights


def swf2(profile: Profile, anchor: Preference) -> SwfResult:
    """Weights 2 - d(anchor, agent) where d is the preference distance;
    agents closer to the anchor preference count for more."""
    if anchor.is_indifferent:
        raise ValueError("anchor preference must be represented")
    # distances between represented preferences lie in [0, 1], so every
    # weight is at least 1
    contribs = []
    for i in profile.concerned:
        p = profile.agents[i]
        w = 2.0 - preference_distance(anchor, p)
        contribs.append((i, p, w, w))
    return _merge(profile, contribs)


# ---------------------------------------------------------------------------
# swf3: phantom contributor


def swf3(profile: Profile, phantom: Preference) -> SwfResult:
    """Adds a fixed phantom preference alongside the concerned agents.
    The phantom speaks even when nobody is concerned."""
    if phantom.is_indifferent:
        raise ValueError("phantom preference must be represented")
    contribs = [(i, profile.agents[i], 1.0, 1.0) for i in profile.concerned]
    contribs.append((PHANTOM_ID, phantom, 1.0, 1.0))
    return _merge(profile, contribs)


# ---------------------------------------------------------------------------
# swf4: belief imposition


def swf4(profile: Profile) -> SwfResult:
    """Takes the society belief from the first agent whenever that agent is
    concerned (utilities still summed equally)."""
    concerned = profile.concerned
    if not concerned:
        return SwfResult(INDIFFERENT, None, None, (), (), ())
    dictator = 0 if 0 in concerned else concerned[0]
    contribs = [
        (i, profile.agents[i], 1.0 if i == dictator else 0.0, 1.0) for i in concerned
    ]
    return _merge(profile, contribs)


# ---------------------------------------------------------------------------
# swf5: multiplicity weights


def _same_preference(p: Preference, q: Preference) -> bool:
    if p.is_indifferent or q.is_indifferent:
        return False
    if belief_distance(p.belief, q.belief) > TOL_EXACT:
        return False
    return all(
        abs(p.utility.value(lab) - q.utility.value(lab)) <= TOL_EXACT
        for lab in p.utility.labels
    )


def swf5(profile: Profile, alpha: Callable[[int], float] | None = None) -> SwfResult:
    """Each distinct concerned preference enters once with weight
    alpha(multiplicity); the default alpha(m) = m**2 over-counts shared
    preferences relative to proportional weighting."""
    a = alpha if alpha is not None else (lambda m: float(m * m))
    groups: list[list[int]] = []
    for i in profile.concerned:
        for grp in groups:
            if _same_preference(profile.agents[grp[0]], profile.agents[i]):
                grp.append(i)
                break
        else:
            groups.append([i])
    contribs = []
    for grp in groups:
        w = a(len(grp))
        if w <= 0.0:
            raise ValueError("multiplicity weights must be positive")
        for i in grp:
            contribs.append((i, profile.agents[i], w / len(grp), w / len(grp)))
    return _merge(profile, contribs)


# ---------------------------------------------------------------------------
# swf6: positional double weight


def swf6(profile: Profile) -> SwfResult:
    """First listed agent counts twice, in belief and utility alike."""
    n = len(profile.agents)
    w = tuple(2.0 if i == 0 else 1.0 for i in range(n))
    return weighted(profile, WeightedAggregation(w, w))


# ---------------------------------------------------------------------------
# comparison scores and opinion pooling


def ex_ante_scores(profile: Profile, acts: Sequence[Act]) -> tuple[float, ...]:
    """Sum over concerned agents of each agent's own expected utility,
    per act.  The ex-ante utilitarian reference point."""
    return tuple(
        fsum(expected_utility(profile.agents[i], act) for i in profile.concerned)
        for act in acts
    )


def geometric_pool(densities: Sequence[Density]) -> Density:
    """Normalized geometric mean of densities.  Raises NullPool when the
    product vanishes almost everywhere."""
    if not densities:
        raise ValueError("need at least one density")
    n = len(densities)
    bps = merged_breakpoints(densities)
    vals = []
    for s in range(len(bps) - 1):
        mid = 0.5 * (bps[s] + bps[s + 1])
        prod = 1.0
        for d in densities:
            prod *= d.value_at(mid)
        vals.append(prod ** (1.0 / n) if prod > 0.0 else 0.0)
    total = fsum(v * (bps[s + 1] - bps[s]) for s, v in enumerate(vals))
    if total <= TOL_EXACT:
        raise NullPool("pooled density integrates to zero")
    return Density(bps, tuple(v / total for v in vals))


# ---------------------------------------------------------------------------
# registry

RULE_NAMES = ("baru", "swf1", "swf2", "swf3", "swf4", "swf5", "swf6")


def ramp_utility(space) -> Utility:
    """Evenly spaced utility over the space's labels in listed order."""
    n = len(space.labels)
    return Utility({lab: k / (n - 1) for k, lab in enumerate(space.labels)})


def default_anchor(space) -> Preference:
    """Canonical anchor/phantom preference: uniform belief, ramp utility."""
    return Preference(Density.uniform(), ramp_utility(space))


def rule_by_name(
    name: str, anchor: Preference | None = None
) -> Callable[[Profile], SwfResult]:
    """Look up a rule as a profile -> result callable.  swf2 and swf3 take
    an anchor/phantom preference; without one, the canonical anchor for
    the profile's own outcome space is used."""
    if name == "baru":
        return baru
    if name == "swf1":
        return swf1
    if name == "swf2":
        return lambda pr: swf2(pr, anchor if anchor is not None else default_anchor(pr.space))
    if name == "swf3":
        return lambda pr: swf3(pr, anchor if anchor is not None else default_anchor(pr.space))
    if name == "swf4":
        return swf4
    if name == "swf5":
        return swf5
    if name == "swf6":
        return swf6
    raise ValueError(f"unknown rule {name!r}")
