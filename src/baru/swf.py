"""Society preference rules.

`baru` is the headline rule: average the concerned agents' beliefs, add
their normalized utilities.  The numbered alternatives (`swf1` .. `swf6`)
are deliberately flawed contrasts; each one trades away a different axiom
and the checkers in `axioms` are expected to catch exactly that trade.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from math import atan2, fsum, inf, isfinite, sqrt
from operator import add, mul, sub
from typing import Callable, Sequence

from .geometry import _best_vertex, _scores, geometry_for, segment_hulls
from .measure import (
    Density,
    TOL_EXACT,
    TOL_MEASURE,
    belief_distance,
    cell_values,
    merged_breakpoints,
)
from .prefs import (
    Act,
    Comparison,
    INDIFFERENT,
    Preference,
    Profile,
    Utility,
    ZeroFunction,
    _normalized_utility,
    act_value,
    discount_to_belief,
    expected_utility,
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
        return act_value(self.belief, self.raw_map.__getitem__, act)

    @cached_property
    def raw_map(self) -> dict[str, float]:
        """`raw_utility` as a dict, built on first use and shared by every
        reader after it; not a field, so `repr` and equality ignore it."""
        return dict(self.raw_utility)

    def compare(self, f: Act, g: Act) -> Comparison:
        return Comparison(self.ev(f) - self.ev(g))


def _column_sums(weights: Sequence[float], rows: Sequence[Sequence[float]]) -> list[float]:
    """`fsum(map(mul, weights, col))` of each column of `rows`, bit for bit.

    With one or two rows a column is one float add: IEEE addition rounds
    the exact sum of the two products to nearest even, as fsum does, and
    the trailing `+ 0.0` turns a -0.0 into fsum's 0.0.  Both are
    symmetric in the rows.  A sum that is not finite (an overflow, an
    infinite or NaN term) is redone by fsum, which returns or raises as it
    always has; three or more rows go to fsum directly."""
    if len(rows) == 1:
        (w,) = weights
        sums = [w * v + 0.0 for v in rows[0]]
    elif len(rows) == 2:
        w0, w1 = weights
        sums = [w0 * a + w1 * b + 0.0 for a, b in zip(*rows)]
    else:
        sums = None
    if sums is None or not all(map(isfinite, sums)):
        sums = [fsum(map(mul, weights, col)) for col in zip(*rows)]
    return sums


def _merge(
    profile: Profile,
    contribs: Sequence[tuple[int, Preference, float, float]],
) -> SwfResult:
    """Combine represented preferences into a society result.

    Each contribution is (agent_id, preference, belief_weight,
    utility_weight).  Belief weights are renormalized to sum to one;
    utility weights are applied as given.  `_column_sums` keeps the
    aggregation independent of contributor order.  Each contributor's
    utilities are read once, in the space's label order (a label it lacks
    raises ValueError), and their weighted sums are normalized in that
    order by the rule `normalize_utility` applies.  The society belief is
    a convex combination of checked beliefs, so it is built unchecked
    (`Density._derived`): its mass is theirs up to rounding."""
    concerned = profile.concerned
    live = [(i, p, bw, uw) for i, p, bw, uw in contribs if not p.is_indifferent]
    if not live:
        return SwfResult(INDIFFERENT, None, None, (), (), concerned)
    total_bw = fsum(bw for _, _, bw, _ in live)
    if total_bw <= 0.0:
        raise ValueError("belief weights must have positive total")
    believers = [(bw / total_bw, p.belief) for _, p, bw, _ in live if bw > 0.0]
    bps = merged_breakpoints([d for _, d in believers])
    weights = [w for w, _ in believers]
    # one row per believer, one column per cell of the common grid
    rows = [cell_values(d, bps) for _, d in believers]
    belief = Density._derived(bps, tuple(_column_sums(weights, rows)))
    labels = profile.space.labels
    uws = [uw for _, _, _, uw in live]
    # one row per contributor, one column per outcome
    utils = [p.utility.values_of(labels) for _, p, _, _ in live]
    sums = _column_sums(uws, utils)
    norm = _normalized_utility(labels, sums)
    pref = INDIFFERENT if norm is None else Preference(belief, norm)
    return SwfResult(
        pref,
        belief,
        tuple(zip(labels, sums)),
        tuple([(i, bw) for i, _, bw, _ in live]),
        tuple([(i, uw) for i, _, _, uw in live]),
        concerned,
    )


def baru(profile: Profile) -> SwfResult:
    """Belief-averaging relative utilitarianism: equal weights for every
    concerned agent, indifferent agents ignored."""
    contribs = [(i, profile.agents[i], 1.0, 1.0) for i in profile.concerned]
    return _merge(profile, contribs)


@dataclass(frozen=True)
class WeightedAggregation:
    """Positive finite per-agent weights for beliefs and utilities
    separately."""

    belief: tuple[float, ...]
    utility: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.belief) != len(self.utility):
            raise ValueError("weight vectors must have equal length")
        if not all(0.0 < w < inf for w in self.belief + self.utility):
            raise ValueError("weights must be positive and finite")


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


def _pareto_walk(
    masses: Sequence[Sequence[float]], utils: Sequence[Sequence[float]]
) -> tuple[float, float]:
    """Maximise x*y over the two-agent image, given both agents' segment
    masses and outcome utilities.

    The maximiser lies on the image's Pareto chain, its boundary from the
    point of largest x counter-clockwise to the point of largest y.  The
    image is the sum of the segments' hulls (`geometry.segment_hulls`), so
    its chain is the sum of their chains: it starts at the sum of the
    hulls' largest-x vertices and takes, in angle order, all their edges
    that point up and to the left (ex < 0 < ey).  Both are picked on the
    unscaled hull, where they agree; scaling can round two vertices' x
    together.  A segment where an agent has zero mass collapses onto an
    axis and has no such edge; its only Pareto point is its corner
    (m1 * max u1, m2 * max u2).

    The walk is exact: the chain is concave and the hyperbola xy = c is
    convex, so the product is unimodal along the chain.  It rises along an
    edge (ex, ey) from (x, y) while ex * y + ey * x > 0, so the walk stops
    at the first vertex where that fails, or inside the edge where the
    product peaks."""
    x = y = 0.0
    edges: list[tuple[float, float]] = []
    for m1, m2, (verts, steps) in zip(*masses, segment_hulls(masses, utils)):
        cx, cy = max(verts)
        x += m1 * cx
        y += m2 * cy
        edges += [(m1 * ex, m2 * ey) for ex, ey in steps if ex < 0.0 < ey]
    edges.sort(key=lambda e: atan2(e[1], e[0]))
    for ex, ey in edges:
        rise = ex * y + ey * x
        if rise <= 0.0:
            break
        # the product's slope along the edge falls by -2 ex ey per unit
        bend = -2.0 * ex * ey
        if rise < bend:
            t = rise / bend
            return x + t * ex, y + t * ey
        x += ex
        y += ey
    return x, y


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
                p.utility.values_of(labs),
                pos,
            )
        )
    return [k[-1] for k in sorted(keys)]


def _nash_point(profile: Profile) -> list[float]:
    """The bargaining point of the concerned agents' image, one coordinate
    per concerned agent; `swf1` asks only with two or more.  The solvers
    read `geometry_for`'s rows, segment masses on the merged grid and
    utilities in label order, in canonical order, on Python floats.  Two
    agents take the Pareto walk; three or more take Frank-Wolfe on the
    geometry's contribution points (`ProfileGeometry.rows`)."""
    perm = _canonical_order(profile)
    geom = geometry_for(profile)
    if len(perm) == 2:
        x_canon = _pareto_walk([geom.masses[k] for k in perm], [geom.utils[k] for k in perm])
    else:
        x_canon = _nash_frank_wolfe([geom.rows[k] for k in perm], len(geom.labels))
    return [x for _, x in sorted(zip(perm, x_canon))]


# Rounds of the fully corrective loop before the solve gives up; each
# round adds one vertex.  Criterion 5's 7320 solves take 2.2 rounds and
# 10.9 Newton steps on average, and at most 9 rounds and 73 steps.
_NASH_ROUNDS = 100
# Newton steps per round on the hull of the kept vertices.
_NEWTON_STEPS = 60
# A pivot column of the QR is taken as collapsed once its remaining norm is
# at most this times the first pivot's, the largest column norm.  On
# criterion 5's solves and on twin profiles, D's smallest singular value
# over its largest is at most 2.5e-16 when D is rank-deficient and at least
# 1.1e-10 when it is not.
_RANK_TOL = 1e-13


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    return reduce(add, map(mul, a, b), 0.0)


def _newton_step(cols: list[list[float]], n: int) -> tuple[list[float], float]:
    """The least-squares, least-norm solution s of D.T @ s = 1, given the
    columns of D.T, and the Newton decrement |D.T @ s|.

    Modified Gram-Schmidt with column pivoting (Björck, Numerical Methods
    for Least Squares Problems, 1996) factors D.T[:, piv] = Q @ R and
    carries the ones vector along, giving c = Q.T @ 1 and |D.T @ s| = |c|.
    Columns whose remaining norm collapses, which twin agents cause, are
    left out of Q.  When every column is a pivot, R is triangular and s
    follows by back substitution; otherwise a second Gram-Schmidt,
    R.T = W @ T, gives the least-norm s = W @ z with T.T @ z = c."""
    m = len(cols)
    work = list(cols)  # columns are replaced, never changed in place
    ones = [1.0] * n
    rows: list[list[float]] = []  # R, each row indexed by original column
    piv: list[int] = []
    c: list[float] = []
    free = list(range(m))
    tol = 0.0
    while free and len(piv) < n:
        norms = [_dot(work[j], work[j]) for j in free]
        k = norms.index(max(norms))
        norm = sqrt(norms[k])
        if not piv:
            tol = _RANK_TOL * norm
        if norm <= tol:
            break
        p = free.pop(k)
        q = [v / norm for v in work[p]]
        row = [0.0] * m
        row[p] = norm
        for j in free:
            r = _dot(q, work[j])
            row[j] = r
            work[j] = [v - r * qi for v, qi in zip(work[j], q)]
        cb = _dot(q, ones)
        ones = [v - cb * qi for v, qi in zip(ones, q)]
        rows.append(row)
        piv.append(p)
        c.append(cb)
    decrement = sqrt(_dot(c, c))
    step = [0.0] * m
    if not free:
        for k in reversed(range(len(piv))):
            row = rows[k]
            acc = c[k]
            for p in piv[k + 1 :]:
                acc -= row[p] * step[p]
            step[piv[k]] = acc / row[piv[k]]
        return step, decrement
    W: list[list[float]] = []
    z: list[float] = []
    for k, row in enumerate(rows):
        v = row
        acc = c[k]
        for w, zl in zip(W, z):
            t = _dot(w, v)
            v = [a - t * b for a, b in zip(v, w)]
            acc -= t * zl
        t = sqrt(_dot(v, v))
        W.append([a / t for a in v])
        z.append(acc / t)
    if W:
        step = [_dot(z, col) for col in zip(*W)]
    return step, decrement


# The benchmark (perfbench/) traces this solver by name as `swf.nash`, so
# it stays a module global that takes `_nash_point`'s rows of products and
# returns the point.
def _nash_frank_wolfe(rows: list[list[float]], width: int) -> list[float]:
    """Maximise sum(log x_i) over the image polytope.

    Fully corrective Frank-Wolfe (simplicial decomposition; Lacoste-Julien
    & Jaggi, NeurIPS 2015): maximise over the hull of the kept vertices by
    damped Newton steps on their weights, then ask the per-segment argmax
    oracle for the vertex that best improves the linearised objective.
    The first hull holds the oracle's answers for the all-ones direction
    and for each agent alone, at most n + 1 vertices, rather than every
    constant act.  The Frank-Wolfe gap bounds the log-product
    suboptimality; the point is returned only once the gap is at most
    1e-12 * n, and `DegenerateNashPoint` is raised when the rounds run out
    first.

    The solve runs on Python floats, the oracle included, so no BLAS
    kernel reaches the point's bits.  The oracle is the image's own
    single-direction one (`geometry._scores` and `_best_vertex`), which
    scores each contribution point by a left fold over agents.  Every
    float sum is a left fold, never the builtin `sum`, which compensates
    from Python 3.12 on and would make the point depend on the
    interpreter.
    """
    n = len(rows)
    # The oracle's vertices for the all-ones direction and each coordinate
    # direction, at equal weights: their scores are the left-fold sums of
    # the rows and the rows themselves.  The one for e_i gives agent i its
    # largest expected utility, which is positive, and no vertex has a
    # negative coordinate, so their barycentre is strictly positive.
    verts: list[list[float]] = []
    for scores in ([reduce(add, point) for point in zip(*rows)], *rows):
        v = _best_vertex(rows, width, scores)
        if v not in verts:
            verts.append(v)
    lam = [1.0 / len(verts)] * len(verts)
    for _ in range(_NASH_ROUNDS):
        for _ in range(_NEWTON_STEPS):
            # With verts[0] taking the remaining weight, the Newton step on
            # the other weights is the least-squares fit D.T @ step ~ 1 for
            # D = (verts[1:] - verts[0]) / x.  Fitting D rather than solving
            # with the Hessian D @ D.T keeps thin faces resolvable.
            x = [reduce(add, map(mul, lam, col)) for col in zip(*verts)]
            v0 = verts[0]
            cols = [[(a - b) / xi for a, b, xi in zip(v, v0, x)] for v in verts[1:]]
            step, decrement = _newton_step(cols, n)
            if decrement <= 1e-15:
                break
            d = [-reduce(add, step), *step]
            tmax, block = inf, -1
            for j, (lj, dj) in enumerate(zip(lam, d)):
                if dj < 0.0:
                    ratio = -lj / dj
                    if ratio < tmax:
                        tmax, block = ratio, j
            damped = 1.0 / (1.0 + decrement)
            t = min(tmax, damped)
            lam = [lj + t * dj for lj, dj in zip(lam, d)]
            if tmax <= damped:
                # the blocking vertex leaves the set at once
                lam[block] = 0.0
            verts = [v for v, lj in zip(verts, lam) if lj > 0.0]
            lam = [lj for lj in lam if lj > 0.0]
            total = reduce(add, lam)
            lam = [lj / total for lj in lam]
        cur = [reduce(add, map(mul, lam, col)) for col in zip(*verts)]
        grad = [1.0 / xi for xi in cur]
        vertex = _best_vertex(rows, width, _scores(rows, grad))
        gap = _dot(grad, list(map(sub, vertex, cur)))
        if gap <= 1e-12 * n:
            return cur
        verts.append(vertex)
        lam = [lj * (1.0 - 1e-3) for lj in lam]
        lam.append(1e-3)
    raise DegenerateNashPoint(
        f"Frank-Wolfe gap {gap!r} still above {1e-12 * n!r} after {_NASH_ROUNDS} rounds"
    )


def swf1(profile: Profile) -> SwfResult:
    """Nash-weighted rule: utility weight of agent i is the product of the
    other agents' coordinates at the bargaining point of the image.  Below
    two concerned agents that is `baru`: a lone agent at point s weighs
    s / s, exactly 1.0, so no bargaining point is solved for."""
    concerned = profile.concerned
    if len(concerned) < 2:
        return baru(profile)
    point = _nash_point(profile)
    # sorted, so that relabelling the agents cannot reorder the product
    product = reduce(mul, sorted(point))
    if product <= TOL_MEASURE:
        raise DegenerateNashPoint(f"nash product {product!r} is not positive")
    contribs = []
    for pos, i in enumerate(concerned):
        w = product / point[pos]
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
    """Takes the society belief from the first concerned agent, agent 0
    whenever it is concerned (utilities still summed equally)."""
    concerned = profile.concerned
    contribs = [(i, profile.agents[i], 1.0 if i == concerned[0] else 0.0, 1.0) for i in concerned]
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
        if not 0.0 < w < inf:
            raise ValueError("multiplicity weights must be positive and finite")
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
    """Normalized geometric mean of densities, scaled by
    `discount_to_belief`.  Raises NullPool when the product vanishes
    almost everywhere."""
    if not densities:
        raise ValueError("need at least one density")
    n = len(densities)
    bps = merged_breakpoints(densities)
    vals = []
    for col in zip(*(cell_values(d, bps) for d in densities)):
        prod = 1.0
        for v in col:
            prod *= v
        vals.append(prod ** (1.0 / n) if prod > 0.0 else 0.0)
    try:
        return discount_to_belief(bps, vals)
    except ZeroFunction:
        raise NullPool("pooled density integrates to zero") from None


# ---------------------------------------------------------------------------
# registry


def ramp_utility(space) -> Utility:
    """Evenly spaced utility over the space's labels in listed order."""
    n = len(space.labels)
    return Utility({lab: k / (n - 1) for k, lab in enumerate(space.labels)})


@lru_cache(maxsize=None)
def default_anchor(space) -> Preference:
    """Canonical anchor/phantom preference: uniform belief, ramp utility.
    Built once per outcome space and shared; a `Preference` is immutable."""
    return Preference(Density.uniform(), ramp_utility(space))


# Every named rule as a profile -> result callable.  swf2 and swf3 use the
# canonical anchor/phantom of the profile's own outcome space.
_RULES: dict[str, Callable[[Profile], SwfResult]] = {
    "baru": baru,
    "swf1": swf1,
    "swf2": lambda pr: swf2(pr, default_anchor(pr.space)),
    "swf3": lambda pr: swf3(pr, default_anchor(pr.space)),
    "swf4": swf4,
    "swf5": swf5,
    "swf6": swf6,
}
RULE_NAMES = tuple(_RULES)


def rule_by_name(name: str) -> Callable[[Profile], SwfResult]:
    """Look up a named rule."""
    try:
        return _RULES[name]
    except KeyError:
        raise ValueError(f"unknown rule {name!r}") from None
