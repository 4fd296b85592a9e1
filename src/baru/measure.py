"""Measure layer on the unit interval: events, densities, coarsenings.

The state space is the half-open interval [0, 1). Events are finite unions
of disjoint half-open intervals. Beliefs are piecewise-constant probability
densities over a finite breakpoint grid, which makes every belief
non-atomic by construction; the splitting routines (`lyapunov_event`,
`halving_subalgebra`) lean on that.

Two tolerances are used throughout the package:

* TOL_MEASURE (1e-9) for equalities between measures/probabilities,
* TOL_EXACT (1e-12) for reproductions of pinned numeric values and for
  the indifference band of expected-utility comparisons.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from math import fsum, inf
from operator import mul, sub
from typing import Iterable, NamedTuple, Sequence

from . import lp

TOL_MEASURE = 1e-9
TOL_EXACT = 1e-12

# Interval fractions below this are dropped when an event or a lottery act
# (`prefs.realize_lottery_act`) is assembled from per-segment fractions;
# they carry no measurable mass at TOL_EXACT.
_FRACTION_FLOOR = 1e-12


class Infeasible(Exception):
    """Raised when a requested vector of event probabilities is not
    attainable by any event, or when an internal feasibility solve that
    must succeed does not (a bug guard for the always-feasible cases)."""


class ImproperPushforward(ValueError):
    """A density pushed through a coarsening is no proper density in
    floats, as when a density value divided by a piece's tiny slope
    overflows to infinity."""


# ---------------------------------------------------------------------------
# events


def _merge_intervals(pairs: Iterable[tuple[float, float]]) -> list[list[float]]:
    """Sorted union of intervals: each one that overlaps or touches the
    last merged piece extends it.  A NaN end is kept, for the caller's
    checks to refuse."""
    merged: list[list[float]] = []
    for a, b in sorted(pairs):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(b, merged[-1][1])
        else:
            merged.append([a, b])
    return merged


@dataclass(frozen=True)
class EventSet:
    """Finite union of disjoint half-open intervals within [0, 1).

    Intervals are kept sorted and non-overlapping; construction through
    `from_intervals` additionally merges touching pieces so that equal
    events compare equal.
    """

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        prev = 0.0
        for a, b in self.intervals:
            if not (0.0 <= a < b <= 1.0):
                raise ValueError(f"bad interval [{a}, {b})")
            if a < prev:
                raise ValueError("intervals overlap or are out of order")
            prev = b

    @staticmethod
    def from_intervals(pairs: Iterable[tuple[float, float]]) -> "EventSet":
        """The event of pieces given in any order: empty pieces are
        dropped, overlapping neighbours refused, touching ones merged."""
        pieces = [(a, b) for a, b in sorted((float(a), float(b)) for a, b in pairs) if not b <= a]
        if any(a < b for (_, b), (a, _) in zip(pieces, pieces[1:])):
            raise ValueError("intervals overlap")
        return EventSet(tuple(map(tuple, _merge_intervals(pieces))))

    @property
    def length(self) -> float:
        return fsum(b - a for a, b in self.intervals)

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def complement(self) -> "EventSet":
        out = []
        cursor = 0.0
        for a, b in self.intervals:
            if a > cursor:
                out.append((cursor, a))
            cursor = b
        if cursor < 1.0:
            out.append((cursor, 1.0))
        return EventSet(tuple(out))

    def intersect(self, other: "EventSet") -> "EventSet":
        out = []
        i = j = 0
        mine, theirs = self.intervals, other.intervals
        while i < len(mine) and j < len(theirs):
            a = max(mine[i][0], theirs[j][0])
            b = min(mine[i][1], theirs[j][1])
            if a < b:
                out.append((a, b))
            if mine[i][1] <= theirs[j][1]:
                i += 1
            else:
                j += 1
        return EventSet(tuple(out))

    def union(self, other: "EventSet") -> "EventSet":
        merged = _merge_intervals(self.intervals + other.intervals)
        return EventSet(tuple((a, b) for a, b in merged))

    def contains_along(self, points: Iterable[float]) -> list[bool]:
        """Whether each of a non-decreasing run of points lies in the
        event: one `_values_along` walk over the step function that is
        True on the intervals and False between them."""
        edges = (0.0, *(x for ab in self.intervals for x in ab), 1.0)
        return _values_along(edges, (False, True) * len(self.intervals) + (False,), points)


EventSet.FULL = EventSet(((0.0, 1.0),))


# ---------------------------------------------------------------------------
# densities


@dataclass(frozen=True)
class Density:
    """Piecewise-constant probability density on [0, 1).

    `values[k]` is the density on [breakpoints[k], breakpoints[k+1]); the
    total mass must equal one to within TOL_MEASURE.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    _cum: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        bp, v = self.breakpoints, self.values
        if len(bp) < 2 or bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must run from 0.0 to 1.0")
        if len(v) != len(bp) - 1:
            raise ValueError("need exactly one value per grid cell")
        # One pass over the cells; NaN fails every comparison, so a NaN
        # breakpoint or value is rejected along with the rest.
        cum = [0.0]
        a = total = 0.0
        for b, val in zip(bp[1:], v):
            if not a < b:
                raise ValueError("breakpoints must be strictly increasing")
            if not 0.0 <= val < inf:
                raise ValueError("density values must be finite and nonnegative")
            total += val * (b - a)
            cum.append(total)
            a = b
        if not abs(total - 1.0) <= TOL_MEASURE:
            raise ValueError(f"density integrates to {total}, not 1")
        object.__setattr__(self, "_cum", tuple(cum))

    @staticmethod
    def _derived(breakpoints: tuple[float, ...], values: tuple[float, ...]) -> "Density":
        """The density of a grid and values derived from checked parts
        alone, such as a convex combination of checked densities on their
        merged grid: nothing is checked, and its mass is its parts' mass
        up to rounding, not checked again against TOL_MEASURE."""
        # the running sums of `__post_init__`, in the same order
        cum = [0.0]
        a = total = 0.0
        for b, val in zip(breakpoints[1:], values):
            total += val * (b - a)
            cum.append(total)
            a = b
        out = object.__new__(Density)
        object.__setattr__(out, "breakpoints", breakpoints)
        object.__setattr__(out, "values", values)
        object.__setattr__(out, "_cum", tuple(cum))
        return out

    # -- constructors -------------------------------------------------

    @staticmethod
    def uniform() -> "Density":
        return Density((0.0, 1.0), (1.0,))

    @staticmethod
    def from_masses(breakpoints: Sequence[float], masses: Sequence[float]) -> "Density":
        """Density putting `masses[k]` on the k-th grid cell, spread evenly."""
        bp = tuple(float(x) for x in breakpoints)
        vals = tuple(
            m / (bp[i + 1] - bp[i]) if bp[i + 1] > bp[i] else 0.0
            for i, m in enumerate(masses)
        )
        return Density(bp, vals)

    @staticmethod
    def from_state_probs(probs: Sequence[float]) -> "Density":
        """Encode a finite k-state belief on k equal cells of [0, 1)."""
        k = len(probs)
        if k < 1:
            raise ValueError("need at least one state")
        bp = tuple(i / k for i in range(k)) + (1.0,)
        return Density.from_masses(bp, probs)

    # -- evaluation ----------------------------------------------------

    def value_at(self, x: float) -> float:
        i = bisect_right(self.breakpoints, x) - 1
        i = min(max(i, 0), len(self.values) - 1)
        return self.values[i]

    def cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        if x >= 1.0:
            return self._cum[-1]
        i = bisect_right(self.breakpoints, x) - 1
        return self._cum[i] + self.values[i] * (x - self.breakpoints[i])

    def mass(self, a: float, b: float) -> float:
        if b <= a:
            return 0.0
        return self.cdf(b) - self.cdf(a)

    def as_dict(self) -> dict:
        return {"breakpoints": list(self.breakpoints), "values": list(self.values)}

    @staticmethod
    def from_dict(data: dict) -> "Density":
        """Inverse of `as_dict`; every number passes through float(), so
        integer breakpoints or values decode as the float density."""
        return Density(tuple(map(float, data["breakpoints"])), tuple(map(float, data["values"])))


def measure(density: Density, event: EventSet) -> float:
    """Probability the density assigns to the event."""
    return fsum(density.mass(a, b) for a, b in event.intervals)


def _values_along(breakpoints: Sequence[float], values: Sequence, points: Iterable[float]) -> list:
    """Value of a step function, `values[k]` on [breakpoints[k],
    breakpoints[k+1]), at each of a non-decreasing run of points, by one
    walk along the breakpoints instead of a search per point.  Points left
    of the first step take the first value and points right of the last
    step the last value; a step of width zero is passed over."""
    last = len(values) - 1
    i = 0
    edge = breakpoints[1] if last else inf  # right end of step i; none for the last
    out = []
    for x in points:
        while x >= edge:
            i += 1
            edge = breakpoints[i + 1] if i < last else inf
        out.append(values[i])
    return out


def cell_values(density: Density, grid: Sequence[float]) -> list[float]:
    """The density's value at each cell's left end, for the cells
    [grid[k], grid[k+1]) of a sorted grid, by one `_values_along` walk.
    Where the grid refines the density's breakpoints, that is the
    density's value on the whole cell."""
    return _values_along(density.breakpoints, density.values, grid[:-1])


def interval_masses(density: Density, segments: Iterable[Sequence]) -> list[float]:
    """`density.mass(a, b)` of each segment (a, b, ...) of a run that starts
    at 0, each segment starting where the last one ended (an act's
    segments, say): one CDF value per segment end, by a walk along the
    breakpoints as in `_values_along`."""
    bp, vals, cum = density.breakpoints, density.values, density._cum
    last = len(vals) - 1
    i = 0
    prev = 0.0
    out = []
    for seg in segments:
        x = seg[1]
        if x >= 1.0:
            c = cum[-1]
        else:
            while i < last and bp[i + 1] <= x:
                i += 1
            c = cum[i] + vals[i] * (x - bp[i])
        out.append(c - prev)
        prev = c
    return out


def merged_breakpoints(densities: Sequence[Density], extra: Iterable[float] = ()) -> tuple[float, ...]:
    pts = {0.0, 1.0}
    for d in densities:
        pts.update(d.breakpoints)  # within [0, 1] by construction
    pts.update(x for x in map(float, extra) if 0.0 <= x <= 1.0)
    return tuple(sorted(pts))


def belief_distance(d1: Density, d2: Density) -> float:
    """sup over events of |P1(E) - P2(E)|: the total mass where d1 exceeds
    d2 (which equals the mass where d2 exceeds d1).  Equal densities are
    0.0 apart without a walk: every cell's difference would be 0.0."""
    if d1 == d2:
        return 0.0
    bps = merged_breakpoints([d1, d2])
    cells = zip(cell_values(d1, bps), cell_values(d2, bps), map(sub, bps[1:], bps))
    deltas = [(x - y) * w for x, y, w in cells]
    return fsum(delta for delta in deltas if delta > 0.0)


def segment_masses(density: Density, breakpoints: Sequence[float]) -> tuple[float, ...]:
    """Mass per cell of a refinement grid that contains the density's own
    breakpoints (each cell then has a single density value)."""
    widths = map(sub, breakpoints[1:], breakpoints)
    return tuple(list(map(mul, cell_values(density, breakpoints), widths)))


def common_grid(
    densities: Sequence[Density], extra: Iterable[float] = ()
) -> tuple[tuple[float, ...], tuple[tuple[float, ...], ...]]:
    """The densities' merged grid, with the `extra` points in [0, 1], and
    each density's `segment_masses` on it, one row per density."""
    bps = merged_breakpoints(densities, extra)
    return bps, tuple([segment_masses(d, bps) for d in densities])


# ---------------------------------------------------------------------------
# Lyapunov-style splitting


def _event_from_fractions(
    segments: Sequence[tuple[float, float]], fractions: Sequence[float]
) -> EventSet:
    """Left fraction of each segment, assembled into one event.

    Taking the leftmost sub-interval of every segment keeps the
    construction deterministic: equal fraction vectors give equal events.
    """
    pieces = []
    for (a, b), lam in zip(segments, fractions):
        if lam >= 1.0 - _FRACTION_FLOOR:
            pieces.append((a, b))
        elif lam > _FRACTION_FLOOR:
            pieces.append((a, a + lam * (b - a)))
    return EventSet.from_intervals(pieces)


def lyapunov_event(
    densities: Sequence[Density],
    targets: Sequence[float],
    within: EventSet | None = None,
) -> EventSet:
    """Event E with measure(d_i, E) = targets[i] for every density at once.

    The per-segment fraction relaxation is exact for piecewise-constant
    densities: any measurable event can be replaced by the left fractions
    with identical masses, so LP infeasibility means no event exists and
    `Infeasible` is raised.  With `within` the event is carved out of that
    region only.
    """
    if len(densities) != len(targets) or not densities:
        raise ValueError("need one target per density")
    for t in targets:
        if not (-TOL_MEASURE <= t <= 1.0 + TOL_MEASURE):
            raise ValueError(f"target {t} outside [0, 1]")

    region = within if within is not None else EventSet.FULL
    bps, rows = common_grid(densities, (x for ab in region.intervals for x in ab))
    inside = [k for k, hit in enumerate(region.contains_along(bps[:-1])) if hit]
    if not inside:
        raise Infeasible("empty region")
    segments = [(bps[k], bps[k + 1]) for k in inside]

    # One fraction 0 <= lam_s <= 1 per segment; one row per density.
    A = [[m[k] for k in inside] for m in rows]
    x = lp.feasible_point(A, targets, upper=1.0)
    if x is None:
        raise Infeasible(f"no event attains probabilities {tuple(targets)}")
    event = _event_from_fractions(segments, x)
    for i, d in enumerate(densities):
        got = measure(d, event)
        if abs(got - targets[i]) > TOL_MEASURE:
            raise Infeasible(
                f"feasibility solve drifted: wanted {targets[i]}, built {got}"
            )
    return event


@dataclass(frozen=True)
class DyadicPartition:
    """Cells of a recursive halving: 2**depth events, each of mass
    2**-depth under both generating densities."""

    depth: int
    cells: tuple[EventSet, ...]

    def __post_init__(self) -> None:
        if len(self.cells) != 2**self.depth:
            raise ValueError("cell count must be 2**depth")


def halving_subalgebra(d1: Density, d2: Density, depth: int) -> DyadicPartition:
    """Recursively bisect [0, 1) so both densities assign half the parent
    mass to each child; after k rounds every cell has mass 2**-k under
    both. The partition generates (a finite stand-in for) an algebra over
    which the two beliefs agree with the uniform coin."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    cells = [EventSet.FULL]
    for _ in range(depth):
        next_cells: list[EventSet] = []
        for cell in cells:
            m1 = measure(d1, cell)
            m2 = measure(d2, cell)
            left = lyapunov_event((d1, d2), (m1 / 2.0, m2 / 2.0), within=cell)
            right = cell.intersect(left.complement())
            if left.is_empty or right.is_empty:
                raise Infeasible("halving produced an empty cell")
            next_cells.append(left)
            next_cells.append(right)
        cells = next_cells
    return DyadicPartition(depth, tuple(cells))


# ---------------------------------------------------------------------------
# coarsenings (measurable quotient maps)


_IDENTITY_PIECES = ((0.0, 1.0, 0.0, 1.0, +1),)


class AffinePiece(NamedTuple):
    """One piece of a coarsening as the affine map of its source interval
    [sa, sb) onto its target interval [ta, tb), forwards (orient=+1) or
    reversed (orient=-1), with its slope: the target's length over the
    source's."""

    sa: float
    sb: float
    ta: float
    tb: float
    orient: int
    slope: float

    def forward(self, x: float) -> float:
        """The target point of the source point x."""
        if self.orient > 0:
            return self.ta + (x - self.sa) * self.slope
        return self.ta + (self.sb - x) * self.slope

    def backward(self, y: float) -> float:
        """The source point that the piece maps to the target point y."""
        if self.orient > 0:
            return self.sa + (y - self.ta) / self.slope
        return self.sb - (y - self.ta) / self.slope


@dataclass(frozen=True)
class Coarsening:
    """Piecewise-affine surjection q of [0, 1) onto [0, 1).

    Each piece maps a source interval [sa, sb) affinely onto a target
    interval [ta, tb), forwards (orient=+1) or reversed (orient=-1).
    Source intervals partition [0, 1); target intervals jointly cover
    [0, 1) and may overlap, which is what makes q many-to-one.  Acts that
    factor through q are exactly the acts measurable with respect to the
    coarser algebra q induces.
    """

    pieces: tuple[tuple[float, float, float, float, int], ...]

    def __post_init__(self) -> None:
        if not self.pieces:
            raise ValueError("coarsening needs at least one piece")
        cursor = 0.0
        covered: list[tuple[float, float]] = []
        for sa, sb, ta, tb, orient in self.pieces:
            if sa != cursor:
                raise ValueError("source intervals must partition [0,1) in order")
            if not (sa < sb <= 1.0) or not (0.0 <= ta < tb <= 1.0):
                raise ValueError("degenerate coarsening piece")
            if orient not in (+1, -1):
                raise ValueError("orient must be +1 or -1")
            covered.append((ta, tb))
            cursor = sb
        if cursor != 1.0:
            raise ValueError("source intervals must end at 1.0")
        merged = _merge_intervals(covered)
        if len(merged) != 1 or merged[0][0] > TOL_EXACT or merged[0][1] < 1.0 - TOL_EXACT:
            raise ValueError("target intervals must cover [0,1)")

    @staticmethod
    def identity() -> "Coarsening":
        return Coarsening(_IDENTITY_PIECES)

    @cached_property
    def maps(self) -> tuple[AffinePiece, ...]:
        """The pieces as affine maps, in order."""
        return tuple(
            AffinePiece(sa, sb, ta, tb, orient, (tb - ta) / (sb - sa))
            for sa, sb, ta, tb, orient in self.pieces
        )

    def as_dict(self) -> dict:
        return {"pieces": [list(p) for p in self.pieces]}

    @staticmethod
    def from_dict(data: dict) -> "Coarsening":
        return Coarsening(
            tuple((float(a), float(b), float(c), float(d), _orient(o)) for a, b, c, d, o in data["pieces"])
        )


def _orient(o: object) -> int | float:
    """A decoded orient.  A float that is not integral (1.7, inf, NaN) stays
    a float, which `Coarsening` refuses: int() would truncate 1.7 to +1."""
    return o if isinstance(o, float) and not o.is_integer() else int(o)


def pushforward_coarsening(q: Coarsening, density: Density) -> Density:
    """Density of q(X) when X has the given density.

    Each affine piece contributes its source density divided by the
    absolute slope; overlapping targets add up. The result is again a
    proper piecewise-constant density (mass is conserved), so coarsened
    beliefs stay non-atomic.  The identity coarsening returns the density
    itself.

    The result's grid holds every piece's target ends and the image of
    every density breakpoint strictly inside a piece, so each source cell
    between the density's breakpoints and the pull-backs of that grid maps
    into one target cell t, its fiber.  `axioms.certify_coredundancy`
    bounds the two-agent support gap by sum_s |D_s - c_s E_t|_1 +
    sum_t |E_t - D_t|_1, with D_s a source cell's masses, E_t their sum
    over the fiber, c_s = 1'D_s / 1'E_t and D_t the pushed masses: 0.0
    under the identity coarsening, and of rounding size where fibers carry
    proportional masses.  One pass over the pieces finds each grid
    cell's source value by bisection on the density's breakpoints, and the
    values add up piece by piece in the pieces' order.  A piece too flat
    for floats leaves no proper density and raises `ImproperPushforward`.
    """
    if q.pieces == _IDENTITY_PIECES:
        return density
    dbp, dvals = density.breakpoints, density.values
    last = len(dvals) - 1
    pts = {0.0, 1.0}
    for piece in q.maps:
        inner = dbp[bisect_right(dbp, piece.sa) : bisect_left(dbp, piece.sb)]
        pts.update((piece.ta, piece.tb, *map(piece.forward, inner)))
    bps = tuple(sorted(pts))
    mids = [0.5 * (a + b) for a, b in zip(bps[:-1], bps[1:])]
    values = [0.0] * len(mids)
    try:
        for piece in q.maps:
            # the cells whose midpoint the piece covers, each valued at its
            # midpoint's source point, as `Density.value_at` would
            for k in range(bisect_left(mids, piece.ta), bisect_left(mids, piece.tb)):
                j = bisect_right(dbp, piece.backward(mids[k])) - 1
                values[k] += dvals[0 if j < 0 else last if j > last else j] / piece.slope
        return Density(bps, tuple(values))
    except ValueError as exc:
        raise ImproperPushforward(str(exc)) from None
