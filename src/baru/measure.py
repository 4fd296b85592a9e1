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

from bisect import bisect_right
from dataclasses import dataclass, field
from math import fsum
from typing import Iterable, Sequence

import numpy as np

from . import lp

TOL_MEASURE = 1e-9
TOL_EXACT = 1e-12

# Interval fractions below this are dropped when an event is assembled
# from per-segment fractions; they carry no measurable mass at TOL_EXACT.
_FRACTION_FLOOR = 1e-12


class Infeasible(Exception):
    """Raised when a requested vector of event probabilities is not
    attainable by any event, or when an internal feasibility solve that
    must succeed does not (a bug guard for the always-feasible cases)."""


# ---------------------------------------------------------------------------
# events


def _merge_intervals(pairs: Iterable[tuple[float, float]]) -> list[list[float]]:
    """Sorted union of intervals: each one that overlaps or touches the
    last merged piece extends it."""
    merged: list[list[float]] = []
    for a, b in sorted(pairs):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
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
        out: list[list[float]] = []
        for a, b in sorted((float(a), float(b)) for a, b in pairs):
            if b <= a:
                continue
            if out and a < out[-1][1]:
                raise ValueError("intervals overlap")
            if out and a == out[-1][1]:
                out[-1][1] = b
            else:
                out.append([a, b])
        return EventSet(tuple((a, b) for a, b in out))

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

    def contains_point(self, x: float) -> bool:
        for a, b in self.intervals:
            if a <= x < b:
                return True
        return False

    def as_dict(self) -> dict:
        return {"intervals": [[a, b] for a, b in self.intervals]}

    @staticmethod
    def from_dict(data: dict) -> "EventSet":
        return EventSet.from_intervals(tuple((a, b) for a, b in data["intervals"]))


EventSet.EMPTY = EventSet(())
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
        if any(bp[i] >= bp[i + 1] for i in range(len(bp) - 1)):
            raise ValueError("breakpoints must be strictly increasing")
        if len(v) != len(bp) - 1:
            raise ValueError("need exactly one value per grid cell")
        if any(val < 0.0 for val in v):
            raise ValueError("density values must be nonnegative")
        cum = [0.0]
        for i, val in enumerate(v):
            cum.append(cum[-1] + val * (bp[i + 1] - bp[i]))
        if abs(cum[-1] - 1.0) > TOL_MEASURE:
            raise ValueError(f"density integrates to {cum[-1]}, not 1")
        object.__setattr__(self, "_cum", tuple(cum))

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
        return Density(tuple(data["breakpoints"]), tuple(data["values"]))


def measure(density: Density, event: EventSet) -> float:
    """Probability the density assigns to the event."""
    return fsum(density.mass(a, b) for a, b in event.intervals)


def merged_breakpoints(densities: Sequence[Density], extra: Iterable[float] = ()) -> tuple[float, ...]:
    pts = {0.0, 1.0}
    for d in densities:
        pts.update(d.breakpoints)
    pts.update(float(x) for x in extra)
    return tuple(sorted(p for p in pts if 0.0 <= p <= 1.0))


def belief_distance(d1: Density, d2: Density) -> float:
    """sup over events of |P1(E) - P2(E)|: the total mass where d1 exceeds
    d2 (which equals the mass where d2 exceeds d1)."""
    bps = merged_breakpoints([d1, d2])
    gains = []
    for a, b in zip(bps[:-1], bps[1:]):
        delta = (d1.value_at(a) - d2.value_at(a)) * (b - a)
        if delta > 0.0:
            gains.append(delta)
    return fsum(gains)


def segment_masses(density: Density, breakpoints: Sequence[float]) -> tuple[float, ...]:
    """Mass per cell of a refinement grid that contains the density's own
    breakpoints (each cell then has a single density value)."""
    out = []
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        out.append(density.value_at(a) * (b - a))
    return tuple(out)


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
    bps = merged_breakpoints(densities, (x for ab in region.intervals for x in ab))
    segments = []
    for a, b in zip(bps[:-1], bps[1:]):
        if region.contains_point(a):
            segments.append((a, b))
    if not segments:
        raise Infeasible("empty region")
    S = len(segments)
    n = len(densities)

    # Variables: fractions lam_s plus slacks sig_s for lam_s <= 1.
    A = np.zeros((n + S, 2 * S))
    b_vec = np.zeros(n + S)
    for i, d in enumerate(densities):
        for s, (a, b) in enumerate(segments):
            A[i, s] = d.value_at(a) * (b - a)
        b_vec[i] = targets[i]
    for s in range(S):
        A[n + s, s] = 1.0
        A[n + s, S + s] = 1.0
        b_vec[n + s] = 1.0

    x = lp.feasible_point(A, b_vec)
    if x is None:
        raise Infeasible(f"no event attains probabilities {tuple(targets)}")
    event = _event_from_fractions(segments, x[:S])
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
        return Coarsening(((0.0, 1.0, 0.0, 1.0, +1),))

    def as_dict(self) -> dict:
        return {"pieces": [list(p) for p in self.pieces]}

    @staticmethod
    def from_dict(data: dict) -> "Coarsening":
        return Coarsening(
            tuple((float(a), float(b), float(c), float(d), int(o)) for a, b, c, d, o in data["pieces"])
        )


def pushforward_coarsening(q: Coarsening, density: Density) -> Density:
    """Density of q(X) when X has the given density.

    Each affine piece contributes its source density divided by the
    absolute slope; overlapping targets add up. The result is again a
    proper piecewise-constant density (mass is conserved), so coarsened
    beliefs stay non-atomic.
    """
    pts = {0.0, 1.0}
    for sa, sb, ta, tb, orient in q.pieces:
        pts.add(ta)
        pts.add(tb)
        slope = (tb - ta) / (sb - sa)
        for u in density.breakpoints:
            if sa < u < sb:
                if orient > 0:
                    pts.add(ta + (u - sa) * slope)
                else:
                    pts.add(ta + (sb - u) * slope)
    bps = tuple(sorted(pts))
    values = []
    for a, b in zip(bps[:-1], bps[1:]):
        mid = 0.5 * (a + b)
        total = 0.0
        for sa, sb, ta, tb, orient in q.pieces:
            if ta <= mid < tb:
                slope = (tb - ta) / (sb - sa)
                if orient > 0:
                    src = sa + (mid - ta) / slope
                else:
                    src = sb - (mid - ta) / slope
                total += density.value_at(src) / slope
        values.append(total)
    return Density(bps, tuple(values))
