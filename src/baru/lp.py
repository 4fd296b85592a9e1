"""Dense phase-1 simplex for small feasibility problems: find x with
A x = b and 0 <= x <= upper.

The LPs are small.  The lemma constructions (`lyapunov_event`,
`realize_lottery_act`) have one row per belief (at most four in the
batteries and criterion 7) and one bounded column per grid cell; the
common-belief LP has 1 + n + pinned rows and unbounded columns.
A plain dense tableau with Bland's rule is exact enough at that scale and
keeps the answer deterministic, which the witness re-run guarantees rely on.

Data and point are Python lists (arrays are accepted too), and so is
the tableau, a list of rows of floats: at a few rows by a few dozen
columns, one numpy call costs more than the arithmetic it does.  Every
entry goes through the float64 operations a numpy tableau would apply,
in the same order, signed zeros included, so the point keeps its bits.
numpy only rebuilds a drifted tableau (`np.linalg.solve`).
"""

from __future__ import annotations

from functools import reduce
from math import inf
from numbers import Real
from operator import add, mul

# Pivot candidates below this magnitude are treated as zero.
PIVOT_EPS = 1e-11
# Residual sum of artificials above this means "no feasible point".
FEAS_TOL = 1e-9

_MAX_ITER = 20_000


def feasible_point(A, b, upper=None) -> list[float] | None:
    """Return some x with A x = b and 0 <= x <= upper as a list of floats,
    or None when none exists.  `A` is a rectangular nested sequence (or a
    2-d array) and `b` a sequence; `upper` is None, one bound for all
    columns or one per column.

    Bounds need no slack rows (Dantzig's upper-bounding technique): a
    nonbasic variable at its bound is complemented, x_j = u_j - x'_j.
    The point is a basic solution of the phase-1 simplex with Bland's
    rule, so identical input yields the identical list.
    """
    try:
        rows = [list(map(float, row)) for row in A]
        rhs = list(map(float, b))
    except TypeError:
        raise ValueError("feasible_point: A must be (m, n) and b must be (m,)") from None
    m = len(rows)
    # With no rows only an array's shape still gives the width.
    n = len(rows[0]) if rows else getattr(A, "shape", (0, 0))[-1]
    if len(rhs) != m or any(len(row) != n for row in rows):
        raise ValueError("feasible_point: A must be (m, n) and b must be (m,)")
    bounds = [inf] * (n + m)
    if upper is not None:
        bounds[:n] = [float(upper)] * n if isinstance(upper, Real) else map(float, upper)
        if len(bounds) != n + m or not all(u >= 0.0 for u in bounds):
            raise ValueError("feasible_point: need one nonnegative upper bound per column")
    if m == 0:
        return [0.0] * n

    # Flip rows so the right-hand side is nonnegative, then add one
    # artificial variable per row; minimising their sum is phase 1.
    for i, v in enumerate(rhs):
        if v < 0.0:
            rows[i], rhs[i] = [-a for a in rows[i]], -v
    T = [row + [0.0] * m + [v] for row, v in zip(rows, rhs)]
    for i in range(m):
        T[i][n + i] = 1.0
    # Objective row: reduced costs for min(sum of artificials) after
    # pricing the artificial basis out.  Each sum is a left fold, which
    # is the order of numpy's float64 sums below eight terms (`sum` is
    # not: it compensates from Python 3.12 on).
    T.append([-reduce(add, col) for col in zip(*rows)] + [0.0] * m + [-reduce(add, rhs)])

    basis = list(range(n, n + m))
    flipped = [False] * (n + m)
    if not _pivot(T, basis, bounds, flipped):
        return None
    tol = FEAS_TOL * max(1.0, max(rhs))
    if -T[m][-1] > tol:
        return None
    x = _point(T, basis, bounds, flipped, n)
    if max(abs(reduce(add, map(mul, row, x)) - v) for row, v in zip(rows, rhs)) > tol:
        # Round-off from many pivots can leave the tableau claiming a
        # feasible basis whose point misses A x = b.  Rebuild the tableau
        # from the original data as B^-1 [A | I | b], complemented columns
        # negated with their bounds moved into b, and pivot on.  Only this
        # repair needs numpy, so only it imports numpy.
        import numpy as np

        A, b = np.array(rows), np.array(rhs)
        shifted = b - A @ np.where(flipped[:n], bounds[:n], 0.0)
        full = np.hstack([np.where(flipped[:n], -A, A), np.eye(m), shifted[:, None]])
        body = np.linalg.solve(full[:, basis], full)
        cost = np.concatenate([np.zeros(n), np.ones(m), [0.0]])
        T = body.tolist() + [(cost - cost[basis] @ body).tolist()]
        if not _pivot(T, basis, bounds, flipped) or -T[m][-1] > tol:
            return None
        x = _point(T, basis, bounds, flipped, n)
    return x


def _pivot(T: list[list[float]], basis: list[int], bounds: list[float], flipped: list[bool]) -> bool:
    """Bland-rule phase-1 pivoting on the tableau rows in place; False
    when it fails numerically or runs out of iterations.  With every bound
    inf it is the plain phase 1."""
    m = len(basis)
    for _ in range(_MAX_ITER):
        # Bland: the first movable column with a negative reduced cost
        # enters.  zip stops before the right-hand side, which has no bound.
        for enter, (cost, bound) in enumerate(zip(T[m], bounds)):
            if cost < -PIVOT_EPS and bound > 0.0:
                break
        else:
            return True
        # Ratio test in row order; Bland tie-break on the smallest basis
        # index.  A basic variable blocks by falling to zero or by rising
        # to its upper bound.
        leave = -1
        best = inf
        for i in range(m):
            a, rhs = T[i][enter], T[i][-1]
            if a > PIVOT_EPS:
                ratio = rhs / a
            elif a < -PIVOT_EPS and bounds[basis[i]] < inf:
                ratio = (bounds[basis[i]] - rhs) / -a
            else:
                continue
            if ratio < best - PIVOT_EPS or (
                ratio < best + PIVOT_EPS and (leave < 0 or basis[i] < basis[leave])
            ):
                best = ratio
                leave = i
                rising = a < 0.0
        if best == inf == bounds[enter]:
            return False  # phase 1 is bounded below by zero: numerical failure
        if bounds[enter] <= best:
            # The entering variable reaches its own bound first: flip it.
            _complement(T, enter, bounds[enter], flipped)
            continue
        out = basis[leave]
        # numpy's T[leave] /= pivot, then T -= col * T[leave] with the
        # pivot row's own factor zero (which turns its -0.0 into 0.0).
        piv = T[leave][enter]
        T[leave] = prow = [v / piv for v in T[leave]]
        for i, row in enumerate(T):
            factor = 0.0 if i == leave else row[enter]
            T[i] = [v - factor * p for v, p in zip(row, prow)]
        basis[leave] = enter
        if rising:
            # The leaving variable stops at its upper bound.
            _complement(T, out, bounds[out], flipped)
    return False


def _complement(T: list[list[float]], j: int, bound: float, flipped: list[bool]) -> None:
    """Substitute x_j = bound - x'_j for nonbasic column j."""
    for row in T:
        row[-1] -= bound * row[j]
        row[j] = -row[j]
    flipped[j] = not flipped[j]


def _point(T: list[list[float]], basis: list[int], bounds: list, flipped: list, n: int) -> list[float]:
    x = [u if f else 0.0 for u, f in zip(bounds[:n], flipped)]
    for row, j in zip(T, basis):
        if j < n:
            v = min(max(row[-1], 0.0), bounds[j])
            x[j] = bounds[j] - v if flipped[j] else v
    return x
