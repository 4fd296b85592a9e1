"""Dense phase-1 simplex for small feasibility problems: find x with
A x = b and 0 <= x <= upper.

The LPs are small.  The lemma constructions (`lyapunov_event`,
`realize_lottery_act`) have one row per belief (at most four in the
batteries and criterion 7) and one bounded column per grid cell; the
common-belief LP has 1 + n + pinned rows and unbounded columns.
A plain dense tableau with Bland's rule is exact enough at that scale and
keeps the answer deterministic, which the witness re-run guarantees rely on.
"""

from __future__ import annotations

from math import inf

import numpy as np

# Pivot candidates below this magnitude are treated as zero.
PIVOT_EPS = 1e-11
# Residual sum of artificials above this means "no feasible point".
FEAS_TOL = 1e-9

_MAX_ITER = 20_000


def feasible_point(A, b, upper=None) -> np.ndarray | None:
    """Return some x with A x = b and 0 <= x <= upper, or None when none
    exists.  `upper` is None, one bound for all columns or one per column.

    Bounds need no slack rows (Dantzig's upper-bounding technique): a
    nonbasic variable at its bound is complemented, x_j = u_j - x'_j.
    The point is a basic solution of the phase-1 simplex with Bland's
    rule, so identical input yields the identical vector.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise ValueError("feasible_point: A must be (m, n) and b must be (m,)")
    m, n = A.shape
    bounds = [inf] * (n + m)
    if upper is not None:
        bounds[:n] = np.broadcast_to(np.asarray(upper, dtype=float), (n,)).tolist()
        if not all(u >= 0.0 for u in bounds):
            raise ValueError("feasible_point: upper bounds must be nonnegative")
    if m == 0:
        return np.zeros(n)

    # Flip rows so the right-hand side is nonnegative, then add one
    # artificial variable per row; minimising their sum is phase 1.
    flip = b < 0.0
    A = np.where(flip[:, None], -A, A)
    b = np.where(flip, -b, b)

    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    # Objective row: reduced costs for min(sum of artificials) after
    # pricing the artificial basis out.
    T[m, :n] = -A.sum(axis=0)
    T[m, -1] = -b.sum()

    basis = list(range(n, n + m))
    flipped = [False] * (n + m)
    if not _pivot(T, basis, bounds, flipped):
        return None
    tol = FEAS_TOL * max(1.0, float(np.max(np.abs(b))))
    if -T[m, -1] > tol:
        return None
    x = _point(T, basis, bounds, flipped, n)
    if np.max(np.abs(A @ x - b)) > tol:
        # Round-off from many pivots can leave the tableau claiming a
        # feasible basis whose point misses A x = b.  Rebuild the tableau
        # from the original data as B^-1 [A | I | b], complemented columns
        # negated with their bounds moved into b, and pivot on.
        shifted = b - A @ np.where(flipped[:n], bounds[:n], 0.0)
        full = np.hstack([np.where(flipped[:n], -A, A), np.eye(m), shifted[:, None]])
        T[:m] = np.linalg.solve(full[:, basis], full)
        cost = np.concatenate([np.zeros(n), np.ones(m), [0.0]])
        T[m] = cost - cost[basis] @ T[:m]
        if not _pivot(T, basis, bounds, flipped) or -T[m, -1] > tol:
            return None
        x = _point(T, basis, bounds, flipped, n)
    return x


def _pivot(T: np.ndarray, basis: list[int], bounds: list[float], flipped: list[bool]) -> bool:
    """Bland-rule phase-1 pivoting on the tableau in place; False when it
    fails numerically or runs out of iterations.  The column and row scans
    run over Python floats, which divide and compare exactly as numpy's
    float64 scalars do.  With every bound inf it is the plain phase 1."""
    m = len(basis)
    for _ in range(_MAX_ITER):
        # Bland: the first movable column with a negative reduced cost enters.
        for enter, cost in enumerate(T[m, :-1].tolist()):
            if cost < -PIVOT_EPS and bounds[enter] > 0.0:
                break
        else:
            return True
        # Ratio test in row order; Bland tie-break on the smallest basis
        # index.  A basic variable blocks by falling to zero or by rising
        # to its upper bound.
        leave = -1
        best = inf
        for i, (a, rhs) in enumerate(zip(T[:m, enter].tolist(), T[:m, -1].tolist())):
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
        T[leave] /= T[leave, enter]
        col = T[:, enter].copy()
        col[leave] = 0.0
        T -= col[:, None] * T[leave]
        T[leave, enter] = 1.0
        basis[leave] = enter
        if rising:
            # The leaving variable stops at its upper bound.
            _complement(T, out, bounds[out], flipped)
    return False


def _complement(T: np.ndarray, j: int, bound: float, flipped: list[bool]) -> None:
    """Substitute x_j = bound - x'_j for nonbasic column j."""
    T[:, -1] -= bound * T[:, j]
    T[:, j] *= -1.0
    flipped[j] = not flipped[j]


def _point(T: np.ndarray, basis: list[int], bounds: list, flipped: list, n: int) -> np.ndarray:
    x = np.array([u if f else 0.0 for u, f in zip(bounds[:n], flipped)])
    for i, j in enumerate(basis):
        if j < n:
            v = min(max(T[i, -1], 0.0), bounds[j])
            x[j] = bounds[j] - v if flipped[j] else v
    return x
