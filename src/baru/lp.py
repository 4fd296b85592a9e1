"""Dense phase-1 simplex for small equality-form feasibility problems.

Everything this package asks of linear programming is a feasibility
question: find x >= 0 with A x = b, where A has at most a few dozen rows
(segment fractions, lottery allocations, common-belief certificates).
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


def feasible_point(A, b) -> np.ndarray | None:
    """Return some x >= 0 with A x = b, or None when none exists.

    The point returned is a basic solution of the phase-1 simplex with
    Bland's rule, so repeated calls on identical input yield the identical
    vector.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise ValueError("feasible_point: A must be (m, n) and b must be (m,)")
    m, n = A.shape
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
    if not _pivot(T, basis):
        return None
    tol = FEAS_TOL * max(1.0, float(np.max(np.abs(b))))
    if -T[m, -1] > tol:
        return None
    x = _basic_point(T, basis, n)
    if np.max(np.abs(A @ x - b)) > tol:
        # Round-off from many pivots can leave the tableau claiming a
        # feasible basis whose point misses A x = b.  Rebuild the tableau
        # from the original data as B^-1 [A | I | b] and pivot on.
        full = np.hstack([A, np.eye(m), b[:, None]])
        T[:m] = np.linalg.solve(full[:, basis], full)
        cost = np.concatenate([np.zeros(n), np.ones(m), [0.0]])
        T[m] = cost - cost[basis] @ T[:m]
        if not _pivot(T, basis) or -T[m, -1] > tol:
            return None
        x = _basic_point(T, basis, n)
    return x


def _pivot(T: np.ndarray, basis: list[int]) -> bool:
    """Bland-rule phase-1 pivoting on the tableau in place; False when it
    fails numerically or runs out of iterations.  The column and row scans
    run over Python floats, which divide and compare exactly as numpy's
    float64 scalars do."""
    m = len(basis)
    for _ in range(_MAX_ITER):
        # Bland: the first column with a negative reduced cost enters.
        for enter, cost in enumerate(T[m, :-1].tolist()):
            if cost < -PIVOT_EPS:
                break
        else:
            return True
        # Ratio test in row order; Bland tie-break on the smallest basis
        # index.
        leave = -1
        best = inf
        for i, (a, rhs) in enumerate(zip(T[:m, enter].tolist(), T[:m, -1].tolist())):
            if a > PIVOT_EPS:
                ratio = rhs / a
                if ratio < best - PIVOT_EPS or (
                    ratio < best + PIVOT_EPS and (leave < 0 or basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            # Unbounded phase-1 objective cannot happen (it is bounded
            # below by zero); treat as numerical failure.
            return False
        T[leave] /= T[leave, enter]
        col = T[:, enter].copy()
        col[leave] = 0.0
        T -= col[:, None] * T[leave]
        T[leave, enter] = 1.0
        basis[leave] = enter
    return False


def _basic_point(T: np.ndarray, basis: list[int], n: int) -> np.ndarray:
    x = np.zeros(n)
    for i, j in enumerate(basis):
        if j < n:
            x[j] = max(T[i, -1], 0.0)
    return x
