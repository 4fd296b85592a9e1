"""Phase-1 simplex feasibility: exactness on small systems and
deterministic output."""

import numpy as np
import pytest

from baru import lp
from baru.lp import FEAS_TOL, PIVOT_EPS, feasible_point


def test_simple_feasible_system():
    A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    b = np.array([1.0, 1.0])
    x = feasible_point(A, b)
    assert x is not None
    x = np.array(x)
    assert np.all(x >= -1e-12)
    assert np.abs(A @ x - b).max() <= FEAS_TOL


def test_infeasible_system_returns_none():
    # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    assert feasible_point(A, b) is None


def test_negative_rhs_handled_by_row_flip():
    A = np.array([[-1.0, 0.0], [0.0, 1.0]])
    b = np.array([-0.5, 0.25])
    x = feasible_point(A, b)
    assert x is not None
    assert x[0] == pytest.approx(0.5, abs=1e-12)
    assert x[1] == pytest.approx(0.25, abs=1e-12)


def test_nonnegativity_blocks_sign_infeasible_system():
    # x1 - x2 = -1 with a second row forcing x2 = 0 leaves no x1 >= 0
    A = np.array([[1.0, -1.0], [0.0, 1.0]])
    b = np.array([-1.0, 0.0])
    assert feasible_point(A, b) is None


def test_zero_rows_shape():
    x = feasible_point(np.zeros((0, 4)), np.zeros(0))
    assert x == [0.0] * 4


def test_shape_validation():
    with pytest.raises(ValueError):
        feasible_point(np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        feasible_point(np.zeros(4), np.zeros(2))
    with pytest.raises(ValueError):
        feasible_point([[1.0, 1.0], [1.0]], [1.0, 1.0])


def test_determinism_on_repeated_call():
    rng = np.random.default_rng(5150)
    A = rng.normal(size=(6, 14))
    x0 = np.abs(rng.normal(size=14))
    b = A @ x0  # feasible by construction
    first = feasible_point(A, b)
    assert first is not None
    for _ in range(5):
        again = feasible_point(A, b)
        assert again is not None
        assert np.array_equal(first, again)


def test_random_feasible_batch():
    rng = np.random.default_rng(77)
    for _ in range(50):
        m, n = rng.integers(1, 7), rng.integers(2, 16)
        A = rng.normal(size=(m, n))
        x0 = np.abs(rng.normal(size=n))
        b = A @ x0
        x = feasible_point(A, b)
        assert x is not None
        x = np.array(x)
        assert np.all(x >= -1e-10)
        assert np.abs(A @ x - b).max() <= 1e-8


def test_degenerate_duplicate_rows_fine():
    A = np.array([[1.0, 2.0], [1.0, 2.0], [2.0, 4.0]])
    b = np.array([3.0, 3.0, 6.0])
    x = feasible_point(A, b)
    assert x is not None
    assert np.abs(A @ x - b).max() <= FEAS_TOL


def _pivot_reference(rows, basis, bounds, flipped):
    """Bland-rule phase 1 one scalar at a time: the first column with a
    negative reduced cost enters; the ratio test walks the rows in order.
    It knows no upper bounds.  The tableau rows are pivoted as one numpy
    array and written back."""
    T = np.array(rows)
    ok = _pivot_reference_array(T, basis, bounds, flipped)
    rows[:] = T.tolist()
    return ok


def _pivot_reference_array(T, basis, bounds, flipped):
    assert all(u == np.inf for u in bounds) and not any(flipped)
    m = len(basis)
    for _ in range(lp._MAX_ITER):
        enter = -1
        for j in range(T.shape[1] - 1):
            if T[m, j] < -PIVOT_EPS:
                enter = j
                break
        if enter < 0:
            return True
        leave = -1
        best = np.inf
        for i in range(m):
            a = T[i, enter]
            if a > PIVOT_EPS:
                ratio = T[i, -1] / a
                if ratio < best - PIVOT_EPS or (
                    ratio < best + PIVOT_EPS and (leave < 0 or basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return False
        piv = T[leave, enter]
        T[leave] /= piv
        col = T[:, enter].copy()
        col[leave] = 0.0
        T -= np.outer(col, T[leave])
        T[leave, enter] = 1.0
        basis[leave] = enter
    return False


class _RecordedBasis(list):
    """A basis list that logs every (row, entering column) assignment."""

    def __init__(self, items, log):
        super().__init__(items)
        self.log = log

    def __setitem__(self, i, v):
        self.log.append((i, v))
        super().__setitem__(i, v)


def _solve_with(monkeypatch, pivot, A, b):
    log = []

    def recorded(T, basis, *bounds_and_flips):
        rec = _RecordedBasis(basis, log)
        ok = pivot(T, rec, *bounds_and_flips)
        basis[:] = rec
        return ok

    monkeypatch.setattr(lp, "_pivot", recorded)
    return feasible_point(A, b), log


def test_pivot_matches_scalar_bland_reference(monkeypatch):
    rng = np.random.default_rng(20240801)
    fast = lp._pivot
    outcomes = {"feasible": 0, "infeasible": 0}
    for trial in range(300):
        m, n = int(rng.integers(1, 12)), int(rng.integers(2, 30))
        if trial % 3 == 0:
            # small integers: many ratio-test ties and degenerate pivots
            A = rng.integers(-2, 3, size=(m, n)).astype(float)
        else:
            A = rng.normal(size=(m, n))
        x0 = np.abs(rng.normal(size=n)) * (rng.random(n) < 0.5)
        b = A @ x0 if trial % 2 == 0 else rng.normal(size=m)
        x, log = _solve_with(monkeypatch, fast, A, b)
        x_ref, log_ref = _solve_with(monkeypatch, _pivot_reference, A, b)
        assert log == log_ref
        if x_ref is None:
            assert x is None
            outcomes["infeasible"] += 1
        else:
            assert np.array_equal(x, x_ref)
            outcomes["feasible"] += 1
    assert min(outcomes.values()) >= 30


def _slack_form(A, b, upper):
    """The same LP with each bound x_j <= u_j written as a row x_j + s_j = u_j."""
    m, n = A.shape
    big = np.block([[A, np.zeros((m, n))], [np.eye(n), np.eye(n)]])
    return big, np.concatenate([b, upper])


def test_bounded_variables_match_slack_row_form():
    rng = np.random.default_rng(1965)
    outcomes = {"feasible": 0, "infeasible": 0}
    for trial in range(400):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 16))
        if trial % 3 == 0:
            # small integers: many ratio-test ties, zero bounds and flips
            A = rng.integers(-2, 3, size=(m, n)).astype(float)
            upper = rng.integers(0, 3, size=n).astype(float)
        else:
            A = rng.normal(size=(m, n))
            upper = rng.uniform(0.0, 2.0, size=n)
        if trial % 2 == 0:
            # feasible by construction, with some coordinates at a bound
            x0 = rng.uniform(0.0, 1.0, size=n) * upper
            x0[rng.random(n) < 0.3] = 0.0
            at_top = rng.random(n) < 0.3
            x0[at_top] = upper[at_top]
            b = A @ x0
        else:
            b = rng.normal(size=m) * n
        x = feasible_point(A, b, upper)
        x_slack = feasible_point(*_slack_form(A, b, upper))
        assert (x is None) == (x_slack is None)
        if x is None:
            outcomes["infeasible"] += 1
            continue
        outcomes["feasible"] += 1
        x = np.array(x)
        assert np.all(x >= 0.0) and np.all(x <= upper)
        assert np.abs(A @ x - b).max() <= FEAS_TOL * max(1.0, np.abs(b).max())
    assert min(outcomes.values()) >= 30


def test_bounded_variables_scalar_bound_and_validation():
    A = np.array([[1.0, 1.0, 1.0]])
    x = feasible_point(A, np.array([2.5]), 1.0)
    assert x is not None
    x = np.array(x)
    assert np.all((0.0 <= x) & (x <= 1.0))
    assert abs(x.sum() - 2.5) <= FEAS_TOL
    assert feasible_point(A, np.array([3.5]), 1.0) is None
    with pytest.raises(ValueError):
        feasible_point(A, np.array([1.0]), [1.0, -1.0, 1.0])


def test_drift_repair_rebuilds_complemented_columns(monkeypatch):
    # Knock every basic value off after the first pivot run, as round-off
    # over many pivots would; the repair must rebuild the tableau with the
    # complemented columns and still return a point inside the bounds.
    rng = np.random.default_rng(8080)
    pivot = lp._pivot
    repaired_with_flips = 0
    for _ in range(60):
        m, n = int(rng.integers(1, 5)), int(rng.integers(2, 14))
        A = rng.integers(-2, 3, size=(m, n)).astype(float)
        upper = rng.integers(0, 3, size=n).astype(float)
        b = A @ (rng.uniform(0.0, 1.0, size=n) * upper)
        calls = []

        def drifting(T, basis, bounds, flipped):
            ok = pivot(T, basis, bounds, flipped)
            if not calls:
                for row in T[:-1]:
                    row[-1] += 1e-3
            calls.append(any(flipped))
            return ok

        monkeypatch.setattr(lp, "_pivot", drifting)
        x = feasible_point(A, b, upper)
        assert x is not None
        x = np.array(x)
        assert np.all(x >= 0.0) and np.all(x <= upper)
        assert np.abs(A @ x - b).max() <= FEAS_TOL * max(1.0, np.abs(b).max())
        repaired_with_flips += len(calls) == 2 and calls[0]
    assert repaired_with_flips >= 10


def _feasible_point_numpy(A, b, upper=None, drift=0.0):
    """The numpy-tableau version of `feasible_point`, kept as a reference
    for the bits of its points.  `drift` is added to every basic value
    after the first pivot run, as `test_drift_repair_rebuilds_complemented_columns`
    does to the list tableau."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    bounds = [np.inf] * (n + m)
    if upper is not None:
        bounds[:n] = np.broadcast_to(np.asarray(upper, dtype=float), (n,)).tolist()
    if m == 0:
        return np.zeros(n)
    flip = b < 0.0
    A = np.where(flip[:, None], -A, A)
    b = np.where(flip, -b, b)
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = -A.sum(axis=0)
    T[m, -1] = -b.sum()
    basis = list(range(n, n + m))
    flipped = [False] * (n + m)
    if not _pivot_numpy(T, basis, bounds, flipped):
        return None
    if drift:
        T[:-1, -1] += drift
    tol = FEAS_TOL * max(1.0, float(np.max(np.abs(b))))
    if -T[m, -1] > tol:
        return None
    x = _point_numpy(T, basis, bounds, flipped, n)
    if np.max(np.abs(A @ x - b)) > tol:
        shifted = b - A @ np.where(flipped[:n], bounds[:n], 0.0)
        full = np.hstack([np.where(flipped[:n], -A, A), np.eye(m), shifted[:, None]])
        T[:m] = np.linalg.solve(full[:, basis], full)
        cost = np.concatenate([np.zeros(n), np.ones(m), [0.0]])
        T[m] = cost - cost[basis] @ T[:m]
        if not _pivot_numpy(T, basis, bounds, flipped) or -T[m, -1] > tol:
            return None
        x = _point_numpy(T, basis, bounds, flipped, n)
    return x


def _pivot_numpy(T, basis, bounds, flipped):
    m = len(basis)
    for _ in range(lp._MAX_ITER):
        for enter, cost in enumerate(T[m, :-1].tolist()):
            if cost < -PIVOT_EPS and bounds[enter] > 0.0:
                break
        else:
            return True
        leave = -1
        best = np.inf
        for i, (a, rhs) in enumerate(zip(T[:m, enter].tolist(), T[:m, -1].tolist())):
            if a > PIVOT_EPS:
                ratio = rhs / a
            elif a < -PIVOT_EPS and bounds[basis[i]] < np.inf:
                ratio = (bounds[basis[i]] - rhs) / -a
            else:
                continue
            if ratio < best - PIVOT_EPS or (
                ratio < best + PIVOT_EPS and (leave < 0 or basis[i] < basis[leave])
            ):
                best = ratio
                leave = i
                rising = a < 0.0
        if best == np.inf == bounds[enter]:
            return False
        if bounds[enter] <= best:
            _complement_numpy(T, enter, bounds[enter], flipped)
            continue
        out = basis[leave]
        T[leave] /= T[leave, enter]
        col = T[:, enter].copy()
        col[leave] = 0.0
        T -= col[:, None] * T[leave]
        T[leave, enter] = 1.0
        basis[leave] = enter
        if rising:
            _complement_numpy(T, out, bounds[out], flipped)
    return False


def _complement_numpy(T, j, bound, flipped):
    T[:, -1] -= bound * T[:, j]
    T[:, j] *= -1.0
    flipped[j] = not flipped[j]


def _point_numpy(T, basis, bounds, flipped, n):
    x = np.array([u if f else 0.0 for u, f in zip(bounds[:n], flipped)])
    for i, j in enumerate(basis):
        if j < n:
            v = min(max(T[i, -1], 0.0), bounds[j])
            x[j] = bounds[j] - v if flipped[j] else v
    return x


def test_list_tableau_matches_numpy_tableau_bits(monkeypatch):
    # Same points to the bit, or None on the same inputs, on bounded and
    # unbounded LPs up to 6 x 80: integer data with ties, degenerate
    # pivots and -0.0 right-hand sides, infeasible right-hand sides, and
    # drift repairs forced far above and just above the residual bound.
    rng = np.random.default_rng(31337)
    pivot = lp._pivot
    tally = {"feasible": 0, "infeasible": 0, "repaired": 0}
    for trial in range(600):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 81))
        if trial % 3 == 0:
            A = rng.integers(-2, 3, size=(m, n)).astype(float)
            upper = rng.integers(0, 3, size=n).astype(float)
            x0 = np.minimum(rng.integers(0, 3, size=n), upper)
        else:
            A = rng.normal(size=(m, n))
            upper = rng.uniform(0.0, 2.0, size=n)
            x0 = rng.uniform(0.0, 1.0, size=n) * upper
        if trial % 4 == 1:
            upper = None
        x0[rng.random(n) < 0.7] = 0.0
        b = A @ x0 if trial % 2 == 0 else rng.normal(size=m) * n
        b[b == 0.0] = -0.0
        drift = (0.0, 1e-3, 5.0 * FEAS_TOL * max(1.0, np.abs(b).max()))[int(rng.integers(3))]
        calls = []

        def drifting(T, basis, bounds, flipped):
            ok = pivot(T, basis, bounds, flipped)
            if drift and not calls:
                for row in T[:-1]:
                    row[-1] += drift
            calls.append(ok)
            return ok

        monkeypatch.setattr(lp, "_pivot", drifting)
        args = (A, b) if upper is None else (A, b, upper)
        x = feasible_point(*args)
        tally["repaired"] += len(calls) == 2
        x_ref = _feasible_point_numpy(A, b, upper, drift)
        if x_ref is None:
            assert x is None
            tally["infeasible"] += 1
        else:
            assert x is not None and np.array(x).tobytes() == x_ref.tobytes()
            tally["feasible"] += 1
        # the same LP as nested lists, drifted the same way
        calls.clear()
        x_lists = feasible_point(*(a.tolist() for a in args))
        assert (x_lists is None) == (x is None)
        if x is not None:
            assert np.array(x_lists).tobytes() == np.array(x).tobytes()
    assert min(tally.values()) >= 30, tally


def test_lp_binds_no_numpy():
    # only the drift repair uses numpy, and it imports numpy itself
    assert not {"np", "numpy"} & set(vars(lp))


def test_list_tableau_accepts_nested_lists():
    A = [[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]]
    b, upper = [0.4, 0.4], [1.0, 0.5, 1.0]
    x = feasible_point(A, b, upper)
    assert type(x) is list and all(type(v) is float for v in x)
    from_arrays = feasible_point(np.array(A), np.array(b), np.array(upper))
    assert type(from_arrays) is list
    assert np.array(x).tobytes() == np.array(from_arrays).tobytes()
    assert np.array(x).tobytes() == _feasible_point_numpy(A, b, upper).tobytes()
