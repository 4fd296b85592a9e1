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
    assert x is not None and x.shape == (4,)


def test_shape_validation():
    with pytest.raises(ValueError):
        feasible_point(np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        feasible_point(np.zeros(4), np.zeros(2))


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
        assert np.all(x >= -1e-10)
        assert np.abs(A @ x - b).max() <= 1e-8


def test_degenerate_duplicate_rows_fine():
    A = np.array([[1.0, 2.0], [1.0, 2.0], [2.0, 4.0]])
    b = np.array([3.0, 3.0, 6.0])
    x = feasible_point(A, b)
    assert x is not None
    assert np.abs(A @ x - b).max() <= FEAS_TOL


def _pivot_reference(T, basis):
    """Bland-rule phase 1 one scalar at a time: the first column with a
    negative reduced cost enters; the ratio test walks the rows in order."""
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

    def recorded(T, basis):
        rec = _RecordedBasis(basis, log)
        ok = pivot(T, rec)
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
