"""The bundled LP solver against scipy's as an independent oracle."""

import numpy as np
import pytest

from panelot._simplex import certify_optimal, solve_lp
from panelot.errors import SolverError


def _random_lp(rng, m, n):
    A = rng.uniform(-2, 2, size=(m, n))
    x_feas = rng.uniform(0, 1, size=n)
    b = A @ x_feas  # guarantees feasibility
    c = rng.uniform(-1, 1, size=n)
    return c, A, b


def test_matches_scipy_on_random_feasible_lps():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(7)
    for trial in range(60):
        m = rng.integers(1, 6)
        n = rng.integers(int(m), 12)
        c, A, b = _random_lp(rng, int(m), int(n))
        ours = solve_lp(c, A, b)
        ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        if ours.status == "unbounded":
            assert ref.status == 3
            continue
        assert ours.status == "optimal"
        assert ref.status == 0
        assert ours.objective == pytest.approx(ref.fun, abs=1e-7)


def test_detects_infeasible():
    # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold.
    c = np.array([1.0, 1.0])
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    assert solve_lp(c, A, b).status == "infeasible"


def test_detects_unbounded():
    # minimize -x1 with x1 - x2 = 0 lets both grow without limit.
    c = np.array([-1.0, 0.0])
    A = np.array([[1.0, -1.0]])
    b = np.array([0.0])
    assert solve_lp(c, A, b).status == "unbounded"


def test_duals_certify_optimality():
    # Strong duality and dual feasibility on random problems: y.b equals the
    # optimum and no column has negative reduced cost.
    rng = np.random.default_rng(11)
    for trial in range(40):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, 10))
        c, A, b = _random_lp(rng, m, n)
        res = solve_lp(c, A, b)
        if res.status != "optimal":
            continue
        assert res.duals @ b == pytest.approx(res.objective, abs=1e-7)
        reduced = c - res.duals @ A
        assert reduced.min() > -1e-7


def test_handles_negative_rhs():
    # -x1 = -3 forces x1 = 3.
    c = np.array([1.0])
    A = np.array([[-1.0]])
    b = np.array([-3.0])
    res = solve_lp(c, A, b)
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(3.0)
    # dual of the original (negative-rhs) row: objective moves by y per unit b
    assert res.duals[0] == pytest.approx(-1.0)


def test_degenerate_lp_terminates():
    # Multiple redundant rows; Bland's rule must still terminate.
    c = np.array([0.0, -1.0, 0.0])
    A = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [1.0, 0.0, 0.0]])
    b = np.array([1.0, 2.0, 0.25])
    res = solve_lp(c, A, b)
    assert res.status == "optimal"
    assert res.x[1] == pytest.approx(0.75)


def _bounded_lp(rng, m, n):
    """A random feasible LP whose last row fixes sum(x), which keeps it bounded."""
    A = np.vstack([rng.uniform(-2, 2, size=(m - 1, n)), np.ones(n)])
    b = A @ rng.uniform(0, 1, size=n)
    c = rng.uniform(-1, 1, size=n)
    return c, A, b


def test_matches_scipy_on_random_bounded_lps():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(23)
    for trial in range(80):
        m = int(rng.integers(2, 8))
        n = int(rng.integers(m, 16))
        c, A, b = _bounded_lp(rng, m, n)
        ours = solve_lp(c, A, b)
        ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert ref.status == 0 and ours.status == "optimal", trial
        assert ours.objective == pytest.approx(ref.fun, abs=1e-7)
        assert ours.duals @ b == pytest.approx(ref.fun, abs=1e-7)


def test_certificate_rejects_corrupted_answers():
    rng = np.random.default_rng(5)
    c, A, b = _bounded_lp(rng, 4, 9)
    res = solve_lp(c, A, b)
    assert res.status == "optimal"
    certify_optimal(c, A, b, res.x, res.duals)

    shifted = res.x.copy()
    shifted[int(np.argmax(shifted))] += 1e-3
    with pytest.raises(SolverError, match="Ax - b"):
        certify_optimal(c, A, b, shifted, res.duals)

    negative = res.x.copy()
    negative[int(np.argmin(negative))] = -1e-6
    with pytest.raises(SolverError):
        certify_optimal(c, A, b, negative, res.duals)

    # Move one dual far enough along a row that some column prices negative.
    reduced = c - A.T @ res.duals
    j = int(np.argmax(np.abs(A[0])))
    y = res.duals.copy()
    y[0] += np.sign(A[0, j]) * (reduced.max() + 1.0) / abs(A[0, j])
    with pytest.raises(SolverError, match="reduced cost"):
        certify_optimal(c, A, b, res.x, y)
