"""The bundled LP solver against scipy's as an independent oracle."""

import numpy as np
import pytest

from panelot._simplex import _dual_iterate, certify_optimal, solve_lp
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


# Warm starts: each case is solved from the previous answer's basis and
# checked against a cold solve of the same LP and against HiGHS.


def _box_lp(rng, m, n):
    """A random feasible LP ``min c.x, A x = b, 0 <= x <= ub`` in standard
    form: the columns are x then one slack per upper bound, and the last
    row of A fixes sum(x), which keeps it bounded."""
    A0 = np.vstack([rng.uniform(-2, 2, size=(m - 1, n)), np.ones(n)])
    ub = rng.uniform(0.5, 2.0, size=n)
    b0 = A0 @ (ub * rng.uniform(0.1, 0.9, size=n))
    A = np.block([[A0, np.zeros((m, n))], [np.eye(n), np.eye(n)]])
    c = np.concatenate([rng.uniform(-1, 1, size=n), np.zeros(n)])
    return c, A, np.concatenate([b0, ub])


def _check_warm(c, A, b, start, linprog):
    warm = solve_lp(c, A, b, start=start)
    cold = solve_lp(c, A, b)
    ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert warm.status == cold.status
    if cold.status == "infeasible":
        assert ref.status == 2
        return warm, cold
    assert cold.status == "optimal" and ref.status == 0
    assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
    assert warm.objective == pytest.approx(ref.fun, abs=1e-7)
    assert warm.duals @ b == pytest.approx(ref.fun, abs=1e-7)
    certify_optimal(c, A, b, warm.x, warm.duals)
    return warm, cold


def test_warm_start_after_b_moves_matches_cold_and_highs():
    # A branch-and-bound child: one upper bound drops below the root's value.
    # The root basis stays dual feasible, and the dual simplex reoptimizes it
    # in fewer pivots than a cold phase 1 needs.
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(31)
    for trial in range(40):
        m, n = int(rng.integers(2, 6)), int(rng.integers(6, 14))
        c, A, b = _box_lp(rng, m, n)
        root = solve_lp(c, A, b)
        assert root.status == "optimal" and root.basis is not None
        j = int(np.argmax(root.x[:n]))
        child = b.copy()
        child[m + j] = 0.5 * root.x[j]
        warm, cold = _check_warm(c, A, child, root.basis, linprog)
        if warm.status == "optimal":
            assert warm.pivots < cold.pivots, trial


def test_dual_simplex_carries_its_reduced_costs_and_keeps_them_nonnegative():
    # Several upper bounds drop below the root's values. The dual simplex
    # prices once and updates its reduced costs after each pivot: the carried
    # values must match a fresh pricing at the end, and stay nonnegative, or
    # phase 2 would have to pivot again.
    rng = np.random.default_rng(47)
    runs = 0
    for trial in range(60):
        m, n = int(rng.integers(2, 6)), int(rng.integers(6, 14))
        c, A, b = _box_lp(rng, m, n)
        root = solve_lp(c, A, b)
        child = b.copy()
        cut = np.argsort(root.x[:n])[-3:]
        child[m + cut] = 0.5 * root.x[cut]
        inverse, basis = root.basis.inverse, root.basis.columns.copy()
        T = np.column_stack([inverse @ A, inverse, inverse @ child])
        reduced = c - c[basis] @ T[:, : len(c)]
        assert reduced.min() >= -1e-9
        feasible, pivots = _dual_iterate(T, basis, c, reduced)
        fresh = c - c[basis] @ T[:, : len(c)]
        assert reduced == pytest.approx(fresh, abs=1e-9), trial
        assert fresh.min() >= -1e-9, trial
        if feasible:
            assert T[:, -1].min() >= -1e-9, trial
            runs += pivots > 1
    assert runs >= 20


def test_warm_start_after_c_moves_matches_cold_and_highs():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(37)
    for trial in range(40):
        m, n = int(rng.integers(2, 6)), int(rng.integers(6, 14))
        c, A, b = _box_lp(rng, m, n)
        root = solve_lp(c, A, b)
        c2 = c.copy()
        c2[:n] = rng.uniform(-1, 1, size=n)
        _check_warm(c2, A, b, root.basis, linprog)


def test_warm_start_after_a_column_is_appended_matches_cold_and_highs():
    # Column generation: new columns go after the old ones, so the basis
    # indices still name the same columns.
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(41)
    for trial in range(40):
        m = int(rng.integers(2, 7))
        c, A, b = _bounded_lp(rng, m, int(rng.integers(m, 12)))
        root = solve_lp(c, A, b)
        column = np.append(rng.uniform(-2, 2, size=m - 1), 1.0)
        _check_warm(np.append(c, rng.uniform(-2, 0)), np.column_stack([A, column]), b, root.basis, linprog)


def test_warm_start_proves_an_infeasible_child_infeasible():
    # Every upper bound cut to a third: sum(x) can no longer reach its row.
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(43)
    for trial in range(20):
        m, n = int(rng.integers(2, 6)), int(rng.integers(6, 14))
        c, A, b = _box_lp(rng, m, n)
        root = solve_lp(c, A, b)
        child = b.copy()
        child[m:] = np.minimum(child[m:], child[m - 1] / (3 * n))
        warm, _cold = _check_warm(c, A, child, root.basis, linprog)
        assert warm.status == "infeasible"
        assert warm.basis is None


def test_warm_start_from_a_basis_neither_primal_nor_dual_feasible():
    # Both b and c moved: the start is of no use, and the solve runs cold,
    # pivot for pivot.
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(47)
    tried = 0
    for trial in range(40):
        m, n = int(rng.integers(2, 6)), int(rng.integers(6, 14))
        c, A, b = _box_lp(rng, m, n)
        root = solve_lp(c, A, b)
        j = int(np.argmax(root.x[:n]))
        nonbasic = sorted(set(range(n)) - set(root.basis.columns.tolist()))
        if not nonbasic:
            continue
        child, c2 = b.copy(), c.copy()
        child[m + j] = 0.5 * root.x[j]
        c2[nonbasic[0]] -= 100.0
        inverse = root.basis.inverse
        if (inverse @ child).min() >= 0 or (c2 - c2[root.basis.columns] @ inverse @ A).min() >= 0:
            continue
        tried += 1
        warm, cold = _check_warm(c2, A, child, root.basis, linprog)
        assert warm.pivots == cold.pivots, trial
    assert tried >= 10


def test_start_basis_must_fit_the_lp():
    rng = np.random.default_rng(53)
    c, A, b = _bounded_lp(rng, 3, 6)
    basis = solve_lp(c, A, b).basis
    with pytest.raises(SolverError, match="start basis"):
        solve_lp(c[:2], A[:, :2], b, start=basis)
    with pytest.raises(SolverError, match="start basis"):
        solve_lp(c, A[:2], b[:2], start=basis)


# Crash start: a cold solve starts each row from a singleton column that can
# carry the row's flipped b >= 0, and gives only the other rows an artificial.


def test_cold_start_takes_the_first_singleton_that_fits_each_row():
    # Row 0 has singletons 2 (column 0) and 1 (column 2): the first wins.
    # Row 1's -1 fits since b = 0, and row 2's -3 fits once b = -6 is
    # flipped. Row 3's -1 (column 5) cannot carry b = 1, so its +1
    # (column 6) does. That basis is optimal, so no pivot is needed.
    A = np.array([
        [2.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, -3.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, 0.0, -1.0, 1.0],
    ])
    b = np.array([4.0, 0.0, -6.0, 1.0])
    c = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    res = solve_lp(c, A, b)
    assert res.status == "optimal" and res.pivots == 0
    assert res.basis.columns.tolist() == [0, 1, 4, 6]
    np.testing.assert_allclose(res.basis.inverse @ A[:, res.basis.columns], np.eye(4), atol=1e-12)
    np.testing.assert_allclose(res.x, [2.0, 0.0, 0.0, 0.0, 2.0, 0.0, 1.0], atol=1e-12)


def _crash_lp(rng, m):
    """A random feasible, bounded LP whose columns mix dense ones with
    singletons: each row gets none, one or two singleton columns of either
    sign, about a third of the rows have b = 0, and the others b of either
    sign. c = A'y + s with s >= 0 makes y dual feasible, so the LP is bounded."""
    columns = [rng.uniform(-2, 2, size=m) for _ in range(int(rng.integers(1, m + 2)))]
    for row in range(m):
        for _ in range(int(rng.integers(0, 3))):
            column = np.zeros(m)
            column[row] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
            columns.append(column)
    A = np.column_stack(columns)
    x = rng.uniform(0, 1, size=A.shape[1]) * (rng.uniform(size=A.shape[1]) < 0.7)
    x[0] = 0.0  # the first dense column keeps every row of A nonzero
    A[np.ix_(rng.uniform(size=m) < 1 / 3, x > 0)] = 0.0  # those rows get b = 0 exactly
    order = rng.permutation(A.shape[1])
    A, x = A[:, order], x[order]
    c = A.T @ rng.uniform(-1, 1, size=m) + rng.uniform(0, 1, size=A.shape[1])
    return c, A, A @ x


def _crash_cases(A, b):
    """Whether an LP holds each crash case, by name."""
    nonzero = A != 0.0
    singles = np.flatnonzero(nonzero.sum(axis=0) == 1)
    rows = nonzero[:, singles].argmax(axis=0)
    entries, rhs = A[rows, singles], b[rows]
    per_row = np.bincount(rows, minlength=A.shape[0])
    named = {
        "negative singleton": (entries < 0).any(),
        "positive singleton": (entries > 0).any(),
        "singleton that cannot carry its row": (entries * rhs < 0).any(),
        "negative singleton on b = 0": ((entries < 0) & (rhs == 0)).any(),
        "b below 0": (b < 0).any(),
        "b at 0": (b == 0).any(),
        "b above 0": (b > 0).any(),
        "two singletons in one row": per_row.max() >= 2,
        "row with no singleton": per_row.min() == 0,
    }
    return {name: bool(held) for name, held in named.items()}


def test_crash_start_matches_highs_and_restarts_from_its_basis():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(59)
    seen, restarted = {}, 0
    for trial in range(80):
        c, A, b = _crash_lp(rng, int(rng.integers(2, 7)))
        seen = {name: seen.get(name, False) or held for name, held in _crash_cases(A, b).items()}
        res = solve_lp(c, A, b)
        ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert res.status == "optimal" and ref.status == 0, trial
        assert res.objective == pytest.approx(ref.fun, abs=1e-7)
        certify_optimal(c, A, b, res.x, res.duals)
        if res.basis is None:  # rows that b = 0 left dependent keep an artificial basic
            continue
        again = solve_lp(c, A, b, start=res.basis)
        assert again.pivots == 0, trial
        np.testing.assert_allclose(again.x, res.x, atol=1e-9)
        restarted += 1
    assert all(seen.values()), seen
    assert restarted >= 50
