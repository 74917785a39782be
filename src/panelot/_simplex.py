"""A small dense two-phase simplex solver for the master and pricing LPs.

Solves   min c.x  s.t.  A x = b,  x >= 0   and returns row duals alongside
the primal solution. The masters built on top have a few dozen rows at most,
and the LP relaxations that the oracle's branch and bound solves past the
composition cap have about 57 on a 36-group pool, so a dense tableau with
Bland's rule (deterministic, cycle-free) is adequate and keeps the package
free of external solver dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError

_TOL = 1e-9
_MAX_PIVOTS = 100_000
# Degenerate-pivot streak that triggers the switch to Bland's rule.
_BLAND_AFTER = 40
# Primal residual, negativity and dual infeasibility an optimal answer may show.
_CERT_TOL = 1e-7


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    objective: float | None = None
    duals: np.ndarray | None = None  # one per input row, for the original rhs


def solve_lp(c, A, b) -> LPResult:
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    if c.shape != (n,) or b.shape != (m,):
        raise SolverError("inconsistent LP dimensions")

    # Normalize to b >= 0; remember the flips to unflip duals later.
    signs = np.where(b < 0, -1.0, 1.0)
    A = A * signs[:, None]
    b = b * signs

    # Tableau over [structural | artificial | rhs]; artificials stay in the
    # tableau through phase 2 (banned from entering) because their columns
    # hold B^-1, which yields the duals for free.
    T = np.empty((m, n + m + 1))
    T[:, :n] = A
    T[:, n : n + m] = np.eye(m)
    T[:, -1] = b
    basis = list(range(n, n + m))

    phase1_cost = np.concatenate([np.zeros(n), np.ones(m)])
    if not _iterate(T, basis, phase1_cost, entering_limit=n + m):
        raise SolverError("phase-1 simplex failed to terminate")
    if phase1_cost[basis] @ T[:, -1] > 1e-7:
        return LPResult(status="infeasible")

    # Pivot leftover artificials out of the basis where possible; rows where
    # that fails are redundant equalities and their dual is zero.
    for row in range(m):
        if basis[row] >= n and T[row, -1] <= _TOL:
            for j in range(n):
                if abs(T[row, j]) > 1e-7:
                    _pivot(T, basis, row, j)
                    break

    full_cost = np.concatenate([c, np.zeros(m)])
    if not _iterate(T, basis, full_cost, entering_limit=n):
        return LPResult(status="unbounded")

    x = np.zeros(n + m)
    for row, var in enumerate(basis):
        x[var] = T[row, -1]
    duals = full_cost[basis] @ T[:, n : n + m]
    certify_optimal(c, A, b, x[:n], duals)
    return LPResult(
        status="optimal",
        x=x[:n],
        objective=float(c @ x[:n]),
        duals=duals * signs,
    )


def certify_optimal(c: np.ndarray, A: np.ndarray, b: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """Raise SolverError unless (x, y) is primal and dual feasible for
    min c.x s.t. Ax = b, x >= 0, within a tolerance relative to |b| and |c|.

    A tableau that has drifted numerically can stop at a basis that is not
    optimal for the LP it was given; this turns that into an error instead
    of a wrong master answer.
    """
    residual = float(np.max(np.abs(A @ x - b), initial=0.0))
    if residual > _CERT_TOL * (1.0 + float(np.max(np.abs(b), initial=0.0))):
        raise SolverError(f"simplex answer fails its certificate: |Ax - b| = {residual:.3g}")
    lowest_x = float(np.min(x, initial=0.0))
    if lowest_x < -_CERT_TOL:
        raise SolverError(f"simplex answer fails its certificate: x has {lowest_x:.3g}")
    lowest_reduced = float(np.min(c - A.T @ y, initial=0.0))
    if lowest_reduced < -_CERT_TOL * (1.0 + float(np.max(np.abs(c), initial=0.0))):
        raise SolverError(f"simplex answer fails its certificate: reduced cost {lowest_reduced:.3g}")


def _iterate(T: np.ndarray, basis: list[int], cost: np.ndarray, entering_limit: int) -> bool:
    """Run simplex pivots in place; False only when the LP is unbounded.

    Pricing uses Dantzig's rule (most negative reduced cost) for speed and
    falls back to Bland's rule after a stretch of degenerate pivots, which
    restores the termination guarantee without paying Bland's cost on every
    step.
    """
    m = T.shape[0]
    stalled = 0
    for _ in range(_MAX_PIVOTS):
        reduced = cost[:entering_limit] - cost[basis] @ T[:, :entering_limit]
        entering = -1
        if stalled < _BLAND_AFTER:
            j = int(np.argmin(reduced))
            if reduced[j] < -_TOL:
                entering = j
        else:
            for j in range(entering_limit):
                if reduced[j] < -_TOL:
                    entering = j
                    break
        if entering < 0:
            return True
        # Ratio test; ties break toward the smallest basic variable index.
        leaving = -1
        best_ratio = np.inf
        for row in range(m):
            coeff = T[row, entering]
            if coeff > _TOL:
                ratio = T[row, -1] / coeff
                if ratio < best_ratio - _TOL or (
                    ratio < best_ratio + _TOL and (leaving < 0 or basis[row] < basis[leaving])
                ):
                    best_ratio = min(ratio, best_ratio)
                    leaving = row
        if leaving < 0:
            return False  # unbounded in phase 2; cannot happen in phase 1
        stalled = stalled + 1 if best_ratio <= _TOL else 0
        _pivot(T, basis, leaving, entering)
    raise SolverError("simplex exceeded the pivot budget")


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    # A rank-1 update of the other rows with a nonzero in the pivot column.
    nz = T[:, col] != 0.0
    nz[row] = False
    T[nz] -= np.outer(T[nz, col], T[row])
    basis[row] = col
