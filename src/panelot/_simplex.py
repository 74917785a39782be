"""A dense simplex solver for the master and pricing LPs, with warm starts.

Solves   min c.x  s.t.  A x = b,  x >= 0   on a dense tableau and returns the
row duals with the primal solution, so the package needs no external
solver. Pricing is Dantzig's rule, falling back to Bland's rule after a
stretch of degenerate pivots, and ``certify_optimal`` checks every optimal
answer before it is returned.

An optimal answer carries its final ``Basis``: the basic column of each row
and B^-1 for the A it was given (none when a redundant row keeps its
artificial basic). ``solve_lp(c, A, b, start=basis)`` builds its tableau
from such a basis. The caller keeps the basic columns where they were; it
may append columns and change c and b:

* if B^-1 b >= 0 the basis is primal feasible (only c or the columns moved,
  as between column-generation rounds), and phase 2 starts from it;
* else, if no reduced cost is negative, it is dual feasible (only b moved,
  as for a branch-and-bound child or a new floor), and the dual simplex
  regains primal feasibility before phase 2, or proves the LP infeasible;
* else the LP is solved from scratch.

A solve from scratch starts from a slack crash basis (Bixby, "Implementing
the simplex method: the initial basis", ORSA J. Computing 4(3), 1992).
After the rows are flipped to b >= 0, a column whose only nonzero is a in
row i starts basic in row i when b_i = 0 or a > 0, and row i is scaled by
1/a; of several such columns in one row, the first in column order wins.
Only the remaining rows get a basic artificial, and phase 1 drives out just
those.

Each run of pivots prices the columns once, then updates the reduced costs
from the pivot row after every pivot. It prices them afresh before it
declares a basis optimal and on every Bland step, so drift in the updated
values cannot end the search early.
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


@dataclass(frozen=True)
class Basis:
    """A simplex basis: ``columns[i]`` is basic in row i, and ``inverse`` is
    B^-1 for B = A[:, columns]."""

    columns: np.ndarray
    inverse: np.ndarray


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    objective: float | None = None
    duals: np.ndarray | None = None  # one per input row, for the original rhs
    basis: Basis | None = None  # the final basis of an optimal answer
    pivots: int = 0


def solve_lp(c, A, b, start: Basis | None = None) -> LPResult:
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    if c.shape != (n,) or b.shape != (m,):
        raise SolverError("inconsistent LP dimensions")
    if start is not None:
        columns, inverse = start.columns, start.inverse
        if inverse.shape != (m, m) or columns.shape != (m,) or columns.max(initial=-1) >= n:
            raise SolverError("start basis does not fit the LP")
        warm = _solve_warm(c, A, b, start)
        if warm is not None:
            return warm

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
    basis = np.arange(n, n + m)

    # Crash: a singleton column that can carry its row's b >= 0 replaces the
    # row's artificial; scaling the row by 1/a keeps T = B^-1 [A | I | b].
    nonzero = A != 0.0
    singles = np.flatnonzero(nonzero.sum(axis=0) == 1)
    rows = nonzero[:, singles].argmax(axis=0)
    entries = A[rows, singles]
    fits = (entries > 0.0) | (b[rows] == 0.0)
    rows, first = np.unique(rows[fits], return_index=True)
    T[rows] /= entries[fits][first, None]
    basis[rows] = singles[fits][first]

    phase1_cost = np.concatenate([np.zeros(n), np.ones(m)])
    bounded, pivots = _iterate(T, basis, phase1_cost, entering_limit=n + m)
    if not bounded:
        raise SolverError("phase-1 simplex failed to terminate")
    if phase1_cost[basis] @ T[:, -1] > 1e-7:
        return LPResult(status="infeasible", pivots=pivots)

    # Pivot leftover artificials out of the basis where possible; rows where
    # that fails are redundant equalities and their dual is zero.
    for row in np.flatnonzero(basis >= n):
        if T[row, -1] <= _TOL:
            candidates = np.flatnonzero(np.abs(T[row, :n]) > 1e-7)
            if candidates.size:
                _pivot(T, basis, row, candidates[0])
                pivots += 1
    return _phase2(c, A, b, T, basis, signs, pivots)


def _solve_warm(c: np.ndarray, A: np.ndarray, b: np.ndarray, start: Basis) -> LPResult | None:
    """Solve from ``start`` when it is primal or dual feasible; None otherwise."""
    m, n = A.shape
    T = np.empty((m, n + m + 1))
    T[:, :n] = start.inverse @ A
    T[:, n : n + m] = start.inverse
    T[:, -1] = start.inverse @ b
    basis = start.columns.copy()
    pivots = 0
    if T[:, -1].min() < -_TOL:
        reduced = c - c[basis] @ T[:, :n]
        if reduced.min() < -_TOL:
            return None
        feasible, pivots = _dual_iterate(T, basis, c, reduced)
        if not feasible:
            return LPResult(status="infeasible", pivots=pivots)
    # Entries within _TOL below zero would turn phase 2's ratio test around.
    np.maximum(T[:, -1], 0.0, out=T[:, -1])
    return _phase2(c, A, b, T, basis, np.ones(m), pivots)


def _phase2(c: np.ndarray, A: np.ndarray, b: np.ndarray, T: np.ndarray, basis: np.ndarray,
            signs: np.ndarray, pivots: int) -> LPResult:
    """Phase 2 from a primal feasible tableau of ``A x = b``, whose rows are
    the input's times ``signs``; certify and unflip the answer."""
    m, n = A.shape
    full_cost = np.concatenate([c, np.zeros(m)])
    bounded, more = _iterate(T, basis, full_cost, entering_limit=n)
    pivots += more
    if not bounded:
        return LPResult(status="unbounded", pivots=pivots)

    x = np.zeros(n + m)
    x[basis] = T[:, -1]
    duals = full_cost[basis] @ T[:, n : n + m]
    certify_optimal(c, A, b, x[:n], duals)
    return LPResult(
        status="optimal",
        x=x[:n],
        objective=float(c @ x[:n]),
        duals=duals * signs,
        basis=Basis(basis, T[:, n : n + m] * signs) if basis.max() < n else None,
        pivots=pivots,
    )


def certify_optimal(c: np.ndarray, A: np.ndarray, b: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """Raise SolverError unless (x, y) is primal and dual feasible for
    min c.x s.t. Ax = b, x >= 0, within a tolerance relative to |b| and |c|.

    A tableau that has drifted numerically can stop at a basis that is not
    optimal for the LP it was given; this turns that into an error instead
    of a wrong master answer.
    """
    residual = float(np.abs(A @ x - b).max(initial=0.0))
    if residual > _CERT_TOL * (1.0 + float(np.abs(b).max(initial=0.0))):
        raise SolverError(f"simplex answer fails its certificate: |Ax - b| = {residual:.3g}")
    lowest_x = float(x.min(initial=0.0))
    if lowest_x < -_CERT_TOL:
        raise SolverError(f"simplex answer fails its certificate: x has {lowest_x:.3g}")
    lowest_reduced = float((c - A.T @ y).min(initial=0.0))
    if lowest_reduced < -_CERT_TOL * (1.0 + float(np.abs(c).max(initial=0.0))):
        raise SolverError(f"simplex answer fails its certificate: reduced cost {lowest_reduced:.3g}")


def _iterate(T: np.ndarray, basis: np.ndarray, cost: np.ndarray, entering_limit: int) -> tuple[bool, int]:
    """Run simplex pivots in place; return whether the LP is bounded, and the
    pivots made.

    Pricing uses Dantzig's rule (most negative reduced cost) for speed and
    falls back to Bland's rule after a stretch of degenerate pivots, which
    restores the termination guarantee without paying Bland's cost on every
    step. The reduced costs are priced once and then updated from the pivot
    row after each pivot; they are priced afresh from ``cost`` and the
    tableau before a basis is declared optimal and on every Bland step.
    """

    def priced() -> np.ndarray:
        return cost[:entering_limit] - cost[basis] @ T[:, :entering_limit]

    reduced, stalled = priced(), 0
    for pivots in range(_MAX_PIVOTS):
        bland = stalled >= _BLAND_AFTER
        entering = _entering(reduced, bland)
        if pivots and (bland or entering < 0):
            # The updated values may have drifted since the last pricing.
            reduced = priced()
            entering = _entering(reduced, bland)
        if entering < 0:
            return True, pivots
        # Ratio test; among rows within _TOL of the minimum ratio, the
        # smallest basic variable index leaves.
        column = T[:, entering]
        rows = (column > _TOL).nonzero()[0]
        if rows.size == 0:
            return False, pivots  # unbounded in phase 2; cannot happen in phase 1
        ratios = T[rows, -1] / column[rows]
        best_ratio = ratios.min()
        tied = rows[ratios < best_ratio + _TOL]
        leaving = tied[basis[tied].argmin()]
        stalled = stalled + 1 if best_ratio <= _TOL else 0
        _pivot(T, basis, leaving, entering)
        reduced -= reduced[entering] * T[leaving, :entering_limit]
    raise SolverError("simplex exceeded the pivot budget")


def _entering(reduced: np.ndarray, bland: bool) -> int:
    """The entering column: the most negative reduced cost (Dantzig), or the
    first negative one (Bland); -1 when none is below -_TOL."""
    j = int((reduced < -_TOL).argmax() if bland else reduced.argmin())
    return j if reduced[j] < -_TOL else -1


def _dual_iterate(T: np.ndarray, basis: np.ndarray, c: np.ndarray, reduced: np.ndarray) -> tuple[bool, int]:
    """Run dual simplex pivots in place from a dual feasible tableau, whose
    reduced costs are ``reduced``, until no basic value is below -_TOL;
    return whether the LP is feasible, and the pivots made.

    The most negative basic value leaves. Entering is the column that keeps
    every reduced cost nonnegative; among ties within _TOL, the one with the
    largest |pivot|. A leaving row with no negative entry proves the LP
    infeasible. After a stretch of degenerate pivots both choices follow
    Bland's rule (smallest basic index, then smallest column index), as in
    ``_iterate``. The reduced costs are updated from the pivot row after
    each pivot and priced afresh from ``c`` on every Bland step.
    """
    n = c.shape[0]
    stalled = 0
    for pivots in range(_MAX_PIVOTS):
        rows = (T[:, -1] < -_TOL).nonzero()[0]
        if rows.size == 0:
            return True, pivots
        bland = stalled >= _BLAND_AFTER
        if bland:
            reduced = c - c[basis] @ T[:, :n]
        row = rows[(basis[rows] if bland else T[rows, -1]).argmin()]
        alpha = T[row, :n]
        cols = (alpha < -_TOL).nonzero()[0]
        if cols.size == 0:
            return False, pivots
        ratios = np.maximum(reduced[cols], 0.0) / -alpha[cols]
        best_ratio = ratios.min()
        tied = cols[ratios < best_ratio + _TOL]
        stalled = stalled + 1 if best_ratio <= _TOL else 0
        entering = tied[0] if bland else tied[alpha[tied].argmin()]
        _pivot(T, basis, row, entering)
        reduced -= reduced[entering] * T[row, :n]
    raise SolverError("dual simplex exceeded the pivot budget")


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Pivot on (row, col) in place: scale the pivot row to 1 there, then
    clear the column from every other row in one rank-1 update, with the
    pivot row's own factor set to 0."""
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= factors[:, None] * T[row]
    basis[row] = col
