"""Maximally equal panel distributions, returned as distributions over
compositions (seat counts per vector group); panels are built only when a
lottery is drawn from one.

Every objective goes through one column-generation driver over
*composition columns*: master solves alternate with the exact weighted
composition oracle until the best composition outside the support beats the
best one in the support by at most ``eps_colgen`` (in objective units), or is
already in the pool. The backends differ only in the seed pool: ``colgen``
starts from one oracle column and a cover of every group, ``brute`` from
every valid composition, so its first pricing call returns a pool member and
the loop stops with gap 0.

Master solves are self-contained. Every LP objective solves one band
master on the bundled simplex solver, min c_s s + c_r r over r <= p_w <= s
(``_lp_master``); its costs, a floor on r, a cap on s and leximin's frozen
floors pick the objective, and a master whose frozen set matches the last
one's starts from that master's basis. The goldilocks family reduces to a
one-dimensional convex search over an enforced minimum floor on that band
(cutting planes from the floor row's dual), and nash solves its restricted
master fully correctively by projected Newton steps on the columns carrying
mass, returning the geometric mean's gradient in the group probabilities as
its duals, so ``_run_colgen`` prices it like any LP master.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, replace

import numpy as np

from ._simplex import Basis, solve_lp
from .errors import (
    NoValidPanelError,
    RestartLimitError,
    SolverError,
    StructuralExclusionError,
    ValidationError,
)
from .model import FeatureVector, Instance
from .objectives import (
    GAMMA_AUTO_SELECTION_BIAS,
    GAMMA_FIXED,
    EqualityObjective,
    Kind,
    evaluate,
    gamma_balanced,
    gamma_selection_bias,
)
from .panels import (
    CompositionDistribution,
    Panel,
    PanelComposition,
    ProbabilityAssignment,
    composition_oracle,
    covering_compositions,
    feasible_compositions,
)

# Columns with less than this much mass are dropped from the final support.
_SUPPORT_EPS = 1e-12
# Dual weight above this marks a constraint as binding in every optimum.
_DUAL_EPS = 1e-7
# Floor search: relative gap between the best value found and the lower
# model's minimum at which it stops, and its evaluation budget.
_FLOOR_SEARCH_TOL = 1e-10
_FLOOR_SEARCH_MAX_EVALS = 200
# Nash master: its own gap target over the pool (geometric-mean units) and
# its iteration budget per master solve.
_NASH_GAP = 1e-7
_NASH_MAX_ITERS = 20_000
# Columns one solve's pool may hold (past it the solve returns unconverged),
# and greedy restarts of ``solve_legacy``.
_MAX_COLUMNS = 2000
_LEGACY_RESTARTS = 10_000
_FREEZE_SLACK = 1e-8  # leximin's freezing slack (see ``_leximin``)
# ``_lp_master`` costs (c_s, c_r) of the max-min and min-max LPs.
_MAX_MIN = (0.0, -1.0)
_MIN_MAX = (1.0, 0.0)

_log = logging.getLogger("panelot")


@dataclass(frozen=True)
class SolveConfig:
    """The objective, the seed pool and the pricing gap of a solve; the
    column budget and leximin's freezing slack are fixed module constants."""

    objective: EqualityObjective
    backend: str = "colgen"  # "brute" | "colgen"
    eps_colgen: float = 1e-3

    def __post_init__(self):
        if self.backend not in ("brute", "colgen"):
            raise ValidationError(f"unknown backend {self.backend!r}")
        if self.eps_colgen <= 0:
            raise ValidationError("eps_colgen must be positive")


@dataclass
class SolveResult:
    """A solved composition distribution with its marginals and diagnostics."""

    distribution: CompositionDistribution
    pi: ProbabilityAssignment
    objective: EqualityObjective
    objective_value: float
    iterations: int
    converged: bool
    certificate: float

    def to_json(self) -> dict:
        """Plain Python values only, so ``json.dump`` takes the result as is."""
        gamma = self.objective.gamma
        return {
            "objective": self.objective.spec_string(),
            "gamma": None if gamma is None else float(gamma),
            "value": float(self.objective_value),
            "converged": bool(self.converged),
            "certificate": float(self.certificate),
            "pi": {agent: float(prob) for agent, prob in sorted(self.pi.pi.items())},
            **self.distribution.to_json(),
            "iterations": int(self.iterations),
        }


# ---------------------------------------------------------------------------
# Column pool
# ---------------------------------------------------------------------------


class _ColumnPool:
    """One solve's state: its instance and config, the composition columns
    and the seats/group-size matrix the masters use, the last master's basis,
    and the tally of every column-generation run on the pool: ``rounds``,
    their master iterations summed, and ``converged``, whether all of them
    converged. Only ``_run_colgen`` adds to the tally; nash alone resets
    ``converged`` before its own run (``solve``).
    """

    def __init__(self, instance: Instance, config: SolveConfig):
        self.instance = instance
        self.config = config
        self.vectors = instance.present_vectors()
        self.index = {v: i for i, v in enumerate(self.vectors)}
        self.sizes = np.array([instance.group_size(v) for v in self.vectors], dtype=float)
        self.columns: list[PanelComposition] = []
        self._keys: set[tuple] = set()
        self._cols: list[np.ndarray] = []
        self._matrix: np.ndarray | None = None
        # The last master's shape (kind and rows) and final basis; the next
        # master of the same shape starts from that basis.
        self.last_master: tuple[tuple | None, Basis | None] = (None, None)
        self.rounds = 0
        self.converged = True

    def add(self, comp: PanelComposition) -> bool:
        if comp.items in self._keys:
            return False
        col = np.zeros(len(self.vectors))
        for vector, seats in comp.items:
            col[self.index[vector]] = seats
        self._keys.add(comp.items)
        self.columns.append(comp)
        self._cols.append(col / self.sizes)
        self._matrix = None
        return True

    def __contains__(self, comp: PanelComposition) -> bool:
        return comp.items in self._keys

    def __len__(self) -> int:
        return len(self.columns)

    @property
    def A(self) -> np.ndarray:
        """Group-probability matrix: A[w, c] = seats of group w in column c / n_w."""
        if self._matrix is None:
            self._matrix = np.column_stack(self._cols)
        return self._matrix


@dataclass
class _MasterSolution:
    q: np.ndarray
    value: float
    group_duals: np.ndarray  # pricing weights per group
    p: np.ndarray  # group probabilities A @ q
    floor_slope: float = 0.0  # d value / d r_floor: the band's bound row's dual
    gap: float = 0.0  # the master's own optimality gap over the pool (0 for an LP)
    converged: bool = True  # whether the master met its own tolerance
    iterations: int = 1


# ---------------------------------------------------------------------------
# LP masters
# ---------------------------------------------------------------------------


def _lp_master(
    pool: _ColumnPool,
    costs: tuple[float, float],
    r_floor: float = 0.0,
    s_cap: float = 1.0,
    frozen: dict[int, float] | None = None,
) -> _MasterSolution:
    """Solve the band master over the pool's columns: with p = A q over
    column weights q summing to 1 and (c_s, c_r) = ``costs``,

        min c_s s + c_r r  s.t.  p_w <= s <= ``s_cap`` on every group,
                                 r <= p_w on every group not in ``frozen``,
                                 p_w >= frozen[w] on each frozen group,
                                 r >= ``r_floor``.

    ``value`` is the objective: costs (0, -1) give the max-min LP (value -r),
    (1, 0) the min-max LP and (1, -gamma) the linear objective. ``s_cap``
    defaults to 1, as a composition never seats more than a group has.

    s enters as the headroom h = 1 - s (rows p_w + h <= 1 and h >= 1 - s_cap),
    so every row's slack but those of convexity, the frozen floors and a
    moved bound or cap starts basic in the slack crash basis (``_simplex``).
    A group's dual sums its two rows' duals: the weight a new column is
    priced with. The bound row's dual is ``floor_slope``: the dual solution
    stays feasible when the floor moves to t', so
    ``value + floor_slope * (t' - t)`` is a lower bound on the value at t'
    (LP duality), provided no column outside the pool prices out.

    The shape key is the frozen set: a master of the pool's last shape
    starts from that master's final basis. A new column keeps it primal
    feasible and a new floor dual feasible. From the max-min LP at r = t*
    to the floor t*, or from the min-max LP at s = s* to the cap s*, only c
    and one row's b move and that row's slack drops to 0, so it stays
    primal feasible.
    """
    A = pool.A
    n_groups, n_cols = A.shape
    frozen = frozen or {}
    # Rows: p_w + h + slack = 1 per group, then p_w - r - slack = 0 (or
    # p_w - slack = frozen[w]) per group, r - slack = r_floor,
    # h - slack = 1 - s_cap and convexity. Columns: h, r, one slack per row
    # but the last, then q, so that a column added to the pool leaves every
    # index of the last basis in place.
    n_rows = 2 * n_groups + 3
    q_at = n_rows + 1
    M = np.zeros((n_rows, q_at + n_cols))
    M[: 2 * n_groups, q_at:] = np.vstack((A, A))
    M[-1, q_at:] = 1.0
    slacks = np.arange(n_rows - 1)
    M[slacks, 2 + slacks] = np.repeat([1.0, -1.0], [n_groups, n_groups + 2])
    M[:n_groups, 0] = M[-2, 0] = 1.0
    M[n_groups:-3, 1] = -1.0
    M[-3, 1] = 1.0
    b = np.zeros(n_rows)
    b[:n_groups] = 1.0
    b[-3:] = r_floor, 1.0 - s_cap, 1.0
    for w, floor in frozen.items():
        M[n_groups + w, 1], b[n_groups + w] = 0.0, floor
    c_s, c_r = costs
    c = np.zeros(q_at + n_cols)
    c[:2] = -c_s, c_r

    shape = tuple(sorted(frozen))
    last_shape, last_basis = pool.last_master
    res = solve_lp(c, M, b, last_basis if shape == last_shape else None)
    if res.status == "infeasible":
        raise SolverError("master LP infeasible (floor above what the columns can support)")
    if res.status != "optimal":
        raise SolverError(f"master LP ended with status {res.status}")
    pool.last_master = (shape, res.basis)

    q = res.x[q_at:].copy()
    q[q < 0.0] = 0.0
    return _MasterSolution(
        q=q,
        value=res.objective + c_s,
        group_duals=res.duals[:n_groups] + res.duals[n_groups:2 * n_groups],
        p=A @ q,
        floor_slope=float(res.duals[-3]),
    )


# ---------------------------------------------------------------------------
# Column generation driver
# ---------------------------------------------------------------------------


def _run_colgen(pool: _ColumnPool, master, eta_scale: float = 1.0) -> tuple[_MasterSolution, float]:
    """Alternate master solves and pricing until the stopping rule holds:
    the best composition anywhere beats the best one in the support by at
    most ``eps_colgen`` (in objective units), or is already in the pool.

    Every seat of group w weighs ``group_duals[w] / n_w``. The certificate
    adds the master's own gap (measured from the master's value to the best
    pool column) to the pricing gap (from the best support column to the
    best composition), so it bounds the gap over every composition even when
    the master stopped short. Returns the final master solution and that
    certificate. The run adds its master iterations to the pool's tally and
    converges only if its last master met its own tolerance.
    """
    config = pool.config
    while True:
        solution = master(pool)
        pool.rounds += solution.iterations
        mu = solution.group_duals
        weights = mu / pool.sizes
        comp = composition_oracle(pool.instance, weights)
        if comp is None:
            raise NoValidPanelError("no valid panel exists")
        gap = 0.0
        if comp not in pool:
            score = sum(weights[pool.index[v]] * seats for v, seats in comp.items)
            col_scores = mu @ pool.A
            support = solution.q > 1e-9
            support_best = float(col_scores[support].max()) if support.any() else float(col_scores.max())
            gap = (score - support_best) * eta_scale
            if gap > config.eps_colgen and len(pool) < _MAX_COLUMNS:
                pool.add(comp)
                continue
        pool.converged &= bool(gap <= config.eps_colgen and solution.converged)
        return solution, max(gap, 0.0) + solution.gap


# ---------------------------------------------------------------------------
# Objective-specific drivers
# ---------------------------------------------------------------------------


def _floor_search(evaluate, lo: float, hi: float, outer, argmin) -> tuple[float, float]:
    """Minimize ``outer(M(t), t)`` over the floor t in [lo, hi] by cutting planes.

    M is the optimal value of a min master with every group floored at t: a
    parametric right-hand-side LP value, so convex and piecewise linear.
    ``evaluate(t)`` returns (M(t), slope), and ``M(t) + slope * (t' - t)``
    lower-bounds M everywhere (Kelley 1960). The search keeps the lower model
    outer(max of those lines, t), evaluates M at the model's minimizer, and
    stops once the best value found is within 1e-10 (relative) of the model
    minimum or the minimizer repeats. ``outer`` must be convex, nondecreasing
    in M and work on arrays; ``argmin(a, b)`` is the t > 0 minimizing
    outer(a + b*t, t), possibly inf. The search starts at ``hi``. Returns the
    best floor and its value.
    """
    slopes: list[float] = []
    offsets: list[float] = []
    seen: set[float] = set()
    best_t, best_v = hi, math.inf
    t = hi
    for evals in range(1, _FLOOR_SEARCH_MAX_EVALS + 1):
        m, slope = evaluate(t)
        seen.add(t)
        if outer(m, t) < best_v:
            best_t, best_v = t, outer(m, t)
        slopes.append(slope)
        offsets.append(m - slope * t)
        # On the model's minimizing piece one line is the max, so the
        # minimizer is that line's own minimizer or a crossing of two lines.
        b, a = np.array(slopes), np.array(offsets)
        with np.errstate(divide="ignore", invalid="ignore"):
            crossings = ((a[None, :] - a[:, None]) / (b[:, None] - b[None, :])).ravel()
        candidates = np.concatenate(
            (
                [lo, hi],
                np.clip([argmin(ai, bi) for ai, bi in zip(a, b)], lo, hi),
                crossings[(crossings > lo) & (crossings < hi)],
            )
        )
        model = outer((a[:, None] + b[:, None] * candidates).max(axis=0), candidates)
        lower, t_next = float(model.min()), float(candidates[model.argmin()])
        _log.debug(
            "floor search eval %d: t=%.12g M=%.12g slope=%.6g lower=%.12g upper=%.12g",
            evals, t, m, slope, lower, best_v,
        )
        if best_v - lower <= _FLOOR_SEARCH_TOL * max(1.0, abs(best_v)) or t_next in seen:
            break
        t = t_next
    _log.debug("floor search done: %d evaluations, t=%.12g value=%.12g", evals, best_t, best_v)
    return best_t, best_v


def _floor_value_function(pool: _ColumnPool):
    """The floor set-up shared by goldilocks and ``deviation_delta``.

    Returns t_max, the max-min pre-solve's value; ``evaluate(t)``, the
    min-max value M(t) with every group floored at t and its slope
    (``floor_slope``); and ``outcomes``, each evaluated floor's final master
    solution and certificate (``_run_colgen``), which ``evaluate`` caches.
    Every run adds to the pool's tally. The pre-solve is
    the band master at costs (0, -1) and every evaluation the band at costs
    (1, 0) with ``r_floor`` = t (``_lp_master``); neither freezes a group, so
    each master starts from the last one's basis and the whole search makes
    one cold LP. Column generation runs to convergence inside every
    evaluation, so the bound row's dual is a valid slope of M. t_max is
    above 0, since ``_initial_pool`` seeds a cover of every group.
    """
    ideal = pool.instance.k / pool.instance.n
    maximin, _ = _run_colgen(pool, lambda p: _lp_master(p, _MAX_MIN))
    outcomes: dict[float, tuple[_MasterSolution, float]] = {}

    def evaluate(t: float) -> tuple[float, float]:
        if t not in outcomes:
            outcomes[t] = _run_colgen(
                pool, lambda p: _lp_master(p, _MIN_MAX, r_floor=t), eta_scale=1.0 / ideal
            )
        solution = outcomes[t][0]
        return solution.value, solution.floor_slope

    return -maximin.value, evaluate, outcomes


def _goldilocks_search(pool: _ColumnPool, gamma: float) -> tuple[_MasterSolution, float]:
    """Minimize max/(k/n) + gamma*(k/n)/min via a floor search.

    For a fixed floor t on the minimum probability, the best reachable
    maximum M(t) is a min-max LP; V(t) = M(t)/(k/n) + gamma*(k/n)/t is convex
    in t, and ``_floor_search`` minimizes it by cutting planes on M, usually
    in a handful of floor evaluations. Returns the best floor's master
    solution and certificate.
    """
    ideal = pool.instance.k / pool.instance.n
    t_hi, evaluate, outcomes = _floor_value_function(pool)

    def outer(m, t):
        return m / ideal + gamma * ideal / t

    def argmin(a: float, b: float) -> float:
        # d/dt [(a + b t)/ideal + gamma ideal/t] = b/ideal - gamma ideal/t^2
        return ideal * math.sqrt(gamma / b) if b > 0.0 else math.inf

    # V(t) >= gamma*ideal/t, so floors below gamma*ideal/V(t_hi) cannot win.
    v_hi = outer(evaluate(t_hi)[0], t_hi)
    t_lo = max(0.5 * min(t_hi, gamma * ideal / v_hi), t_hi * 1e-12)
    return outcomes[_floor_search(evaluate, t_lo, t_hi, outer, argmin)[0]]


def _psd_solve(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve M x = b for a symmetric positive semidefinite M by Gauss-Jordan
    elimination with the largest remaining diagonal entry as pivot.

    Once every remaining pivot is below 1e-12 of the largest diagonal entry,
    the matching unknowns stay 0: a basic solution of a singular but
    consistent system.
    """
    M, b = M.copy(), b.copy()
    free = np.ones(len(b), dtype=bool)
    tol = 1e-12 * M.diagonal().max(initial=0.0)
    while free.any():
        j = int(np.argmax(np.where(free, M.diagonal(), -np.inf)))
        if M[j, j] <= tol:
            break
        free[j] = False
        b[j] /= M[j, j]
        M[j] /= M[j, j]
        factors = M[:, j].copy()
        factors[j] = 0.0
        M -= np.outer(factors, M[j])
        b -= factors * b[j]
    return np.where(free, 0.0, b)


def _nash_step(sizes: np.ndarray, p: np.ndarray, delta: np.ndarray, h_max: float) -> float:
    """The h in [0, h_max] maximizing phi(h) = sum(n_w log(p_w + h*delta_w)).

    phi is concave, so this is Newton's method on phi' from the full step
    h = 1 (h_max/2 when the cap is smaller), kept inside a bracket [lo, hi]
    with phi'(lo) > 0 > phi'(hi) and bisecting whenever Newton leaves it.
    Returns 0 when delta is no ascent direction.
    """

    def derivatives(h: float) -> tuple[float, float]:
        denom = p + h * delta
        if (denom <= 0.0).any():
            return -math.inf, -math.inf
        ratio = delta / denom
        return float(sizes @ ratio), -float(sizes @ (ratio * ratio))

    if derivatives(0.0)[0] <= 0.0:
        return 0.0
    if derivatives(h_max)[0] >= 0.0:
        return h_max
    lo, hi = 0.0, h_max
    h = 1.0 if h_max > 1.0 else 0.5 * h_max
    for _ in range(60):
        slope, curvature = derivatives(h)
        if slope > 0.0:
            lo = h
        else:
            hi = h
        newton = h - slope / curvature if curvature < 0.0 else math.nan
        h_next = newton if lo < newton < hi else 0.5 * (lo + hi)
        if abs(h_next - h) <= 1e-14 * h:
            return h_next
        h = h_next
    return lo


def _nash_newton_direction(A_S: np.ndarray, p: np.ndarray, root_sizes: np.ndarray, ref: int) -> np.ndarray:
    """Newton direction of sum(n_w log p_w) over the columns A_S, with the
    column weights' sum held fixed.

    Writing B = diag(sqrt(n)/p) A_S, the Hessian is -B^T B and the gradient
    B^T sqrt(n). Column ``ref`` absorbs the constraint (d_ref = -sum of the
    others), which leaves the reduced system C^T C u = C^T sqrt(n) over the
    other columns, C = B_others - B_ref.
    """
    B = A_S * (root_sizes / p)[:, None]
    others = np.arange(A_S.shape[1]) != ref
    C = B[:, others] - B[:, [ref]]
    u = _psd_solve(C.T @ C, C.T @ root_sizes)
    d = np.zeros(A_S.shape[1])
    d[others] = u
    d[ref] = -u.sum()
    return d


def _nash_master(pool: _ColumnPool, q: np.ndarray):
    """The restricted nash master for ``_run_colgen``, started from the
    column weights ``q``: maximize sum(n_w log p_w), p = A q, over the
    column simplex.

    The restricted master is solved fully correctively by an active-set
    projected Newton method. Each iteration takes the columns carrying mass
    plus the best Frank-Wolfe vertex and steps along their Newton direction
    (``_nash_newton_direction``), with an exact line search capped where a
    weight hits zero; that column leaves the support. If the step stalls
    (the vertex would take negative mass), a plain Frank-Wolfe step towards
    the vertex is taken instead. At most G+1 columns carry mass at an
    optimum, so the Newton systems stay small and the master converges in
    tens of iterations.

    ``q`` must give every group positive probability, as the max-min
    pre-solve's weights do. Between calls the master keeps its weights and
    gives 1e-6 of the mass to each column added since. Its group duals are
    the gradient of the geometric mean G = exp(sum(n_w log p_w) / n) in p,
    G n_w / (n p_w), so pricing scores and gaps are in geometric-mean units;
    its own gap is the Frank-Wolfe gap over the pool in the same units,
    G (max_c grad_c - n) / n with grad the log objective's gradient in q.
    """
    n_total = float(pool.sizes.sum())
    root_sizes = np.sqrt(pool.sizes)
    q = q / q.sum()

    def master(pool: _ColumnPool) -> _MasterSolution:
        nonlocal q
        added = len(pool) - len(q)
        if added:
            q = np.append(q * (1.0 - 1e-6 * added), np.full(added, 1e-6))
        A = pool.A
        for iterations in range(1, _NASH_MAX_ITERS + 1):
            p = A @ q
            grad = (pool.sizes / p) @ A  # d/dq_c of sum n_w log p_w
            fw_idx = int(np.argmax(grad))
            geomean = math.exp(float(pool.sizes @ np.log(p)) / n_total)
            # q . grad is identically n, so this is the Frank-Wolfe gap.
            gap = geomean * max(float(grad[fw_idx]) - n_total, 0.0) / n_total
            # The last iteration the budget allows only measures, so the gap
            # returned is always that of the weights returned.
            if gap <= 0.5 * _NASH_GAP or iterations == _NASH_MAX_ITERS:
                break
            active = np.flatnonzero(q > 0.0)
            if q[fw_idx] == 0.0:
                active = np.append(active, fw_idx)
            direction = np.zeros(len(q))
            direction[active] = _nash_newton_direction(
                A[:, active], p, root_sizes, int(np.argmax(q[active]))
            )
            shrinking = direction < 0.0
            h_max = float(np.min(q[shrinking] / -direction[shrinking], initial=math.inf))
            h = _nash_step(pool.sizes, p, A @ direction, h_max)
            if h <= 0.0:
                # Stalled, e.g. the vertex would take negative mass: take a
                # plain Frank-Wolfe step towards it instead.
                direction = -q
                direction[fw_idx] += 1.0
                h = _nash_step(pool.sizes, p, A @ direction, 1.0)
                if h <= 0.0:
                    break
            q = q + h * direction
            q[q < 1e-15] = 0.0
            total = q.sum()
            if total <= 0.0:
                raise SolverError("nash iterate lost all mass")
            q /= total
        return _MasterSolution(
            q=q, value=-geomean, group_duals=geomean * pool.sizes / (n_total * p), p=p,
            gap=gap, converged=gap <= _NASH_GAP, iterations=iterations,
        )

    return master


# ---------------------------------------------------------------------------
# Pool setup and result assembly
# ---------------------------------------------------------------------------


def _initial_pool(instance: Instance, config: SolveConfig) -> _ColumnPool:
    """Seed the pool and enforce that nobody is structurally excluded.

    The pool starts with every valid composition (brute) or with a
    zero-weight oracle column (colgen), then the per-group covers of
    ``covering_compositions`` (on brute they are already in it). A group
    with no cover is exactly a structurally excluded group.
    """
    pool = _ColumnPool(instance, config)
    if config.backend == "brute":
        comps = feasible_compositions(instance)
    else:
        first = composition_oracle(instance, np.zeros(len(pool.vectors)))
        comps = [] if first is None else [first]
    if not comps:
        raise NoValidPanelError("the quotas admit no valid panel")
    covers = covering_compositions(instance)
    missing = [v for v, cover in zip(pool.vectors, covers) if cover is None]
    if missing:
        raise StructuralExclusionError(f"agents with vectors {missing} appear on no valid panel")
    for comp in comps + covers:
        pool.add(comp)
    return pool


def _assemble_result(
    pool: _ColumnPool,
    q: np.ndarray,
    objective: EqualityObjective,
    certificate: float,
    extra_iterations: int,
) -> SolveResult:
    """Keep the support compositions; every agent gets its group's
    probability (``CompositionDistribution.marginals``), so the assignment is
    anonymous by construction. The pool's tally gives ``converged`` and,
    plus ``extra_iterations``, the iterations."""
    instance = pool.instance
    keep = np.flatnonzero(q > _SUPPORT_EPS)
    probs = q[keep] / q[keep].sum()
    dist = CompositionDistribution(
        tuple((pool.columns[i], float(prob)) for i, prob in zip(keep, probs))
    )
    pi = dist.marginals(instance)
    value = evaluate(objective, pi, instance.k, instance.n)
    return SolveResult(
        distribution=dist,
        pi=pi,
        objective=objective,
        objective_value=value,
        iterations=pool.rounds + extra_iterations,
        converged=pool.converged,
        certificate=certificate,
    )


def _resolve_gamma(instance: Instance, config: SolveConfig) -> tuple[EqualityObjective, int]:
    """Pin down auto gammas; balanced mode needs the two extreme pre-solves."""
    objective = config.objective
    if objective.gamma_mode == GAMMA_FIXED:
        return objective, 0
    if objective.gamma_mode == GAMMA_AUTO_SELECTION_BIAS:
        gamma = gamma_selection_bias(instance)
        return replace(objective, gamma=gamma, gamma_mode=GAMMA_FIXED), 0
    maximin_cfg = replace(config, objective=EqualityObjective(Kind.MAXIMIN))
    minimax_cfg = replace(config, objective=EqualityObjective(Kind.MINIMAX))
    res_min = solve(instance, maximin_cfg)
    res_max = solve(instance, minimax_cfg)
    gamma = gamma_balanced(res_min.pi.min(), res_max.pi.max(), instance.n, instance.k)
    extra = res_min.iterations + res_max.iterations
    return replace(objective, gamma=gamma, gamma_mode=GAMMA_FIXED), extra


def _uniform_feasible_shortcut(solution: _MasterSolution, instance: Instance) -> bool:
    """Whether a max-min master reached k/n, the level of equal probabilities."""
    return -solution.value >= instance.k / instance.n - 1e-11


def _leximin(pool: _ColumnPool) -> tuple[_MasterSolution, float]:
    """Maximize the lowest probability, then the next lowest, group by group.

    Groups are frozen once their floor constraint is binding in every optimum
    (positive dual); if duals identify nothing new, the groups sitting at the
    current level are frozen instead so every round makes progress. Returns
    the last round's master solution and the largest round certificate.
    """
    n_groups = len(pool.vectors)
    frozen: dict[int, float] = {}
    gap = 0.0

    while len(frozen) < n_groups:
        free = set(range(n_groups)) - set(frozen)
        floors = {w: level - _FREEZE_SLACK for w, level in frozen.items()}
        solution, certificate = _run_colgen(pool, lambda p: _lp_master(p, _MAX_MIN, frozen=floors))
        gap = max(gap, certificate)
        level = -solution.value

        if not frozen and _uniform_feasible_shortcut(solution, pool.instance):
            # Perfectly equal probabilities are feasible, hence the unique
            # leximin outcome; the first-round solution realizes them exactly.
            break

        newly = [w for w in sorted(free) if solution.group_duals[w] > _DUAL_EPS]
        if not newly:
            newly = [w for w in sorted(free) if solution.p[w] <= level + 10 * _FREEZE_SLACK]
        if not newly:
            newly = [min(free, key=lambda w: solution.p[w])]
        for w in newly:
            frozen[w] = max(level, 0.0)

    return solution, gap


def solve(instance: Instance, config: SolveConfig) -> SolveResult:
    """Compute a maximally equal panel distribution for the configured objective.

    Raises NO_VALID_PANEL / STRUCTURAL_EXCLUSION when the instance is
    unusable; returns converged=False with a certificate gap when a column
    budget runs out.
    """
    objective, extra_iters = _resolve_gamma(instance, config)
    pool = _initial_pool(instance, config)

    if objective.kind in (Kind.MAXIMIN, Kind.MINIMAX):
        # Optimize the one extreme; the tie-break then holds every group
        # within 1e-12 of that value and optimizes the other extreme.
        maximin = objective.kind == Kind.MAXIMIN
        first, second = (_MAX_MIN, _MIN_MAX) if maximin else (_MIN_MAX, _MAX_MIN)
        solution, certificate = _run_colgen(pool, lambda p: _lp_master(p, first))
        if objective.tie_break:
            value = solution.value
            held = {"r_floor": -value - 1e-12} if maximin else {"s_cap": value + 1e-12}
            solution, tb_certificate = _run_colgen(pool, lambda p: _lp_master(p, second, **held))
            certificate = max(certificate, tb_certificate)
    elif objective.kind == Kind.LEXIMIN:
        solution, certificate = _leximin(pool)
    elif objective.kind == Kind.LINEAR:
        solution, certificate = _run_colgen(pool, lambda p: _lp_master(p, (1.0, -objective.gamma)))
    elif objective.kind == Kind.NASH:
        # If perfectly equal probabilities are feasible they are optimal for
        # every objective here, and the max-min LP finds them exactly,
        # which iterative nash refinement cannot.
        solution, certificate = _run_colgen(pool, lambda p: _lp_master(p, _MAX_MIN))
        if _uniform_feasible_shortcut(solution, instance):
            # The uniform point is exactly nash-optimal (AM-GM), whatever
            # the max-min colgen gap was.
            certificate = 0.0
        else:
            # The max-min weights give every group p > 0; the nash certificate,
            # and so converged, does not depend on that pre-solve.
            pool.converged = True
            solution, certificate = _run_colgen(pool, _nash_master(pool, solution.q))
    elif objective.kind == Kind.GOLDILOCKS:
        solution, certificate = _goldilocks_search(pool, objective.gamma)
    else:
        raise ValidationError(f"solve cannot handle objective {objective.kind}")

    return _assemble_result(pool, solution.q, objective, certificate, extra_iters)


# ---------------------------------------------------------------------------
# Deviation oracle
# ---------------------------------------------------------------------------


def deviation_delta(instance: Instance) -> float:
    """Smallest achievable worst-side multiplicative deviation from k/n.

    delta = min over feasible assignments of max((k/n)/min(pi), max(pi)/(k/n)),
    found by the goldilocks floor search (``_floor_search``) on
    max((k/n)/t, minmax(t)/(k/n)) over the enforced floor t: the first term
    falls and the second is convex and nondecreasing, so on each segment of
    the cut model the minimizer is where the two terms cross. Brute columns
    make every inner LP exact: the pool holds every valid composition, so
    every pricing gap is 0 and no column-generation setting can act.
    """
    pool = _initial_pool(instance, SolveConfig(objective=EqualityObjective(Kind.MAXIMIN), backend="brute"))
    ideal = instance.k / instance.n
    t_max, evaluate, _ = _floor_value_function(pool)

    def outer(m, t):
        return np.maximum(ideal / t, m / ideal)

    def argmin(a: float, b: float) -> float:
        # (a + b t)/ideal = ideal/t  <=>  b t^2 + a t - ideal^2 = 0; the
        # positive root, written to avoid cancellation.
        denom = a + math.sqrt(a * a + 4.0 * max(b, 0.0) * ideal * ideal)
        return 2.0 * ideal * ideal / denom if denom > 0.0 else math.inf

    return float(_floor_search(evaluate, t_max * 1e-9, t_max, outer, argmin)[1])


# ---------------------------------------------------------------------------
# Greedy baseline
# ---------------------------------------------------------------------------


def solve_legacy(instance: Instance, seed: int) -> Panel:
    """The greedy heuristic long used in practice: fill one seat at a time.

    Each step finds the most desperate feature value by the ratio
    (still needed for the lower quota) / (people left holding it) and picks
    uniformly among the remaining holders. Dead ends restart the whole build
    with a fresh derived seed.
    """
    pairs = instance.scheme.feature_value_pairs()
    feature_idx = {f: i for i, f in enumerate(instance.scheme.features)}

    for attempt in range(_LEGACY_RESTARTS):
        rng = random.Random(f"{seed}:{attempt}")
        remaining: dict[str, FeatureVector] = dict(instance.vector_of)
        selected_counts = {pair: 0 for pair in pairs}
        panel: list[str] = []
        failed = False

        def remaining_with(pair: tuple[str, str]) -> list[str]:
            f_i = feature_idx[pair[0]]
            return sorted(a for a, vec in remaining.items() if vec[f_i] == pair[1])

        while len(panel) < instance.k and not failed:
            best_pair = None
            best_ratio = -math.inf
            for pair in pairs:
                lo, hi = instance.quota(*pair)
                left = len(remaining_with(pair))
                need = lo - selected_counts[pair]
                if need > 0 and left < need:
                    failed = True
                    break
                if left == 0 or hi == 0 or selected_counts[pair] >= hi:
                    continue
                ratio = need / left
                if ratio > best_ratio:
                    best_ratio = ratio
                    best_pair = pair
            if failed or best_pair is None:
                failed = True
                break
            candidates = remaining_with(best_pair)
            choice = candidates[rng.randrange(len(candidates))]
            panel.append(choice)
            vector = remaining.pop(choice)
            for f_i, feature in enumerate(instance.scheme.features):
                pair = (feature, vector[f_i])
                selected_counts[pair] += 1
                lo, hi = instance.quota(*pair)
                if selected_counts[pair] >= hi:
                    # Quota full: everyone left holding this value is out.
                    for other in remaining_with(pair):
                        del remaining[other]
            if len(remaining) == 0 and len(panel) < instance.k:
                failed = True

        if not failed and len(panel) == instance.k:
            candidate = Panel(tuple(panel))
            if candidate.is_valid(instance):
                return candidate

    raise RestartLimitError(f"no valid panel found in {_LEGACY_RESTARTS} greedy restarts")


def approximation_ratios(result: SolveResult, min_opt: float, max_opt: float) -> tuple[float, float]:
    """How close a result's extremes come to the optimal extremes.

    ``min_opt`` must come from a maximin solve and ``max_opt`` from a minimax
    solve on the same instance. The first ratio is NaN when the optimal
    minimum is zero.
    """
    lo, hi = result.pi.min(), result.pi.max()
    min_ratio = math.nan if min_opt <= 0.0 else lo / min_opt
    if max_opt <= 0.0:
        raise ValidationError("optimal maximum cannot be zero for a nonempty panel")
    return (min_ratio, hi / max_opt)
