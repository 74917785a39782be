import json
import logging
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings

from conftest import reference_compositions, reference_marginals, reference_panels, small_instances
from panelot import fixtures, solver
from panelot.adversary import apply_misreport, make_lb_instance
from panelot.errors import (
    CapExceededError,
    NoValidPanelError,
    PanelotError,
    RestartLimitError,
    StructuralExclusionError,
    ValidationError,
)
from panelot.model import FeatureScheme, Instance, duplicate_pool
from panelot.objectives import evaluate, parse_objective
from panelot.panels import feasible_compositions, has_valid_panel, structurally_excluded
from panelot.solver import (
    SolveConfig,
    _MAX_MIN,
    _MIN_MAX,
    _initial_pool,
    _lp_master,
    approximation_ratios,
    deviation_delta,
    solve,
    solve_legacy,
)

ROOT3 = math.sqrt(3.0)


def cfg(spec: str, backend: str = "colgen", **kw) -> SolveConfig:
    kw.setdefault("eps_colgen", 1e-7)
    return SolveConfig(objective=parse_objective(spec), backend=backend, **kw)


def group_probs(instance, result):
    return result.pi.group_probabilities(instance, tol=1e-9)


# ---------------------------------------------------------------------------
# Closed forms on the fixtures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["brute", "colgen"])
@pytest.mark.parametrize(
    "spec", ["maximin", "minimax", "maximin-tb", "minimax-tb", "leximin", "nash", "goldilocks:1", "linear:1"]
)
def test_t1_everything_is_uniform(t1, backend, spec):
    result = solve(t1, cfg(spec, backend))
    assert result.pi.min() == pytest.approx(0.5, abs=1e-9)
    assert result.pi.max() == pytest.approx(0.5, abs=1e-9)
    assert result.converged


@pytest.mark.parametrize("kw", [{"eps_colgen": 0.0}, {"eps_colgen": -1e-3}, {"backend": "simplex"}],
                         ids=["eps-zero", "eps-negative", "backend"])
def test_config_rejects_invalid_settings(kw):
    with pytest.raises(ValidationError):
        cfg("maximin", **kw)


@pytest.mark.parametrize("backend", ["brute", "colgen"])
def test_e2_maximin(e2, backend):
    result = solve(e2, cfg("maximin", backend))
    probs = group_probs(e2, result)
    assert result.pi.min() == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert probs[("0", "1")] == pytest.approx(1.0, abs=1e-9)  # mixed panels get all mass
    assert probs[("1", "0")] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert probs[("0", "0")] == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("backend", ["brute", "colgen"])
def test_e2_minimax(e2, backend):
    result = solve(e2, cfg("minimax", backend))
    assert result.pi.max() == pytest.approx(2.0 / 3.0, abs=1e-9)


@pytest.mark.parametrize("backend", ["brute", "colgen"])
def test_e2_goldilocks(e2, backend):
    result = solve(e2, cfg("goldilocks:1", backend))
    assert result.objective_value == pytest.approx(2.0 * ROOT3, abs=1e-6)
    assert result.pi.max() == pytest.approx(ROOT3 / 2.0, abs=1e-6)
    assert result.pi.min() == pytest.approx(ROOT3 / 6.0, abs=1e-6)


def test_e2_leximin(e2):
    result = solve(e2, cfg("leximin"))
    probs = group_probs(e2, result)
    assert probs[("0", "1")] == pytest.approx(1.0, abs=1e-6)
    assert probs[("1", "0")] == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert probs[("0", "0")] == pytest.approx(0.5, abs=1e-6)
    assert probs[("1", "1")] == pytest.approx(0.5, abs=1e-6)


def test_e2_nash_matches_grid_oracle(e2):
    # One-parameter family over the mixed-type weight d: group probabilities
    # (d, d/3, (2-d)/2, (2-d)/2); maximize the sizes-weighted log sum on a grid.
    d = np.linspace(1e-6, 1.0, 200_001)
    log_obj = 4.0 * np.log((2.0 - d) / 2.0) + 3.0 * np.log(d / 3.0) + np.log(d)
    d_best = d[int(np.argmax(log_obj))]
    result = solve(e2, cfg("nash"))
    probs = group_probs(e2, result)
    assert probs[("0", "1")] == pytest.approx(d_best, abs=1e-4)
    geomean = math.exp(float(np.max(log_obj)) / e2.n)
    assert result.objective_value == pytest.approx(-geomean, abs=1e-6)


def test_instance_b_closed_forms(instance_b):
    truthful, misreport, attacked = instance_b
    lone = attacked.groups[("0", "1", "0")][0]
    column_group = ("1", "1", "1")

    lex = solve(attacked, cfg("leximin"))
    assert lex.pi.pi[lone] == pytest.approx(0.125, abs=1e-5)

    nash = solve(attacked, cfg("nash"))
    assert nash.pi.pi[lone] == pytest.approx(2.0 / 21.0, abs=1e-4)

    for spec in ("maximin", "minimax", "nash", "leximin", "goldilocks:1"):
        result = solve(attacked, cfg(spec))
        probs = group_probs(attacked, result)
        assert probs[column_group] == pytest.approx(2.0 / 9.0, abs=1e-6)


def test_truthful_thm43_instance_is_forced(instance_b):
    truthful, _, _ = instance_b
    result = solve(truthful, cfg("goldilocks:1"))
    probs = group_probs(truthful, result)
    assert probs[("0", "0", "0")] == pytest.approx(1.0 / 15.0, abs=1e-9)
    assert probs[("1", "1", "1")] == pytest.approx(1.0 / 6.0, abs=1e-9)


def test_thm31_forced_column_probability():
    from panelot.adversary import apply_misreport, make_lb_instance

    truthful, misreport = make_lb_instance("thm31", n=40, k=6, n_min=12, c=6)
    attacked = apply_misreport(truthful, misreport)
    sizes = {"".join(v): len(m) for v, m in attacked.groups.items()}
    assert sizes == {"000": 14, "110": 14, "111": 7, "100": 4, "010": 1}
    for spec in ("maximin", "goldilocks:1"):
        result = solve(attacked, cfg(spec))
        probs = group_probs(attacked, result)
        assert probs[("1", "1", "1")] == pytest.approx(2.0 / 7.0, abs=1e-9)
        # Linked fate: the lone 010 reporter moves with the 100 group 4:1.
        assert probs[("0", "1", "0")] == pytest.approx(4.0 * probs[("1", "0", "0")], abs=1e-6)


# ---------------------------------------------------------------------------
# Structural invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["brute", "colgen"])
def test_marginal_mass_and_anonymity_on_random_instances(backend):
    for seed in range(12):
        inst = fixtures.random_brute_instance(seed + 40)
        for spec in ("maximin", "goldilocks:1"):
            result = solve(inst, cfg(spec, backend))
            assert result.pi.total() == pytest.approx(inst.k, abs=1e-6)
            assert result.pi.anonymity_gap(inst) <= 1e-9
            result.distribution.check_valid(inst)
            for agent, vector in inst.vector_of.items():
                seats = sum(q * comp.seats(vector) for comp, q in result.distribution.entries)
                prob = seats / inst.group_size(vector)
                assert result.pi.pi[agent] == pytest.approx(prob, abs=1e-12)


def test_backends_agree_beyond_binary_features():
    # Wider than the random brute family: three-valued feature, six groups,
    # 161 valid compositions.
    import random as _random

    rng = _random.Random(2)
    n, k = 60, 8
    scheme = FeatureScheme(
        features=("age", "gender"), values={"age": ("y", "m", "o"), "gender": ("f", "x")}
    )
    agents = tuple(
        (f"a{i}", (rng.choice(scheme.values["age"]), rng.choice(scheme.values["gender"])))
        for i in range(n)
    )
    sample = rng.sample(range(n), k)
    quotas = {}
    for f_idx, feature in enumerate(scheme.features):
        for value in scheme.values[feature]:
            hit = sum(1 for i in sample if agents[i][1][f_idx] == value)
            quotas[(feature, value)] = (max(0, hit - 1), min(k, hit + 1))
    inst = Instance(scheme=scheme, agents=agents, k=k, quotas=quotas, label="wide")
    for spec, tol in (("maximin", 1e-8), ("minimax", 1e-8), ("goldilocks:1", 1e-6), ("nash", 1e-6), ("leximin", 1e-6)):
        brute = solve(inst, cfg(spec, "brute", eps_colgen=1e-6)).objective_value
        colgen = solve(inst, cfg(spec, "colgen", eps_colgen=1e-6)).objective_value
        assert abs(brute - colgen) <= tol, (spec, brute, colgen)


def test_backend_equivalence_sample():
    for seed in range(10):
        inst = fixtures.random_brute_instance(seed)
        for spec, tol in (("maximin", 1e-5), ("minimax", 1e-5), ("goldilocks:1", 1e-5), ("nash", 1e-4)):
            brute = solve(inst, cfg(spec, "brute")).objective_value
            colgen = solve(inst, cfg(spec, "colgen")).objective_value
            assert abs(brute - colgen) <= tol, (seed, spec, brute, colgen)


def _highs_extremes(inst):
    """(max-min, min-max) group probability over every distribution on the
    valid compositions, from HiGHS on this test's own enumeration."""
    from scipy.optimize import linprog

    vectors = inst.present_vectors()
    sizes = np.array([inst.group_size(v) for v in vectors], dtype=float)
    A = np.array(reference_compositions(inst), dtype=float).T / sizes[:, None]
    n_groups, n_cols = A.shape
    q_bounds = [(0, None)] * n_cols + [(None, None)]
    sums_to_one = np.append(np.ones(n_cols), 0.0)[None, :]
    t_col = np.ones((n_groups, 1))
    best_min = linprog(np.append(np.zeros(n_cols), -1.0), A_ub=np.hstack([-A, t_col]),
                       b_ub=np.zeros(n_groups), A_eq=sums_to_one, b_eq=[1.0], bounds=q_bounds,
                       method="highs")
    best_max = linprog(np.append(np.zeros(n_cols), 1.0), A_ub=np.hstack([A, -t_col]),
                       b_ub=np.zeros(n_groups), A_eq=sums_to_one, b_eq=[1.0], bounds=q_bounds,
                       method="highs")
    assert best_min.status == 0 and best_max.status == 0
    return -best_min.fun, best_max.fun


ALL_SPECS = ("maximin", "minimax", "maximin-tb", "minimax-tb", "leximin", "nash",
             "goldilocks:1", "goldilocks:auto1", "goldilocks:auto2", "linear:0.5")


@given(small_instances(max_groups=8))
@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
def test_colgen_matches_brute_and_highs_on_random_instances(inst):
    assume(has_valid_panel(inst) and not structurally_excluded(inst))
    highs_min, highs_max = _highs_extremes(inst)
    for spec in ALL_SPECS:
        tol = 1e-4 if spec == "nash" else 1e-5
        try:
            brute = solve(inst, cfg(spec, "brute"))
        except PanelotError as exc:  # e.g. auto2 on a pool missing a constrained value
            with pytest.raises(type(exc)):
                solve(inst, cfg(spec, "colgen"))
            continue
        colgen = solve(inst, cfg(spec, "colgen"))
        assert abs(brute.objective_value - colgen.objective_value) <= tol, (spec, brute, colgen)
        if spec == "leximin":
            assert sorted(group_probs(inst, brute).values()) == pytest.approx(
                sorted(group_probs(inst, colgen).values()), abs=tol)
        if spec == "maximin":
            assert brute.pi.min() == pytest.approx(highs_min, abs=1e-8)
            assert colgen.pi.min() == pytest.approx(highs_min, abs=1e-6)
        if spec == "minimax":
            assert brute.pi.max() == pytest.approx(highs_max, abs=1e-8)
            assert colgen.pi.max() == pytest.approx(highs_max, abs=1e-6)


def test_tie_break_variants_keep_their_extreme():
    for seed in range(8):
        inst = fixtures.random_brute_instance(seed + 70)
        plain_min = solve(inst, cfg("maximin", "brute"))
        tb_min = solve(inst, cfg("maximin-tb", "brute"))
        assert tb_min.pi.min() == pytest.approx(plain_min.pi.min(), abs=1e-6)
        assert tb_min.pi.max() <= plain_min.pi.max() + 1e-6

        plain_max = solve(inst, cfg("minimax", "brute"))
        tb_max = solve(inst, cfg("minimax-tb", "brute"))
        assert tb_max.pi.max() == pytest.approx(plain_max.pi.max(), abs=1e-6)
        assert tb_max.pi.min() >= plain_max.pi.min() - 1e-6


def test_leximin_lex_dominates_random_mixtures():
    # The leximin assignment's ascending probability vector must weakly
    # lex-dominate that of every feasible distribution.
    import random as _random

    for seed in range(8):
        inst = fixtures.random_brute_instance(seed + 500)
        best = sorted(solve(inst, cfg("leximin", "brute")).pi.pi.values())
        panels = reference_panels(inst)
        rng = _random.Random(seed)
        for _ in range(15):
            weights = [rng.random() for _ in panels]
            total = sum(weights)
            other = sorted(reference_marginals(inst, zip(panels, (w / total for w in weights))).values())
            for ours, theirs in zip(best, other):
                if ours > theirs + 1e-6:
                    break
                assert ours >= theirs - 1e-6, (seed, best, other)


def test_brute_backend_enforces_the_composition_cap(e2, monkeypatch):
    from panelot import panels

    monkeypatch.setattr(panels, "COMPOSITION_CAP", 1)  # e2 has two compositions
    with pytest.raises(CapExceededError) as err:
        solve(e2, cfg("maximin", "brute"))
    assert err.value.code == "CAP_EXCEEDED"


def test_maximin_past_the_cap_on_the_16_group_pool():
    # n=400, k=12: too many compositions to memoize, so every oracle call is
    # a branch-and-bound search. It took about 16 s when that search was a
    # scalar recursion.
    import time

    from panelot.panels import _composition_matrix

    inst = fixtures.skew_pool(400, 12, (2, 2, 2, 2))
    assert len(inst.groups) == 16
    start = time.perf_counter()
    assert _composition_matrix(inst) is False
    result = solve(inst, SolveConfig(objective=parse_objective("maximin")))
    assert time.perf_counter() - start < 8.0
    assert result.converged
    assert result.pi.min() == pytest.approx(0.03, abs=1e-9)
    assert len(result.distribution.entries) == 16


@pytest.mark.parametrize("objective", ["goldilocks:1", "maximin"])
def test_the_36_group_pool_converges_within_the_ladder_limit(objective):
    # Past the cap, so every oracle call is an LP branch and bound. 8 s is
    # the benchmark ladder's per-op limit.
    import time

    inst = fixtures.skew_pool(500, 20, (2, 3, 3, 2))
    assert len(inst.groups) == 36
    start = time.perf_counter()
    result = solve(inst, SolveConfig(objective=parse_objective(objective)))
    assert time.perf_counter() - start < 8.0
    assert result.converged
    result.distribution.check_valid(inst)


def test_pricing_past_the_cap_does_not_import_scipy():
    # import scipy.optimize more than doubles a process's peak RSS, so the
    # oracle past the cap runs on the bundled simplex.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import panelot

    script = (
        "import sys\n"
        "from panelot import fixtures\n"
        "from panelot.objectives import parse_objective\n"
        "from panelot.panels import _composition_matrix\n"
        "from panelot.solver import SolveConfig, solve\n"
        "inst = fixtures.skew_pool(400, 12, (2, 2, 2, 2))\n"
        "assert _composition_matrix(inst) is False\n"
        "assert solve(inst, SolveConfig(objective=parse_objective('maximin'))).converged\n"
        "print('scipy' in sys.modules)\n"
    )
    src = str(Path(panelot.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_minimax_can_zero_out_a_group():
    inst = fixtures.starved_minimum_instance()
    result = solve(inst, cfg("minimax", "brute"))
    assert result.pi.max() == pytest.approx(0.5, abs=1e-9)
    assert result.pi.min() <= 1e-9


def test_goldilocks_sandwich_on_e2(e2):
    delta = deviation_delta(e2)
    assert delta == pytest.approx(ROOT3, abs=1e-6)
    result = solve(e2, cfg("goldilocks:1"))
    ideal = e2.k / e2.n
    assert result.pi.min() >= ideal / (2.0 * delta) - 1e-6
    assert result.pi.max() <= ideal * 2.0 * delta + 1e-6


# ---------------------------------------------------------------------------
# LP masters against HiGHS
# ---------------------------------------------------------------------------


def _highs_master(A, costs, r_floor=0.0, s_cap=1.0, frozen=None):
    """The band master as an independent LP for scipy's HiGHS: variables
    (s, r, q) with s and r free and q >= 0; returns the optimal value."""
    from scipy.optimize import linprog

    n_groups, n_cols = A.shape
    frozen = frozen or {}
    none = np.zeros(n_cols)
    upper = []  # ((s, r) coefficients, q coefficients, rhs) of rows <= rhs
    upper += [([-1.0, 0.0], A[w], 0.0) for w in range(n_groups)]
    upper += [([0.0, 1.0], -A[w], 0.0) for w in range(n_groups) if w not in frozen]
    upper += [([0.0, 0.0], -A[w], -v) for w, v in frozen.items()]
    upper += [([0.0, -1.0], none, -r_floor), ([1.0, 0.0], none, s_cap)]
    res = linprog(
        np.concatenate([costs, none]),
        A_ub=np.array([np.concatenate([x, q]) for x, q, _ in upper]),
        b_ub=np.array([rhs for *_, rhs in upper]),
        A_eq=np.concatenate([[0.0, 0.0], np.ones(n_cols)])[None, :],
        b_eq=[1.0],
        bounds=[(None, None)] * 2 + [(0.0, None)] * n_cols,
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return res.fun


@pytest.mark.parametrize("seed", range(30))
def test_lp_master_matches_highs(seed):
    pytest.importorskip("scipy")
    pool = _initial_pool(fixtures.random_brute_instance(seed), cfg("maximin", "brute"))
    A = pool.A
    n_groups = A.shape[0]
    maximin = _lp_master(pool, _MAX_MIN)
    t_star, s_star = -maximin.value, _lp_master(pool, _MIN_MAX).value
    # Leximin's second round: the groups binding at the maximin level are
    # frozen just below it, and the others stay free (one at least).
    frozen = [w for w in range(n_groups) if maximin.group_duals[w] > 1e-7][: n_groups - 1]
    shapes = [
        dict(costs=_MAX_MIN),
        dict(costs=_MIN_MAX),
        dict(costs=_MAX_MIN, frozen={w: t_star - 1e-8 for w in frozen}),
        # The tie-breaks and the floor search: every group floored or capped.
        dict(costs=_MAX_MIN, s_cap=s_star + 1e-12),
        dict(costs=_MIN_MAX, r_floor=t_star),
        dict(costs=_MIN_MAX, r_floor=0.5 * t_star),
        dict(costs=(1.0, -0.5)),
    ]
    for shape in shapes:
        solution = _lp_master(pool, **shape)
        assert solution.value == pytest.approx(_highs_master(A, **shape), abs=1e-9), shape
        q, p = solution.q, A @ solution.q
        assert q.min() >= 0.0 and abs(q.sum() - 1.0) <= 1e-9
        floors = shape.get("frozen", {})
        for w, floor in floors.items():
            assert p[w] >= floor - 1e-9
        free = [w for w in range(n_groups) if w not in floors]
        c_s, c_r = shape["costs"]
        assert p[free].min() >= shape.get("r_floor", 0.0) - 1e-9
        assert p.max() <= shape.get("s_cap", 1.0) + 1e-9
        assert c_s * p.max() + c_r * p[free].min() <= solution.value + 1e-9
    # The band's max-min LP prices with max-min duals: nonnegative, summing
    # to 1, and the best column scores exactly the max-min value.
    presolve = _lp_master(pool, _MAX_MIN)
    assert -presolve.value == pytest.approx(t_star, abs=1e-9)
    assert presolve.group_duals.min() >= -1e-9
    assert presolve.group_duals.sum() == pytest.approx(1.0, abs=1e-9)
    assert (presolve.group_duals @ A).max() == pytest.approx(t_star, abs=1e-9)


# ---------------------------------------------------------------------------
# Goldilocks floor search
# ---------------------------------------------------------------------------

FLOOR_SEEDS = range(8)


def _floor_curve(instance):
    """The brute pool and its min-max value M(t) with every group floored at
    t, from the band master the floor search solves: the max-min LP, then one
    evaluation per floor, each starting from the last one's basis."""
    pool = _initial_pool(instance, cfg("maximin", "brute"))
    t_max = -_lp_master(pool, _MAX_MIN).value

    def at(t):
        solution = _lp_master(pool, _MIN_MAX, r_floor=t)
        return solution.value, solution.floor_slope

    return t_max, at


@pytest.mark.parametrize("seed", FLOOR_SEEDS)
def test_floor_slope_gives_a_valid_cut(seed):
    # The floor search relies on M(t) + slope(t) * (t' - t) <= M(t') for all t'.
    t_max, at = _floor_curve(fixtures.random_brute_instance(seed))
    grid = [t_max * i / 60 for i in range(1, 61)]
    values = [at(t)[0] for t in grid]
    for t in (t_max * f for f in (0.05, 0.3, 0.55, 0.8, 0.97, 1.0)):
        m, slope = at(t)
        assert slope >= -1e-9
        for t2, m2 in zip(grid, values):
            assert m + slope * (t2 - t) <= m2 + 1e-9


# deviation_delta on random_brute_instance(seed), as found by bisecting the
# crossing of (k/n)/t and minmax(t)/(k/n) over 80 steps.
DELTA_BY_BISECTION = {
    0: 1.0,
    1: 1.125,
    2: 1.75,
    3: 1.2247448713915892,
    4: 1.2857142857142858,
    5: 1.8750000000000002,
    6: 1.6,
    7: 1.0,
}


@pytest.mark.parametrize("seed", FLOOR_SEEDS)
def test_floor_searches_beat_a_fine_floor_grid(seed):
    instance = fixtures.random_brute_instance(seed)
    ideal = instance.k / instance.n
    t_max, at = _floor_curve(instance)
    grid = [(t, at(t)[0]) for t in (t_max * i / 400 for i in range(1, 401))]
    for gamma in (0.5, 1, 4):
        result = solve(instance, cfg(f"goldilocks:{gamma}", "brute"))
        grid_best = min(m / ideal + gamma * ideal / t for t, m in grid)
        assert result.objective_value <= grid_best + 1e-9
    delta = deviation_delta(instance)
    assert delta <= min(max(ideal / t, m / ideal) for t, m in grid) + 1e-9
    assert delta == pytest.approx(DELTA_BY_BISECTION[seed], rel=1e-12)


def test_floor_search_logs_each_evaluation(e2, caplog):
    with caplog.at_level(logging.DEBUG, logger="panelot"):
        result = solve(e2, cfg("goldilocks:1"))
    assert result.objective_value == pytest.approx(2 * ROOT3, abs=1e-9)
    lines = [r.getMessage() for r in caplog.records if r.name == "panelot"]
    evals = [line for line in lines if line.startswith("floor search eval")]
    assert evals
    for line in evals:
        for field in ("t=", "M=", "slope=", "lower=", "upper="):
            assert field in line
    done = [line for line in lines if line.startswith("floor search done")]
    assert done == [done[0]] and f"{len(evals)} evaluations" in done[0]


def test_approximation_ratios_e2(e2):
    min_opt = solve(e2, cfg("maximin")).pi.min()
    max_opt = solve(e2, cfg("minimax")).pi.max()
    gl = solve(e2, cfg("goldilocks:1"))
    ratios = approximation_ratios(gl, min_opt, max_opt)
    assert ratios[0] == pytest.approx(ROOT3 / 2.0, abs=1e-4)  # 0.866
    assert ratios[1] == pytest.approx(3.0 * ROOT3 / 4.0, abs=1e-4)  # 1.299

    maximin = solve(e2, cfg("maximin"))
    assert approximation_ratios(maximin, min_opt, max_opt) == pytest.approx((1.0, 1.5))
    minimax = solve(e2, cfg("minimax"))
    assert approximation_ratios(minimax, min_opt, max_opt) == pytest.approx((2.0 / 3.0, 1.0))


def test_approximation_ratio_nan_when_min_opt_zero(e2):
    result = solve(e2, cfg("maximin"))
    ratio_min, ratio_max = approximation_ratios(result, 0.0, 1.0)
    assert math.isnan(ratio_min)
    assert ratio_max == pytest.approx(1.0)


def test_auto_gammas_resolve(e2):
    balanced = solve(e2, cfg("goldilocks:auto1"))
    assert balanced.objective.gamma == pytest.approx((64.0 / 16.0) * (2.0 / 3.0) * (1.0 / 3.0))
    biased = solve(e2, cfg("goldilocks:auto2"))
    assert biased.objective.gamma is not None and biased.converged


@pytest.mark.parametrize("seed", [14, 42, 46, 60, 71, 90, 139, 165, 181, 201, 233, 241, 275])
def test_auto2_skips_an_absent_pair_with_lower_quota_zero(seed):
    # Each pool lacks a value whose lower quota is 0 (seed 14: (0, 0) on
    # (f2, 0); seed 46: (0, 1) on (f1, 1)). No panel can seat that value, so
    # it says nothing about selection bias, and gamma comes from the others.
    inst = fixtures.random_brute_instance(seed)
    brute, colgen = (solve(inst, cfg("goldilocks:auto2", backend)) for backend in ("brute", "colgen"))
    assert brute.converged and colgen.converged
    assert brute.objective.gamma == colgen.objective.gamma
    assert colgen.objective_value == pytest.approx(brute.objective_value, abs=1e-6)


def test_goldilocks_past_the_cap_restarts_its_lps_from_bases(monkeypatch):
    # On the 36-group pool every branch-and-bound child starts from its
    # parent's basis, and every master from the last one of its shape, so
    # the solve takes a few thousand pivots; it took about 27,000 when every
    # LP started cold, and the value is the one those cold LPs gave.
    from panelot import _simplex

    solve_lp = _simplex.solve_lp
    pivots = []

    def counted(c, A, b, start=None):
        res = solve_lp(c, A, b, start)
        pivots.append(res.pivots)
        return res

    monkeypatch.setattr(_simplex, "solve_lp", counted)
    monkeypatch.setattr(solver, "solve_lp", counted)
    result = solve(fixtures.skew_pool(500, 20, (2, 3, 3, 2)), SolveConfig(objective=parse_objective("goldilocks:1")))
    assert result.converged
    assert result.objective_value == pytest.approx(2.695318608784077, rel=1e-9)
    assert sum(pivots) <= 8000


@pytest.mark.parametrize(
    "pool, objective, bound",
    [
        # 108 and about 2,400 pivots when a cold LP ran phase 1 over one
        # artificial per row; about 73 and 1,400 from the slack crash basis.
        pytest.param(lambda: fixtures.skew_pool(200, 10, (2, 2, 3)), "leximin", 90, id="skew12-leximin"),
        pytest.param(lambda: fixtures.skew_pool(500, 20, (2, 3, 3, 2)), "goldilocks:1", 1800,
                     id="skew36-goldilocks1"),
    ],
)
def test_cold_lps_start_from_a_slack_crash_basis(monkeypatch, pool, objective, bound):
    # Every master row but convexity and leximin's frozen floors, and every
    # bound row of a branch and bound, has a slack that starts basic, so
    # phase 1 has few rows to clear.
    from panelot import _simplex

    solve_lp = _simplex.solve_lp
    pivots = []

    def counted(c, A, b, start=None):
        res = solve_lp(c, A, b, start)
        pivots.append(res.pivots)
        return res

    monkeypatch.setattr(_simplex, "solve_lp", counted)
    monkeypatch.setattr(solver, "solve_lp", counted)
    result = solve(pool(), SolveConfig(objective=parse_objective(objective)))
    assert result.converged
    assert sum(pivots) <= bound


FLOOR_SEARCHES = [
    pytest.param(lambda: solve(fixtures.skew_pool(200, 10, (2, 2, 3)), cfg("goldilocks:1")), 2, id="skew12"),
    pytest.param(lambda: solve(fixtures.linked_fate_instance(), cfg("goldilocks:1")), 2, id="e2"),
    pytest.param(lambda: solve(fixtures.linked_fate_instance(), cfg("goldilocks:0.5", "brute")), 2, id="e2-brute"),
    pytest.param(lambda: deviation_delta(fixtures.linked_fate_instance()), 2, id="e2-delta"),
]
FLOOR_SEARCHES += [
    pytest.param(lambda s=s, b=b: solve(fixtures.random_brute_instance(s), cfg("goldilocks:1", b)), 2,
                 id=f"rand{s}-{b}")
    for s in range(0, 40, 5) for b in ("brute", "colgen")
]
FLOOR_SEARCHES += [
    pytest.param(lambda s=s: deviation_delta(fixtures.random_brute_instance(s)), 2, id=f"rand{s}-delta")
    for s in FLOOR_SEEDS
]
# Every other non-leximin objective; a tie-break makes two masters at least.
ONE_SHAPE_POOLS = {
    "skew12": lambda: fixtures.skew_pool(200, 10, (2, 2, 3)),
    "e2": fixtures.linked_fate_instance,
    **{f"rand{s}": lambda s=s: fixtures.random_brute_instance(s) for s in (0, 10, 20, 30)},
}
FLOOR_SEARCHES += [
    pytest.param(lambda make=make, spec=spec, b=b: solve(make(), cfg(spec, b)),
                 2 if spec.endswith("-tb") else 1, id=f"{name}-{spec}-{b}")
    for name, make in ONE_SHAPE_POOLS.items()
    for spec in ("maximin", "maximin-tb", "minimax", "minimax-tb", "linear:0.5", "nash")
    for b in ("brute", "colgen")
]


@pytest.mark.parametrize("search, masters", FLOOR_SEARCHES)
def test_a_floor_search_makes_one_cold_master_lp(monkeypatch, search, masters):
    # Every LP objective but leximin solves one master shape, so each master
    # starts from the last one's basis: a new column keeps it primal
    # feasible, and so do the max-min pre-solve into the first floor and
    # either extreme into its tie-break; a new floor keeps it dual feasible.
    # Only the very first master starts cold.
    from panelot import _simplex

    solve_warm, solve_lp = _simplex._solve_warm, solver.solve_lp
    starts = []

    def warm(*args):
        res = solve_warm(*args)
        starts[-1] = "warm" if res is not None else "fallback"
        return res

    def counted(c, A, b, start=None):
        starts.append("cold")
        return solve_lp(c, A, b, start)

    monkeypatch.setattr(_simplex, "_solve_warm", warm)
    monkeypatch.setattr(solver, "solve_lp", counted)
    search()
    assert len(starts) >= masters
    assert starts[0] == "cold" and starts[1:] == ["warm"] * (len(starts) - 1)


# ---------------------------------------------------------------------------
# Nash optimality certificate
# ---------------------------------------------------------------------------


def _nash_fw_gap(instance, result):
    """Frank-Wolfe duality gap of a nash result in geometric-mean units,
    computed from the returned distribution and every valid composition:
    geomean * (max_c sum_w seats_wc / p_w - n) / n: the Frank-Wolfe bound on
    the log objective's distance from its optimum over all panel
    distributions, scaled to geometric-mean units."""
    vectors = instance.present_vectors()
    sizes = np.array([instance.group_size(v) for v in vectors], dtype=float)
    index = {v: w for w, v in enumerate(vectors)}
    seats = np.zeros(len(vectors))
    for comp, prob in result.distribution.entries:
        for vector, count in comp.items:
            seats[index[vector]] += prob * count
    p = seats / sizes
    geomean = math.exp(float(sizes @ np.log(p)) / instance.n)
    best = max(sum(count / p[index[v]] for v, count in comp.items) for comp in feasible_compositions(instance))
    return geomean * (best - instance.n) / instance.n


NASH_CERT_POOLS = [pytest.param(lambda s=s: fixtures.random_brute_instance(s), id=f"rand{s}") for s in range(80)]
NASH_CERT_POOLS.append(pytest.param(lambda: fixtures.skew_pool(48, 6, (2, 2, 2)), id="skew8"))


@pytest.mark.parametrize("make", NASH_CERT_POOLS)
def test_nash_results_carry_their_optimality_certificate(make):
    inst = make()
    nash = parse_objective("nash")
    brute_cfg = SolveConfig(objective=nash, backend="brute")
    brute = solve(inst, brute_cfg)
    assert brute.converged
    assert _nash_fw_gap(inst, brute) <= solver._NASH_GAP
    colgen = solve(inst, SolveConfig(objective=nash, backend="colgen"))
    assert colgen.converged
    assert abs(colgen.objective_value - brute.objective_value) <= colgen.certificate + solver._NASH_GAP


@pytest.mark.parametrize("make", NASH_CERT_POOLS)
def test_nash_certificate_bounds_the_gap_when_a_budget_runs_out(monkeypatch, make):
    # One budget at a time: the master's Newton iterations, then the columns
    # (no room past the initial pool). A budget bit when the result is further
    # from the optimum than both tolerances allow; such a result must say it
    # did not converge, and every certificate must bound the gap over all
    # compositions.
    inst = make()
    config = SolveConfig(objective=parse_objective("nash"), eps_colgen=1e-7)
    budgets = [
        {"_NASH_MAX_ITERS": 1, "_NASH_GAP": 1e-12},
        {"_MAX_COLUMNS": len(_initial_pool(inst, config))},
    ]
    for constants in budgets:
        with monkeypatch.context() as patched:
            for name, value in constants.items():
                patched.setattr(solver, name, value)
            result = solve(inst, config)
            nash_gap = solver._NASH_GAP
        gap = _nash_fw_gap(inst, result)
        if gap > config.eps_colgen + nash_gap:
            assert not result.converged
        assert gap <= result.certificate + 1e-12


@pytest.mark.parametrize("make", [fixtures.two_group_instance, lambda: fixtures.random_brute_instance(8)])
def test_uniform_feasible_nash_certificate_is_zero(make):
    # Equal probabilities are feasible here, so the max-min pre-solve returns
    # them and they are exactly nash-optimal (AM-GM); the max-min colgen
    # gap (5.6e-17 on seed 8) is no nash gap.
    inst = make()
    result = solve(inst, SolveConfig(objective=parse_objective("nash")))
    assert result.pi.min() >= inst.k / inst.n - 1e-11
    assert result.certificate == 0.0


def test_nash_master_iteration_budget():
    # The Newton master needs about 30 iterations here; a first-order
    # master needs thousands.
    result = solve(fixtures.skew_pool(100, 10, (3, 3)), SolveConfig(objective=parse_objective("nash")))
    assert result.converged
    assert result.iterations <= 150


# ---------------------------------------------------------------------------
# Error paths and edges
# ---------------------------------------------------------------------------


def test_solve_rejects_structural_exclusion():
    inst = fixtures.excluded_agent_instance()
    with pytest.raises(StructuralExclusionError):
        solve(inst, cfg("maximin"))
    with pytest.raises(StructuralExclusionError):
        solve(inst, cfg("maximin", "brute"))


def test_solve_rejects_infeasible_quotas():
    scheme = FeatureScheme(features=("f",), values={"f": ("0", "1")})
    agents = (("a1", ("1",)), ("a2", ("0",)), ("a3", ("0",)), ("a4", ("0",)))
    inst = Instance(
        scheme=scheme, agents=agents, k=3, quotas={("f", "1"): (2, 2), ("f", "0"): (1, 1)}
    )
    with pytest.raises(NoValidPanelError):
        solve(inst, cfg("maximin"))


def test_single_group_pool_returns_uniform():
    scheme = FeatureScheme(features=("f",), values={"f": ("0", "1")})
    agents = tuple((f"a{i}", ("0",)) for i in range(5))
    inst = Instance(scheme=scheme, agents=agents, k=2, quotas={("f", "0"): (2, 2)})
    result = solve(inst, cfg("goldilocks:1"))
    assert all(v == pytest.approx(0.4) for v in result.pi.pi.values())


@pytest.mark.parametrize("backend", ["brute", "colgen"])
@pytest.mark.parametrize("spec", [
    "maximin", "minimax", "maximin-tb", "minimax-tb", "leximin", "nash",
    "goldilocks:1", "goldilocks:auto1", "goldilocks:auto2", "linear:1",
])
@pytest.mark.parametrize("n, k", [(6, 3), (7, 7)])
def test_single_group_pool_is_one_composition_for_every_objective(n, k, spec, backend):
    # One vector group has one valid composition, all k seats on it, so
    # every objective's optimum is the uniform k/n and the pricing gap is 0.
    scheme = FeatureScheme(features=("f",), values={"f": ("0", "1")})
    inst = Instance(scheme=scheme, agents=tuple((f"a{i}", ("0",)) for i in range(n)), k=k,
                    quotas={("f", "0"): (k, k)})
    result = solve(inst, cfg(spec, backend))
    assert result.converged
    assert result.certificate == 0.0
    assert [comp.items for comp in result.distribution.support()] == [((("0",), k),)]
    assert all(p == pytest.approx(k / n, abs=1e-12) for p in result.pi.values())
    assert result.objective_value == pytest.approx(evaluate(result.objective, [k / n] * n, k, n), abs=1e-12)


@pytest.mark.parametrize("backend", ["brute", "colgen"])
def test_budget_exhaustion_reports_nonconverged(monkeypatch, backend):
    inst = fixtures.starved_minimum_instance()
    monkeypatch.setattr(solver, "_NASH_MAX_ITERS", 1)
    monkeypatch.setattr(solver, "_NASH_GAP", 1e-12)
    result = solve(inst, cfg("nash", backend))
    assert not result.converged
    assert result.certificate is not None and result.certificate > 1e-12


def test_column_budget_exhaustion_returns_partial_result(monkeypatch):
    from panelot.solver import _initial_pool

    # This seed's optimum needs more columns than the initial cover provides.
    inst = fixtures.random_brute_instance(8)
    config = cfg("maximin", eps_colgen=1e-9)
    full = solve(inst, config)
    assert full.converged
    monkeypatch.setattr(solver, "_MAX_COLUMNS", len(_initial_pool(inst, config)))
    starved = solve(inst, config)
    assert not starved.converged
    assert starved.certificate > config.eps_colgen
    assert starved.objective_value >= full.objective_value - 1e-12  # worse or equal maximin


PIN_POOLS = {
    "t1": fixtures.two_group_instance,
    "e1": fixtures.small_group_instance,
    "e2": fixtures.linked_fate_instance,
    "minzero": fixtures.starved_minimum_instance,
    "thm43a": lambda: apply_misreport(*make_lb_instance("thm43", n=72, k=6, n_min=12, c=6)),
    **{f"rand{s}": lambda s=s: fixtures.random_brute_instance(s) for s in range(20)},
}


@pytest.mark.parametrize("name", PIN_POOLS)
def test_pi_is_the_distributions_own_marginals(name):
    # One computation maps composition weights to probabilities, so a
    # solve's pi is its distribution's marginals to the last bit.
    instance = PIN_POOLS[name]()
    for spec in ALL_SPECS:
        for backend in ("colgen", "brute"):
            try:
                result = solve(instance, cfg(spec, backend))
            except PanelotError:  # e.g. auto2 on a pool missing a constrained value
                continue
            assert result.distribution.marginals(instance).pi == result.pi.pi, (spec, backend)


def test_solve_is_deterministic(e2):
    first = solve(e2, cfg("goldilocks:1")).to_json()
    second = solve(e2, cfg("goldilocks:1")).to_json()
    assert first == second


@pytest.mark.parametrize("backend", ["brute", "colgen"])
@pytest.mark.parametrize("spec", ALL_SPECS)
def test_solve_result_json_is_plain_python(e2, backend, spec):
    payload = solve(e2, cfg(spec, backend)).to_json()
    assert json.loads(json.dumps(payload)) == payload
    assert isinstance(payload["certificate"], float)


def test_solve_result_json_schema(t1):
    result = solve(t1, cfg("goldilocks:1"))
    payload = result.to_json()
    assert set(payload) == {
        "objective", "gamma", "value", "converged", "certificate", "pi", "compositions", "iterations"
    }
    assert payload["objective"] == "goldilocks:1"
    assert payload["gamma"] == 1.0
    assert sum(c["prob"] for c in payload["compositions"]) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Legacy greedy baseline
# ---------------------------------------------------------------------------


def test_legacy_t1_always_valid(t1):
    for seed in range(25):
        panel = solve_legacy(t1, seed=seed)
        assert panel.is_valid(t1)
        counts = Counter(t1.vector_of[a] for a in panel.members)
        assert counts[("0",)] == 1 and counts[("1",)] == 1


def test_legacy_unique_panel_instance():
    scheme = FeatureScheme(features=("f",), values={"f": ("0", "1")})
    agents = (("a1", ("1",)), ("a2", ("0",)))
    inst = Instance(scheme=scheme, agents=agents, k=2, quotas={("f", "1"): (1, 1), ("f", "0"): (1, 1)})
    assert solve_legacy(inst, seed=3).members == ("a1", "a2")


def test_legacy_restart_limit(monkeypatch):
    scheme = FeatureScheme(features=("f",), values={"f": ("0", "1")})
    agents = (("a1", ("1",)), ("a2", ("0",)), ("a3", ("0",)), ("a4", ("0",)))
    inst = Instance(
        scheme=scheme, agents=agents, k=3, quotas={("f", "1"): (2, 2), ("f", "0"): (1, 1)}
    )
    monkeypatch.setattr(solver, "_LEGACY_RESTARTS", 20)
    with pytest.raises(RestartLimitError):
        solve_legacy(inst, seed=1)


def test_legacy_e2_favors_the_lone_agent(e2):
    counts = Counter()
    runs = 3000
    for seed in range(runs):
        for agent in solve_legacy(e2, seed=seed).members:
            counts[agent] += 1
    groups = {
        vector: sum(counts[a] for a in members) / (len(members) * runs)
        for vector, members in e2.groups.items()
    }
    lone = groups[("0", "1")]
    assert all(lone > prob for vector, prob in groups.items() if vector != ("0", "1"))
    assert lone > 0.7


def test_duplicated_pool_solves_scale(e1):
    doubled = duplicate_pool(e1, 2)
    result = solve(doubled, cfg("maximin"))
    assert result.pi.min() == pytest.approx(0.25, abs=1e-9)
    assert result.pi.total() == pytest.approx(e1.k)
