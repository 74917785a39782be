"""Acceptance suite: the ten exit criteria, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see every line. The
tolerances are pinned here and nowhere else. Criterion 05 encodes a
qualitative separation that is structurally impossible at its pinned
parameters (both algorithms produce the identical assignment there, see the
companion high-c test that demonstrates the direction where it does hold);
it is implemented faithfully and expected to fail.
"""

import itertools
import math
import statistics
import time

import numpy as np
import pytest

from conftest import panel_composition
from panelot import fixtures, solver
from panelot.adversary import (
    apply_misreport,
    make_lb_instance,
    manip_metric_exhaustive,
    worst_mu_manipulator,
)
from panelot.errors import CoalitionTooLargeError
from panelot.model import duplicate_pool
from panelot.objectives import gini, parse_objective
from panelot.rounding import lottery_marginals, pipage_round
from panelot.solver import SolveConfig, deviation_delta, solve

ROOT3 = math.sqrt(3.0)


def _cfg(spec: str, backend: str = "colgen", **kw) -> SolveConfig:
    kw.setdefault("eps_colgen", 1e-7)
    return SolveConfig(objective=parse_objective(spec), backend=backend, **kw)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_backend_equivalence():
    start = time.monotonic()
    worst = {"maximin": 0.0, "minimax": 0.0, "goldilocks:1": 0.0, "nash": 0.0}
    tol = {"maximin": 1e-5, "minimax": 1e-5, "goldilocks:1": 1e-5, "nash": 1e-4}
    for seed in range(100):
        inst = fixtures.random_brute_instance(seed)
        for spec in worst:
            brute = solve(inst, _cfg(spec, "brute")).objective_value
            colgen = solve(inst, _cfg(spec, "colgen")).objective_value
            worst[spec] = max(worst[spec], abs(brute - colgen))
    elapsed = time.monotonic() - start
    ok = elapsed < 60.0 and all(worst[s] <= tol[s] for s in worst)
    detail = (
        f"100 instances in {elapsed:.1f}s; worst gaps "
        + ", ".join(f"{s}={worst[s]:.2e}" for s in worst)
    )
    _report(1, ok, detail)


def test_criterion_02_e2_closed_forms_vs_grid(e2):
    start = time.monotonic()
    d = np.linspace(1e-9, 1.0, 1_000_001)
    p10 = d / 3.0
    p00 = (2.0 - d) / 2.0
    min_vec = np.minimum(p10, p00)
    max_vec = np.maximum(d, p00)
    ideal = e2.k / e2.n

    grid_maximin_d = float(d[int(np.argmax(min_vec))])
    grid_maximin_value = float(np.max(min_vec))
    grid_minimax_d = float(d[int(np.argmin(max_vec))])
    grid_minimax_value = float(np.min(max_vec))
    gl_vec = max_vec / ideal + ideal / min_vec
    grid_gl_d = float(d[int(np.argmin(gl_vec))])
    grid_gl_value = float(np.min(gl_vec))

    lone = e2.groups[("0", "1")][0]
    maximin = solve(e2, _cfg("maximin"))
    minimax = solve(e2, _cfg("minimax"))
    gl = solve(e2, _cfg("goldilocks:1"))
    elapsed = time.monotonic() - start

    checks = [
        abs(gl.pi.pi[lone] - ROOT3 / 2.0) <= 1e-4,
        abs(gl.pi.pi[lone] - grid_gl_d) <= 1e-4,
        abs(gl.objective_value - 2.0 * ROOT3) <= 1e-4,
        abs(gl.objective_value - grid_gl_value) <= 1e-4,
        abs(gl.pi.min() - ROOT3 / 6.0) <= 1e-4,
        abs(gl.pi.max() - ROOT3 / 2.0) <= 1e-4,
        abs(maximin.pi.min() - 1.0 / 3.0) <= 1e-5,
        abs(maximin.pi.min() - grid_maximin_value) <= 1e-5,
        abs(maximin.pi.pi[lone] - grid_maximin_d) <= 1e-4,
        abs(minimax.pi.max() - 2.0 / 3.0) <= 1e-5,
        abs(minimax.pi.max() - grid_minimax_value) <= 1e-5,
        abs(grid_minimax_d - 2.0 / 3.0) <= 1e-5,
        elapsed < 5.0,
    ]
    detail = (
        f"gl d2={gl.pi.pi[lone]:.6f} value={gl.objective_value:.6f} "
        f"maximin min={maximin.pi.min():.6f} minimax max={minimax.pi.max():.6f} in {elapsed:.1f}s"
    )
    _report(2, all(checks), detail)


def test_criterion_03_instance_b_closed_forms(instance_b):
    _, _, attacked = instance_b
    lone = attacked.groups[("0", "1", "0")][0]
    lex = solve(attacked, _cfg("leximin"))
    nash = solve(attacked, _cfg("nash"))
    column_ok = True
    for spec in ("maximin", "minimax", "leximin", "nash", "goldilocks:1"):
        result = solve(attacked, _cfg(spec))
        probs = result.pi.group_probabilities(attacked, tol=1e-6)
        column_ok &= abs(probs[("1", "1", "1")] - 2.0 / 9.0) <= 1e-6
    ok = (
        abs(lex.pi.pi[lone] - 0.125) <= 1e-5
        and abs(nash.pi.pi[lone] - 2.0 / 21.0) <= 1e-4
        and column_ok
    )
    _report(
        3,
        ok,
        f"leximin d2={lex.pi.pi[lone]:.6f} (0.125) nash d2={nash.pi.pi[lone]:.6f} "
        f"({2.0/21.0:.6f}) forced column prob ok={column_ok}",
    )


def test_criterion_04_deviation_sandwich():
    violations = 0
    for seed in range(200, 250):
        inst = fixtures.random_brute_instance(seed)
        delta = deviation_delta(inst)
        result = solve(inst, _cfg("goldilocks:1", "brute"))
        ideal = inst.k / inst.n
        lo = ideal / (2.0 * delta) - 1e-6
        hi = ideal * 2.0 * delta + 1e-6
        if result.pi.min() < lo or result.pi.max() > hi:
            violations += 1
    _report(4, violations == 0, f"{violations} sandwich violations across 50 instances")


def _best_coalition_gain(truthful, misreport, attacked, spec: str) -> float:
    config = _cfg(spec)
    base = solve(truthful, config).pi.group_probabilities(truthful, tol=1e-6)
    post = solve(attacked, config).pi.group_probabilities(attacked, tol=1e-6)
    gains = []
    for agent in misreport.coalition:
        before = base[truthful.vector_of[agent]]
        after = post[attacked.vector_of[agent]] if agent in attacked.vector_of else 0.0
        gains.append(after - before)
    return max(gains)


def test_criterion_05_manipulation_separation(instance_b):
    truthful, misreport, attacked = instance_b
    gl_gain = _best_coalition_gain(truthful, misreport, attacked, "goldilocks:1")
    lex_gain = _best_coalition_gain(truthful, misreport, attacked, "leximin")
    ok = gl_gain < lex_gain - 1e-9
    _report(
        5,
        ok,
        f"c=6: goldilocks gain {gl_gain:.9f} vs leximin gain {lex_gain:.9f} "
        "(strict separation required)",
    )


def test_manipulation_separation_holds_at_large_c():
    # Companion evidence: at the largest in-range coalition for this family
    # the separation direction is strict.
    truthful, misreport = make_lb_instance("thm43", n=120, k=6, n_min=20, c=14)
    attacked = apply_misreport(truthful, misreport)
    gl_gain = _best_coalition_gain(truthful, misreport, attacked, "goldilocks:1")
    lex_gain = _best_coalition_gain(truthful, misreport, attacked, "leximin")
    print(f"large-c regime: goldilocks gain {gl_gain:.6f} < leximin gain {lex_gain:.6f}")
    assert gl_gain < lex_gain - 1e-6


def test_criterion_06_e1_exact_metrics(e1):
    config = _cfg("maximin")
    got_int = manip_metric_exhaustive(e1, config, c=1, metric="int").value
    got_ext = manip_metric_exhaustive(e1, config, c=1, metric="ext").value
    got_comp = manip_metric_exhaustive(e1, config, c=1, metric="comp").value
    ok = (
        abs(got_int - 0.0) <= 1e-6
        and abs(got_ext - 1.0 / 6.0) <= 1e-6
        and abs(got_comp - 0.4) <= 1e-6
    )
    _report(6, ok, f"int={got_int:.6f} ext={got_ext:.6f} comp={got_comp:.6f}")


def test_criterion_07_pipage_statistics(t1, e2):
    start = time.monotonic()
    ok = True
    details = []
    for label, inst in (("t1", t1), ("e2", e2)):
        result = solve(inst, _cfg("goldilocks:1"))
        support = set(result.distribution.support())
        m, runs = 1000, 1000
        per_agent = {a: [] for a in inst.agent_ids}
        mins, maxes = [], []
        for seed in range(runs):
            lottery = pipage_round(result.distribution, inst, m, seed=seed)
            ok &= len(lottery.tickets) == m
            ok &= all(panel_composition(p, inst) in support for p in set(lottery.tickets))
            rounded = lottery_marginals(inst, lottery)
            ok &= all(abs(v * m - round(v * m)) < 1e-9 for v in rounded.pi.values())
            for agent, value in rounded.pi.items():
                per_agent[agent].append(value)
            mins.append(rounded.min())
            maxes.append(rounded.max())
        for agent, values in per_agent.items():
            mean = statistics.fmean(values)
            std = statistics.pstdev(values)
            target = result.pi.pi[agent]
            if std == 0.0:
                ok &= abs(mean - target) < 1e-12
            else:
                ok &= abs(mean - target) <= 3.0 * std / math.sqrt(runs)
        std_min = statistics.pstdev(mins)
        std_max = statistics.pstdev(maxes)
        ok &= std_min <= 0.0015 and std_max <= 0.0015
        details.append(f"{label}: std_min={std_min:.6f} std_max={std_max:.6f}")
    elapsed = time.monotonic() - start
    ok &= elapsed < 30.0
    _report(7, ok, "; ".join(details) + f" in {elapsed:.1f}s")


def test_criterion_08_axiom_suite(monkeypatch, t1, e1):
    # Fixtures where perfectly equal probabilities are feasible, every
    # objective in the grammar, both backends.
    instances = [t1, e1, duplicate_pool(t1, 3)]
    specs = [
        "maximin",
        "minimax",
        "maximin-tb",
        "minimax-tb",
        "leximin",
        "nash",
        "goldilocks:1",
        "goldilocks:auto1",
        "goldilocks:auto2",
        "linear:1",
    ]
    monkeypatch.setattr(solver, "_FREEZE_SLACK", 1e-12)
    worst_dev = 0.0
    worst_gini = 0.0
    for inst, spec, backend in itertools.product(instances, specs, ("brute", "colgen")):
        config = _cfg(spec, backend, eps_colgen=1e-9)
        result = solve(inst, config)
        ideal = inst.k / inst.n
        dev = max(abs(v - ideal) for v in result.pi.pi.values())
        worst_dev = max(worst_dev, dev)
        worst_gini = max(worst_gini, gini(result.pi))
        assert result.pi.anonymity_gap(inst) == 0.0
    ok = worst_dev <= 0.01 + 1e-6 and worst_gini <= 1e-9
    _report(8, ok, f"worst |pi - k/n| = {worst_dev:.2e}, worst gini = {worst_gini:.2e}")


def test_criterion_09_structural_exclusion(e1):
    excluded = fixtures.excluded_agent_instance()
    fairness = manip_metric_exhaustive(excluded, _cfg("maximin"), c=1, metric="fairness")
    exact_zero = fairness.value == 0.0
    rejected = False
    try:
        manip_metric_exhaustive(e1, _cfg("maximin"), c=1, metric="int", strict=True)
    except CoalitionTooLargeError:
        rejected = True
    _report(
        9,
        exact_zero and rejected,
        f"fairness under exclusion = {fairness.value} (exact 0), strict harness rejects "
        f"oversized coalition = {rejected}",
    )


def test_criterion_10_bench_determinism(tmp_path):
    from panelot.cli import main

    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    code_a = main(["--seed", "42", "--out", str(out_a), "bench"])
    code_b = main(["--seed", "42", "--out", str(out_b), "bench"])
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    identical = files_a == files_b and all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes() for name in files_a
    )
    ok = code_a == 0 and code_b == 0 and identical
    _report(10, ok, f"bench artifacts {files_a} byte-identical = {identical}")
