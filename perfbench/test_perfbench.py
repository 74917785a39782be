"""Tests of the benchmark's own code: input generation, span arithmetic, the
output checks, and agreement between BENCHMARK.json and run.py.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import pools  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def test_skew_vectors_are_deterministic_per_seed():
    assert pools.skew_vectors(7, 200, (2, 2, 3)) == pools.skew_vectors(7, 200, (2, 2, 3))
    assert pools.skew_vectors(7, 200, (2, 2, 3)) != pools.skew_vectors(8, 200, (2, 2, 3))


def test_skew_recipe_values_and_quotas():
    vectors = pools.skew_vectors(0, 500, (2, 3))
    assert {v[0] for v in vectors} == {"0", "1"} and {v[1] for v in vectors} == {"0", "1", "2"}
    counts = Counter(v[1] for v in vectors)
    assert counts["0"] > counts["1"]  # Exp(0.6) puts 45% of the mass on 0
    quotas = {(f, v): (lo, hi) for f, v, lo, hi in pools.skew_quotas(10, (2, 3))}
    assert quotas[("f1", "0")] == (4, 6) and quotas[("f2", "2")] == (3, 4)


def test_pool_seed_zero_matches_the_documented_skew12_groups():
    sizes = sorted(pools.ladder_pools()["skew12"].group_sizes().values())
    assert sizes == [9, 11, 12, 12, 15, 17, 17, 17, 22, 22, 22, 24]


def test_written_pool_depends_only_on_the_seed(tmp_path):
    pool = pools.ladder_pools()["skew9"]
    first, second, other = (tmp_path / name for name in ("a", "b", "c"))
    for directory, seed in ((first, 3), (second, 3), (other, 4)):
        directory.mkdir()
        pools.write_pool(pool, directory, seed)
    for name in ("skew9.csv", "skew9_quotas.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    assert (first / "skew9.csv").read_bytes() != (other / "skew9.csv").read_bytes()
    rows3, rows4 = pools.agent_rows(pool, 3), pools.agent_rows(pool, 4)
    assert len({a for a, _ in rows3}) == pool.n
    assert Counter(v for _, v in rows3) == Counter(v for _, v in rows4) == Counter(pool.vectors)


def _span(name, start, end, parent, op=0):
    return spans.Span(name, start, end, parent, op)


def test_self_time_is_duration_minus_direct_children():
    trace = [
        _span("cli", 0.0, 10.0, None),
        _span("solver.solve", 1.0, 7.0, 0),
        _span("panels.panel_oracle", 2.0, 3.0, 1),
        _span("simplex.solve_lp", 3.5, 5.0, 1),
        _span("model.load_instance", 8.0, 9.0, 0),
    ]
    own = spans.self_times(trace)
    assert own == [10.0 - 6.0 - 1.0, 6.0 - 1.0 - 1.5, 1.0, 1.5, 1.0]
    assert sum(own) == trace[0].duration


def test_layer_totals_count_nested_same_name_time_once_and_filter_ops():
    trace = [
        _span("cli", 0.0, 10.0, None, op=0),
        _span("solver.solve", 1.0, 9.0, 0, op=0),
        _span("solver.solve", 2.0, 4.0, 1, op=0),
        _span("cli", 20.0, 21.0, None, op=1),
    ]
    trace[1].attrs = {"iterations": 3, "site": "panelot.cli"}
    trace[2].attrs = {"iterations": 5, "site": "panelot.solver"}
    totals = spans.layer_totals(trace, {0})
    assert totals["solver.solve"]["calls"] == 2
    assert totals["solver.solve"]["s"] == 8.0
    assert totals["solver.solve"]["self_s"] == 6.0 + 2.0
    assert totals["solver.solve"]["iterations"] == 8 and totals["solver.solve"]["iterations_max"] == 5
    assert totals["cli"]["calls"] == 1 and totals["cli"]["self_s"] == 2.0


def test_end_closes_spans_left_open_by_an_interrupted_op():
    tracer = spans.Tracer()
    root = tracer.begin(spans.CLI_SPAN, 0)
    tracer.begin("solver.solve", 0)
    tracer.begin("panels.panel_oracle", 0)
    tracer.end(root)
    assert all(s.end >= s.start > 0 for s in tracer.spans)
    assert tracer.spans[1].end == tracer.spans[0].end


def test_install_wraps_every_site_and_uninstall_restores_it():
    import panelot.cli
    import panelot.solver

    originals = (panelot.cli.solve, panelot.solver.panel_oracle)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert panelot.cli.solve is not originals[0]
        assert tracer.present == set(spans.LAYERS)
    finally:
        tracer.uninstall()
    assert (panelot.cli.solve, panelot.solver.panel_oracle) == originals


def test_benchmark_json_matches_run_py():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_reference_enumeration_agrees_with_panelot(tmp_path):
    import reference
    from panelot.model import load_instance
    from panelot.panels import feasible_compositions

    pool = pools.ladder_pools()["skew8"]
    _, seats = reference.compositions(pool)
    agents, quotas = pools.write_pool(pool, tmp_path, 0)
    instance = load_instance(agents, quotas, pool.k)
    assert len(seats) == len(feasible_compositions(instance)) == 501


def _run_select(tmp_path, op):
    """Run one real select op at seed 0; return its context and output directory."""
    pool = pools.ladder_pools()[op.pool]
    pools.write_pool(pool, tmp_path, 0)
    ctx = run.Context(0, tmp_path, {op.pool: pool}, {op.pool: dict(pools.agent_rows(pool, 0))})
    out = tmp_path / "out"
    assert run.call_cli(run._argv(op, ctx, out), 60.0)[0] == "ok"
    return ctx, out


def _rewrite_select(out, edit):
    (path,) = out.glob("select_*.json")
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")


def test_select_check_passes_a_real_result_and_catches_tampering(tmp_path):
    op = run.THM43A_LEXIMIN
    ctx, out = _run_select(tmp_path, op)
    assert op.check(out, ctx) is None
    _rewrite_select(out, lambda p: p.update(value=p["value"] * 1.01))
    assert "pi gives" in op.check(out, ctx)
    _rewrite_select(out, lambda p: p["pi"].update({a: v * 1.01 for a, v in p["pi"].items()}))
    assert "sums to" in op.check(out, ctx)


def test_round_check_catches_a_ticket_off_quota(tmp_path):
    pool = pools.thm43_attacked_pool()
    ids = dict(pools.agent_rows(pool, 0))
    by_vector = {}
    for agent, vector in ids.items():
        by_vector.setdefault("".join(vector), []).append(agent)
    valid = by_vector["000"][:2] + by_vector["110"][:2] + by_vector["111"][:2]
    off_quota = by_vector["000"][:3] + by_vector["110"][:1] + by_vector["111"][:2]
    lottery = tmp_path / "lottery_thm43a.txt"
    lottery.write_text(f"1\t{','.join(valid)}\n2\t{','.join(valid)}\n", encoding="utf-8")
    assert checks.check_round(tmp_path, pool, ids, 2) is None
    assert "tickets" in checks.check_round(tmp_path, pool, ids, 3)
    lottery.write_text(f"1\t{','.join(valid)}\n2\t{','.join(off_quota)}\n", encoding="utf-8")
    assert "quota" in checks.check_round(tmp_path, pool, ids, 2)


def test_a_site_that_is_gone_leaves_its_layer_absent(monkeypatch):
    monkeypatch.setattr(spans, "SITES", [
        ("simplex.solve_lp", "panelot.solver", "no_such_function", None),
        ("solver.solve", "panelot.cli", "solve", None),
    ])
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.present == {"solver.solve"}
