import csv
import json

import pytest

from panelot.errors import ValidationError
from panelot.model import FeatureScheme, Instance
from panelot.objectives import parse_objective
from panelot.panels import ProbabilityAssignment
from panelot.report import (
    feature_drop_sweep,
    rounding_report,
    run_record,
    table_maxes_mins,
    write_csv,
    write_json,
)
from panelot.solver import SolveConfig, solve


def cfg(spec: str = "goldilocks:1") -> SolveConfig:
    return SolveConfig(objective=parse_objective(spec), eps_colgen=1e-7)


def test_run_record_from_solve(t1):
    result = solve(t1, cfg("maximin"))
    record = run_record(t1, result)
    assert record["min_prob"] == pytest.approx(0.5)
    assert record["gini"] == pytest.approx(0.0, abs=1e-12)
    assert record["vector_count"] == 2 and record["min_group_size"] == 2


def test_run_record_rejects_impossible_extremes(t1):
    # Every probability 2e-7 above k/n: the mass is within the 1e-6 check,
    # but a minimum above k/n cannot come from a mass-k assignment.
    result = solve(t1, cfg("maximin"))
    result.pi = ProbabilityAssignment({a: p + 2e-7 for a, p in result.pi.pi.items()})
    with pytest.raises(ValidationError, match="cannot bracket"):
        run_record(t1, result)


def test_table_maxes_mins_e2(e2):
    rows = table_maxes_mins(e2, ["maximin", "minimax", "goldilocks:1"], cfg())
    by_algo = {row["algorithm"]: row for row in rows}
    assert by_algo["maximin"]["ratio_min"] == 1.0
    assert by_algo["maximin"]["ratio_max"] == pytest.approx(1.5)
    assert by_algo["minimax"]["ratio_max"] == 1.0
    assert by_algo["minimax"]["ratio_min"] == pytest.approx(2.0 / 3.0)
    assert by_algo["goldilocks:1"]["ratio_min"] == pytest.approx(0.866, abs=1e-3)
    assert by_algo["goldilocks:1"]["ratio_max"] == pytest.approx(1.299, abs=1e-3)


def test_table_uniform_instance_all_ones(t1):
    rows = table_maxes_mins(t1, ["maximin", "minimax", "leximin", "nash", "goldilocks:1"], cfg())
    for row in rows:
        assert row["ratio_min"] == pytest.approx(1.0, abs=1e-9)
        assert row["ratio_max"] == pytest.approx(1.0, abs=1e-9)


def test_feature_drop_sweep_envelope():
    # Two features, only one of them binding: dropping it frees the pool.
    scheme = FeatureScheme(features=("f", "g"), values={"f": ("0", "1"), "g": ("0", "1")})
    agents = []
    idx = 0
    for f_val, g_val, count in (("0", "0", 3), ("0", "1", 3), ("1", "0", 1), ("1", "1", 1)):
        for _ in range(count):
            idx += 1
            agents.append((f"a{idx}", (f_val, g_val)))
    inst = Instance(
        scheme=scheme,
        agents=tuple(agents),
        k=2,
        quotas={("f", "0"): (1, 1), ("f", "1"): (1, 1)},
    )
    rows = feature_drop_sweep(inst, ["goldilocks:1"], max_drop=1, config=cfg())
    by_drop = {(row["drops"], row["objective"]): row for row in rows}
    constrained = by_drop[(0, "goldilocks:1")]
    free = by_drop[(1, "goldilocks:1")]
    # Envelope: optimal min never shrinks, optimal max never grows.
    assert free["min_opt"] >= constrained["min_opt"] - 1e-9
    assert free["max_opt"] <= constrained["max_opt"] + 1e-9
    # Unconstrained pool: everyone lands exactly on k/n.
    assert free["min_prob"] == pytest.approx(inst.k / inst.n, abs=1e-9)
    assert free["max_prob"] == pytest.approx(inst.k / inst.n, abs=1e-9)
    # Objective extremes always stay inside the envelope.
    for row in rows:
        assert row["min_prob"] <= row["min_opt"] + 1e-9
        assert row["max_prob"] >= row["max_opt"] - 1e-9


def test_rounding_report_t1(t1):
    summary = rounding_report(t1, "maximin", m=1000, runs=200, seed=42, config=cfg())
    assert summary["mean_min"] == pytest.approx(0.5, abs=1e-12)
    assert summary["mean_max"] == pytest.approx(0.5, abs=1e-12)
    assert summary["std_min"] <= 0.0015
    assert summary["std_max"] <= 0.0015
    assert summary["bound_k_over_m"] == pytest.approx(t1.k / 1000)


def test_write_csv_formats_six_decimals(tmp_path):
    rows = [{"name": "x", "value": 1.23456789, "ratio": float("nan"), "flag": True}]
    path = tmp_path / "table.csv"
    write_csv(rows, path)
    text = path.read_text()
    assert "1.234568" in text
    assert "NaN" in text
    assert "true" in text
    parsed = list(csv.reader(text.splitlines()))
    assert parsed[0] == ["name", "value", "ratio", "flag"]


def test_write_json_rounds_and_nans(tmp_path):
    path = tmp_path / "table.json"
    write_json([{"v": 0.123456789, "bad": float("nan")}], path)
    payload = json.loads(path.read_text())
    assert payload[0]["v"] == 0.123457
    assert payload[0]["bad"] is None


def test_write_csv_refuses_empty(tmp_path):
    with pytest.raises(ValidationError):
        write_csv([], tmp_path / "x.csv")
