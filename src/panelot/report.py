"""Plot-ready metric tables: extremal probabilities, approximation ratios,
feature-drop sweeps, and rounding summaries.

Everything is emitted as rows of plain dicts so the CSV and JSON writers
stay trivial; floats are formatted with six decimals for diff-stable
artifacts, with NaN spelling out undefined ratios.
"""

from __future__ import annotations

import csv
import json
import math
import random
import statistics
from dataclasses import replace
from pathlib import Path

from .adversary import drop_features
from .errors import ValidationError
from .model import Instance
from .objectives import gini, parse_objective
from .panels import CompositionDistribution
from .rounding import lottery_marginals, pipage_round, rounding_bounds
from .solver import SolveConfig, SolveResult, approximation_ratios, solve


def run_record(instance: Instance, result: SolveResult) -> dict:
    """One solve as a comparison-table row, after re-checking its mass (k),
    its anonymity and its extremes, which must bracket k/n."""
    pi = result.pi
    if abs(pi.total() - instance.k) > 1e-6:
        raise ValidationError(f"probabilities sum to {pi.total()}, expected k={instance.k}")
    gap = pi.anonymity_gap(instance)
    if gap > 0.01 + 1e-6:
        raise ValidationError(f"assignment violates anonymity (gap {gap})")
    ideal = instance.k / instance.n
    if pi.min() > ideal + 1e-9 or pi.max() < ideal - 1e-9:
        raise ValidationError(f"extremes ({pi.min()}, {pi.max()}) cannot bracket k/n={ideal}")
    return {
        "instance_label": instance.label,
        "objective": result.objective.spec_string(),
        "n": instance.n,
        "k": instance.k,
        "vector_count": len(instance.groups),
        "min_group_size": instance.min_group_size(),
        "min_prob": pi.min(),
        "max_prob": pi.max(),
        "gini": gini(pi),
        "objective_value": result.objective_value,
        "converged": result.converged,
    }


def _solve_spec(instance: Instance, spec: str, config: SolveConfig) -> SolveResult:
    return solve(instance, replace(config, objective=parse_objective(spec)))


def _extremes_and_results(
    instance: Instance, specs: list[str], config: SolveConfig
) -> tuple[SolveResult, SolveResult, list[SolveResult]]:
    """The maximin and minimax solves, then each spec's result in order; a
    spec named ``maximin`` or ``minimax`` reuses that solve."""
    extremes = {spec: _solve_spec(instance, spec, config) for spec in ("maximin", "minimax")}
    results = [extremes[spec] if spec in extremes else _solve_spec(instance, spec, config) for spec in specs]
    return extremes["maximin"], extremes["minimax"], results


def table_maxes_mins(
    instance: Instance,
    algorithms: list[str],
    config: SolveConfig,
) -> list[dict]:
    """Approximation-ratio table: how close each algorithm's extremes come to
    the optimal minimum (a maximin solve) and optimal maximum (minimax).
    """
    maximin, minimax, results = _extremes_and_results(instance, algorithms, config)
    min_opt = maximin.pi.min()
    max_opt = minimax.pi.max()

    rows = []
    for spec, result in zip(algorithms, results):
        min_ratio, max_ratio = approximation_ratios(result, min_opt, max_opt)
        rows.append(
            {
                "instance": instance.label,
                "algorithm": spec,
                "ratio_min": min_ratio,
                "ratio_max": max_ratio,
                "min_prob": result.pi.min(),
                "max_prob": result.pi.max(),
                "gini": gini(result.pi),
                "converged": result.converged,
            }
        )
    return rows


def feature_drop_sweep(
    instance: Instance,
    objectives: list[str],
    max_drop: int,
    config: SolveConfig,
) -> list[dict]:
    """Solve every objective as quota constraints are peeled off, most biased
    feature first, alongside the optimal-extremes envelope."""
    if max_drop >= len(instance.scheme.features):
        raise ValidationError("max_drop must leave at least one feature")
    rows = []
    for drops in range(max_drop + 1):
        reduced = drop_features(instance, drops)
        maximin, minimax, results = _extremes_and_results(reduced, objectives, config)
        for spec, result in zip(objectives, results):
            rows.append(
                {
                    "drops": drops,
                    "objective": spec,
                    "min_prob": result.pi.min(),
                    "max_prob": result.pi.max(),
                    "min_opt": maximin.pi.min(),
                    "max_opt": minimax.pi.max(),
                }
            )
    return rows


def lottery_stats(
    instance: Instance,
    dist: CompositionDistribution,
    m: int,
    runs: int,
    seed: int,
) -> dict:
    """Means and standard deviations of the per-run minimum and maximum
    ticket-count probabilities over ``runs`` seeded lottery draws."""
    if runs < 1:
        raise ValidationError("runs must be at least 1")
    rng = random.Random(seed)
    mins, maxes = [], []
    for _ in range(runs):
        lottery = pipage_round(dist, instance, m, rng.randrange(2**63))
        rounded = lottery_marginals(instance, lottery)
        mins.append(rounded.min())
        maxes.append(rounded.max())
    return {
        "m": m,
        "runs": runs,
        "mean_min": statistics.fmean(mins),
        "mean_max": statistics.fmean(maxes),
        "std_min": statistics.pstdev(mins) if runs > 1 else 0.0,
        "std_max": statistics.pstdev(maxes) if runs > 1 else 0.0,
    }


def rounding_report(
    instance: Instance,
    objective: str,
    m: int,
    runs: int,
    seed: int,
    config: SolveConfig,
) -> dict:
    """``lottery_stats`` for one solve, with the optimal extremes and the two
    theoretical deviation bounds for reference."""
    result = _solve_spec(instance, objective, config)
    stats = lottery_stats(instance, result.distribution, m, runs, seed)
    b1, b2 = rounding_bounds(instance.k, max(len(instance.groups), 2), m)
    return {
        "instance": instance.label,
        "objective": objective,
        **stats,
        "min_prob_opt": result.pi.min(),
        "max_prob_opt": result.pi.max(),
        "bound_k_over_m": b1,
        "bound_vector_count": b2,
    }


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "NaN" if math.isnan(value) else f"{value:.6f}"
    return str(value)


def write_csv(rows: list[dict], path: str | Path) -> None:
    if not rows:
        raise ValidationError("refusing to write an empty table")
    fieldnames = list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_format_cell(row[name]) for name in fieldnames])


def _jsonable(value):
    if isinstance(value, float):
        return None if math.isnan(value) else round(value, 6)
    return value


def write_json(payload, path: str | Path) -> None:
    if isinstance(payload, list):
        payload = [{k: _jsonable(v) for k, v in row.items()} for row in payload]
    elif isinstance(payload, dict):
        payload = {k: _jsonable(v) for k, v in payload.items()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
