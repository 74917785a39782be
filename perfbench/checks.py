"""Correctness checks on the CLI's output files.

Each check returns None when the output is right, else a one-line reason.
They read only what the output formats keep stable: ``value``, ``converged``
and ``pi`` from a select result, the ticket lines of a lottery, and the
``value`` column of a manip row.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from pathlib import Path

from pools import Pool

PI_SUM_TOL = 1e-6
VALUE_REL_TOL = 1e-6
OPTIMUM_TOL = 1e-7  # no distribution beats the LP optimum by more than solver noise
COLGEN_TOL = 1e-3 + 1e-9  # the CLI's default --eps-colgen, in probability units here


def _only(out: Path, pattern: str) -> Path:
    found = sorted(out.glob(pattern))
    if len(found) != 1:
        raise FileNotFoundError(f"expected one {pattern} in the output, found {len(found)}")
    return found[0]


def objective_value(spec: str, values: list[float], k: int) -> float:
    """The value each objective reports for an assignment (lower is better)."""
    lo, hi, n = min(values), max(values), len(values)
    if spec in ("maximin", "leximin"):
        return -lo
    if spec == "nash":
        return 0.0 if lo <= 0.0 else -math.exp(sum(math.log(v) for v in values) / n)
    if spec.startswith("goldilocks:"):
        ideal = k / n
        return math.inf if lo <= 0.0 else hi / ideal + float(spec.split(":")[1]) * ideal / lo
    raise ValueError(f"no reference evaluation for objective {spec!r}")


def check_select(out: Path, pool: Pool, ids: dict[str, tuple[str, ...]], spec: str,
                 optima: dict | None, closed_form) -> str | None:
    payload = json.loads(_only(out, "select_*.json").read_text(encoding="utf-8"))
    pi = payload["pi"]
    if set(pi) != set(ids):
        return "pi does not cover exactly the pool's agents"
    values = list(pi.values())
    if abs(sum(values) - pool.k) > PI_SUM_TOL:
        return f"pi sums to {sum(values)!r}, expected k={pool.k}"
    if payload["converged"] is not True:
        return "converged is not true"
    expected = objective_value(spec, values, pool.k)
    value = payload["value"]
    if not math.isclose(value, expected, rel_tol=VALUE_REL_TOL, abs_tol=1e-12):
        return f"value {value!r} but pi gives {expected!r}"
    lo, hi = min(values), max(values)
    if optima is not None:
        if lo > optima["maximin"] + OPTIMUM_TOL or hi < optima["minimax"] - OPTIMUM_TOL:
            return f"min {lo!r} / max {hi!r} beat the optima {optima['maximin']!r} / {optima['minimax']!r}"
        if spec in ("maximin", "leximin") and lo < optima["maximin"] - COLGEN_TOL:
            return f"{spec} min {lo!r} is below the maximin optimum {optima['maximin']!r}"
    if closed_form is not None:
        return closed_form(payload, ids)
    return None


def lone_probability(vector: tuple[str, ...], expected: float, tol: float):
    """Closed form on the probability of the single agent with ``vector``."""

    def check(payload: dict, ids: dict[str, tuple[str, ...]]) -> str | None:
        (agent,) = [a for a, v in ids.items() if v == vector]
        got = payload["pi"][agent]
        return None if abs(got - expected) <= tol else f"p({''.join(vector)}) = {got!r}, expected {expected!r}"

    return check


def value_equals(expected: float, tol: float):
    def check(payload: dict, ids) -> str | None:
        got = payload["value"]
        return None if abs(got - expected) <= tol else f"value {got!r}, expected {expected!r}"

    return check


def check_round(out: Path, pool: Pool, ids: dict[str, tuple[str, ...]], m: int) -> str | None:
    tickets = 0
    distinct: set[str] = set()
    with open(_only(out, "lottery_*.txt"), encoding="utf-8") as fh:
        for line in fh:
            tickets += 1
            distinct.add(line.rstrip("\n").partition("\t")[2])
    if tickets != m:
        return f"{tickets} tickets, expected m={m}"
    bounds = {(f, v): (lo, hi) for f, v, lo, hi in pool.quotas}
    for members in distinct:
        panel = members.split(",")
        if len(panel) != pool.k or len(set(panel)) != pool.k or not set(panel) <= ids.keys():
            return f"ticket {members!r} is not k distinct pool members"
        seats = Counter((f, ids[a][j]) for a in panel for j, f in enumerate(pool.features))
        for key, (lo, hi) in bounds.items():
            if not lo <= seats[key] <= hi:
                return f"ticket {members!r} breaks the quota on {key}"
    return None


def check_manip(out: Path, expected: float, tol: float = 1e-6) -> str | None:
    with open(_only(out, "manip_*.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        return f"{len(rows)} manip rows, expected 1"
    got = float(rows[0]["value"])
    return None if abs(got - expected) <= tol else f"manip value {got!r}, expected {expected!r}"
