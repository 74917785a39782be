#!/usr/bin/env python3
"""Benchmark of panelot's CLI on seeded workloads, with an optional layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload select-ladder --seed 0 --seconds 25 --trace 0

Every op is one in-process ``panelot.cli.main(argv)`` call that reloads its
instance from CSV and writes into a fresh output directory, and every output
is checked. The run repeats passes over the workload's ops for about
``--seconds`` (at least two passes) and prints human-readable lines, then one
JSON object as the last line. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics. Spans of a traced run go to ``perfbench/work/``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import pools
import spans

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / "work"
SETUP_REPS = 5
# A single op's time swings by up to 25% on a shared machine; the median of two
# passes or more damps that. A traced run makes one untraced and one traced
# pass at least.
MIN_PASSES = 2
LONE_010 = ("0", "1", "0")


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op that ran past its limit. A BaseException,
    so that no ``except Exception`` in the program swallows it."""


@dataclass(frozen=True)
class Op:
    name: str
    command: str  # select | manip | round
    pool: str
    args: tuple[str, ...]
    check: Callable[[Path, "Context"], str | None]  # None when the output is right
    result_of: str | None = None  # round: the set-up select whose result it reads


@dataclass(frozen=True)
class Workload:
    name: str
    limit_s: float  # per-op time limit; a failed op counts at this time
    ops: tuple[Op, ...]
    reference_pools: tuple[str, ...] = ()
    setup_selects: tuple[Op, ...] = ()


def _select(pool: str, objective: str, closed_form=None) -> Op:
    def check(out: Path, ctx: Context) -> str | None:
        return checks.check_select(out, ctx.pools[pool], ctx.ids[pool], objective,
                                   ctx.optima.get(pool), closed_form)

    return Op(f"{pool}-{objective}", "select", pool, ("--objective", objective), check)


def _manip(pool: str, objective: str, reference: float) -> Op:
    args = ("--strategy", "exhaustive", "--c", "1", "--metric", "ext", "--objective", objective)
    return Op(f"{pool}-manip-{objective}", "manip", pool, args,
              lambda out, ctx: checks.check_manip(out, reference))


def _round(source: Op, m: int, runs: int) -> Op:
    def check(out: Path, ctx: Context) -> str | None:
        return checks.check_round(out, ctx.pools[source.pool], ctx.ids[source.pool], m)

    args = ("--m", str(m), "--runs", str(runs))
    return Op(f"{source.name}-round-m{m}", "round", source.pool, args, check, source.name)


SKEW60_NASH = _select("skew60", "nash")
THM43A_LEXIMIN = _select("thm43a", "leximin", checks.lone_probability(LONE_010, 1 / 8, 1e-5))

# Why each workload exists, and what it should and should not move, is in
# perfbench/README.md. The manip references are the c=1 ext values the CLI
# printed (to 6 decimals) on the commit that added this benchmark; the vector
# multisets do not depend on the run seed, so neither do the values.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "select-ladder", 8.0,
            (
                _select("skew12", "maximin"),
                _select("skew12", "leximin"),
                _select("skew12", "nash"),
                _select("skew12", "goldilocks:1"),
                _select("skew9", "nash"),
                _select("skew36", "goldilocks:1"),
                _select("e2", "goldilocks:1", checks.value_equals(2 * math.sqrt(3), 1e-4)),
                THM43A_LEXIMIN,
                _select("thm43a", "nash", checks.lone_probability(LONE_010, 2 / 21, 1e-4)),
            ),
            reference_pools=("skew12", "skew9", "e2", "thm43a"),
        ),
        Workload(
            "manip-sweep", 30.0,
            (
                _manip("skew8", "goldilocks:1", 0.008333),
                _manip("thm43", "leximin", 0.012821),
            ),
        ),
        Workload(
            "lottery", 20.0,
            (
                _round(SKEW60_NASH, 1000, 5),
                _round(THM43A_LEXIMIN, 500_000, 1),
            ),
            setup_selects=(SKEW60_NASH, THM43A_LEXIMIN),
        ),
    )
}

END_TO_END = {"cli_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "panels.panel_oracle.calls": "count",
    "panels.panel_oracle.s": "s",
    "panels.structurally_excluded.calls": "count",
    "panels.structurally_excluded.s": "s",
    "simplex.solve_lp.calls": "count",
    "simplex.solve_lp.s": "s",
    "simplex.solve_lp.cols_max": "count",
    "solver.solve.calls": "count",
    "solver.solve.self_s": "s",
    "solver.solve.iterations": "count",
    "solver.solve.unconverged": "count",
    "panels.expand_composition_distribution.s": "s",
    "panels.expand_composition_distribution.panels_out": "count",
    "panels.marginals.s": "s",
    "rounding.pipage_round.calls": "count",
    "rounding.pipage_round.s": "s",
    "rounding.pipage_round.support_in": "count",
    "rounding.write_lottery.s": "s",
    "rounding.lottery_marginals.s": "s",
    "adversary.apply_misreport.calls": "count",
    "adversary.apply_misreport.s": "s",
    "adversary.solves_per_candidate": "ratio",
    "model.load_instance.calls": "count",
    "model.load_instance.s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


# ---------------------------------------------------------------------------
# Running one op
# ---------------------------------------------------------------------------


@dataclass
class OpRecord:
    op: Op
    out: Path
    status: str  # "ok", a stable error code, TIMEOUT, or WRONG
    elapsed: float
    reason: str = ""


@dataclass
class Context:
    seed: int
    inputs: Path
    pools: dict[str, pools.Pool]
    ids: dict[str, dict[str, tuple[str, ...]]]
    optima: dict[str, dict] = field(default_factory=dict)
    results: dict[str, Path] = field(default_factory=dict)


def _alarm(signum, frame):
    raise OpTimeout()


def _error_code(stderr: str, rc: int) -> str:
    lines = [line for line in stderr.splitlines() if line.strip()]
    code = lines[-1].split(":", 1)[0] if lines else ""
    return code if code.replace("_", "").isalnum() and code.isupper() else f"EXIT_{rc}"


def _argv(op: Op, ctx: Context, out: Path) -> list[str]:
    pool = ctx.pools[op.pool]
    argv = [
        "--seed", str(ctx.seed), "--out", str(out), op.command,
        "--agents", str(ctx.inputs / f"{pool.name}.csv"),
        "--quotas", str(ctx.inputs / f"{pool.name}_quotas.csv"),
        "-k", str(pool.k), *op.args,
    ]
    if op.result_of is not None:
        argv += ["--result", str(ctx.results[op.result_of])]
    return argv


def call_cli(argv: list[str], limit: float, tracer: spans.Tracer | None = None,
             op_id: int = 0) -> tuple[str, float]:
    """One cli.main call under a time limit: (status, elapsed seconds)."""
    from panelot import cli

    sink_out, sink_err = io.StringIO(), io.StringIO()
    status = "ok"
    root = None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            if tracer is not None:
                root = tracer.begin(spans.CLI_SPAN, op_id)
            with redirect_stdout(sink_out), redirect_stderr(sink_err):
                rc = cli.main(argv)
            if rc != 0:
                status = _error_code(sink_err.getvalue(), rc)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        status = "TIMEOUT"
    except SystemExit as exc:
        status = f"EXIT_{exc.code}"
    except Exception as exc:  # a crash outside the program's typed errors
        traceback.print_exc()
        status = type(exc).__name__
    elapsed = time.perf_counter() - start
    if root is not None:
        tracer.end(root)
    return status, elapsed


def check_op(op: Op, ctx: Context, out: Path) -> str | None:
    try:
        return op.check(out, ctx)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def run_pass(workload: Workload, ctx: Context, number: int,
             tracer: spans.Tracer | None, first_op_id: int) -> list[OpRecord]:
    records = []
    for index, op in enumerate(workload.ops):
        out = WORK / f"pass{number}" / op.name
        out.mkdir(parents=True)
        if tracer is not None:
            tracer.install()
        try:
            status, elapsed = call_cli(_argv(op, ctx, out), workload.limit_s, tracer, first_op_id + index)
        finally:
            if tracer is not None:
                tracer.uninstall()
        records.append(OpRecord(op, out, status, elapsed))
    return records


def check_outputs(records: list[OpRecord], ctx: Context) -> None:
    """Check every op that returned; a wrong output turns into WRONG."""
    for r in records:
        if r.status == "ok":
            r.reason = check_op(r.op, ctx, r.out) or ""
            if r.reason:
                r.status = "WRONG"
        shutil.rmtree(r.out)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def import_seconds() -> float:
    """Import time of panelot.cli in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import panelot.cli; print(time.perf_counter() - t)"
    )
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, timeout=30, check=True)
    return float(done.stdout.strip())


def set_up(workload: Workload, seed: int, rep: int) -> tuple[float, Context]:
    """Import, pool generation, CSV writing and the select runs that make the
    round inputs. Returns its time and the context the passes run in."""
    seconds = import_seconds()
    start = time.perf_counter()
    inputs = WORK / f"setup{rep}"
    inputs.mkdir(parents=True)
    names = {op.pool for op in workload.ops}
    built = {name: pool for name, pool in pools.ladder_pools().items() if name in names}
    for pool in built.values():
        pools.write_pool(pool, inputs, seed)
    ctx = Context(seed, inputs, built, {})
    for op in workload.setup_selects:
        out = inputs / op.name
        status, _ = call_cli(_argv(op, ctx, out), workload.limit_s)
        if status != "ok":
            raise RuntimeError(f"set-up select {op.name} failed: {status}")
        ctx.results[op.name] = next(out.glob("select_*.json"))
    seconds += time.perf_counter() - start
    ctx.ids = {name: dict(pools.agent_rows(pool, seed)) for name, pool in built.items()}
    for op in workload.setup_selects:
        reason = check_op(op, ctx, ctx.results[op.name].parent)
        if reason:
            raise RuntimeError(f"set-up select {op.name} is wrong: {reason}")
    return seconds, ctx


def reference_optima(names: tuple[str, ...]) -> dict[str, dict]:
    if not names:
        return {}
    done = subprocess.run([sys.executable, str(BENCH / "reference.py"), *names],
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def pass_seconds(records: list[OpRecord], limit: float) -> float:
    """A pass's op time; an op that did not return a right answer counts at the limit."""
    return sum(r.elapsed if r.status == "ok" else limit for r in records)


def layer_metrics(tracer: spans.Tracer, op_ids: set[int]) -> dict[str, float]:
    totals = spans.layer_totals(tracer.spans, op_ids)

    def get(layer: str, key: str) -> float:
        return totals.get(layer, {}).get(key, 0)

    # A metric name is <layer>.<key>; the last two are derived below.
    values = {name: get(*name.rsplit(".", 1)) for name in PER_LAYER}
    adversary_solves = sum(
        1 for s in tracer.spans
        if s.op in op_ids and s.name == "solver.solve" and s.attrs.get("site") == "panelot.adversary"
    )
    misreports = get("adversary.apply_misreport", "calls")
    values["adversary.solves_per_candidate"] = adversary_solves / misreports if misreports else 0.0
    return values


def trace_metrics(tracer: spans.Tracer, untraced: list[list[OpRecord]],
                  traced: list[tuple[list[OpRecord], set[int]]]) -> dict[str, float] | None:
    """Per-layer metrics as medians over traced passes, or None if spans do not nest."""
    nesting = check_nesting(tracer)
    if nesting:
        print(f"trace: {nesting}", file=sys.stderr)
        return None
    every_op = set().union(*(ids for _, ids in traced))
    selfs = sum(t["self_s"] for t in spans.layer_totals(tracer.spans, every_op).values())
    traced_wall = [sum(r.elapsed for r in records) for records, _ in traced]
    print(f"trace accounting: layer self times + cli.self_s = {selfs:.6f} s, "
          f"traced op wall = {sum(traced_wall):.6f} s")
    absent = sorted(set(spans.LAYERS) - tracer.present)
    if absent:
        print(f"absent layers (reported as 0): {', '.join(absent)}")
    per_pass = [layer_metrics(tracer, ids) for _, ids in traced]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in PER_LAYER}
    wall = [sum(r.elapsed for r in records) for records in untraced]
    metrics["trace.overhead_ratio"] = statistics.median(traced_wall) / statistics.median(wall)
    return metrics


def check_nesting(tracer: spans.Tracer) -> str | None:
    """Every span lies inside its parent and belongs to its parent's op, so
    self times plus cli.self_s add up to each op's traced wall time."""
    for span in tracer.spans:
        if span.parent is None:
            continue
        parent = tracer.spans[span.parent]
        if span.op != parent.op or span.start < parent.start or span.end > parent.end:
            return f"span {span.name} escapes its parent {parent.name}"
    return None


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Import panelot from this checkout's src/, or exit non-zero without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import panelot.cli
    except ImportError as exc:
        sys.exit(f"cannot import panelot from {SRC}: {exc}")
    if not Path(panelot.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"panelot was imported from {panelot.cli.__file__}, not from {SRC}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    import_program()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    signal.signal(signal.SIGALRM, _alarm)

    setups = []
    for rep in range(SETUP_REPS):
        seconds, ctx = set_up(workload, args.seed, rep)
        setups.append(seconds)
    ctx.optima = reference_optima(workload.reference_pools)

    # Untraced passes, or untraced and traced passes in alternation, until the
    # next step would overrun --seconds.
    tracer = spans.Tracer() if args.trace else None
    untraced: list[list[OpRecord]] = []
    traced: list[tuple[list[OpRecord], set[int]]] = []
    next_op = 0
    began = time.perf_counter()
    while True:
        step_start = time.perf_counter()
        untraced.append(run_pass(workload, ctx, len(untraced) + len(traced), None, 0))
        if tracer is not None:
            records = run_pass(workload, ctx, len(untraced) + len(traced), tracer, next_op)
            traced.append((records, set(range(next_op, next_op + len(records)))))
            next_op += len(records)
        now = time.perf_counter()
        enough = tracer is not None or len(untraced) >= MIN_PASSES
        if enough and now - began + (now - step_start) > args.seconds:
            break

    # Outputs are checked only now, so that reading them never raises peak_rss_mb.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    every = [r for records in untraced for r in records] + [r for records, _ in traced for r in records]
    check_outputs(every, ctx)
    for records in untraced + [records for records, _ in traced]:
        for r in records:
            note = f"  ({r.reason})" if r.reason else ""
            print(f"  {r.op.name:<32} {r.status:<14} {r.elapsed:9.3f} s{note}")
    wrong = [r for r in every if r.status == "WRONG"]
    failed = [r for r in every if r.status != "ok"]
    print(f"workload {workload.name} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced pass(es), per-op limit {workload.limit_s:g} s")
    print(f"fail_ratio {len(failed) / len(every):.6f} ({len(failed)}/{len(every)} ops failed)")

    if tracer is None:
        metrics = {
            "cli_s": statistics.median(pass_seconds(p, workload.limit_s) for p in untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        print(f"{workload.ops[0].command}_s {metrics['cli_s']:.6f} s (reported as cli_s)")
    else:
        tracer.dump(WORK / f"trace-{workload.name}-seed{args.seed}.jsonl")
        metrics = trace_metrics(tracer, untraced, traced)
        if metrics is None:
            return 1
    units = END_TO_END if tracer is None else PER_LAYER
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(every),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    for child in WORK.iterdir():
        if child.is_dir():
            shutil.rmtree(child)
    return 0


if __name__ == "__main__":
    sys.exit(main())
