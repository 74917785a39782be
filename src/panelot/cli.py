"""Command-line entry point.

Subcommands: validate, select, leximin, legacy, round, manip, feature-drop,
bench, gen-lb. Exit codes: 0 success, 1 domain error (stable error code on
stderr), 2 usage error. Identical argv + seed produce byte-identical
artifacts; the bench suite keeps wall-clock timings out of its files for
that reason.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import fixtures
from .adversary import (
    LB_PARAMETERS,
    apply_misreport,
    make_lb_instance,
    manip_metric_exhaustive,
    worst_mu_manipulator,
)
from .errors import PanelotError, ValidationError
from .model import duplicate_pool, load_instance, save_instance
from .objectives import gini, parse_objective
from .panels import CompositionDistribution, has_valid_panel, structurally_excluded
from .report import (
    feature_drop_sweep,
    lottery_stats,
    rounding_report,
    run_record,
    table_maxes_mins,
    write_csv,
    write_json,
)
from .rounding import lottery_marginals, pipage_round, rounding_bounds, write_lottery
from .solver import SolveConfig, solve, solve_legacy


def _add_instance_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--agents", required=True, help="agents CSV: id,<feature...>")
    parser.add_argument("--quotas", required=True, help="quotas CSV: feature,value,min,max")
    parser.add_argument("-k", type=int, required=True, help="panel size")


def _add_solver_args(parser: argparse.ArgumentParser, objective: bool = True) -> None:
    if objective:
        parser.add_argument("--objective", default="goldilocks:1", help="objective spec string")
    parser.add_argument("--backend", default=SolveConfig.backend, choices=["colgen", "brute"])
    parser.add_argument("--eps-colgen", type=float, default=SolveConfig.eps_colgen,
                        help="column-generation slack")


def _config(args) -> SolveConfig:
    return SolveConfig(parse_objective(args.objective), backend=args.backend, eps_colgen=args.eps_colgen)


def _load(args):
    instance = load_instance(args.agents, args.quotas, args.k)
    return duplicate_pool(instance, getattr(args, "copies", 1))


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _safe(name: str) -> str:
    return name.replace(":", "-").replace("/", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panelot",
        description="Quota-constrained panel selection with maximally equal lotteries.",
        allow_abbrev=False,
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", default="out", help="artifact directory")
    parser.add_argument("--format", default="csv", choices=["csv", "json"])
    # The same globals are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering a value given before it.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    common.add_argument("--format", choices=["csv", "json"], default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)
    # No abbreviated flags: a removed --eps must not resolve to --eps-colgen.
    add = functools.partial(sub.add_parser, parents=[common], allow_abbrev=False)

    p = add("validate", help="check instance files and report pool statistics")
    _add_instance_args(p)

    p = add("select", help="compute a maximally equal panel distribution")
    _add_instance_args(p)
    _add_solver_args(p)

    p = add("leximin", help="select with the leximin refinement")
    _add_instance_args(p)
    _add_solver_args(p, objective=False)
    p.set_defaults(objective="leximin")

    p = add("legacy", help="run the greedy baseline once")
    _add_instance_args(p)

    p = add("round", help="round a solved distribution to an m-uniform lottery")
    _add_instance_args(p)
    p.add_argument("--result", required=True, help="result JSON from select/leximin")
    p.add_argument("--m", type=int, default=1000)
    p.add_argument("--runs", type=int, default=1, help="extra seeded runs for deviation stats")

    p = add("manip", help="manipulation analysis")
    _add_instance_args(p)
    _add_solver_args(p)
    p.add_argument("--strategy", default="mu", choices=["mu", "exhaustive"])
    p.add_argument("--c", type=int, default=1, help="coalition size (exhaustive)")
    p.add_argument("--metric", default="int", choices=["int", "ext", "comp", "fairness"])
    p.add_argument("--copies", type=int, default=1, help="pool duplication factor")
    p.add_argument("--strict", action="store_true", help="reject oversized coalitions")

    p = add("feature-drop", help="solve while dropping the most biased features")
    _add_instance_args(p)
    _add_solver_args(p)
    p.add_argument("--max-drop", type=int, default=1)

    add("bench", help="run the built-in fixture suite and write artifacts")

    p = add("gen-lb", help="write a constructed lower-bound instance")
    p.add_argument("--kind", required=True, choices=["example1", "example2", "thm31", "thm43"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--nmin", type=int)
    p.add_argument("--c", type=int)
    return parser


def _cmd_validate(args) -> int:
    instance = _load(args)
    print(f"instance {instance.label}: n={instance.n} k={instance.k}")
    print(f"vector groups: {len(instance.groups)} (smallest {instance.min_group_size()})")
    if not has_valid_panel(instance):
        print("NO_VALID_PANEL: quotas admit no panel", file=sys.stderr)
        return 1
    excluded = structurally_excluded(instance)
    if excluded:
        print(f"STRUCTURAL_EXCLUSION: {sorted(excluded)}", file=sys.stderr)
        return 1
    print("ok: every agent appears on some valid panel")
    return 0


def _cmd_select(args) -> int:
    instance = _load(args)
    config = _config(args)
    result = solve(instance, config)
    out = _out_dir(args)
    path = out / f"select_{_safe(instance.label)}_{_safe(result.objective.spec_string())}.json"
    # Serialize before opening the file, so a failure leaves no partial file.
    text = json.dumps(result.to_json(), indent=2, sort_keys=False) + "\n"
    path.write_text(text, encoding="utf-8")
    print(
        f"{result.objective.spec_string()} on {instance.label}: value={result.objective_value:.6f} "
        f"min={result.pi.min():.6f} max={result.pi.max():.6f} gini={gini(result.pi):.6f} "
        f"converged={result.converged}"
    )
    print(f"wrote {path}")
    return 0


def _cmd_legacy(args) -> int:
    instance = _load(args)
    panel = solve_legacy(instance, seed=args.seed)
    out = _out_dir(args)
    path = out / f"legacy_{_safe(instance.label)}.json"
    write_json({"members": list(panel.members), "seed": args.seed}, path)
    print(f"legacy panel: {','.join(panel.members)}")
    print(f"wrote {path}")
    return 0


def _cmd_round(args) -> int:
    if args.m < 1:
        raise ValidationError(f"--m must be at least 1, got {args.m}")
    if args.runs < 1:
        raise ValidationError(f"--runs must be at least 1, got {args.runs}")
    instance = _load(args)
    try:
        with open(args.result, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read result file {args.result}: {exc}") from exc
    dist = CompositionDistribution.from_json(payload)
    if args.m < instance.n * math.isqrt(instance.n):
        print(
            f"note: m={args.m} is below n*sqrt(n)={instance.n * math.isqrt(instance.n)}; "
            "rounding error bounds weaken",
            file=sys.stderr,
        )
    lottery = pipage_round(dist, instance, args.m, args.seed)
    out = _out_dir(args)
    path = out / f"lottery_{_safe(instance.label)}.txt"
    write_lottery(lottery, path, instance, args.seed)
    rounded = lottery_marginals(instance, lottery)
    print(f"lottery of {args.m} tickets: min={rounded.min():.6f} max={rounded.max():.6f}")
    # A single draw carries no worst-case promise, so the bound is context only.
    target = dist.marginals(instance).pi
    deviation = max(abs(prob - target[agent]) for agent, prob in rounded.pi.items())
    bound = min(rounding_bounds(instance.k, max(len(instance.groups), 2), args.m))
    print(f"realized deviation max|pi_lottery - pi_result|={deviation:.6g} "
          f"(min rounding bound {bound:.6g})")
    print(f"wrote {path}")
    if args.runs > 1:
        summary = lottery_stats(instance, dist, args.m, args.runs, args.seed)
        stats_path = out / f"lottery_{_safe(instance.label)}_stats.json"
        write_json(summary, stats_path)
        print(f"wrote {stats_path}")
    return 0


def _cmd_manip(args) -> int:
    instance = _load(args)
    config = _config(args)
    if args.strategy == "mu":
        # The mu manipulator is one agent reporting mu, scored by its int gain.
        fixed = {"--c": args.c != 1, "--metric": args.metric != "int", "--strict": args.strict}
        taken = [flag for flag, given in fixed.items() if given]
        if taken:
            raise ValidationError(f"--strategy mu does not take {', '.join(taken)}")
        report = worst_mu_manipulator(instance, config)
    else:
        report = manip_metric_exhaustive(instance, config, c=args.c, metric=args.metric, strict=args.strict)
    row = {
        "metric": report.metric,
        "c": args.c,
        "search": report.search,
        "value": report.value,
        "witness_coalition": ";".join(sorted(report.witness.coalition)) or "-",
        "witness_vectors": report.witness.describe(),
        "copies": args.copies,
    }
    out = _out_dir(args)
    path = out / f"manip_{_safe(instance.label)}_{report.metric}.{args.format}"
    if args.format == "csv":
        write_csv([row], path)
    else:
        write_json([row], path)
    print(f"{report.metric} ({report.search}) on {instance.label}: {report.value:.6f}")
    print(f"wrote {path}")
    return 0


def _cmd_feature_drop(args) -> int:
    instance = _load(args)
    config = _config(args)
    objectives = ["maximin", "minimax", args.objective]
    rows = feature_drop_sweep(instance, objectives, args.max_drop, config)
    out = _out_dir(args)
    path = out / f"feature_drop_{_safe(instance.label)}.{args.format}"
    if args.format == "csv":
        write_csv(rows, path)
    else:
        write_json(rows, path)
    print(f"wrote {path}")
    return 0


def _cmd_gen_lb(args) -> int:
    flags = {"--n": ("n", args.n), "--k": ("k", args.k), "--nmin": ("n_min", args.nmin), "--c": ("c", args.c)}
    given = {flag: param for flag, param in flags.items() if param[1] is not None}
    unused = [flag for flag, (name, _) in given.items() if name not in LB_PARAMETERS[args.kind]]
    if unused:
        raise ValidationError(f"gen-lb --kind {args.kind} does not take {', '.join(unused)}")
    instance, misreport = make_lb_instance(args.kind, **dict(given.values()))
    out = _out_dir(args)
    agents_path = out / f"{args.kind}_agents.csv"
    quotas_path = out / f"{args.kind}_quotas.csv"
    save_instance(instance, agents_path, quotas_path)
    mis_path = out / f"{args.kind}_misreport.json"
    write_json({
        "coalition": sorted(misreport.coalition),
        "reported": {a: list(v) for a, v in sorted(misreport.reported.items())},
        "k": instance.k,
    }, mis_path)
    print(f"wrote {agents_path}, {quotas_path}, {mis_path}")
    return 0


def _check(name: str, ok: bool, detail: str, failures: list[str]) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    if not ok:
        failures.append(name)


def _cmd_bench(args) -> int:
    """Fixture suite with closed-form expectations; artifacts are
    deterministic for a fixed seed (no timing fields)."""
    out = _out_dir(args)
    failures: list[str] = []
    config = SolveConfig(
        objective=parse_objective("goldilocks:1"),
        backend="colgen",
        eps_colgen=1e-7,
    )

    t1 = fixtures.two_group_instance()
    e1 = fixtures.small_group_instance()
    e2 = fixtures.linked_fate_instance()

    records = []
    for instance in (t1, e1, e2):
        for spec in ("maximin", "minimax", "leximin", "nash", "goldilocks:1"):
            result = solve(instance, replace(config, objective=parse_objective(spec)))
            records.append(run_record(instance, result))
    write_csv(records, out / "bench_runs.csv")
    write_json(records, out / "bench_runs.json")

    uniform = solve(t1, config)
    _check(
        "t1-uniform",
        abs(uniform.pi.min() - 0.5) < 1e-9 and abs(uniform.pi.max() - 0.5) < 1e-9,
        f"min={uniform.pi.min():.6f} max={uniform.pi.max():.6f}",
        failures,
    )

    gl = solve(e2, config)
    root3 = math.sqrt(3.0)
    _check(
        "e2-goldilocks",
        abs(gl.pi.max() - root3 / 2) < 1e-4 and abs(gl.objective_value - 2 * root3) < 1e-4,
        f"max={gl.pi.max():.6f} value={gl.objective_value:.6f}",
        failures,
    )

    ratio_rows = table_maxes_mins(e2, ["maximin", "minimax", "leximin", "nash", "goldilocks:1"], config)
    write_csv(ratio_rows, out / "bench_ratios.csv")
    write_json(ratio_rows, out / "bench_ratios.json")

    truthful_b, coalition_b = make_lb_instance("thm43", n=72, k=6, n_min=12, c=6)
    attacked_b = apply_misreport(truthful_b, coalition_b)
    lex = solve(attacked_b, replace(config, objective=parse_objective("leximin")))
    lone = attacked_b.groups[("0", "1", "0")][0]
    _check(
        "instance-b-leximin",
        abs(lex.pi.pi[lone] - 0.125) < 1e-5,
        f"p(010)={lex.pi.pi[lone]:.6f} expected 0.125",
        failures,
    )
    nash = solve(attacked_b, replace(config, objective=parse_objective("nash")))
    _check(
        "instance-b-nash",
        abs(nash.pi.pi[lone] - 2.0 / 21.0) < 1e-4,
        f"p(010)={nash.pi.pi[lone]:.6f} expected {2.0 / 21.0:.6f}",
        failures,
    )

    maximin_cfg = replace(config, objective=parse_objective("maximin"))
    ext = manip_metric_exhaustive(e1, maximin_cfg, c=1, metric="ext")
    comp = manip_metric_exhaustive(e1, maximin_cfg, c=1, metric="comp")
    _check(
        "e1-manipulation",
        abs(ext.value - 1.0 / 6.0) < 1e-6 and abs(comp.value - 0.4) < 1e-6,
        f"ext={ext.value:.6f} comp={comp.value:.6f}",
        failures,
    )

    summary = rounding_report(t1, "maximin", m=1000, runs=200, seed=args.seed, config=config)
    write_json(summary, out / "bench_rounding.json")
    _check(
        "t1-rounding",
        abs(summary["mean_min"] - 0.5) < 1e-9 and abs(summary["mean_max"] - 0.5) < 1e-9,
        f"mean_min={summary['mean_min']:.6f} mean_max={summary['mean_max']:.6f}",
        failures,
    )

    if failures:
        print(f"bench: {len(failures)} check(s) failed: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("bench: all checks passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "validate": _cmd_validate,
        "select": _cmd_select,
        "leximin": _cmd_select,
        "legacy": _cmd_legacy,
        "round": _cmd_round,
        "manip": _cmd_manip,
        "feature-drop": _cmd_feature_drop,
        "bench": _cmd_bench,
        "gen-lb": _cmd_gen_lb,
    }
    try:
        return handlers[args.command](args)
    except PanelotError as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
