import dataclasses
import json
from pathlib import Path

import pytest

from panelot import fixtures
from panelot.cli import _config, build_parser, main
from panelot.model import load_instance
from panelot.objectives import parse_objective
from panelot.panels import CompositionDistribution
from panelot.rounding import rounding_bounds
from panelot.solver import SolveConfig

from conftest import write_instance_csvs


def _files(tmp_path, instance, stem="inst"):
    agents, quotas = write_instance_csvs(tmp_path, instance, stem)
    return str(agents), str(quotas)


def test_validate_ok(tmp_path, capsys, t1):
    agents, quotas = _files(tmp_path, t1)
    code = main(["validate", "--agents", agents, "--quotas", quotas, "-k", "2"])
    assert code == 0
    assert "every agent appears" in capsys.readouterr().out


def test_validate_structural_exclusion(tmp_path, capsys):
    inst = fixtures.excluded_agent_instance()
    agents, quotas = _files(tmp_path, inst)
    code = main(["validate", "--agents", agents, "--quotas", quotas, "-k", "2"])
    assert code == 1
    assert "STRUCTURAL_EXCLUSION" in capsys.readouterr().err


def test_validate_no_valid_panel(tmp_path, capsys):
    # The quotas pass their own sum check, but two seats need f=0 and the
    # pool has one such agent.
    agents = tmp_path / "agents.csv"
    quotas = tmp_path / "quotas.csv"
    agents.write_text("id,f\na1,1\na2,1\na3,1\na4,0\n")
    quotas.write_text("feature,value,min,max\nf,1,0,0\nf,0,2,2\n")
    code = main(["validate", "--agents", str(agents), "--quotas", str(quotas), "-k", "2"])
    assert code == 1
    assert "NO_VALID_PANEL: quotas admit no panel" in capsys.readouterr().err


def test_select_writes_result_json(tmp_path, t1):
    agents, quotas = _files(tmp_path, t1)
    out = tmp_path / "artifacts"
    code = main(
        [
            "--out", str(out),
            "select",
            "--agents", agents,
            "--quotas", quotas,
            "-k", "2",
            "--objective", "goldilocks:1",
        ]
    )
    assert code == 0
    path = next(out.glob("select_*goldilocks*.json"))
    payload = json.loads(path.read_text())
    assert payload["objective"] == "goldilocks:1"
    assert all(abs(v - 0.5) < 1e-9 for v in payload["pi"].values())


def test_bare_select_solves_with_the_config_defaults():
    args = build_parser().parse_args(["select", "--agents", "a.csv", "--quotas", "q.csv", "-k", "2"])
    assert _config(args) == SolveConfig(objective=parse_objective("goldilocks:1"))


@pytest.mark.parametrize("flag", [["--max-columns", "5"], ["--eps", "1e-9"]], ids=["max-columns", "eps"])
def test_select_rejects_the_removed_solver_flags(tmp_path, capsys, e2, flag):
    # The column budget and leximin's freezing slack are fixed; --eps must
    # not pass as an abbreviation of --eps-colgen either.
    agents, quotas = _files(tmp_path, e2)
    out = tmp_path / "artifacts"
    with pytest.raises(SystemExit) as exit_info:
        main(["--out", str(out), "select", "--agents", agents, "--quotas", quotas, "-k", "4", *flag])
    assert exit_info.value.code == 2
    assert flag[0] in capsys.readouterr().err
    assert not out.exists()


def _no_such_file(tmp_path, agents):
    return tmp_path / "nope.csv", tmp_path / "artifacts"


def _a_directory(tmp_path, agents):
    folder = tmp_path / "folder"
    folder.mkdir()
    return folder, tmp_path / "artifacts"


def _not_utf8(tmp_path, agents):
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes("id,f\nh\u00e9lo\u00efse,0\n".encode("latin-1"))
    return latin1, tmp_path / "artifacts"


def _out_under_a_file(tmp_path, agents):
    return agents, agents / "x"


@pytest.mark.parametrize("case", [_no_such_file, _a_directory, _not_utf8, _out_under_a_file],
                         ids=["missing", "directory", "not-utf8", "out-under-file"])
def test_unreadable_inputs_are_invalid_input(tmp_path, capsys, t1, case):
    agents, quotas = _files(tmp_path, t1)
    agents_arg, out = case(tmp_path, Path(agents))
    before = sorted(tmp_path.rglob("*"))
    code = main(["--out", str(out), "select", "--agents", str(agents_arg), "--quotas", quotas, "-k", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("INVALID_INPUT: ")
    assert str(out if case is _out_under_a_file else agents_arg) in err
    assert "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("pool", ["thm43a", "e2"])
def test_select_nash_brute_writes_valid_json(tmp_path, pool, e2, instance_b):
    instance = e2 if pool == "e2" else instance_b[2]
    agents, quotas = _files(tmp_path, instance)
    out = tmp_path / "artifacts"
    code = main(
        ["--out", str(out), "select", "--agents", agents, "--quotas", quotas, "-k", str(instance.k),
         "--objective", "nash", "--backend", "brute"]
    )
    assert code == 0
    [path] = out.glob("select_*nash*.json")
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["converged"] is True


@pytest.mark.parametrize("pool, objective", [("e2", "goldilocks:1"), ("thm43a", "nash"), ("minzero", "minimax")])
def test_select_pi_is_what_round_targets(tmp_path, e2, instance_b, pool, objective):
    # round's pi_result is the stored distribution's marginals: bit for bit
    # the select file's pi.
    instance = {"e2": e2, "thm43a": instance_b[2], "minzero": fixtures.starved_minimum_instance()}[pool]
    agents, quotas = _files(tmp_path, instance)
    out = tmp_path / "artifacts"
    code = main(["--out", str(out), "select", "--agents", agents, "--quotas", quotas, "-k", str(instance.k),
                 "--objective", objective])
    assert code == 0
    payload = json.loads(next(out.glob("select_*.json")).read_text())
    loaded = load_instance(agents, quotas, instance.k)
    assert CompositionDistribution.from_json(payload).marginals(loaded).pi == payload["pi"]


def test_leximin_subcommand(tmp_path, e2):
    agents, quotas = _files(tmp_path, e2)
    out = tmp_path / "artifacts"
    code = main(["--out", str(out), "leximin", "--agents", agents, "--quotas", quotas, "-k", "4"])
    assert code == 0
    payload = json.loads(next(out.glob("select_*leximin*.json")).read_text())
    assert payload["objective"] == "leximin"
    assert min(payload["pi"].values()) == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_leximin_subcommand_takes_no_objective(tmp_path, capsys, e2):
    agents, quotas = _files(tmp_path, e2)
    out = tmp_path / "artifacts"
    args = ["--agents", agents, "--quotas", quotas, "-k", "4"]
    with pytest.raises(SystemExit) as err:
        main(["--out", str(out), "leximin", *args, "--objective", "nash"])
    assert err.value.code == 2
    assert "--objective" in capsys.readouterr().err
    assert not out.exists()
    assert main(["--out", str(out / "leximin"), "leximin", *args]) == 0
    assert main(["--out", str(out / "select"), "select", *args, "--objective", "leximin"]) == 0
    [leximin] = (out / "leximin").iterdir()
    [select] = (out / "select").iterdir()
    assert leximin.name == select.name
    assert leximin.read_bytes() == select.read_bytes()


def test_legacy_subcommand(tmp_path, t1, capsys):
    agents, quotas = _files(tmp_path, t1)
    out = tmp_path / "artifacts"
    code = main(["--out", str(out), "legacy", "--agents", agents, "--quotas", quotas, "-k", "2"])
    assert code == 0
    payload = json.loads(next(out.glob("legacy_*.json")).read_text())
    assert len(payload["members"]) == 2


def test_round_subcommand(tmp_path, t1):
    agents, quotas = _files(tmp_path, t1)
    out = tmp_path / "artifacts"
    main(
        ["--out", str(out), "select", "--agents", agents, "--quotas", quotas, "-k", "2",
         "--objective", "maximin"]
    )
    result_path = next(out.glob("select_*maximin*.json"))
    code = main(
        ["--out", str(out), "round", "--agents", agents, "--quotas", quotas, "-k", "2",
         "--result", str(result_path), "--m", "100", "--runs", "5"]
    )
    assert code == 0
    lottery = next(out.glob("lottery_*.txt"))
    lines = lottery.read_text().strip().split("\n")
    assert len(lines) == 100
    assert lines[0].startswith("1\t")
    sidecar = json.loads((lottery.parent / (lottery.name + ".json")).read_text())
    assert sidecar["m"] == 100
    stats = json.loads(next(out.glob("lottery_*_stats.json")).read_text())
    assert stats["runs"] == 5


def test_round_prints_realized_deviation(tmp_path, capsys, e2):
    # The printed deviation is recomputed from the ticket file and from the
    # result's compositions: group w gets sum_c q_c * s_c(w) / n_w.
    agents, quotas = _files(tmp_path, e2)
    out = tmp_path / "artifacts"
    base = ["--out", str(out), "--seed", "5"]
    main(base + ["select", "--agents", agents, "--quotas", quotas, "-k", "4", "--objective", "goldilocks:1"])
    result_path = next(out.glob("select_*.json"))
    capsys.readouterr()
    m = 37
    code = main(base + ["round", "--agents", agents, "--quotas", quotas, "-k", "4",
                        "--result", str(result_path), "--m", str(m)])
    assert code == 0
    line = next(ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("realized deviation"))
    printed = float(line.partition("=")[2].split()[0])
    bound = float(line.rpartition(" ")[2].rstrip(")"))

    appearances = dict.fromkeys(e2.agent_ids, 0)
    for ticket in next(out.glob("lottery_*.txt")).read_text().splitlines():
        for agent in ticket.partition("\t")[2].split(","):
            appearances[agent] += 1
    seats = dict.fromkeys(e2.groups, 0.0)
    for entry in json.loads(result_path.read_text())["compositions"]:
        for vector, count in entry["seats"]:
            seats[tuple(vector)] += entry["prob"] * count
    expected = max(
        abs(appearances[a] / m - seats[e2.vector_of[a]] / e2.group_size(e2.vector_of[a]))
        for a in e2.agent_ids
    )
    assert expected > 0.0
    assert printed == pytest.approx(expected, rel=1e-5)
    assert bound == pytest.approx(min(rounding_bounds(e2.k, max(len(e2.groups), 2), m)), rel=1e-5)


def test_round_rejects_result_for_another_instance(tmp_path, t1, e2, capsys):
    e2_agents, e2_quotas = _files(tmp_path, e2, "e2")
    t1_agents, t1_quotas = _files(tmp_path, t1, "t1")
    out = tmp_path / "artifacts"
    main(["--out", str(out), "select", "--agents", e2_agents, "--quotas", e2_quotas, "-k", "4"])
    result_path = next(out.glob("select_*.json"))
    capsys.readouterr()
    code = main(
        ["--out", str(out), "round", "--agents", t1_agents, "--quotas", t1_quotas, "-k", "2",
         "--result", str(result_path), "--m", "100"]
    )
    assert code == 1
    assert "INVALID_INPUT" in capsys.readouterr().err
    assert not list(out.glob("lottery_*"))


def _select_t1(tmp_path, t1):
    agents, quotas = _files(tmp_path, t1)
    out = tmp_path / "artifacts"
    main(["--out", str(out), "select", "--agents", agents, "--quotas", quotas, "-k", "2"])
    return agents, quotas, out, next(out.glob("select_*.json"))


@pytest.mark.parametrize("kind", ["missing", "directory", "malformed", "not-utf8"])
def test_round_rejects_unreadable_result_file(tmp_path, t1, capsys, kind):
    agents, quotas, out, _ = _select_t1(tmp_path, t1)
    bad = tmp_path / "bad_result.json"
    if kind == "directory":
        bad.mkdir()
    elif kind == "malformed":
        bad.write_text('{"compositions": [')
    elif kind == "not-utf8":
        bad.write_bytes(b"\xff\xfe{}")
    capsys.readouterr()
    code = main(
        ["--out", str(out), "round", "--agents", agents, "--quotas", quotas, "-k", "2",
         "--result", str(bad), "--m", "100"]
    )
    assert code == 1
    assert "INVALID_INPUT" in capsys.readouterr().err
    assert not list(out.glob("lottery_*"))


@pytest.mark.parametrize("kind", ["fractional", "negative", "repeated"])
def test_round_rejects_malformed_seat_counts(tmp_path, t1, capsys, kind):
    # Each edit used to load as a valid composition: 1.7 seats truncated to
    # 1, and a negative or zero row dropped.
    agents, quotas, out, result_path = _select_t1(tmp_path, t1)
    payload = json.loads(result_path.read_text())
    seats = payload["compositions"][0]["seats"]
    if kind == "fractional":
        seats[0][1] = 1.7
    elif kind == "negative":
        seats.append([["9"], -1])
    else:
        seats.append([seats[0][0], 0])
    bad = tmp_path / "bad_result.json"
    bad.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main(
        ["--out", str(out), "round", "--agents", agents, "--quotas", quotas, "-k", "2",
         "--result", str(bad), "--m", "100"]
    )
    assert code == 1
    assert "INVALID_INPUT" in capsys.readouterr().err
    assert not list(out.glob("lottery_*"))


@pytest.mark.parametrize("prob", [float("nan"), float("inf")])
def test_round_rejects_a_probability_that_is_not_finite(tmp_path, t1, capsys, prob):
    # NaN passed every comparison in the distribution's checks, and the
    # rounding then died with a traceback.
    agents, quotas, out, result_path = _select_t1(tmp_path, t1)
    payload = json.loads(result_path.read_text())
    payload["compositions"][0]["prob"] = prob
    bad = tmp_path / "bad_result.json"
    bad.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main(
        ["--out", str(out), "round", "--agents", agents, "--quotas", quotas, "-k", "2",
         "--result", str(bad), "--m", "100"]
    )
    assert code == 1
    assert "INVALID_INPUT" in capsys.readouterr().err
    assert not list(out.glob("lottery_*"))


def test_round_rejects_an_id_holding_a_comma(tmp_path, t1, capsys):
    # A CSV-quoted "x,1" used to be written unquoted, and read back as two members.
    inst = dataclasses.replace(t1, agents=(("x,1", t1.agents[0][1]),) + t1.agents[1:])
    agents, quotas, out, result_path = _select_t1(tmp_path, inst)
    capsys.readouterr()
    code = main(
        ["--out", str(out), "round", "--agents", agents, "--quotas", quotas, "-k", "2",
         "--result", str(result_path), "--m", "100"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "INVALID_INPUT" in err
    assert "'x,1'" in err
    assert not list(out.glob("lottery_*"))


@pytest.mark.parametrize("m", ["0", "-5"])
def test_round_rejects_m_below_one_before_the_note(tmp_path, t1, capsys, m):
    agents, quotas, out, result_path = _select_t1(tmp_path, t1)
    capsys.readouterr()
    code = main(
        ["--out", str(out), "round", "--agents", agents, "--quotas", quotas, "-k", "2",
         "--result", str(result_path), "--m", m]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "INVALID_INPUT" in err
    assert "note:" not in err
    assert not list(out.glob("lottery_*"))


def test_round_notes_an_m_below_n_sqrt_n(tmp_path, t1, capsys):
    agents, quotas, out, result_path = _select_t1(tmp_path, t1)
    capsys.readouterr()
    code = main(
        ["--out", str(out), "round", "--agents", agents, "--quotas", quotas, "-k", "2",
         "--result", str(result_path), "--m", "5"]
    )
    assert code == 0
    assert "note: m=5 is below n*sqrt(n)=8" in capsys.readouterr().err
    assert len(next(out.glob("lottery_*.txt")).read_text().splitlines()) == 5


def test_manip_mu_subcommand(tmp_path, e1, capsys):
    agents, quotas = _files(tmp_path, e1)
    out = tmp_path / "artifacts"
    code = main(
        ["--out", str(out), "manip", "--agents", agents, "--quotas", quotas, "-k", "3",
         "--objective", "maximin", "--strategy", "mu"]
    )
    assert code == 0
    text = next(out.glob("manip_*.csv")).read_text()
    header, row = text.strip().split("\n")
    assert header == "metric,c,search,value,witness_coalition,witness_vectors,copies"
    assert row.startswith("int,1,mu,0.000000")


def test_manip_mu_with_pool_copies(tmp_path, e1):
    agents, quotas = _files(tmp_path, e1)
    out = tmp_path / "artifacts"
    code = main(
        ["--out", str(out), "manip", "--agents", agents, "--quotas", quotas, "-k", "3",
         "--objective", "maximin", "--strategy", "mu", "--copies", "2"]
    )
    assert code == 0
    text = next(out.glob("manip_*.csv")).read_text()
    row = text.strip().split("\n")[1]
    assert row.startswith("int,1,mu,0.000000")
    assert row.endswith(",2")


@pytest.mark.parametrize("extra, flags", [
    (["--c", "3"], "--c"),
    (["--metric", "ext"], "--metric"),
    (["--strict"], "--strict"),
    (["--c", "3", "--metric", "ext", "--strict"], "--c, --metric, --strict"),
], ids=["c", "metric", "strict", "all"])
def test_manip_mu_rejects_the_exhaustive_options(tmp_path, e1, capsys, extra, flags):
    agents, quotas = _files(tmp_path, e1)
    out = tmp_path / "artifacts"
    code = main(
        ["--out", str(out), "manip", "--agents", agents, "--quotas", quotas, "-k", "3",
         "--objective", "maximin", "--strategy", "mu", *extra]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("INVALID_INPUT")
    assert f"does not take {flags}" in err
    assert not out.exists()


def test_manip_exhaustive_subcommand(tmp_path, e1):
    agents, quotas = _files(tmp_path, e1)
    out = tmp_path / "artifacts"
    code = main(
        ["--out", str(out), "manip", "--agents", agents, "--quotas", quotas, "-k", "3",
         "--objective", "maximin", "--strategy", "exhaustive", "--c", "1", "--metric", "ext"]
    )
    assert code == 0
    text = next(out.glob("manip_*_ext.csv")).read_text()
    assert "0.166667" in text


def test_feature_drop_subcommand(tmp_path, e2):
    agents, quotas = _files(tmp_path, e2)
    out = tmp_path / "artifacts"
    code = main(
        ["--out", str(out), "feature-drop", "--agents", agents, "--quotas", quotas, "-k", "4",
         "--max-drop", "1"]
    )
    assert code == 0
    text = next(out.glob("feature_drop_*.csv")).read_text()
    assert text.splitlines()[0] == "drops,objective,min_prob,max_prob,min_opt,max_opt"


def _csv_cell(value) -> str:
    """A JSON row value as the CSV writer spells it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "NaN"
    return f"{value:.6f}" if isinstance(value, float) else str(value)


@pytest.mark.parametrize("command, extra", [
    ("manip", ["--strategy", "exhaustive", "--c", "1", "--metric", "comp", "--objective", "maximin"]),
    ("manip", ["--objective", "maximin"]),
    ("feature-drop", ["--max-drop", "1"]),
], ids=["manip-exhaustive", "manip-mu", "feature-drop"])
def test_json_rows_match_csv_rows(tmp_path, e2, command, extra):
    agents, quotas = _files(tmp_path, e2)
    rows = {}
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        code = main(["--out", str(out), "--format", fmt, command, "--agents", agents, "--quotas", quotas,
                     "-k", "4", *extra])
        assert code == 0
        [path] = out.glob(f"*.{fmt}")
        rows[fmt] = path.read_text(encoding="utf-8")
    header, *lines = rows["csv"].splitlines()
    csv_rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    json_rows = [{key: _csv_cell(value) for key, value in row.items()} for row in json.loads(rows["json"])]
    assert json_rows == csv_rows


def test_gen_lb_round_trips(tmp_path):
    out = tmp_path / "artifacts"
    code = main(
        ["--out", str(out), "gen-lb", "--kind", "thm43", "--n", "72", "--k", "6",
         "--nmin", "12", "--c", "6"]
    )
    assert code == 0
    inst = load_instance(out / "thm43_agents.csv", out / "thm43_quotas.csv", k=6)
    assert inst.n == 72
    payload = json.loads((out / "thm43_misreport.json").read_text())
    assert len(payload["coalition"]) == 6


@pytest.mark.parametrize("kind, extra, message", [
    ("thm43", [], "needs the parameters n_min, c"),
    ("thm31", ["--nmin", "12"], "needs the parameters c"),
    ("thm43", ["--nmin", "12", "--c", "0"], "need 5 <= c <= n_min - k"),  # 0 is given, not missing
])
def test_gen_lb_names_its_missing_parameters(tmp_path, capsys, kind, extra, message):
    out = tmp_path / "artifacts"
    code = main(["--out", str(out), "gen-lb", "--kind", kind, "--n", "72", "--k", "6", *extra])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("INVALID_INPUT")
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["--kind", "example2", "--n", "8", "--k", "4", "--c", "5"], "--kind example2 does not take --c"),
    (["--kind", "example2", "--n", "8", "--k", "4", "--nmin", "2"], "does not take --nmin"),
    (["--kind", "example2", "--n", "8", "--k", "4", "--nmin", "2", "--c", "5"], "does not take --nmin, --c"),
    (["--kind", "example2", "--n", "6", "--k", "4"], "need n divisible by 4 and even k"),
    (["--kind", "example1", "--n", "3", "--k", "3", "--nmin", "5"],
     "n_min out of range: need 1 <= n_min <= n - k + 1"),
], ids=["example2-c", "example2-nmin", "example2-nmin-c", "example2-n", "example1-nmin"])
def test_gen_lb_rejects_parameters_its_kind_cannot_use(tmp_path, capsys, args, message):
    out = tmp_path / "artifacts"
    code = main(["--out", str(out), "gen-lb", *args])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("INVALID_INPUT")
    assert message in err
    assert not out.exists()


def test_domain_error_exit_code(tmp_path, capsys):
    agents = tmp_path / "agents.csv"
    quotas = tmp_path / "quotas.csv"
    agents.write_text("id,f\na1,0\na2,0\na3,1\na4,1\n")
    quotas.write_text("feature,value,min,max\nf,0,2,2\nf,1,2,2\n")
    code = main(["validate", "--agents", str(agents), "--quotas", str(quotas), "-k", "3"])
    assert code == 1
    assert "INFEASIBLE_QUOTAS" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["select"])  # missing required arguments
    assert err.value.code == 2
