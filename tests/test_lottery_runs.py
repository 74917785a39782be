"""Run-based lotteries against a naive per-ticket reference.

The reference draws the same rounding and rotations as ``pipage_round`` but
builds every ticket on its own, with no period or cycle, and writes and
tallies the lottery one ticket at a time.
"""

import dataclasses
import math
import random
from collections import Counter

import pytest

from panelot import fixtures
from panelot.errors import ValidationError
from panelot.objectives import parse_objective
from panelot.panels import CompositionDistribution, Panel, feasible_compositions
from panelot.report import lottery_stats
from panelot.rounding import (
    _WRITE_CHUNK,
    TicketRun,
    UniformLottery,
    _round_counts,
    lottery_marginals,
    pipage_round,
    write_lottery,
)
from panelot.solver import SolveConfig, solve


def _reference_tickets(dist, instance, m, seed):
    rng = random.Random(seed)
    counts, _ = _round_counts([prob * m for _, prob in dist.entries], rng)
    tickets = []
    for (comp, _), count in zip(dist.entries, counts):
        if not count:
            continue
        groups = []
        for vector, seats in comp.items:
            members = instance.groups[vector]
            groups.append((members, seats, rng.randrange(len(members))))
        for j in range(count):
            tickets.append(Panel(tuple(
                members[(start + j * seats + t) % len(members)]
                for members, seats, start in groups
                for t in range(seats)
            )))
    return tickets


def _reference_file(tickets):
    return "".join(f"{number}\t{','.join(p.members)}\n" for number, p in enumerate(tickets, start=1))


def _reference_marginals(instance, tickets):
    pi = {agent: 0.0 for agent in instance.agent_ids}
    for panel in tickets:
        for agent in panel.members:
            pi[agent] += 1.0
    return {agent: value / len(tickets) for agent, value in pi.items()}


def _tally(lottery):
    """Tickets per distinct panel, summed over the lottery's runs."""
    tally = Counter()
    for panel, count in lottery.multiplicities():
        tally[panel.members] += count
    return tally


def _period(instance, comp):
    period = 1
    for vector, seats in comp.items:
        size = instance.group_size(vector)
        period = math.lcm(period, size // math.gcd(size, seats))
    return period


def _cases():
    """(instance, distribution, period): a random mixture over every valid
    composition, and a point mass on the composition with the longest period."""
    for seed in range(40):
        inst = fixtures.random_brute_instance(seed)
        comps = feasible_compositions(inst)
        rng = random.Random(seed)
        weights = [rng.random() for _ in comps]
        total = sum(weights)
        mixture = CompositionDistribution(tuple((c, w / total) for c, w in zip(comps, weights)))
        longest = max(comps, key=lambda c: _period(inst, c))
        point = CompositionDistribution(((longest, 1.0),))
        period = _period(inst, longest)
        yield pytest.param(inst, mixture, period, id=f"rand{seed}-mix")
        yield pytest.param(inst, point, period, id=f"rand{seed}-point")


def _assert_same(got, want):
    """Equal sequences. A failure names the first difference; pytest's full
    diff of two 10,007-line sequences would take minutes."""
    got, want = list(got), list(want)
    if got != want:
        i = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
        pytest.fail(f"first difference at {i}: {got[i:i + 1]} != {want[i:i + 1]} "
                    f"(lengths {len(got)} and {len(want)})")


def _check_against_reference(tmp_path, inst, dist, m, seed):
    reference = _reference_tickets(dist, inst, m, seed)
    lottery = pipage_round(dist, inst, m, seed)
    _assert_same(lottery.tickets, reference)

    path = tmp_path / "lottery.txt"
    write_lottery(lottery, path, inst, seed)
    _assert_same(path.read_bytes().splitlines(True), _reference_file(reference).encode("utf-8").splitlines(True))
    assert lottery_marginals(inst, lottery).pi == _reference_marginals(inst, reference)
    assert _tally(lottery) == Counter(p.members for p in reference)


def _ms(period):
    return sorted({m for m in (1, 7, period - 1, period, period + 1, 10_007) if m >= 1})


@pytest.mark.parametrize("inst,dist,period", list(_cases()))
def test_runs_match_per_ticket_reference(tmp_path, inst, dist, period):
    for m in _ms(period):
        _check_against_reference(tmp_path, inst, dist, m, seed=m)


def test_runs_match_per_ticket_reference_on_thm43a(tmp_path, instance_b):
    inst = instance_b[2]
    dist = solve(inst, SolveConfig(objective=parse_objective("leximin"))).distribution
    period = max(_period(inst, comp) for comp in dist.support())
    for m in _ms(period):
        _check_against_reference(tmp_path, inst, dist, m, seed=7)


def test_tallies_and_writer_never_build_tickets(tmp_path, monkeypatch, instance_b):
    inst = instance_b[2]
    dist = solve(inst, SolveConfig(objective=parse_objective("leximin"))).distribution

    def refuse(self):
        raise AssertionError("the m-ticket view was built")

    monkeypatch.setattr(UniformLottery, "tickets", property(refuse))
    lottery = pipage_round(dist, inst, 50_000, seed=3)
    path = tmp_path / "lottery.txt"
    write_lottery(lottery, path, inst, seed=3)
    assert lottery_marginals(inst, lottery).total() == pytest.approx(inst.k)
    tally = _tally(lottery)
    assert len(tally) == sum(len(run.panels) for run in lottery.runs)
    assert sum(tally.values()) == 50_000
    assert lottery_stats(inst, dist, 50_000, 3, seed=3)["runs"] == 3
    assert path.read_bytes().count(b"\n") == 50_000


def _renamed(inst, names):
    """``inst`` with its agents renamed, in order, to ``names``."""
    return dataclasses.replace(inst, agents=tuple(
        (name, vector) for name, (_, vector) in zip(names, inst.agents, strict=True)
    ))


_AWKWARD_IDS = ("p%d", "100%", "%%", "é", "ß")


def _awkward_names(n):
    """n distinct ids, each holding ``%`` or a non-ASCII letter."""
    return [_AWKWARD_IDS[i] if i < len(_AWKWARD_IDS) else f"{_AWKWARD_IDS[i % len(_AWKWARD_IDS)]}{i}"
            for i in range(n)]


def _uniform_over_compositions(inst):
    comps = feasible_compositions(inst)
    return CompositionDistribution(tuple((c, 1 / len(comps)) for c in comps))


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_writer_escapes_percent_and_encodes_non_ascii_ids(tmp_path, seed):
    base = fixtures.random_brute_instance(seed)
    inst = _renamed(base, _awkward_names(base.n))
    dist = _uniform_over_compositions(inst)
    for m in (1, 7, 10_007):
        _check_against_reference(tmp_path, inst, dist, m, seed=m)


def test_writer_at_the_chunk_boundary(tmp_path, instance_b):
    """A single run, so every chunk but the last is a full template. The
    period does not divide ``_WRITE_CHUNK``, so the template holds
    ``block`` lines, a whole number of periods; m is put on both edges."""
    inst = _renamed(instance_b[2], _awkward_names(instance_b[2].n))
    comp = max(feasible_compositions(inst), key=lambda c: _period(inst, c))
    dist, period = CompositionDistribution(((comp, 1.0),)), _period(inst, comp)
    assert _WRITE_CHUNK % period
    block = _WRITE_CHUNK // period * period
    chunk = _WRITE_CHUNK
    for m in sorted({chunk - 1, chunk, chunk + 1, 2 * chunk + 1, block - 1, block, block + 1, 2 * block + 1}):
        lottery = pipage_round(dist, inst, m, seed=m)
        assert len(lottery.runs) == 1
        _check_against_reference(tmp_path, inst, dist, m, seed=m)


def test_writer_with_a_period_longer_than_the_chunk(tmp_path, instance_b):
    period = _WRITE_CHUNK + 3
    panels = tuple(Panel((f"a{j}%", f"é{j}")) for j in range(period))
    for count in (period, period + 1, 2 * period + 5):
        lottery = UniformLottery(m=count + 2, runs=[
            TicketRun(panels[:2], 2), TicketRun(panels, count),
        ])
        path = tmp_path / "lottery.txt"
        write_lottery(lottery, path, instance_b[2], seed=1)
        assert path.read_bytes() == _reference_file(lottery.tickets).encode("utf-8")


@pytest.mark.parametrize("bad_id", ["x,1", "x\n1", "x\r1"])
def test_writer_rejects_ids_the_ticket_format_cannot_carry(tmp_path, bad_id):
    base = fixtures.two_group_instance()
    inst = _renamed(base, [bad_id] + [f"a{i}" for i in range(1, base.n)])
    dist = _uniform_over_compositions(inst)
    lottery = pipage_round(dist, inst, 100, seed=1)
    assert any(bad_id in p.members for p, _ in lottery.multiplicities())
    path = tmp_path / "lottery.txt"
    with pytest.raises(ValidationError) as info:
        write_lottery(lottery, path, inst, seed=1)
    assert info.value.code == "INVALID_INPUT"
    assert repr(bad_id) in info.value.message
    assert not path.exists()
    assert not path.with_suffix(".txt.json").exists()


def test_writer_keeps_ids_holding_a_tab(tmp_path):
    base = fixtures.two_group_instance()
    inst = _renamed(base, [f"x\t{i}" for i in range(base.n)])
    dist = _uniform_over_compositions(inst)
    _check_against_reference(tmp_path, inst, dist, 100, seed=1)

