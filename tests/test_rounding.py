import math
import random
import statistics
from collections import Counter

import pytest

from conftest import panel_composition, reference_panels
from panelot import fixtures
from panelot.errors import ValidationError
from panelot.objectives import parse_objective
from panelot.panels import CompositionDistribution, Panel, feasible_compositions
from panelot.rounding import (
    TicketRun,
    UniformLottery,
    _round_counts,
    lottery_marginals,
    pipage_round,
    rounding_bounds,
    write_lottery,
)
from panelot.solver import SolveConfig, solve


def _dist(comps, probs):
    return CompositionDistribution(tuple(zip(comps, probs)))


def _composition_counts(instance, lottery):
    return Counter(panel_composition(p, instance) for p in lottery.tickets)


def test_already_m_uniform_is_untouched():
    inst = fixtures.random_brute_instance(301)
    comps = feasible_compositions(inst)[:3]
    lottery = pipage_round(_dist(comps, [0.25, 0.25, 0.5]), inst, 4, seed=11)
    counts = _composition_counts(inst, lottery)
    assert counts == {comps[0]: 1, comps[1]: 1, comps[2]: 2}


def test_single_step_splits_between_neighbours(e2):
    comps = feasible_compositions(e2)
    assert len(comps) == 2
    dist = _dist(comps, [0.35, 0.65])
    outcomes = Counter()
    for seed in range(4000):
        counts = _composition_counts(e2, pipage_round(dist, e2, 10, seed=seed))
        outcomes[(counts[comps[0]], counts[comps[1]])] += 1
    assert set(outcomes) == {(3, 7), (4, 6)}
    # Expectation preservation: 3.5 = 3 * P(3,7) + 4 * P(4,6) means a 50/50 split.
    assert outcomes[(4, 6)] / 4000 == pytest.approx(0.5, abs=0.03)


def test_point_mass_gives_m_copies(t1):
    (comp,) = feasible_compositions(t1)
    lottery = pipage_round(_dist([comp], [1.0]), t1, 7, seed=0)
    assert len(lottery.tickets) == 7
    assert all(panel_composition(p, t1) == comp for p in lottery.tickets)
    # One seat in each group of two: the round-robin fill alternates members.
    assert len(set(lottery.tickets)) == 2


def test_unbiasedness_per_panel(e2):
    # Per composition: the expected ticket count is prob * m.
    config = SolveConfig(objective=parse_objective("goldilocks:1"), eps_colgen=1e-7)
    dist = solve(e2, config).distribution
    m = 100
    sums = Counter()
    runs = 3000
    for seed in range(runs):
        sums.update(_composition_counts(e2, pipage_round(dist, e2, m, seed=seed)))
    for comp, prob in dist.entries:
        mean_tickets = sums[comp] / runs
        assert mean_tickets == pytest.approx(prob * m, abs=0.05)


def test_round_counts_terminates_within_support_size():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randint(2, 12)
        raw = [rng.random() for _ in range(n)]
        total = sum(raw)
        target = rng.randint(1, 50)
        x = [v * target / total for v in raw]
        counts, rounds = _round_counts(x, rng)
        assert rounds <= n - 1
        assert sum(counts) == target


def test_round_counts_pinned_output():
    # Values recorded from the original quadratic pairing loop; the linear
    # pass pairs the same entries in the same order with the same draws.
    x = [0.25, 1.6, 0.0, 2.15, 0.7, 3.0, 0.35, 1.95, 0.5, 0.5]
    expected = {
        0: [0, 2, 0, 2, 1, 3, 0, 2, 0, 1],
        1: [1, 1, 0, 2, 0, 3, 1, 2, 1, 0],
        2: [0, 1, 0, 3, 1, 3, 0, 2, 0, 1],
        3: [1, 1, 0, 2, 1, 3, 0, 2, 0, 1],
        4: [1, 1, 0, 2, 1, 3, 0, 2, 1, 0],
    }
    for seed, counts in expected.items():
        assert _round_counts(list(x), random.Random(seed)) == (counts, 5)
    rng = random.Random(9)
    raw = [rng.random() for _ in range(40)]
    total = sum(raw)
    counts, rounds = _round_counts([v * 25 / total for v in raw], random.Random(3))
    assert rounds == 39
    assert counts == [
        1, 0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 1, 1, 0, 0, 0, 1, 1,
        1, 2, 0, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 2, 0, 1, 0,
    ]


def test_ticket_fill_is_round_robin_valid_and_unbiased():
    # One composition drawn c times: every member of group w sits on
    # floor or ceil of c*s_w/n_w tickets (exactly that when it is whole),
    # and every ticket is a valid panel.
    gen = random.Random(17)
    for seed in range(25):
        inst = fixtures.random_brute_instance(seed + 300)
        for comp in feasible_compositions(inst):
            c = gen.randint(1, 40)
            lottery = pipage_round(_dist([comp], [1.0]), inst, c, seed=gen.randrange(2**32))
            assert all(p.is_valid(inst) for p in set(lottery.tickets))
            appearances = Counter(a for p in lottery.tickets for a in p.members)
            for vector, members in inst.groups.items():
                share = c * comp.seats(vector) / len(members)
                for agent in members:
                    if share == int(share):
                        assert appearances[agent] == share
                    else:
                        assert math.floor(share) <= appearances[agent] <= math.ceil(share)

    # Random mixtures: over seeds, the mean lottery probability of every
    # agent matches sum_c q_c * s_w / n_w within 3 sigma.
    m, runs = 50, 200
    for seed in range(25):
        inst = fixtures.random_brute_instance(seed + 300)
        comps = feasible_compositions(inst)
        rng = random.Random(seed)
        weights = [rng.random() for _ in comps]
        total = sum(weights)
        dist = _dist(comps, [w / total for w in weights])
        per_agent = {a: [] for a in inst.agent_ids}
        for run in range(runs):
            rounded = lottery_marginals(inst, pipage_round(dist, inst, m, seed=run))
            for agent, value in rounded.pi.items():
                per_agent[agent].append(value)
        for agent, values in per_agent.items():
            vector = inst.vector_of[agent]
            target = sum(q * comp.seats(vector) for comp, q in dist.entries) / inst.group_size(vector)
            mean, std = statistics.fmean(values), statistics.pstdev(values)
            if std == 0.0:
                assert mean == pytest.approx(target, abs=1e-12)
            else:
                assert abs(mean - target) <= 3.0 * std / math.sqrt(runs), (seed, agent)


def test_lottery_marginals_are_ticket_fractions(t1):
    config = SolveConfig(objective=parse_objective("maximin"), eps_colgen=1e-7)
    dist = solve(t1, config).distribution
    lottery = pipage_round(dist, t1, 1000, seed=5)
    rounded = lottery_marginals(t1, lottery)
    assert rounded.total() == pytest.approx(t1.k)
    for value in rounded.pi.values():
        assert round(value * 1000) == pytest.approx(value * 1000, abs=1e-9)
        assert value == pytest.approx(0.5, abs=0.05)


def test_support_never_grows(e2):
    config = SolveConfig(objective=parse_objective("goldilocks:1"), eps_colgen=1e-7)
    dist = solve(e2, config).distribution
    support = set(dist.support())
    for seed in range(50):
        lottery = pipage_round(dist, e2, 17, seed=seed)
        assert set(_composition_counts(e2, lottery)) <= support


def test_rounding_bounds_worked_values():
    b1, _ = rounding_bounds(30, 202, 1000)
    assert b1 == pytest.approx(0.03)
    _, b2 = rounding_bounds(30, 202, 1000)
    assert b2 == pytest.approx(0.025620, abs=1e-5)
    b1_small, b2_small = rounding_bounds(30, 202, 10_000)
    assert b1_small == pytest.approx(b1 / 10.0)
    assert b2_small == pytest.approx(b2 / 10.0)


def test_rounding_bounds_domain():
    with pytest.raises(ValidationError):
        rounding_bounds(5, 1, 100)
    with pytest.raises(ValidationError):
        rounding_bounds(5, 10, 0)


def test_lottery_file_round_trip(tmp_path, t1):
    config = SolveConfig(objective=parse_objective("maximin"), eps_colgen=1e-7)
    dist = solve(t1, config).distribution
    lottery = pipage_round(dist, t1, 40, seed=3)
    path = tmp_path / "lottery.txt"
    write_lottery(lottery, path, t1, seed=3)

    lines = path.read_text().strip("\n").split("\n")
    assert len(lines) == 40
    assert [line.split("\t")[0] for line in lines] == [str(i) for i in range(1, 41)]

    sidecar = path.with_suffix(".txt.json")
    assert sidecar.exists()
    import json

    meta = json.loads(sidecar.read_text())
    assert meta["m"] == 40 and meta["seed"] == 3 and meta["instance_hash"]

    assert Counter(line.split("\t")[1] for line in lines) == Counter(",".join(p.members) for p in lottery.tickets)


def test_uniform_lottery_validation(t1):
    panel = Panel(reference_panels(t1)[0])
    (comp,) = feasible_compositions(t1)
    with pytest.raises(ValidationError):
        UniformLottery(m=3, runs=[TicketRun((panel,), 2)])
    with pytest.raises(ValidationError):
        pipage_round(_dist([comp], [1.0]), t1, 0, seed=1)


def test_mean_extremes_concentrate(t1):
    # Integral scaled mass: zero rounding noise at all.
    config = SolveConfig(objective=parse_objective("maximin"), eps_colgen=1e-7)
    dist = solve(t1, config).distribution
    mins, maxes = [], []
    for seed in range(300):
        rounded = lottery_marginals(t1, pipage_round(dist, t1, 1000, seed=seed))
        mins.append(rounded.min())
        maxes.append(rounded.max())
    assert statistics.fmean(mins) == pytest.approx(0.5, abs=1e-12)
    assert statistics.pstdev(maxes) == 0.0
