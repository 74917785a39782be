import math
import random

import pytest

from panelot import fixtures
from panelot.errors import CapExceededError, NonCoalitionExclusionError, ValidationError
from panelot.model import FeatureScheme, Instance
from panelot.panels import (
    CompositionDistribution,
    Panel,
    PanelComposition,
    PanelDistribution,
    enumerate_panels,
    feasible_compositions,
    has_valid_panel,
    marginals,
    panel_oracle,
    strip_self_excluders,
    structurally_excluded,
)
from panelot.rounding import lottery_marginals, pipage_round


def _uniform(panels):
    return PanelDistribution(tuple((p, 1.0 / len(panels)) for p in panels))


def test_enumerate_t1(t1):
    panels = enumerate_panels(t1)
    assert [p.members for p in panels] == [
        ("a1", "a3"),
        ("a1", "a4"),
        ("a2", "a3"),
        ("a2", "a4"),
    ]


def test_enumerate_infeasible_group_too_small():
    scheme = FeatureScheme(features=("f",), values={"f": ("0", "1")})
    agents = (("a1", ("1",)), ("a2", ("0",)), ("a3", ("0",)), ("a4", ("0",)))
    inst = Instance(
        scheme=scheme, agents=agents, k=3, quotas={("f", "1"): (2, 2), ("f", "0"): (1, 1)}
    )
    assert enumerate_panels(inst) == []
    assert not has_valid_panel(inst)


def test_enumerate_cap(e2):
    with pytest.raises(CapExceededError):
        enumerate_panels(e2, cap=3)


def test_e2_panels_balance_linked_groups(e2):
    for panel in enumerate_panels(e2):
        comp = panel.composition(e2)
        assert comp.seats(("1", "0")) == comp.seats(("0", "1"))


def test_e2_linked_fate_probability_ratio(e2):
    panels = enumerate_panels(e2)
    rng = random.Random(5)
    lone = e2.groups[("0", "1")][0]
    ten_group = e2.groups[("1", "0")]
    for _ in range(25):
        weights = [rng.random() for _ in panels]
        total = sum(weights)
        dist = PanelDistribution(tuple((p, w / total) for p, w in zip(panels, weights)))
        pi = marginals(e2, dist)
        p01 = pi.pi[lone]
        p10 = sum(pi.pi[a] for a in ten_group) / len(ten_group)
        assert p01 == pytest.approx(3.0 * p10, abs=1e-9)


def test_e1_any_distribution_hits_min_group_floor(e1):
    panels = enumerate_panels(e1)
    rng = random.Random(6)
    scarce = e1.groups[("1",)]
    for _ in range(25):
        weights = [rng.random() for _ in panels]
        total = sum(weights)
        dist = PanelDistribution(tuple((p, w / total) for p, w in zip(panels, weights)))
        pi = marginals(e1, dist)
        assert max(pi.pi[a] for a in scarce) >= 1.0 / e1.min_group_size() - 1e-9


def test_marginals_uniform_t1(t1):
    pi = marginals(t1, _uniform(enumerate_panels(t1)))
    assert all(v == pytest.approx(0.5) for v in pi.pi.values())
    assert pi.total() == pytest.approx(t1.k)


def test_marginals_point_mass(t1):
    panel = enumerate_panels(t1)[0]
    pi = marginals(t1, PanelDistribution(((panel, 1.0),)))
    assert sorted(pi.pi.values()) == [0.0, 0.0, 1.0, 1.0]


def test_marginals_rejects_invalid_panel(t1):
    bad = Panel(("a1", "a2"))  # two agents from the same group break the quotas
    with pytest.raises(ValidationError):
        marginals(t1, PanelDistribution(((bad, 1.0),)))


def test_oracle_t1_weighted(t1):
    weights = {"a1": 5.0, "a2": 1.0, "a3": 4.0, "a4": 2.0}
    best = panel_oracle(t1, weights)
    assert best.members == ("a1", "a3")
    assert sum(weights[a] for a in best.members) == pytest.approx(9.0)


def test_oracle_equal_weights(e2):
    best = panel_oracle(e2, {a: 2.5 for a in e2.agent_ids})
    assert best is not None and best.is_valid(e2)
    assert sum(2.5 for _ in best.members) == pytest.approx(e2.k * 2.5)


def test_oracle_infeasible_returns_none():
    scheme = FeatureScheme(features=("f",), values={"f": ("0", "1")})
    agents = (("a1", ("1",)), ("a2", ("0",)), ("a3", ("0",)), ("a4", ("0",)))
    inst = Instance(
        scheme=scheme, agents=agents, k=3, quotas={("f", "1"): (2, 2), ("f", "0"): (1, 1)}
    )
    assert panel_oracle(inst, {a: 1.0 for a in inst.agent_ids}) is None


def test_enumeration_matches_raw_subset_filter():
    # Independent oracle for the whole composition machinery: filter every
    # k-subset of the pool directly against the quotas.
    import itertools

    for seed in range(20):
        inst = fixtures.random_brute_instance(seed + 600, max_n=9)
        ids = inst.agent_ids
        expected = set()
        for subset in itertools.combinations(ids, inst.k):
            ok = True
            for f_idx, feature in enumerate(inst.scheme.features):
                for value in inst.scheme.values[feature]:
                    count = sum(1 for a in subset if inst.vector_of[a][f_idx] == value)
                    lo, hi = inst.quota(feature, value)
                    if not lo <= count <= hi:
                        ok = False
            if ok:
                expected.add(tuple(sorted(subset)))
        got = {p.members for p in enumerate_panels(inst)}
        assert got == expected


def test_oracle_matches_enumeration_on_random_instances():
    for seed in range(40):
        inst = fixtures.random_brute_instance(seed)
        rng = random.Random(seed + 1000)
        weights = {a: rng.uniform(-2, 3) for a in inst.agent_ids}
        best = panel_oracle(inst, weights)
        brute_best = max(
            sum(weights[a] for a in p.members) for p in enumerate_panels(inst)
        )
        assert sum(weights[a] for a in best.members) == pytest.approx(brute_best, abs=1e-9)


def test_structural_exclusion_empty(t1):
    assert structurally_excluded(t1) == set()


def test_structural_exclusion_forced():
    inst = fixtures.excluded_agent_instance()
    assert structurally_excluded(inst) == {"a4"}


def test_strip_self_excluders_removes_reporter():
    inst = fixtures.excluded_agent_instance()
    stripped = strip_self_excluders(inst, {"a4"})
    assert stripped.n == inst.n - 1
    assert "a4" not in stripped.vector_of


def test_strip_self_excluders_identity(t1):
    assert strip_self_excluders(t1, {"a1"}) is t1


def test_strip_self_excluders_rejects_truthful_exclusion():
    inst = fixtures.excluded_agent_instance()
    with pytest.raises(NonCoalitionExclusionError):
        strip_self_excluders(inst, {"a1"})


def _expand(instance, mixture, m, seed=0):
    """Ticket-count probabilities of an m-ticket lottery drawn from ``mixture``."""
    lottery = pipage_round(CompositionDistribution(tuple(mixture)), instance, m, seed)
    return lottery_marginals(instance, lottery)


def test_expand_point_mass_mixed_composition(e2):
    comp = PanelComposition(
        ((("0", "0"), 1), (("1", "1"), 1), (("1", "0"), 1), (("0", "1"), 1))
    )
    # lcm(group sizes) tickets cover whole round-robin periods.
    pi = _expand(e2, [(comp, 1.0)], math.lcm(2, 2, 3, 1))
    groups = pi.group_probabilities(e2, tol=1e-9)
    assert groups[("0", "1")] == pytest.approx(1.0)
    assert groups[("1", "0")] == pytest.approx(1.0 / 3.0)
    assert groups[("0", "0")] == pytest.approx(0.5)
    assert groups[("1", "1")] == pytest.approx(0.5)


def test_expand_full_group_composition(t1):
    comp = PanelComposition(((("0",), 1), (("1",), 1)))
    pi = _expand(t1, [(comp, 1.0)], 2)
    assert all(v == pytest.approx(0.5) for v in pi.pi.values())


def test_expand_matches_group_seat_shares_on_random_mixtures():
    # Round-robin ticket filling must give every member exactly (expected
    # group seats) / (group size) when each composition's ticket count is a
    # whole number of fill periods, whatever the composition mixture.
    for seed in range(25):
        inst = fixtures.random_brute_instance(seed + 300)
        comps = feasible_compositions(inst)
        rng = random.Random(seed)
        counts = [
            rng.randint(1, 4) * math.lcm(*(
                inst.group_size(v) // math.gcd(inst.group_size(v), s) for v, s in c.items
            ))
            for c in comps
        ]
        m = sum(counts)
        mixture = [(c, count / m) for c, count in zip(comps, counts)]
        pi = _expand(inst, mixture, m, seed)
        for vector, members in inst.groups.items():
            expected_seats = sum(prob * comp.seats(vector) for comp, prob in mixture)
            for agent in members:
                assert pi.pi[agent] == pytest.approx(expected_seats / len(members), abs=1e-9)


def test_expand_rejects_oversized_composition(t1):
    comp = PanelComposition(((("0",), 2),))
    with pytest.raises(ValidationError):
        pipage_round(CompositionDistribution(((comp, 1.0),)), t1, 10, seed=0)


def test_distribution_validation_rejects_bad_mass(t1):
    panel = enumerate_panels(t1)[0]
    with pytest.raises(ValidationError):
        PanelDistribution(((panel, 0.5),))


def test_distribution_json_round_trip(t1):
    dist = _uniform(enumerate_panels(t1))
    again = PanelDistribution.from_json(dist.to_json())
    assert again == dist


def test_composition_distribution_validation_and_json(e2):
    comps = feasible_compositions(e2)
    dist = CompositionDistribution(((comps[0], 0.25), (comps[1], 0.75)))
    assert CompositionDistribution.from_json(dist.to_json()) == dist
    with pytest.raises(ValidationError):
        CompositionDistribution(((comps[0], 0.5),))
    with pytest.raises(ValidationError):
        CompositionDistribution(((comps[0], 1.5), (comps[1], -0.5)))
    with pytest.raises(ValidationError):
        CompositionDistribution(((comps[0], 0.5), (comps[0], 0.5)))
    with pytest.raises(ValidationError):
        CompositionDistribution.from_json({"panels": []})


def test_composition_validity(e2):
    good = PanelComposition(((("0", "0"), 2), (("1", "1"), 2)))
    assert good.is_valid(e2)
    bad = PanelComposition(((("0", "0"), 2), (("1", "0"), 2)))
    assert not bad.is_valid(e2)
