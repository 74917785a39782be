import gc
import itertools
import weakref
from collections import Counter

import numpy as np
import pytest

from conftest import reference_panels
from panelot import adversary, fixtures, panels
from panelot.adversary import (
    Misreport,
    _coalition_choices,
    _report_choices,
    apply_misreport,
    coalition_size_cap,
    drop_features,
    feature_bias_spread,
    make_lb_instance,
    manip_metric_exhaustive,
    mu_vector,
    worst_mu_manipulator,
)
from panelot.errors import (
    BudgetExceededError,
    CoalitionTooLargeError,
    NonCoalitionExclusionError,
    StructuralExclusionError,
    ValidationError,
)
from panelot.model import FeatureScheme, Instance, duplicate_pool
from panelot.objectives import parse_objective
from panelot.panels import CompositionDistribution
from panelot.solver import SolveConfig, solve


def cfg(spec: str = "maximin") -> SolveConfig:
    return SolveConfig(objective=parse_objective(spec), eps_colgen=1e-7)


# ---------------------------------------------------------------------------
# Misreport application
# ---------------------------------------------------------------------------


def test_apply_misreport_changes_counts(e1):
    mover = e1.groups[("0",)][0]
    mis = Misreport(frozenset({mover}), {mover: ("1",)})
    attacked = apply_misreport(e1, mis)
    assert attacked.group_size(("1",)) == 3
    assert attacked.group_size(("0",)) == 3


def test_apply_misreport_empty_is_identity(e1):
    assert apply_misreport(e1, Misreport(frozenset(), {})).agents == e1.agents


def test_apply_misreport_strict_size_cap(e1):
    # e1 has smallest group 2 < k=3, so the strict cap is zero; the sweep
    # enforces it (test_exhaustive_strict_respects_cap).
    assert coalition_size_cap(e1) == 0


def _self_excluding_pool():
    # Value "2" is capped at zero seats, so reporting it is self-exclusion.
    scheme = FeatureScheme(features=("f",), values={"f": ("0", "1", "2")})
    agents = (("a1", ("0",)), ("a2", ("0",)), ("a3", ("1",)), ("a4", ("1",)))
    return Instance(
        scheme=scheme,
        agents=agents,
        k=2,
        quotas={("f", "0"): (1, 1), ("f", "1"): (1, 1), ("f", "2"): (0, 0)},
    )


def test_apply_misreport_removes_self_excluder():
    inst = _self_excluding_pool()
    mis = Misreport(frozenset({"a1"}), {"a1": ("2",)})
    attacked = apply_misreport(inst, mis)
    assert attacked.n == inst.n - 1
    assert "a1" not in attacked.vector_of


def test_apply_misreport_rejects_an_inadmissible_reported_vector(e1):
    mover = e1.groups[("0",)][0]
    mis = Misreport(frozenset({mover}), {mover: ("7",)})
    with pytest.raises(ValidationError) as err:
        apply_misreport(e1, mis)
    assert err.value.code == "INVALID_INPUT"
    assert "'7'" in err.value.message


def test_apply_misreport_flags_truthful_exclusion(instance_b):
    truthful, _, _ = instance_b
    # The whole 111 column leaves: remaining 111 agents fall below the two
    # forced seats, so truthful agents become excluded.
    column = truthful.groups[("1", "1", "1")]
    coalition = frozenset(column[:11])
    mis = Misreport(coalition, {a: ("0", "0", "0") for a in coalition})
    with pytest.raises(NonCoalitionExclusionError):
        apply_misreport(truthful, mis)


# ---------------------------------------------------------------------------
# MU strategy
# ---------------------------------------------------------------------------


def test_mu_vector_prefers_scarce_value():
    scheme = FeatureScheme(features=("gender",), values={"gender": ("m", "w")})
    agents = tuple((f"a{i}", ("m",) if i < 7 else ("w",)) for i in range(10))
    inst = Instance(
        scheme=scheme,
        agents=agents,
        k=10,
        quotas={("gender", "m"): (5, 5), ("gender", "w"): (5, 5)},
    )
    assert mu_vector(inst) == ("w",)


def test_mu_vector_tie_breaks_by_value_order(e1):
    # Ratios tie at 3 vs 3; the scheme lists the scarce value first.
    assert mu_vector(e1) == ("1",)


def test_mu_vector_rejects_constrained_zero_share():
    scheme = FeatureScheme(features=("f",), values={"f": ("0", "1")})
    agents = (("a1", ("0",)), ("a2", ("0",)))
    inst = Instance(scheme=scheme, agents=agents, k=1, quotas={("f", "1"): (1, 1)})
    with pytest.raises(ValidationError):
        mu_vector(inst)


def test_mu_vector_skips_an_absent_value_no_panel_can_seat():
    scheme = FeatureScheme(features=("f",), values={"f": ("0", "1")})
    agents = (("a1", ("0",)), ("a2", ("0",)))
    inst = Instance(scheme=scheme, agents=agents, k=1, quotas={("f", "1"): (0, 1)})
    assert mu_vector(inst) == ("0",)


def test_worst_mu_manipulator_zero_on_e1(e1):
    report = worst_mu_manipulator(e1, cfg("maximin"))
    assert report.value == 0.0
    assert report.search == "mu"


def test_worst_mu_manipulator_zero_on_t1(t1):
    assert worst_mu_manipulator(t1, cfg("maximin")).value == 0.0


def test_worst_mu_manipulator_positive_on_thm43(instance_b):
    truthful, _, _ = instance_b
    report = worst_mu_manipulator(truthful, cfg("leximin"))
    assert report.value > 0.0
    assert report.witness.coalition


# ---------------------------------------------------------------------------
# Exhaustive metrics
# ---------------------------------------------------------------------------


def test_exhaustive_e1_int_ext_comp(e1):
    config = cfg("maximin")
    assert manip_metric_exhaustive(e1, config, c=1, metric="int").value == pytest.approx(0.0, abs=1e-9)
    assert manip_metric_exhaustive(e1, config, c=1, metric="ext").value == pytest.approx(1.0 / 6.0, abs=1e-9)
    assert manip_metric_exhaustive(e1, config, c=1, metric="comp").value == pytest.approx(0.4, abs=1e-9)


def test_exhaustive_c0(e1):
    config = cfg("maximin")
    for metric in ("int", "ext", "comp"):
        assert manip_metric_exhaustive(e1, config, c=0, metric=metric).value == 0.0
    fairness = manip_metric_exhaustive(e1, config, c=0, metric="fairness")
    assert fairness.value == pytest.approx(0.5)


def test_exhaustive_fairness_zero_under_exclusion():
    inst = fixtures.excluded_agent_instance()
    report = manip_metric_exhaustive(inst, cfg("maximin"), c=0, metric="fairness")
    assert report.value == 0.0
    report = manip_metric_exhaustive(inst, cfg("maximin"), c=1, metric="fairness")
    assert report.value == 0.0


@pytest.mark.parametrize("metric", ["int", "ext", "comp"])
def test_exhaustive_gain_metrics_reject_a_pool_with_excluded_agents(metric):
    with pytest.raises(StructuralExclusionError):
        manip_metric_exhaustive(fixtures.excluded_agent_instance(), cfg("maximin"), c=1, metric=metric)


def test_exhaustive_rejects_negative_coalition_before_solving(e1, monkeypatch):
    def no_solve(*_args, **_kwargs):
        raise AssertionError("the base solve ran before c was validated")

    monkeypatch.setattr("panelot.adversary.solve", no_solve)
    with pytest.raises(ValidationError) as err:
        manip_metric_exhaustive(e1, cfg("maximin"), c=-1, metric="ext")
    assert err.value.code == "INVALID_INPUT"


@pytest.mark.parametrize("metric", ["ext", "fairness"])
def test_exhaustive_solves_each_pool_multiset_once(metric, monkeypatch):
    # The truthful multiset is the base solve; a misreport that keeps it
    # (a member reporting its own vector) must not solve it again.
    from panelot import adversary

    inst = fixtures.skew_pool(48, 6, (2, 2, 2))
    solved = []
    solve = adversary.solve

    def counting_solve(instance, config):
        solved.append(tuple(sorted(Counter(v for _, v in instance.agents).items())))
        return solve(instance, config)

    monkeypatch.setattr(adversary, "solve", counting_solve)
    manip_metric_exhaustive(inst, cfg("maximin"), c=1, metric=metric)
    assert solved[0] == tuple(sorted(Counter(v for _, v in inst.agents).items()))
    assert len(solved) == len(set(solved)) > 1


def test_exhaustive_strict_respects_cap(e1):
    with pytest.raises(CoalitionTooLargeError):
        manip_metric_exhaustive(e1, cfg("maximin"), c=1, metric="int", strict=True)


def test_exhaustive_budget(monkeypatch, e1):
    monkeypatch.setattr(adversary, "_MAX_CANDIDATES", 3)
    with pytest.raises(BudgetExceededError):
        manip_metric_exhaustive(e1, cfg("maximin"), c=2, metric="int")


def test_exhaustive_dominates_mu_search(e1):
    # The MU manipulator is one point in the exhaustive search space.
    config = cfg("maximin")
    mu = worst_mu_manipulator(e1, config)
    exhaustive = manip_metric_exhaustive(e1, config, c=1, metric="int")
    assert exhaustive.value >= mu.value - 1e-9


@pytest.mark.parametrize("seed", [3, 6])
@pytest.mark.parametrize("spec", ["maximin", "leximin", "nash", "goldilocks:1"])
def test_mu_search_skips_misreports_outside_the_model(seed, spec):
    # On these pools some member reporting the mu vector would exclude a
    # truthful agent; the mu search skips that misreport, as the exhaustive
    # sweep does, and reports the best of the others.
    instance, config = fixtures.random_brute_instance(seed), cfg(spec)
    target = mu_vector(instance)
    base = solve(instance, config).distribution.group_probabilities(instance)
    gains, skipped = [0.0], 0
    for vector in instance.present_vectors():
        agent_id = instance.groups[vector][0]
        try:
            attacked = apply_misreport(instance, Misreport(frozenset({agent_id}), {agent_id: target}))
        except NonCoalitionExclusionError:
            skipped += 1
            continue
        after = solve(attacked, config).distribution.group_probabilities(attacked)
        gains.append((after[target] if agent_id in attacked.vector_of else 0.0) - base[vector])
    assert skipped
    report = worst_mu_manipulator(instance, config)
    assert report.value == pytest.approx(max(gains), abs=1e-9)
    assert report.value <= manip_metric_exhaustive(instance, config, c=1, metric="int").value + 1e-9


@pytest.mark.parametrize("name, c, metric", [
    ("e1", 1, "int"), ("rand7", 2, "ext"), ("rand0", 1, "fairness"), ("rand7", 2, "fairness"),
])
def test_sweep_without_a_gaining_misreport_reports_the_empty_coalition(name, c, metric):
    # The sweep starts from the empty coalition: a misreport takes the
    # witness only when it beats the truthful pool by more than PROB_EPS.
    instance = fixtures.small_group_instance() if name == "e1" else fixtures.random_brute_instance(int(name[4:]))
    report = manip_metric_exhaustive(instance, cfg(), c=c, metric=metric)
    assert report.witness == Misreport(frozenset(), {})
    truthful = solve(instance, cfg()).distribution.group_probabilities(instance)
    assert report.value == (min(truthful.values()) if metric == "fairness" else 0.0)


def test_exhaustive_witness_reproduces_value(e1):
    config = cfg("maximin")
    report = manip_metric_exhaustive(e1, config, c=1, metric="ext")
    from panelot.solver import solve

    base = solve(e1, config)
    attacked_inst = apply_misreport(e1, report.witness)
    attacked = solve(attacked_inst, config)
    base_groups = base.distribution.group_probabilities(e1)
    post_groups = attacked.distribution.group_probabilities(attacked_inst)
    losses = [
        base_groups[e1.vector_of[a]] - post_groups[attacked_inst.vector_of[a]]
        for a in e1.agent_ids
        if a not in report.witness.coalition
    ]
    assert max(losses) == pytest.approx(report.value, abs=1e-9)


def _per_agent_scores(instance, mis, base, attacked, after):
    """Every metric of one candidate, scored agent by agent: an agent's
    probability after is its reported group's in the attacked pool, or 0 if
    it was stripped as a self-excluder."""
    def prob_after(agent_id):
        if agent_id not in attacked.vector_of:
            return 0.0
        return after[attacked.vector_of[agent_id]]

    def shift(agent_id):
        return prob_after(agent_id) - base[instance.vector_of[agent_id]]

    return {
        "int": max(shift(a) for a in mis.coalition),
        "ext": max(
            base[instance.vector_of[a]] - prob_after(a) for a in instance.agent_ids if a not in mis.coalition
        ),
        "comp": max(
            sum(shift(a) for a, vec in instance.agents if vec[f_idx] == fv)
            for f_idx, feature in enumerate(instance.scheme.features)
            for fv in instance.scheme.values[feature]
        ),
        "fairness": min(prob_after(a) for a in attacked.agent_ids),
    }


def _reference_sweep(instance, config, c):
    """(value, witness) per metric from a sweep that scores each candidate
    agent by agent, plus the number of candidates with a stripped member."""
    base = solve(instance, config).distribution.group_probabilities(instance)
    best = {metric: (0.0, Misreport(frozenset(), {})) for metric in ("int", "ext", "comp")}
    best["fairness"] = (min(base.values()), Misreport(frozenset(), {}))
    solved, stripped = {}, 0
    for counts in _coalition_choices(instance, c):
        for reports in _report_choices(instance.scheme.all_vectors(), counts):
            reported = {a: r for v in counts for a, r in zip(instance.groups[v], reports[v])}
            mis = Misreport(frozenset(reported), reported)
            try:
                attacked = apply_misreport(instance, mis)
            except NonCoalitionExclusionError:
                scores = {"fairness": 0.0}
            else:
                stripped += attacked.n < instance.n
                key = tuple(sorted(Counter(reported.get(a, v) for a, v in instance.agents).items()))
                if key not in solved:
                    solved[key] = solve(attacked, config).distribution.group_probabilities(attacked)
                scores = _per_agent_scores(instance, mis, base, attacked, solved[key])
            for metric, value in scores.items():
                held = best[metric][0]
                if (held - value if metric == "fairness" else value - held) > panels.PROB_EPS:
                    best[metric] = (value, mis)
    return best, stripped


@pytest.mark.parametrize("c", [1, 2])
@pytest.mark.parametrize("name", [*(f"rand{seed}" for seed in range(12)), "skew8", "self-excluder"])
def test_group_scoring_matches_a_per_agent_reference(name, c):
    instance = {
        "skew8": lambda: fixtures.skew_pool(48, 6, (2, 2, 2)),
        "self-excluder": _self_excluding_pool,
    }.get(name, lambda: fixtures.random_brute_instance(int(name[4:])))()
    reference, stripped = _reference_sweep(instance, cfg(), c)
    assert stripped or name != "self-excluder"
    for metric, (value, witness) in reference.items():
        report = manip_metric_exhaustive(instance, cfg(), c=c, metric=metric)
        assert report.witness == witness, metric
        assert report.value == pytest.approx(value, abs=1e-12), metric


# ---------------------------------------------------------------------------
# One enclosing enumeration per sweep
# ---------------------------------------------------------------------------


def _enclosing_sizes(instance, c):
    return {vector: instance.group_size(vector) + c for vector in instance.scheme.all_vectors()}


def _sweep_pools(instance, c):
    """One (coalition, agents) pair per distinct pool that a size-c
    exhaustive sweep builds, before self-excluders are stripped."""
    found = {}
    for counts in _coalition_choices(instance, c):
        for reports in _report_choices(instance.scheme.all_vectors(), counts):
            reported = {a: r for v in counts for a, r in zip(instance.groups[v], reports[v])}
            agents = [(a, reported.get(a, v)) for a, v in instance.agents]
            found.setdefault(tuple(sorted(Counter(v for _, v in agents).items())), (frozenset(reported), agents))
    return list(found.values())


def _assert_matrix_is_its_own_enumeration(instance):
    derived, own = panels._memo(instance).matrix, panels._CompositionSearch(instance).count_matrix()
    assert derived.dtype == own.dtype
    assert derived.shape == own.shape
    assert derived.flags.c_contiguous == own.flags.c_contiguous
    assert np.array_equal(derived, own)


def _sweep_instances():
    yield from ((fixtures.random_brute_instance(seed), c) for seed in range(200) for c in (1, 2))
    yield fixtures.skew_pool(48, 6, (2, 2, 2)), 1
    thm43, _ = make_lb_instance("thm43", n=72, k=6, n_min=12, c=6)
    yield from ((thm43, c) for c in (1, 2))


def test_derived_matrices_equal_each_pools_own_enumeration():
    for instance, c in _sweep_instances():
        enclosing = panels.enclosing_compositions(instance, _enclosing_sizes(instance, c))
        truthful = instance.replace_agents(instance.agents)
        panels.derive_compositions(truthful, enclosing)
        _assert_matrix_is_its_own_enumeration(truthful)
        for coalition, agents in _sweep_pools(instance, c):
            attacked = instance.replace_agents(agents)
            panels.derive_compositions(attacked, enclosing)
            _assert_matrix_is_its_own_enumeration(attacked)
            if not panels.structurally_excluded(attacked):
                continue
            try:  # the stripped pool takes its parent's matrix less the zero columns
                kept = panels.strip_self_excluders(attacked, coalition)
            except NonCoalitionExclusionError:
                continue
            _assert_matrix_is_its_own_enumeration(kept)


def test_derivation_needs_an_enclosing_pool():
    inst = fixtures.skew_pool(48, 6, (2, 2, 2))
    enclosing = panels.enclosing_compositions(inst, {v: inst.group_size(v) for v in inst.present_vectors()})
    grown = inst.replace_agents([*inst.agents, ("extra", inst.agents[0][1])])
    other_k = Instance(scheme=inst.scheme, agents=inst.agents, k=inst.k - 1, quotas={})
    for instance in (grown, other_k):
        panels.derive_compositions(instance, enclosing)
        assert panels._memo(instance).matrix is None


@pytest.mark.parametrize("name, c", [("skew8", 1), ("thm43", 1), ("thm43", 2), ("rand3", 2)])
def test_enclosing_pool_within_the_cap_puts_every_attacked_pool_within_it(name, c, monkeypatch):
    instance = {
        "skew8": lambda: fixtures.skew_pool(48, 6, (2, 2, 2)),
        "thm43": lambda: make_lb_instance("thm43", n=72, k=6, n_min=12, c=6)[0],
        "rand3": lambda: fixtures.random_brute_instance(3),
    }[name]()
    pools = [instance.replace_agents(agents) for _, agents in _sweep_pools(instance, c)]
    verdicts = set()
    for cap in (1, 3, 6, 7, 10, 20, 40, 41, 60, 61, 100, 880, 881, 882, 1000):
        monkeypatch.setattr(panels, "COMPOSITION_CAP", cap)
        enclosing = panels.enclosing_compositions(instance, _enclosing_sizes(instance, c))
        verdicts.add(enclosing is None)
        if enclosing is not None:
            assert all(panels._CompositionSearch(pool).count_matrix() is not None for pool in pools), cap
    assert verdicts == {True, False}  # both sides of the enclosing pool's verdict were checked


def _count_enumerations(monkeypatch):
    calls = []
    count_matrix = panels._CompositionSearch.count_matrix

    def counted(search):
        matrix = count_matrix(search)
        calls.append(None if matrix is None else weakref.ref(matrix))
        return matrix

    monkeypatch.setattr(panels._CompositionSearch, "count_matrix", counted)
    return calls


@pytest.mark.parametrize("name, cap, spec", [("skew8", 881, "goldilocks:1"), ("thm43", 40, "leximin")])
def test_sweep_past_the_enclosing_cap_falls_back_to_the_same_report(name, cap, spec, monkeypatch):
    # At these caps the c=1 enclosing pool is past the cap while the truthful
    # pool and every attacked pool are within it.
    instance = fixtures.skew_pool(48, 6, (2, 2, 2)) if name == "skew8" else \
        make_lb_instance("thm43", n=72, k=6, n_min=12, c=6)[0]
    within = manip_metric_exhaustive(instance.replace_agents(instance.agents), cfg(spec), c=1, metric="ext")
    calls = _count_enumerations(monkeypatch)
    monkeypatch.setattr(panels, "COMPOSITION_CAP", cap)
    fallback = manip_metric_exhaustive(instance, cfg(spec), c=1, metric="ext")
    assert calls[0] is None and len(calls) > 2 and None not in calls[1:]
    assert fallback == within


@pytest.mark.parametrize("name, spec", [("skew8", "maximin"), ("thm43", "leximin")])
def test_within_cap_sweep_enumerates_once_and_keeps_no_enclosing_matrix(name, spec, monkeypatch):
    instance = fixtures.skew_pool(48, 6, (2, 2, 2)) if name == "skew8" else \
        make_lb_instance("thm43", n=72, k=6, n_min=12, c=6)[0]
    calls = _count_enumerations(monkeypatch)
    manip_metric_exhaustive(instance, cfg(spec), c=1, metric="ext")
    assert len(calls) == 1
    gc.collect()
    assert calls[0]() is None  # the enclosing matrix went with the sweep
    truthful = instance.replace_agents(instance.agents)
    calls.clear()
    worst_mu_manipulator(truthful, cfg(spec))
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Feature dropping
# ---------------------------------------------------------------------------


def test_drop_features_identity(e2):
    assert drop_features(e2, 0) is e2


def test_drop_features_orders_by_bias():
    scheme = FeatureScheme(features=("f", "g"), values={"f": ("0", "1"), "g": ("0", "1")})
    agents = []
    idx = 0
    for f_val, g_val, count in (("0", "0", 1), ("0", "1", 2), ("1", "0", 3), ("1", "1", 6)):
        for _ in range(count):
            idx += 1
            agents.append((f"a{idx}", (f_val, g_val)))
    inst = Instance(
        scheme=scheme,
        agents=tuple(agents),
        k=4,
        quotas={
            ("f", "0"): (2, 2),
            ("f", "1"): (2, 2),
            ("g", "0"): (2, 2),
            ("g", "1"): (2, 2),
        },
    )
    # f is split 3/9, g is split 4/8: f carries the bigger ratio spread.
    assert feature_bias_spread(inst, "f") > feature_bias_spread(inst, "g")
    reduced = drop_features(inst, 1)
    assert all(feature != "f" for feature, _ in reduced.quotas)
    assert any(feature == "g" for feature, _ in reduced.quotas)


def test_drop_features_only_grows_panels(e2):
    before = set(reference_panels(e2))
    after = set(reference_panels(drop_features(e2, 1)))
    assert before <= after


def test_drop_features_range(e2):
    with pytest.raises(ValidationError):
        drop_features(e2, 2)


# ---------------------------------------------------------------------------
# Constructed families
# ---------------------------------------------------------------------------


def test_make_lb_example_fixtures():
    e1_inst, mis = make_lb_instance("example1", n=6, k=3, n_min=2)
    assert e1_inst.group_size(("1",)) == 2 and not mis.coalition
    e2_inst, _ = make_lb_instance("example2", n=8, k=4)
    assert e2_inst.group_size(("1", "0")) == 3
    assert e2_inst.group_size(("0", "1")) == 1


def test_make_lb_thm43_composition(instance_b):
    truthful, misreport, attacked = instance_b
    assert len(misreport.coalition) == 6
    sizes = {"".join(v): len(m) for v, m in attacked.groups.items()}
    assert sizes == {"000": 30, "110": 30, "111": 9, "100": 2, "010": 1}
    assert attacked.n == truthful.n  # nobody self-excluded


def test_make_lb_thm43_no_exclusions(instance_b):
    truthful, misreport, attacked = instance_b
    from panelot.panels import structurally_excluded

    assert structurally_excluded(truthful) == set()
    assert structurally_excluded(attacked) == set()


def test_make_lb_parameter_validation():
    with pytest.raises(ValidationError):
        make_lb_instance("thm43", n=72, k=5, n_min=12, c=6)  # odd k
    with pytest.raises(ValidationError):
        make_lb_instance("thm43", n=72, k=6, n_min=13, c=6)  # n_min > n/k
    with pytest.raises(ValidationError):
        make_lb_instance("thm31", n=40, k=6, n_min=12, c=2)  # c too small
    with pytest.raises(ValidationError):
        make_lb_instance("nonsense", n=10, k=4, n_min=3, c=1)


def test_make_lb_rejects_an_unknown_keyword():
    with pytest.raises(ValidationError) as err:
        make_lb_instance("thm43", n=72, k=6, n_min=12, c=6, copies=2)
    assert err.value.code == "INVALID_INPUT"
    assert "copies" in err.value.message


def test_pool_copies_shrink_mu_gain(instance_b):
    # Larger pools leave less room for a single manipulator.
    truthful, _, _ = instance_b
    config = cfg("leximin")
    single = worst_mu_manipulator(truthful, config)
    doubled = worst_mu_manipulator(duplicate_pool(truthful, 2), config)
    assert doubled.value <= single.value + 1e-9


@pytest.mark.parametrize("spec", ["maximin", "maximin-tb", "leximin", "goldilocks:1", "nash"])
def test_lp_round_off_does_not_pick_the_manip_witness(spec, monkeypatch):
    # A witness gives way only to one that beats it by more than PROB_EPS, so
    # shifting every group probability by a few 1e-12 keeps the first witness
    # in enumeration order, and the value within round-off.
    instance = fixtures.skew_pool(48, 6, (2, 2, 2))

    def sweeps():
        reports = [manip_metric_exhaustive(instance, cfg(spec), c=1, metric=metric)
                   for metric in ("int", "ext", "comp", "fairness")]
        return reports + [worst_mu_manipulator(instance, cfg(spec))]

    exact = sweeps()
    group_probabilities, calls = CompositionDistribution.group_probabilities, itertools.count()

    def shifted(dist, inst):
        shift = next(calls) % 7 * 1e-12
        return {vector: p + shift for vector, p in group_probabilities(dist, inst).items()}

    monkeypatch.setattr(CompositionDistribution, "group_probabilities", shifted)
    for report, moved in zip(exact, sweeps()):
        assert moved.witness == report.witness, (report.metric, report.search)
        assert moved.value == pytest.approx(report.value, abs=1e-9), (report.metric, report.search)
