import dataclasses
import gc
import json
import math
import random
import time
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from conftest import panel_composition, reference_compositions, reference_marginals, reference_panels
from panelot import fixtures, panels
from panelot.errors import CapExceededError, NonCoalitionExclusionError, SolverError, ValidationError
from panelot.model import FeatureScheme, Instance
from panelot.objectives import parse_objective
from panelot.panels import (
    CompositionDistribution,
    Panel,
    PanelComposition,
    _composition_matrix,
    _CompositionSearch,
    composition_oracle,
    covering_compositions,
    feasible_compositions,
    has_valid_panel,
    strip_self_excluders,
    structurally_excluded,
)
from panelot.rounding import TicketRun, UniformLottery, lottery_marginals, pipage_round
from panelot.solver import SolveConfig, solve


def _uniform(compositions):
    return CompositionDistribution(tuple((c, 1.0 / len(compositions)) for c in compositions))


def _random_mixture(items, rng):
    weights = [rng.random() for _ in items]
    total = sum(weights)
    return [(item, w / total) for item, w in zip(items, weights)]


def test_enumerate_t1(t1):
    panels = reference_panels(t1)
    assert sorted(panels) == [
        ("a1", "a3"),
        ("a1", "a4"),
        ("a2", "a3"),
        ("a2", "a4"),
    ]
    assert all(Panel(p).is_valid(t1) for p in panels)
    assert {panel_composition(Panel(p), t1) for p in panels} == set(feasible_compositions(t1))


def test_enumerate_infeasible_group_too_small():
    scheme = FeatureScheme(features=("f",), values={"f": ("0", "1")})
    agents = (("a1", ("1",)), ("a2", ("0",)), ("a3", ("0",)), ("a4", ("0",)))
    inst = Instance(
        scheme=scheme, agents=agents, k=3, quotas={("f", "1"): (2, 2), ("f", "0"): (1, 1)}
    )
    assert reference_panels(inst) == []
    assert feasible_compositions(inst) == []
    assert not has_valid_panel(inst)


def test_e2_panels_balance_linked_groups(e2):
    for members in reference_panels(e2):
        comp = panel_composition(Panel(members), e2)
        assert comp.seats(("1", "0")) == comp.seats(("0", "1"))
    for comp in feasible_compositions(e2):
        assert comp.seats(("1", "0")) == comp.seats(("0", "1"))


def test_e2_linked_fate_probability_ratio(e2):
    panels = reference_panels(e2)
    rng = random.Random(5)
    lone = e2.groups[("0", "1")][0]
    ten_group = e2.groups[("1", "0")]
    for _ in range(25):
        pi = reference_marginals(e2, _random_mixture(panels, rng))
        p01 = pi[lone]
        p10 = sum(pi[a] for a in ten_group) / len(ten_group)
        assert p01 == pytest.approx(3.0 * p10, abs=1e-9)


def test_e1_any_distribution_hits_min_group_floor(e1):
    panels = reference_panels(e1)
    rng = random.Random(6)
    scarce = e1.groups[("1",)]
    for _ in range(25):
        pi = reference_marginals(e1, _random_mixture(panels, rng))
        assert max(pi[a] for a in scarce) >= 1.0 / e1.min_group_size() - 1e-9


def test_marginals_uniform_t1(t1):
    pi = _uniform(feasible_compositions(t1)).marginals(t1)
    panels = reference_panels(t1)
    uniform = reference_marginals(t1, [(p, 1.0 / len(panels)) for p in panels])
    assert pi.pi == pytest.approx(uniform, abs=1e-12)
    assert all(v == pytest.approx(0.5) for v in pi.pi.values())
    assert pi.total() == pytest.approx(t1.k)


def test_marginals_point_mass(t1):
    members = reference_panels(t1)[0]
    pi = lottery_marginals(t1, UniformLottery(m=1, runs=[TicketRun((Panel(members),), 1)]))
    assert pi.pi == reference_marginals(t1, [(members, 1.0)])
    assert sorted(pi.pi.values()) == [0.0, 0.0, 1.0, 1.0]


def test_marginals_rejects_invalid_panel(t1):
    bad = Panel(("a1", "a2"))  # two agents from the same group break the quotas
    assert not bad.is_valid(t1)
    with pytest.raises(ValidationError):
        CompositionDistribution(((panel_composition(bad, t1), 1.0),)).check_valid(t1)


def test_composition_marginals_match_panel_reference():
    # Spreading each composition's mass evenly over its panels gives the
    # same selection probabilities as the group-level formula.
    for seed in range(20):
        inst = fixtures.random_brute_instance(seed + 700)
        comps = feasible_compositions(inst)
        rng = random.Random(seed)
        dist = CompositionDistribution(tuple(_random_mixture(comps, rng)))
        weight = dict(dist.entries)
        panels = [(members, panel_composition(Panel(members), inst)) for members in reference_panels(inst)]
        per_comp = Counter(comp for _, comp in panels)
        spread = [(members, weight[comp] / per_comp[comp]) for members, comp in panels]
        assert dist.marginals(inst).pi == pytest.approx(reference_marginals(inst, spread), abs=1e-12)


def test_oracle_equal_weights(e2):
    best = composition_oracle(e2, [2.5] * len(e2.present_vectors()))
    assert best is not None and best.is_valid(e2)
    assert 2.5 * sum(best.counts.values()) == pytest.approx(e2.k * 2.5)


def test_oracle_infeasible_returns_none():
    scheme = FeatureScheme(features=("f",), values={"f": ("0", "1")})
    agents = (("a1", ("1",)), ("a2", ("0",)), ("a3", ("0",)), ("a4", ("0",)))
    inst = Instance(
        scheme=scheme, agents=agents, k=3, quotas={("f", "1"): (2, 2), ("f", "0"): (1, 1)}
    )
    assert composition_oracle(inst, [1.0] * len(inst.present_vectors())) is None


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
        assert set(reference_panels(inst)) == expected
        assert {panel_composition(Panel(p), inst) for p in expected} == set(feasible_compositions(inst))


def test_oracle_matches_enumeration_on_random_instances():
    for seed in range(40):
        inst = fixtures.random_brute_instance(seed)
        rng = random.Random(seed + 1000)
        weights = {v: rng.uniform(-2, 3) for v in inst.present_vectors()}
        best = composition_oracle(inst, list(weights.values()))
        brute_best = max(
            sum(weights[inst.vector_of[a]] for a in p) for p in reference_panels(inst)
        )
        assert best.is_valid(inst)
        assert sum(weights[v] * c for v, c in best.items) == pytest.approx(brute_best, abs=1e-9)


def _kernel_rows(instance):
    matrix = _CompositionSearch(instance).count_matrix()
    assert matrix.dtype == np.int32 and matrix.flags["C_CONTIGUOUS"]
    return [tuple(row) for row in matrix.tolist()]


def test_enumerator_matches_reference_search_on_random_instances():
    for seed in range(200):
        inst = fixtures.random_brute_instance(seed)
        assert _kernel_rows(inst) == reference_compositions(inst), seed


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_enumerator_rows_do_not_depend_on_the_chunk_size(chunk, monkeypatch):
    pools = [fixtures.skew_pool(48, 6, (2, 2, 2)), fixtures.skew_pool(100, 10, (3, 3)),
             fixtures.skew_pool(200, 10, (2, 2, 3))]
    expected = [_kernel_rows(inst) for inst in pools]
    assert [len(rows) for rows in expected] == [501, 585, 12_888]
    assert expected[0] == reference_compositions(pools[0])
    monkeypatch.setattr(panels, "_EXPANSION_CHUNK", chunk)
    assert [_kernel_rows(inst) for inst in pools] == expected
    assert _CompositionSearch(fixtures.skew_pool(500, 20, (2, 3, 3, 2))).count_matrix() is None


def test_the_cap_bounds_the_largest_level_expansion_exactly(monkeypatch):
    # The 12-group pool's largest level expands 36,389 partial rows, although
    # only 12,888 compositions are valid.
    monkeypatch.setattr(panels, "COMPOSITION_CAP", 36_389)
    assert _composition_matrix(fixtures.skew_pool(200, 10, (2, 2, 3))).shape == (12_888, 12)
    monkeypatch.setattr(panels, "COMPOSITION_CAP", 36_388)
    inst = fixtures.skew_pool(200, 10, (2, 2, 3))
    assert _composition_matrix(inst) is False
    with pytest.raises(CapExceededError) as err:
        solve(inst, SolveConfig(objective=parse_objective("maximin"), backend="brute"))
    assert err.value.code == "CAP_EXCEEDED"


def test_enumerator_memory_stays_small_on_the_36_group_pool():
    # The expansion is built in blocks; expanding a whole level of the
    # 36-group pool at once peaks at about 18 MB.
    inst = fixtures.skew_pool(500, 20, (2, 3, 3, 2))
    tracemalloc.start()
    try:
        assert _CompositionSearch(inst).count_matrix() is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def _fallback_cases():
    """(seed, builder) pairs: random feasible pools, plus pools with an
    excluded group or no valid panel at all."""
    cases = [(seed, lambda s=seed: fixtures.random_brute_instance(s, max_n=14, max_k=5, max_features=3))
             for seed in range(40)]
    cases.append((0, fixtures.excluded_agent_instance))
    cases.append((0, lambda: fixtures.skew_pool(30, 5, (2, 3))))
    # Each feature's quotas can be met alone, but not both at once.
    cases.append((0, lambda: Instance(
        scheme=FeatureScheme(features=("f1", "f2"), values={"f1": ("0", "1"), "f2": ("0", "1")}),
        agents=(("a1", ("0", "0")), ("a2", ("0", "0")), ("a3", ("1", "1")), ("a4", ("1", "1"))),
        k=2, quotas={("f1", "0"): (1, 1), ("f1", "1"): (1, 1), ("f2", "0"): (0, 0), ("f2", "1"): (2, 2)},
    )))
    return cases


_CHUNKS = [panels._EXPANSION_CHUNK, 1, 7]


@pytest.mark.parametrize("chunk", _CHUNKS, ids=["default", "1", "7"])
def test_branch_and_bound_fallback_agrees_with_the_memo(chunk, monkeypatch):
    memo_side = [build() for _, build in _fallback_cases()]
    assert all(_composition_matrix(inst) is not False for inst in memo_side)
    monkeypatch.setattr(panels, "COMPOSITION_CAP", 0)
    monkeypatch.setattr(panels, "_EXPANSION_CHUNK", chunk)
    for (seed, build), memo_inst in zip(_fallback_cases(), memo_side):
        inst = build()
        assert _composition_matrix(inst) is False
        assert has_valid_panel(inst) == has_valid_panel(memo_inst)
        assert structurally_excluded(inst) == structurally_excluded(memo_inst)
        # Past the cap a cover may be another composition with as many seats.
        for vector, got, expected in zip(inst.present_vectors(), covering_compositions(inst),
                                         covering_compositions(memo_inst)):
            assert (got is None) == (expected is None)
            if got is not None:
                assert got.is_valid(inst)
                assert got.seats(vector) == expected.seats(vector)
        rng = random.Random(seed + 2000)
        for _ in range(5):
            group_weights = [rng.uniform(-2, 3) for _ in inst.present_vectors()]
            assert composition_oracle(inst, group_weights) == composition_oracle(memo_inst, group_weights)


@pytest.mark.parametrize("chunk", _CHUNKS, ids=["default", "1", "7"])
def test_oracle_ties_break_toward_the_lexicographically_first_composition(chunk, monkeypatch):
    monkeypatch.setattr(panels, "_EXPANSION_CHUNK", chunk)
    for seed in range(20):
        inst = fixtures.random_brute_instance(seed)
        vectors = inst.present_vectors()
        first = PanelComposition(tuple(zip(vectors, reference_compositions(inst)[0])))
        assert composition_oracle(inst, [0.0] * len(vectors)) == first
    # Whole-number weights make exact ties among the best rows, and thirds
    # and sevenths make ties that rounding can split. The reference scores a
    # row as the left-to-right sum of weight times seats, and Python's max
    # keeps the first maximum.
    draws = [lambda rng: float(rng.randrange(3))] * 5
    draws += [lambda rng, d=d: rng.randrange(1, 7) / d for d in (3, 7) for _ in range(20)]
    for inst in (fixtures.skew_pool(48, 6, (2, 2, 2)), fixtures.skew_pool(30, 5, (2, 3))):
        vectors = inst.present_vectors()
        rows = reference_compositions(inst)
        for seed, draw in enumerate(draws):
            rng = random.Random(seed)
            weights = [draw(rng) for _ in vectors]
            best = max(rows, key=lambda row: sum(w * c for w, c in zip(weights, row)))
            assert composition_oracle(inst, weights) == PanelComposition(tuple(zip(vectors, best)))


def _score(comp, vectors, weights):
    seats = comp.counts
    return sum(w * seats.get(v, 0) for v, w in zip(vectors, weights))


def test_oracle_past_the_cap_finds_a_maximum_on_tie_prone_weights(monkeypatch):
    # Past the cap any maximum may come back, not the lexicographically
    # first: the score, validity and existence must match the memo's.
    builders = [lambda s=seed: fixtures.random_brute_instance(s) for seed in range(20)]
    builders += [lambda: fixtures.skew_pool(48, 6, (2, 2, 2)), lambda: fixtures.skew_pool(30, 5, (2, 3))]
    queries = []
    for build in builders:
        inst = build()
        vectors = inst.present_vectors()
        weight_sets = [[0.0] * len(vectors)]
        for seed in range(5):
            rng = random.Random(seed)
            weight_sets.append([float(rng.randrange(3)) for _ in vectors])
        queries.append((build, [(w, composition_oracle(inst, w)) for w in weight_sets]))
    monkeypatch.setattr(panels, "COMPOSITION_CAP", 0)
    for build, answers in queries:
        inst = build()
        assert _composition_matrix(inst) is False
        vectors = inst.present_vectors()
        for weights, expected in answers:
            got = composition_oracle(inst, weights)
            assert (got is None) == (expected is None)
            if got is not None:
                assert got.is_valid(inst)
                assert _score(got, vectors, weights) == pytest.approx(_score(expected, vectors, weights), abs=1e-9)


def _milp_best_score(inst, weights):
    """The max-weight composition score from scipy's MILP over group counts,
    or None when it reports the model infeasible."""
    optimize = pytest.importorskip("scipy.optimize")
    vectors = inst.present_vectors()
    pairs = inst.scheme.feature_value_pairs()
    rows = [[1.0] * len(vectors)]
    lo, hi = [inst.k], [inst.k]
    for feature, value in pairs:
        f_idx = inst.scheme.features.index(feature)
        rows.append([1.0 if v[f_idx] == value else 0.0 for v in vectors])
        lo.append(inst.quota(feature, value)[0])
        hi.append(inst.quota(feature, value)[1])
    bounds = optimize.Bounds(0, [min(inst.group_size(v), inst.k) for v in vectors])
    res = optimize.milp(-np.asarray(weights), constraints=optimize.LinearConstraint(np.array(rows), lo, hi),
                        integrality=np.ones(len(vectors)), bounds=bounds, options={"mip_rel_gap": 0})
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return -res.fun


def test_oracle_past_the_cap_matches_scipy_milp_on_the_36_group_pool():
    pytest.importorskip("scipy")
    inst = fixtures.skew_pool(500, 20, (2, 3, 3, 2))
    assert _composition_matrix(inst) is False
    vectors = inst.present_vectors()
    rng = np.random.default_rng(36)
    for _ in range(30):
        weights = rng.uniform(-1, 1, size=len(vectors))
        got = composition_oracle(inst, weights)
        expected = _milp_best_score(inst, weights)
        assert (got is None) == (expected is None)
        if got is not None:
            assert got.is_valid(inst)
            assert _score(got, vectors, weights) == pytest.approx(expected, abs=1e-9)
    # A cover seats the most of its group that a valid composition can, and
    # is None exactly when that is 0.
    for vector, unit, cover in zip(vectors, np.eye(len(vectors)), covering_compositions(inst)):
        most = _milp_best_score(inst, unit)
        assert (cover is None) == (most == 0)
        if cover is not None:
            assert cover.is_valid(inst)
            assert cover.seats(vector) == most


@pytest.mark.parametrize("leaf", ["no_seats", "all_on_one_group"])
def test_oracle_past_the_cap_rejects_a_leaf_off_its_constraints(leaf, monkeypatch, e2):
    from panelot import _simplex

    vectors = e2.present_vectors()

    def wrong_lp(c, A, b, start=None):
        # Integral, but off the constraints: the LP's columns start with the
        # seat counts less their lower bounds.
        x = np.zeros(len(c))
        if leaf == "all_on_one_group":
            x[0] = e2.k  # more seats than group 0 has, and off the quotas
        return _simplex.LPResult(status="optimal", x=x, objective=float(c @ x), duals=np.zeros(len(b)))

    monkeypatch.setattr(panels, "COMPOSITION_CAP", 0)
    monkeypatch.setattr(_simplex, "solve_lp", wrong_lp)
    weights = [1.0] * len(vectors)
    with pytest.raises(SolverError) as err:
        composition_oracle(e2, weights)
    assert err.value.code == "SOLVER_ERROR"


def test_enumerator_gives_up_on_the_36_group_pool_within_a_second():
    inst = fixtures.skew_pool(500, 20, (2, 3, 3, 2))
    assert len(inst.groups) == 36
    start = time.perf_counter()
    assert _composition_matrix(inst) is False
    assert time.perf_counter() - start < 1.0
    with pytest.raises(CapExceededError):
        feasible_compositions(inst)


def test_composition_oracle_weighs_every_seat_of_a_group_alike(e2):
    vectors = e2.present_vectors()
    for vector in vectors:
        weights = [1.0 if v == vector else 0.0 for v in vectors]
        # Python's max keeps the first maximum: the lexicographically first.
        assert composition_oracle(e2, weights) == max(feasible_compositions(e2), key=lambda c: c.seats(vector))
    with pytest.raises(ValidationError):
        composition_oracle(e2, [1.0])


def test_memo_stays_out_of_the_instance_and_goes_with_it(monkeypatch):
    enumerations = []
    count_matrix = _CompositionSearch.count_matrix
    monkeypatch.setattr(_CompositionSearch, "count_matrix",
                        lambda search: enumerations.append(1) or count_matrix(search))
    for backend in ("colgen", "brute"):
        enumerations.clear()
        inst = fixtures.skew_pool(48, 6, (2, 2, 2))
        fields = {f.name for f in dataclasses.fields(inst)}
        structurally_excluded(inst)
        solve(inst, SolveConfig(objective=parse_objective("maximin"), backend=backend))
        assert set(vars(inst)) == fields
        assert len(enumerations) == 1, backend  # the exclusion check's memo serves the solve
    key = id(inst)
    assert panels._MEMO[key].matrix is _composition_matrix(inst)
    del inst
    gc.collect()
    assert key not in panels._MEMO


def test_warm_start_basis_stays_out_of_the_instance_and_goes_with_it(monkeypatch):
    # Past the cap every oracle call is a branch and bound, and its root
    # starts from the instance's phase-1 basis, which its memo entry keeps.
    monkeypatch.setattr(panels, "COMPOSITION_CAP", 0)
    inst = fixtures.skew_pool(48, 6, (2, 2, 2))
    fields = {f.name for f in dataclasses.fields(inst)}
    solve(inst, SolveConfig(objective=parse_objective("goldilocks:1")))
    assert set(vars(inst)) == fields
    key = id(inst)
    basis = panels._MEMO[key].root_basis
    assert basis is not None
    freed = weakref.ref(basis)
    del inst, basis
    gc.collect()
    assert key not in panels._MEMO
    assert freed() is None


def test_covers_are_memoized_and_go_with_the_instance(monkeypatch):
    # Past the cap a covering query is one branch and bound per group. A
    # sweep asks it twice per pool (its exclusion check, then the solve's
    # seed), and the second answer comes from the instance's memo entry.
    monkeypatch.setattr(panels, "COMPOSITION_CAP", 0)
    searches, queries = [], []
    branch_and_bound, covers = panels._branch_and_bound, panels._covers
    monkeypatch.setattr(panels, "_branch_and_bound",
                        lambda *args: searches.append(args) or branch_and_bound(*args))
    monkeypatch.setattr(panels, "_covers", lambda inst: queries.append(1) or covers(inst))
    inst = fixtures.skew_pool(48, 6, (2, 2, 2))
    fields = {f.name for f in dataclasses.fields(inst)}
    first = covering_compositions(inst)
    assert len(searches) == len(inst.groups)
    vectors = inst.present_vectors()
    assert [c.seats(v) for c, v in zip(first, vectors)] == [
        c.seats(v) for c, v in zip(_reference_covers(inst), vectors)]
    second = covering_compositions(inst)
    assert len(searches) == len(inst.groups)
    assert second == first and second is not first
    second.clear()  # each caller gets a list of its own
    assert covering_compositions(inst) == first
    structurally_excluded(inst)
    solve(inst, SolveConfig(objective=parse_objective("maximin")))
    assert len(queries) == 1  # only pricing calls since
    assert set(vars(inst)) == fields
    key = id(inst)
    assert panels._MEMO[key].covers == first
    freed = weakref.ref(first[0])
    del inst, first, second, searches, queries
    gc.collect()
    assert key not in panels._MEMO
    assert freed() is None


def test_past_the_cap_answers_do_not_depend_on_earlier_queries(monkeypatch):
    # Every branch and bound's root starts from the instance's one phase-1
    # basis, so a covering query and an oracle query made first leave each
    # solve's answer as it was, to the byte.
    monkeypatch.setattr(panels, "COMPOSITION_CAP", 0)
    rng = np.random.default_rng(12)
    for spec in ("maximin", "nash", "leximin", "goldilocks:1", "minimax-tb"):
        texts = []
        for history in (False, True):
            inst = fixtures.skew_pool(200, 10, (2, 2, 3))
            if history:
                covering_compositions(inst)
                composition_oracle(inst, rng.uniform(-1, 1, size=len(inst.groups)))
            result = solve(inst, SolveConfig(objective=parse_objective(spec)))
            texts.append(json.dumps(result.to_json(), indent=2))
        assert texts[0] == texts[1], spec


@pytest.mark.parametrize("spec", ["maximin", "goldilocks:1"])
@pytest.mark.parametrize("pool", [
    pytest.param(lambda: fixtures.skew_pool(48, 6, (2, 2, 2)), id="skew8"),
    pytest.param(lambda: fixtures.skew_pool(200, 10, (2, 2, 3)), id="skew12"),
    pytest.param(lambda: fixtures.skew_pool(30, 5, (2, 3)), id="skew6"),
])
def test_no_branch_and_bound_lp_given_a_basis_starts_cold(pool, spec, monkeypatch):
    # A root's start, the phase-1 basis, is primal feasible for every weight
    # vector, and a child's, its parent's final basis, is dual feasible; so
    # every branch-and-bound LP given a basis runs from it.
    from panelot import _simplex

    monkeypatch.setattr(panels, "COMPOSITION_CAP", 0)
    solve_lp, solve_warm = _simplex.solve_lp, _simplex._solve_warm
    searching, starts = [], []

    def search_lp(c, A, b, start=None):
        searching.append(True)
        try:
            return solve_lp(c, A, b, start)
        finally:
            searching.pop()

    def warm(*args):
        res = solve_warm(*args)
        if searching:
            starts.append("warm" if res is not None else "fallback")
        return res

    # The branch and bound calls solve_lp through _simplex; the masters keep the solver's own.
    monkeypatch.setattr(_simplex, "solve_lp", search_lp)
    monkeypatch.setattr(_simplex, "_solve_warm", warm)
    assert solve(pool(), SolveConfig(objective=parse_objective(spec))).converged
    assert starts and starts == ["warm"] * len(starts)


def _reference_covers(instance):
    """Per group, the first reference row with the most seats for it, or None
    when no row seats it."""
    vectors = instance.present_vectors()
    rows = reference_compositions(instance)
    covers = []
    for w in range(len(vectors)):
        seated = [row for row in rows if row[w] > 0]
        best = max(seated, key=lambda row: row[w]) if seated else None  # max keeps the first
        covers.append(None if best is None else PanelComposition(tuple(zip(vectors, best))))
    return covers


def test_covering_compositions_match_the_reference_search():
    pools = [fixtures.random_brute_instance(seed) for seed in range(200)]
    pools += [fixtures.skew_pool(48, 6, (2, 2, 2)), fixtures.skew_pool(100, 10, (3, 3)),
              fixtures.skew_pool(200, 10, (2, 2, 3)), fixtures.excluded_agent_instance()]
    for inst in pools:
        assert covering_compositions(inst) == _reference_covers(inst), inst.label
    assert covering_compositions(pools[-1]).count(None) == 1


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
    expected = {("0", "1"): 1.0, ("1", "0"): 1.0 / 3.0, ("0", "0"): 0.5, ("1", "1"): 0.5}
    for agent_id, vector in e2.agents:
        assert pi.pi[agent_id] == pytest.approx(expected[vector])


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
    (comp,) = feasible_compositions(t1)
    with pytest.raises(ValidationError):
        CompositionDistribution(((comp, 0.5),))


def test_distribution_json_round_trip(t1):
    dist = _uniform(feasible_compositions(t1))
    again = CompositionDistribution.from_json(dist.to_json())
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
