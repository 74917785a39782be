import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panelot import fixtures
from panelot.errors import ValidationError
from panelot.objectives import (
    EqualityObjective,
    Kind,
    evaluate,
    gamma_balanced,
    gamma_selection_bias,
    gamma_star,
    gini,
    parse_objective,
    quota_pool_ratios,
)

GL1 = EqualityObjective(Kind.GOLDILOCKS, gamma=1.0)


def test_parse_grammar_round_trip():
    for spec in (
        "maximin",
        "minimax",
        "maximin-tb",
        "minimax-tb",
        "leximin",
        "nash",
        "goldilocks:1",
        "goldilocks:0.5",
        "goldilocks:auto1",
        "goldilocks:auto2",
        "linear:2",
    ):
        assert parse_objective(spec).spec_string() == spec


def test_parse_bare_goldilocks_defaults_to_one():
    assert parse_objective("goldilocks").gamma == 1.0


@pytest.mark.parametrize("bad", ["", "golди", "goldilocks:-1", "linear:x", "maximin-tb-tb"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValidationError):
        parse_objective(bad)


def test_tie_break_only_for_extremes():
    with pytest.raises(ValidationError):
        EqualityObjective(Kind.NASH, tie_break=True)


@pytest.mark.parametrize(
    "kind, gamma, mode",
    [
        (Kind.GOLDILOCKS, None, "bogus"),
        (Kind.GOLDILOCKS, 1.0, "bogus"),
        (Kind.LEXIMIN, None, "auto1"),
        (Kind.MAXIMIN, None, "auto2"),
        (Kind.NASH, None, "auto1"),
        (Kind.LINEAR, None, "auto2"),
        (Kind.GOLDILOCKS, 2.0, "auto1"),
        (Kind.GOLDILOCKS, 0.0, "auto2"),
    ],
)
def test_objective_rejects_unknown_or_misplaced_gamma_mode(kind, gamma, mode):
    # An unknown mode, an auto mode on a kind other than goldilocks, and an
    # explicit gamma next to an auto mode are all input errors at construction.
    with pytest.raises(ValidationError) as info:
        EqualityObjective(kind, gamma=gamma, gamma_mode=mode)
    assert info.value.code == "INVALID_INPUT"


def test_goldilocks_at_uniform_is_one_plus_gamma():
    for gamma in (0.0, 0.5, 1.0, 3.0):
        obj = EqualityObjective(Kind.GOLDILOCKS, gamma=gamma)
        assert evaluate(obj, [0.25] * 8, k=2, n=8) == pytest.approx(1.0 + gamma)


def test_extremes_at_uniform():
    values = [0.25] * 8
    assert evaluate(EqualityObjective(Kind.MAXIMIN), values, 2, 8) == pytest.approx(-0.25)
    assert evaluate(EqualityObjective(Kind.MINIMAX), values, 2, 8) == pytest.approx(0.25)


def test_nash_uniform_half():
    obj = EqualityObjective(Kind.NASH)
    assert evaluate(obj, [0.5] * 4, 2, 4) == pytest.approx(-0.5)


def test_nash_zero_probability_scores_zero():
    assert evaluate(EqualityObjective(Kind.NASH), [0.0, 0.5, 0.5], 1, 3) == 0.0


def test_goldilocks_worked_example():
    # max = sqrt(3)/2, min = sqrt(3)/6 at k/n = 1/2 scores 2*sqrt(3).
    values = [math.sqrt(3) / 2, math.sqrt(3) / 6, 0.5, 0.5]
    assert evaluate(GL1, values, 2, 4) == pytest.approx(2 * math.sqrt(3))


def test_goldilocks_zero_min_is_infinite():
    assert evaluate(GL1, [0.0, 1.0], 1, 2) == math.inf


def test_linear_evaluates_spread():
    obj = EqualityObjective(Kind.LINEAR, gamma=2.0)
    assert evaluate(obj, [0.1, 0.6], 1, 2) == pytest.approx(0.6 - 2.0 * 0.1)


def test_gamma_star_worked_example():
    assert gamma_star(0.005, 30, 4, 100, 10) == pytest.approx(0.019231, abs=1e-6)


def test_gamma_star_branches_coincide():
    # c*z equal to 1/(n_min - c) makes the max a wash.
    n_min, c, n, k = 29, 4, 100, 10
    z = 1.0 / (c * (n_min - c))
    assert z <= 1.0 / n
    left = gamma_star(z, n_min, c, n, k)
    assert left == pytest.approx(z * (1.0 / (n_min - c)) * (n / k) ** 2)
    assert left == pytest.approx(z * (c * z) * (n / k) ** 2)


def test_gamma_star_symmetric_gap_choice():
    # z = 1/(n*sqrt(c)) balances the spread to c*z = sqrt(c)/n; the formula
    # then collapses to 1/k^2 whenever that term dominates.
    n, k, c, n_min = 100, 10, 16, 60
    z = 1.0 / (n * math.sqrt(c))
    assert c * z >= 1.0 / (n_min - c)
    assert gamma_star(z, n_min, c, n, k) == pytest.approx(1.0 / (k * k))


def test_gamma_star_domain():
    with pytest.raises(ValidationError):
        gamma_star(0.5, 30, 4, 100, 10)
    with pytest.raises(ValidationError):
        gamma_star(0.001, 4, 4, 100, 10)


def test_gamma_balanced_examples():
    assert gamma_balanced(0.1, 0.1, 100, 10) == pytest.approx(1.0)
    assert gamma_balanced(0.1, 1.0, 100, 10) == pytest.approx(10.0)
    assert gamma_balanced(0.0, 0.7, 100, 10) == 0.0


def test_gamma_selection_bias_unbiased_pools():
    assert gamma_selection_bias(fixtures.two_group_instance()) == pytest.approx(1.0)
    assert gamma_selection_bias(fixtures.small_group_instance()) == pytest.approx(1.0)


def test_gamma_selection_bias_product_of_extremes():
    # Scarce group demanded at twice its pool share, abundant at 2/3 of its
    # share: gamma is the product of those two ratios.
    inst = fixtures.small_group_instance(n=8, k=4, scarce=1)
    ratios = []
    for value, size in (("1", 1), ("0", 7)):
        lo, hi = inst.quota("f", value)
        ratios.append(((lo + hi) / 2.0 / inst.k) / (size / inst.n))
    assert gamma_selection_bias(inst) == pytest.approx(min(ratios) * max(ratios))


def test_gamma_selection_bias_rejects_zero_share():
    from panelot.model import FeatureScheme, Instance

    scheme = FeatureScheme(features=("f",), values={"f": ("0", "1")})
    agents = (("a1", ("0",)), ("a2", ("0",)))
    inst = Instance(scheme=scheme, agents=agents, k=1, quotas={("f", "1"): (1, 1)})
    with pytest.raises(ValidationError):
        gamma_selection_bias(inst)


def test_gamma_selection_bias_skips_an_absent_pair_no_panel_can_seat():
    from panelot.model import FeatureScheme, Instance

    scheme = FeatureScheme(features=("f",), values={"f": ("0", "1")})
    agents = (("a1", ("0",)), ("a2", ("0",)))
    inst = Instance(scheme=scheme, agents=agents, k=1, quotas={("f", "1"): (0, 1), ("f", "0"): (1, 1)})
    assert quota_pool_ratios(inst) == {("f", "0"): 1.0}
    assert gamma_selection_bias(inst) == 1.0


def test_gini_examples():
    assert gini([0.5, 0.5, 0.5, 0.5]) == 0.0
    assert gini([1.0, 0.0]) == pytest.approx(0.5)
    assert gini([1.0, 1.0]) == 0.0
    assert gini([0.1, 0.1, 0.0, 0.0]) == pytest.approx(0.5)
    assert gini([1.0, 1.0, 0.0, 0.0]) == pytest.approx(0.5)
    with pytest.raises(ValidationError):
        gini([0.0, 0.0])


def test_gini_matches_pairwise_definition():
    rng = random.Random(3)
    for _ in range(20):
        values = [rng.random() for _ in range(rng.randint(2, 9))]
        num = sum(abs(a - b) for a in values for b in values)
        den = 2.0 * len(values) * sum(values)
        assert gini(values) == pytest.approx(num / den, abs=1e-12)


def test_gini_is_scale_free_and_below_one():
    rng = random.Random(4)
    for _ in range(50):
        values = [rng.random() * rng.choice([0.0, 1.0]) for _ in range(rng.randint(1, 12))]
        if not any(values):
            values[0] = 1.0
        for scale in (1e-3, 0.37, 6.0, 1e4):
            assert gini([scale * v for v in values]) == pytest.approx(gini(values), abs=1e-12)
        assert 0.0 <= gini(values) < 1.0
    # A single agent holding all the mass: the largest value, (n - 1) / n.
    assert gini([0.0] * 9 + [0.2]) == pytest.approx(0.9)


# ---------------------------------------------------------------------------
# Axiom-style properties
# ---------------------------------------------------------------------------

ALL_KINDS = [
    EqualityObjective(Kind.MAXIMIN),
    EqualityObjective(Kind.MINIMAX),
    EqualityObjective(Kind.NASH),
    GL1,
    EqualityObjective(Kind.GOLDILOCKS, gamma=0.3),
    EqualityObjective(Kind.LINEAR, gamma=1.0),
]


@st.composite
def assignments(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    k = draw(st.integers(min_value=1, max_value=n - 1))
    raw = draw(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=n, max_size=n)
    )
    total = sum(raw)
    return [v * k / total for v in raw], k, n


@given(assignments())
@settings(max_examples=150, deadline=None)
def test_conditional_equitability(sample):
    # The perfectly equal assignment is weakly best whenever feasible.
    values, k, n = sample
    if max(values) > 1.0:
        return
    uniform = [k / n] * n
    for obj in ALL_KINDS:
        assert evaluate(obj, uniform, k, n) <= evaluate(obj, values, k, n) + 1e-9


@given(assignments(), assignments(), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=150, deadline=None)
def test_convexity_spot_check(sample_a, sample_b, lam):
    values_a, k, n = sample_a
    values_b = sample_b[0]
    if len(values_b) != n:
        return
    blend = [lam * a + (1 - lam) * b for a, b in zip(values_a, values_b)]
    for obj in ALL_KINDS:
        left = evaluate(obj, blend, k, n)
        right = lam * evaluate(obj, values_a, k, n) + (1 - lam) * evaluate(obj, values_b, k, n)
        assert left <= right + 1e-9


def test_goldilocks_scale_consistency():
    # Doubling both extremes with k/n fixed moves the two terms reciprocally:
    # the max term doubles, the min term halves.
    k, n = 2, 8
    lo, hi = 0.1, 0.5
    base_max = hi / (k / n)
    base_min = (k / n) / lo
    doubled = evaluate(GL1, [2 * lo, 2 * hi] + [0.6] * (n - 2), k, n)
    assert doubled == pytest.approx(2 * base_max + base_min / 2)
