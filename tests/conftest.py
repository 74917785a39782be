import itertools
import math
from collections import Counter

import pytest
from hypothesis import strategies as st

from panelot import fixtures
from panelot.adversary import apply_misreport, make_lb_instance
from panelot.model import FeatureScheme, Instance
from panelot.panels import PanelComposition


@pytest.fixture
def t1():
    return fixtures.two_group_instance()


@pytest.fixture
def e1():
    return fixtures.small_group_instance()


@pytest.fixture
def e2():
    return fixtures.linked_fate_instance()


@pytest.fixture
def instance_b():
    """The constructed two-panel-type family at k=6, n_min=12, c=6, n=72,
    after the coalition misreports."""
    truthful, misreport = make_lb_instance("thm43", n=72, k=6, n_min=12, c=6)
    return truthful, misreport, apply_misreport(truthful, misreport)


def write_instance_csvs(tmp_path, instance, stem="inst"):
    from panelot.model import save_instance

    agents = tmp_path / f"{stem}_agents.csv"
    quotas = tmp_path / f"{stem}_quotas.csv"
    save_instance(instance, agents, quotas)
    return agents, quotas


def reference_compositions(instance):
    """Every valid composition as a tuple of seat counts over
    ``instance.present_vectors()``, in ascending lexicographic order.

    A plain recursive search kept independent of ``panels``: groups in sorted
    order, counts ascending, only the seat total pruned, and the quotas
    checked on complete compositions.
    """
    vectors = instance.present_vectors()
    sizes = [instance.group_size(v) for v in vectors]
    features = instance.scheme.features
    out = []

    def quotas_hold(counts):
        for f_idx, feature in enumerate(features):
            for value in instance.scheme.values[feature]:
                total = sum(c for v, c in zip(vectors, counts) if v[f_idx] == value)
                lo, hi = instance.quota(feature, value)
                if not lo <= total <= hi:
                    return False
        return True

    def dfs(counts, assigned):
        i = len(counts)
        if i == len(vectors):
            if assigned == instance.k and quotas_hold(counts):
                out.append(tuple(counts))
            return
        for c in range(sizes[i] + 1):
            if assigned + c > instance.k:
                break
            dfs(counts + [c], assigned + c)

    dfs([], 0)
    return out


def reference_panels(instance):
    """Every valid panel as a sorted tuple of agent ids, each exactly once:
    every way of seating each ``reference_compositions`` row's counts from
    its groups' members."""
    vectors = instance.present_vectors()
    panels = []
    for counts in reference_compositions(instance):
        picks = [itertools.combinations(instance.groups[v], c) for v, c in zip(vectors, counts)]
        for pick in itertools.product(*picks):
            panels.append(tuple(sorted(itertools.chain.from_iterable(pick))))
    return panels


def panel_composition(panel, instance):
    """The composition of a concrete ``Panel``: its members counted by
    feature vector."""
    return PanelComposition(tuple(Counter(instance.vector_of[a] for a in panel.members).items()))


def reference_marginals(instance, weighted_panels):
    """Every agent's selection probability under a distribution given as
    (members, prob) pairs: the mass of the panels it sits on."""
    pi = dict.fromkeys(instance.agent_ids, 0.0)
    for members, prob in weighted_panels:
        for agent in members:
            pi[agent] += prob
    return pi


@st.composite
def small_instances(draw, max_groups=9, max_k=6):
    """Random instances of at most ``max_groups`` vector groups; quotas are
    drawn around a random panel, so a valid panel exists."""
    arities = draw(
        st.lists(st.integers(2, 3), min_size=1, max_size=3).filter(
            lambda a: math.prod(a) <= max_groups
        )
    )
    features = tuple(f"f{j + 1}" for j in range(len(arities)))
    scheme = FeatureScheme(
        features=features,
        values={f: tuple(str(v) for v in range(m)) for f, m in zip(features, arities)},
    )
    n = draw(st.integers(2, 14))
    vectors = draw(
        st.lists(st.tuples(*(st.sampled_from(scheme.values[f]) for f in features)), min_size=n, max_size=n)
    )
    agents = tuple((f"a{i + 1}", vector) for i, vector in enumerate(vectors))
    k = draw(st.integers(1, min(max_k, n)))
    panel = draw(st.lists(st.sampled_from(range(n)), min_size=k, max_size=k, unique=True))
    quotas = {}
    for j, feature in enumerate(features):
        for value in scheme.values[feature]:
            if draw(st.booleans()):
                continue  # unconstrained pair
            hit = sum(1 for i in panel if vectors[i][j] == value)
            quotas[(feature, value)] = (
                max(0, hit - draw(st.integers(0, 1))),
                min(k, hit + draw(st.integers(0, 1))),
            )
    return Instance(scheme=scheme, agents=agents, k=k, quotas=quotas, label="drawn")
