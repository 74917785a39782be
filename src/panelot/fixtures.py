"""Small built-in instances for tests, benchmarks, and demos."""

from __future__ import annotations

import math
import random

from .errors import ValidationError
from .model import FeatureScheme, Instance
from .panels import has_valid_panel, structurally_excluded


def two_group_instance() -> Instance:
    """Four agents, one binary feature, one seat per value (k=2).

    Every objective must give everyone probability 1/2 here.
    """
    scheme = FeatureScheme(features=("f",), values={"f": ("0", "1")})
    agents = (("a1", ("0",)), ("a2", ("0",)), ("a3", ("1",)), ("a4", ("1",)))
    quotas = {("f", "0"): (1, 1), ("f", "1"): (1, 1)}
    return Instance(scheme=scheme, agents=agents, k=2, quotas=quotas, label="t1")


def small_group_instance(n: int = 6, k: int = 3, scarce: int = 2) -> Instance:
    """One binary feature; the panel needs exactly one agent of the scarce value.

    The scarce value is listed first so ratio ties resolve toward it. With the
    default sizes the uniform assignment is feasible, yet single misreports
    still shift probabilities, which makes this the standard manipulation
    fixture.
    """
    if not 1 <= scarce <= n - k + 1:
        raise ValidationError("scarce group size n_min out of range: need 1 <= n_min <= n - k + 1")
    scheme = FeatureScheme(features=("f",), values={"f": ("1", "0")})
    agents = tuple(
        (f"a{i + 1}", ("1",) if i < scarce else ("0",)) for i in range(n)
    )
    quotas = {("f", "1"): (1, 1), ("f", "0"): (k - 1, k - 1)}
    return Instance(scheme=scheme, agents=agents, k=k, quotas=quotas, label="e1")


def linked_fate_instance(n: int = 8, k: int = 4) -> Instance:
    """Two balanced binary features with unevenly sized cross groups.

    Every valid panel seats equally many 10- and 01-agents, but there are
    n/2 - 1 of the former and a single one of the latter, forcing a
    multiplicative probability gap between the two groups.
    """
    if n % 4 != 0 or k % 2 != 0:
        raise ValidationError("need n divisible by 4 and even k")
    scheme = FeatureScheme(features=("f1", "f2"), values={"f1": ("0", "1"), "f2": ("0", "1")})
    agents = []
    counts = {("0", "0"): n // 4, ("1", "1"): n // 4, ("1", "0"): n // 2 - 1, ("0", "1"): 1}
    idx = 1
    for vector, size in counts.items():
        for _ in range(size):
            agents.append((f"a{idx}", vector))
            idx += 1
    quotas = {
        ("f1", "0"): (k // 2, k // 2),
        ("f1", "1"): (k // 2, k // 2),
        ("f2", "0"): (k // 2, k // 2),
        ("f2", "1"): (k // 2, k // 2),
    }
    return Instance(scheme=scheme, agents=tuple(agents), k=k, quotas=quotas, label="e2")


def starved_minimum_instance(n: int = 24, k: int = 6) -> Instance:
    """An instance whose unique min-max optimum zeroes out one group.

    Quotas: 2k/3 seats with f1=0 and k/3 with f2=0; pool thirds on the
    diagonal vectors and sixths off it. Minimizing the maximum forces the
    10-group to probability zero even though nobody is structurally excluded.
    """
    if n % 6 != 0 or k % 6 != 0:
        raise ValidationError("need n divisible by 6 and k divisible by 6")
    scheme = FeatureScheme(features=("f1", "f2"), values={"f1": ("0", "1"), "f2": ("0", "1")})
    counts = {("0", "0"): n // 3, ("1", "1"): n // 3, ("0", "1"): n // 6, ("1", "0"): n // 6}
    agents = []
    idx = 1
    for vector, size in counts.items():
        for _ in range(size):
            agents.append((f"a{idx}", vector))
            idx += 1
    quotas = {
        ("f1", "0"): (2 * k // 3, 2 * k // 3),
        ("f1", "1"): (k // 3, k // 3),
        ("f2", "0"): (k // 3, k // 3),
        ("f2", "1"): (2 * k // 3, 2 * k // 3),
    }
    return Instance(scheme=scheme, agents=tuple(agents), k=k, quotas=quotas, label="minzero")


def excluded_agent_instance() -> Instance:
    """A pool where the quotas shut one agent out of every panel."""
    scheme = FeatureScheme(features=("f",), values={"f": ("1", "0")})
    agents = (("a1", ("1",)), ("a2", ("1",)), ("a3", ("1",)), ("a4", ("0",)))
    quotas = {("f", "1"): (2, 2), ("f", "0"): (0, 0)}
    return Instance(scheme=scheme, agents=agents, k=2, quotas=quotas, label="excluded")


def random_brute_instance(seed: int, max_n: int = 12, max_k: int = 4, max_features: int = 2) -> Instance:
    """A random small instance with feasible quotas and nobody excluded.

    Quotas are sampled around the composition of a random valid panel, so a
    valid panel always exists; instances with structurally excluded agents
    are re-rolled. Deterministic for a given seed.
    """
    rng = random.Random(seed)
    for _ in range(1000):
        n = rng.randint(4, max_n)
        k = rng.randint(1, min(max_k, n - 1))
        n_features = rng.randint(1, max_features)
        features = tuple(f"f{j + 1}" for j in range(n_features))
        scheme = FeatureScheme(features=features, values={f: ("0", "1") for f in features})
        agents = tuple(
            (f"a{i + 1}", tuple(rng.choice("01") for _ in features)) for i in range(n)
        )
        sample = rng.sample(range(n), k)
        quotas: dict[tuple[str, str], tuple[int, int]] = {}
        for j, feature in enumerate(features):
            ones = sum(1 for i in sample if agents[i][1][j] == "1")
            for value, hit in (("0", k - ones), ("1", ones)):
                if rng.random() < 0.25:
                    continue  # leave this pair unconstrained
                lo = max(0, hit - rng.randint(0, 1))
                hi = min(k, hit + rng.randint(0, 1))
                quotas[(feature, value)] = (lo, hi)
        try:
            instance = Instance(
                scheme=scheme, agents=agents, k=k, quotas=quotas, label=f"rand{seed}"
            )
        except ValidationError:
            continue
        if not has_valid_panel(instance):
            continue
        if structurally_excluded(instance):
            continue
        return instance
    raise RuntimeError(f"could not draw a feasible random instance for seed {seed}")


def skew_pool(n: int, k: int, arities: tuple[int, ...], seed: int = 0) -> Instance:
    """A seeded synthetic pool skewed toward value 0 on every feature.

    Drawn with ``random.Random(seed)``: agent by agent and feature by
    feature, an m-valued feature takes ``min(floor(Exp(rate=0.6)), m - 1)``.
    Every value of an m-valued feature gets the quota
    ``[floor(0.9k/m), floor(1.1k/m) + 1]``. With the default seed, (500, 20,
    (2, 3, 3, 2)) is the 36-group pool whose composition space is too big to
    enumerate, and (200, 10, (2, 2, 3)) has 12 groups and 12,888 valid
    compositions. The pool is not checked for feasibility or exclusion.
    """
    rng = random.Random(seed)
    features = tuple(f"f{j + 1}" for j in range(len(arities)))
    scheme = FeatureScheme(
        features=features,
        values={f: tuple(str(v) for v in range(m)) for f, m in zip(features, arities)},
    )
    agents = tuple(
        (f"a{i + 1}", tuple(str(min(int(rng.expovariate(0.6)), m - 1)) for m in arities))
        for i in range(n)
    )
    quotas = {
        (f, str(v)): (math.floor(0.9 * k / m), math.floor(1.1 * k / m) + 1)
        for f, m in zip(features, arities)
        for v in range(m)
    }
    groups = len({vector for _, vector in agents})
    return Instance(scheme=scheme, agents=agents, k=k, quotas=quotas, label=f"skew{groups}")
