"""Benchmark inputs: the seeded skewed pools and the closed-form fixtures.

A pool is a list of feature vectors plus quotas. ``write_pool`` turns it into
the two CSV files the CLI reads; the program sees nothing else.

The vector multiset of each skewed pool is the ROADMAP recipe drawn with
``random.Random(POOL_SEED)``. The run seed only names the agents and orders
the rows. Group sizes set how many panels the round-robin expansion builds
(the lcm of the sizes), so redrawing the vectors per seed swings single ops
by 5x and no two seeds would measure the same work.
"""

from __future__ import annotations

import csv
import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

POOL_SEED = 0
RATE = 0.6  # Exp(rate) feature values, so pools are skewed toward value 0


@dataclass(frozen=True)
class Pool:
    name: str
    k: int
    arities: tuple[int, ...]
    vectors: tuple[tuple[str, ...], ...]
    quotas: tuple[tuple[str, str, int, int], ...]  # feature, value, min, max

    @property
    def n(self) -> int:
        return len(self.vectors)

    @property
    def features(self) -> list[str]:
        return [f"f{j + 1}" for j in range(len(self.arities))]

    def group_sizes(self) -> dict[tuple[str, ...], int]:
        return dict(sorted(Counter(self.vectors).items()))


def skew_vectors(seed: int, n: int, arities: tuple[int, ...]) -> list[tuple[str, ...]]:
    """ROADMAP recipe: per agent and feature, min(floor(Exp(0.6)), m - 1)."""
    rng = random.Random(seed)
    return [
        tuple(str(min(int(rng.expovariate(RATE)), m - 1)) for m in arities)
        for _ in range(n)
    ]


def skew_quotas(k: int, arities: tuple[int, ...]) -> tuple[tuple[str, str, int, int], ...]:
    """Every value of an m-valued feature gets [floor(0.9k/m), floor(1.1k/m) + 1]."""
    return tuple(
        (f"f{j + 1}", str(v), math.floor(0.9 * k / m), math.floor(1.1 * k / m) + 1)
        for j, m in enumerate(arities)
        for v in range(m)
    )


def skew_pool(name: str, n: int, k: int, arities: tuple[int, ...]) -> Pool:
    return Pool(name, k, arities, tuple(skew_vectors(POOL_SEED, n, arities)), skew_quotas(k, arities))


def _exact_quotas(bounds: dict[tuple[str, str], int]) -> tuple[tuple[str, str, int, int], ...]:
    return tuple((f, v, c, c) for (f, v), c in bounds.items())


def _from_groups(name: str, k: int, arities, groups: dict[str, int], quotas) -> Pool:
    vectors = tuple(tuple(key) for key, size in groups.items() for _ in range(size))
    return Pool(name, k, arities, vectors, quotas)


def e2_pool() -> Pool:
    """Linked-fate fixture (n=8, k=4): goldilocks:1 has value 2*sqrt(3)."""
    quotas = _exact_quotas({(f, v): 2 for f in ("f1", "f2") for v in ("0", "1")})
    return _from_groups("e2", 4, (2, 2), {"00": 2, "11": 2, "10": 3, "01": 1}, quotas)


def _thm43_quotas():
    return _exact_quotas({
        ("f1", "0"): 2, ("f1", "1"): 4,
        ("f2", "0"): 2, ("f2", "1"): 4,
        ("f3", "0"): 4, ("f3", "1"): 2,
    })


def thm43_pool() -> Pool:
    """Truthful two-panel-type family at n=72, k=6, n_min=12."""
    return _from_groups("thm43", 6, (2, 2, 2), {"000": 30, "110": 30, "111": 12}, _thm43_quotas())


def thm43_attacked_pool() -> Pool:
    """thm43 after the c=6 coalition misreports: one 000 agent reports 111,
    one 110 agent reports 010, and four 111 agents report 000, 110, 100, 100.
    Leximin gives the lone 010 agent 1/8, nash 2/21."""
    groups = {"000": 30, "110": 30, "111": 9, "100": 2, "010": 1}
    return _from_groups("thm43a", 6, (2, 2, 2), groups, _thm43_quotas())


def agent_rows(pool: Pool, seed: int) -> list[tuple[str, tuple[str, ...]]]:
    """Agents with seed-drawn distinct ids, in seed-shuffled row order."""
    rng = random.Random(f"{pool.name}:{seed}")
    ids = rng.sample(range(10**6), pool.n)
    rows = [(f"p{i:06d}", vector) for i, vector in zip(ids, pool.vectors)]
    rng.shuffle(rows)
    return rows


def write_pool(pool: Pool, directory: Path, seed: int) -> tuple[Path, Path]:
    """Write ``<name>.csv`` (id,f1,...) and ``<name>_quotas.csv``."""
    agents = directory / f"{pool.name}.csv"
    quotas = directory / f"{pool.name}_quotas.csv"
    with open(agents, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", *pool.features])
        for agent_id, vector in agent_rows(pool, seed):
            writer.writerow([agent_id, *vector])
    with open(quotas, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "value", "min", "max"])
        writer.writerows(pool.quotas)
    return agents, quotas


def ladder_pools() -> dict[str, Pool]:
    """Every pool the workloads use, by name (the name is also the CSV stem)."""
    built = [
        skew_pool("skew12", 200, 10, (2, 2, 3)),
        skew_pool("skew9", 100, 10, (3, 3)),
        skew_pool("skew36", 500, 20, (2, 3, 3, 2)),
        skew_pool("skew8", 48, 6, (2, 2, 2)),
        skew_pool("skew60", 60, 6, (2, 2, 2)),
        e2_pool(),
        thm43_pool(),
        thm43_attacked_pool(),
    ]
    return {pool.name: pool for pool in built}
