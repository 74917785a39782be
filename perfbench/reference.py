"""Independent maximin and minimax optima for the correctness checks.

Enumerates every valid composition (seats per vector group) of a pool and
solves both master LPs over all of them with scipy's HiGHS. It shares no code
with panelot. run.py calls it in a child process, so that scipy does not
count toward the benchmark's peak_rss_mb.

Usage: python3 perfbench/reference.py POOL_NAME... (prints one JSON object)
"""

from __future__ import annotations

import json
import sys
from collections import Counter

import numpy as np
from scipy.optimize import linprog

import pools


def compositions(pool: pools.Pool) -> tuple[list[tuple[str, ...]], np.ndarray]:
    """All seat-count vectors over the pool's groups that meet k and the quotas."""
    sizes = pool.group_sizes()
    groups = list(sizes)
    bounds = {(f, v): (lo, hi) for f, v, lo, hi in pool.quotas}
    features = pool.features
    # Per feature value, seats still available in groups i.. (for the lower quotas).
    tail = [Counter() for _ in range(len(groups) + 1)]
    for i in range(len(groups) - 1, -1, -1):
        tail[i] = tail[i + 1].copy()
        for f, v in zip(features, groups[i]):
            tail[i][(f, v)] += min(sizes[groups[i]], pool.k)
    got: Counter = Counter()
    seats: list[int] = []
    rows: list[list[int]] = []

    def feasible(i: int, left: int) -> bool:
        for key, (lo, hi) in bounds.items():
            if got[key] > hi or got[key] + min(tail[i][key], left) < lo:
                return False
        return True

    def dfs(i: int, left: int) -> None:
        if i == len(groups):
            if left == 0 and feasible(i, 0):
                rows.append(list(seats))
            return
        if not feasible(i, left):
            return
        for c in range(min(sizes[groups[i]], left) + 1):
            for f, v in zip(features, groups[i]):
                got[(f, v)] += c
            seats.append(c)
            dfs(i + 1, left - c)
            seats.pop()
            for f, v in zip(features, groups[i]):
                got[(f, v)] -= c

    dfs(0, pool.k)
    return groups, np.array(rows, dtype=float).reshape(len(rows), len(groups))


def optima(pool: pools.Pool) -> dict[str, float]:
    """max over distributions of the lowest, and min of the highest, group probability."""
    groups, seats = compositions(pool)
    sizes = np.array([pool.group_sizes()[g] for g in groups], dtype=float)
    A = (seats / sizes).T  # A[w, c]: probability of a group-w agent under composition c
    n_groups, n_cols = A.shape
    ones = np.ones((n_groups, 1))
    a_eq = np.hstack([np.ones((1, n_cols)), [[0.0]]])
    bounds = [(0, None)] * n_cols + [(None, None)]
    objective = np.zeros(n_cols + 1)
    objective[-1] = 1.0
    # max t s.t. A q >= t; min s s.t. A q <= s; sum q = 1 in both.
    low = linprog(-objective, A_ub=np.hstack([-A, ones]), b_ub=np.zeros(n_groups),
                  A_eq=a_eq, b_eq=[1.0], bounds=bounds, method="highs")
    high = linprog(objective, A_ub=np.hstack([A, -ones]), b_ub=np.zeros(n_groups),
                   A_eq=a_eq, b_eq=[1.0], bounds=bounds, method="highs")
    if low.status != 0 or high.status != 0:
        raise RuntimeError(f"reference LP failed on {pool.name}: {low.message} / {high.message}")
    return {"maximin": float(low.x[-1]), "minimax": float(high.x[-1])}


if __name__ == "__main__":
    by_name = pools.ladder_pools()
    print(json.dumps({name: optima(by_name[name]) for name in sys.argv[1:]}))
