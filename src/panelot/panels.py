"""Reasoning over valid panels.

Agents with the same feature vector are interchangeable for every objective
this package optimizes, so all search happens in *composition* space: a
composition assigns a seat count to each vector group. A pool with millions
of valid panels typically has only a handful of valid compositions, which is
what makes the exact weighted-panel oracle and brute enumeration tractable.

One enumerator, ``_CompositionSearch.count_matrix``, lists the valid
compositions level by level over the sorted vector groups with numpy, in
lexicographic order. The brute backend (``feasible_compositions``) and the
oracle's per-instance memo (``_composition_matrix``) both use it. The one
cap, ``COMPOSITION_CAP``, bounds each level's expansion, not only the number
of compositions returned; past it, the oracle falls back to branch and bound
per query and brute raises CAP_EXCEEDED.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

from .errors import (
    CapExceededError,
    NonCoalitionExclusionError,
    ValidationError,
)
from .model import FeatureVector, Instance

# Absolute tolerance for probability bookkeeping throughout the package.
PROB_EPS = 1e-9

# The one size cap on composition spaces: brute enumeration raises
# CAP_EXCEEDED beyond it, and the oracle memoizes spaces up to it. It bounds
# every level of the enumeration, so it is also the enumerator's memory cap.
COMPOSITION_CAP = 300_000
# Expansion rows the enumerator builds and prunes at once.
_EXPANSION_CHUNK = 4096


@dataclass(frozen=True)
class Panel:
    """A concrete panel: a sorted k-tuple of distinct agent ids."""

    members: tuple[str, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.members))
        if len(set(ordered)) != len(ordered):
            raise ValidationError("panel members must be distinct")
        object.__setattr__(self, "members", ordered)

    def __contains__(self, agent_id: str) -> bool:
        return agent_id in self.members

    def composition(self, instance: Instance) -> "PanelComposition":
        counts: dict[FeatureVector, int] = {}
        for agent_id in self.members:
            vector = instance.vector_of[agent_id]
            counts[vector] = counts.get(vector, 0) + 1
        return PanelComposition(tuple(sorted(counts.items())))

    def is_valid(self, instance: Instance) -> bool:
        if len(self.members) != instance.k:
            return False
        if any(agent_id not in instance.vector_of for agent_id in self.members):
            return False
        for idx, feature in enumerate(instance.scheme.features):
            for value in instance.scheme.values[feature]:
                count = sum(1 for a in self.members if instance.vector_of[a][idx] == value)
                lo, hi = instance.quota(feature, value)
                if not lo <= count <= hi:
                    return False
        return True


@dataclass(frozen=True)
class PanelComposition:
    """Seat counts per feature vector, summing to k."""

    items: tuple[tuple[FeatureVector, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(sorted((v, c) for v, c in self.items if c > 0)))

    @property
    def counts(self) -> dict[FeatureVector, int]:
        return dict(self.items)

    def seats(self, vector: FeatureVector) -> int:
        return self.counts.get(vector, 0)

    def size(self) -> int:
        return sum(c for _, c in self.items)

    def is_valid(self, instance: Instance) -> bool:
        counts = self.counts
        if sum(counts.values()) != instance.k:
            return False
        if any(c > instance.group_size(v) for v, c in counts.items()):
            return False
        for idx, feature in enumerate(instance.scheme.features):
            for value in instance.scheme.values[feature]:
                total = sum(c for v, c in counts.items() if v[idx] == value)
                lo, hi = instance.quota(feature, value)
                if not lo <= total <= hi:
                    return False
        return True


def _check_mass(keyed: Iterable[tuple[Hashable, float]], what: str) -> None:
    """No negative mass, no repeated support point, total mass 1."""
    total = 0.0
    seen: set = set()
    for key, prob in keyed:
        if prob < -PROB_EPS:
            raise ValidationError(f"negative probability {prob} on {what} {key}")
        if key in seen:
            raise ValidationError(f"{what} {key} appears twice in the support")
        seen.add(key)
        total += prob
    if abs(total - 1.0) > PROB_EPS:
        raise ValidationError(f"support probabilities sum to {total}, expected 1")


@dataclass(frozen=True)
class PanelDistribution:
    """A probability distribution over distinct panels."""

    entries: tuple[tuple[Panel, float], ...]

    def __post_init__(self):
        _check_mass(((panel.members, prob) for panel, prob in self.entries), "panel")

    def support(self) -> list[Panel]:
        return [panel for panel, _ in self.entries]

    def to_json(self) -> dict:
        return {
            "panels": [
                {"members": list(panel.members), "prob": prob} for panel, prob in self.entries
            ]
        }

    @staticmethod
    def from_json(payload: dict) -> "PanelDistribution":
        return PanelDistribution(
            tuple((Panel(tuple(p["members"])), float(p["prob"])) for p in payload["panels"])
        )


@dataclass(frozen=True)
class CompositionDistribution:
    """A probability distribution over distinct compositions: what a solve
    returns. Concrete panels are built only when a lottery is drawn."""

    entries: tuple[tuple[PanelComposition, float], ...]

    def __post_init__(self):
        _check_mass(((comp.items, prob) for comp, prob in self.entries), "composition")

    def support(self) -> list[PanelComposition]:
        return [comp for comp, _ in self.entries]

    def check_valid(self, instance: Instance) -> None:
        """Raise unless every support composition is valid for ``instance``."""
        for comp, _ in self.entries:
            if not comp.is_valid(instance):
                raise ValidationError(f"composition {comp.items} is not valid for this instance")

    def marginals(self, instance: Instance) -> "ProbabilityAssignment":
        """Every agent's selection probability: its group's expected seat
        count sum_c q_c * s_c(w), divided by the group size n_w."""
        seats: dict[FeatureVector, float] = {}
        for comp, prob in self.entries:
            for vector, count in comp.items:
                seats[vector] = seats.get(vector, 0.0) + prob * count
        vector_of = instance.vector_of
        return ProbabilityAssignment({
            a: seats.get(vector_of[a], 0.0) / instance.group_size(vector_of[a])
            for a in instance.agent_ids
        })

    def to_json(self) -> dict:
        return {
            "compositions": [
                {"seats": [[list(vector), seats] for vector, seats in comp.items], "prob": prob}
                for comp, prob in self.entries
            ]
        }

    @staticmethod
    def from_json(payload: dict) -> "CompositionDistribution":
        try:
            entries = tuple(
                (
                    PanelComposition(tuple((tuple(vector), int(seats)) for vector, seats in c["seats"])),
                    float(c["prob"]),
                )
                for c in payload["compositions"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"result has no well-formed compositions list ({exc!r})") from exc
        return CompositionDistribution(entries)


@dataclass(frozen=True)
class ProbabilityAssignment:
    """Per-agent selection probabilities, plus group views when anonymous."""

    pi: Mapping[str, float]

    def min(self) -> float:
        return min(self.pi.values())

    def max(self) -> float:
        return max(self.pi.values())

    def total(self) -> float:
        return sum(self.pi.values())

    def values(self) -> list[float]:
        return [self.pi[a] for a in sorted(self.pi)]

    def anonymity_gap(self, instance: Instance) -> float:
        """Largest within-group probability spread."""
        gap = 0.0
        for members in instance.groups.values():
            probs = [self.pi[a] for a in members]
            gap = max(gap, max(probs) - min(probs))
        return gap

    def group_probabilities(self, instance: Instance, tol: float = 1e-6) -> dict[FeatureVector, float]:
        """Vector-indexed probabilities; requires anonymity within ``tol``."""
        gap = self.anonymity_gap(instance)
        if gap > tol:
            raise ValidationError(f"assignment is not anonymous (within-group gap {gap:.3g} > {tol:.3g})")
        return {
            vector: sum(self.pi[a] for a in members) / len(members)
            for vector, members in instance.groups.items()
        }


# ---------------------------------------------------------------------------
# Composition search
# ---------------------------------------------------------------------------


class _CompositionSearch:
    """Search over seat-count vectors with quota propagation: the level-wise
    enumerator (``count_matrix``) and the branch-and-bound oracle for spaces
    past the cap (``best_composition``).

    Vectors are visited in canonical sorted order and counts ascend, so both
    produce compositions in lexicographic order.
    """

    def __init__(self, instance: Instance, min_counts: Mapping[FeatureVector, int] | None = None):
        self.instance = instance
        self.vectors = instance.present_vectors()
        self.sizes = [instance.group_size(v) for v in self.vectors]
        self.min_counts = [0 if min_counts is None else min_counts.get(v, 0) for v in self.vectors]
        self.k = instance.k
        self.features = instance.scheme.features
        self.pairs = instance.scheme.feature_value_pairs()
        self.quota = {pair: instance.quota(*pair) for pair in self.pairs}
        # avail[i][(f,v)] = number of agents with f=v among groups i..end
        self.avail: list[dict[tuple[str, str], int]] = []
        running = {pair: 0 for pair in self.pairs}
        tail: list[dict[tuple[str, str], int]] = [dict(running)]
        for i in range(len(self.vectors) - 1, -1, -1):
            vector, size = self.vectors[i], self.sizes[i]
            running = dict(tail[-1])
            for f_idx, feature in enumerate(self.features):
                running[(feature, vector[f_idx])] += size
            tail.append(running)
        self.avail = list(reversed(tail))
        self.min_suffix = [0] * (len(self.vectors) + 1)
        for i in range(len(self.vectors) - 1, -1, -1):
            self.min_suffix[i] = self.min_suffix[i + 1] + self.min_counts[i]

    def _candidate_range(self, i: int, assigned: int) -> range:
        rem = self.k - assigned
        hi = min(self.sizes[i], rem - self.min_suffix[i + 1])
        return range(self.min_counts[i], hi + 1)

    def _prune(self, i: int, assigned: int, committed: dict[tuple[str, str], int]) -> bool:
        """True if no completion of this node can satisfy the quotas."""
        rem = self.k - assigned
        for feature in self.features:
            need = 0
            room = 0
            for value in self.instance.scheme.values[feature]:
                lo, hi = self.quota[(feature, value)]
                got = committed[(feature, value)]
                if got > hi:
                    return True
                need += max(0, lo - got)
                room += min(hi - got, self.avail[i][(feature, value)])
            if need > rem or room < rem:
                return True
        return False

    def count_matrix(self):
        """Every valid composition as a row of seat counts, columns in
        ``self.vectors`` order and rows in ascending lexicographic order; None
        as soon as one level's expansion would exceed ``COMPOSITION_CAP`` rows.

        Level-wise: after level i the frontier holds every partial row over
        the first i groups that survives the quota-propagation prune
        (``_prune``, applied to whole arrays). Each row expands to its
        candidate counts in ascending order, so the frontier stays sorted.
        The cap is checked on a level's expansion before it is allocated,
        and the expansion is built and pruned in chunks of at most
        ``_EXPANSION_CHUNK`` rows, so the cap bounds working memory at every
        level, not only the size of the result.
        """
        import numpy as np

        n_vec, k = len(self.vectors), self.k
        # Every count, quota and availability fits in int32; the frontier is
        # stored in the smallest unsigned type that holds k.
        work, small = np.int32, np.min_scalar_type(k)
        pair_at = {pair: j for j, pair in enumerate(self.pairs)}
        lo = np.array([self.quota[pair][0] for pair in self.pairs], dtype=work)
        hi = np.array([self.quota[pair][1] for pair in self.pairs], dtype=work)
        avail = np.array([[row[pair] for pair in self.pairs] for row in self.avail], dtype=work)
        member = np.zeros((n_vec, len(self.pairs)), dtype=work)
        for i, vector in enumerate(self.vectors):
            for f_idx, feature in enumerate(self.features):
                member[i, pair_at[(feature, vector[f_idx])]] = 1
        # Pairs are grouped by feature: each feature's first pair column.
        pair_features = [feature for feature, _ in self.pairs]
        feature_starts = [pair_features.index(feature) for feature in self.features]

        def keep(level: int, committed, assigned):
            rem = (k - assigned)[:, None]
            need = np.add.reduceat(np.maximum(lo - committed, 0), feature_starts, axis=1)
            room = np.add.reduceat(np.minimum(hi - committed, avail[level]), feature_starts, axis=1)
            return ~(committed > hi).any(axis=1) & (need <= rem).all(axis=1) & (room >= rem).all(axis=1)

        # The frontier after level i: counts of groups 0..i-1, the seats
        # committed to each (feature, value) pair, and the seats assigned.
        # Level 0 is the empty row, if it survives the prune.
        counts = np.zeros((1, 0), dtype=small)
        committed = np.zeros((1, len(self.pairs)), dtype=small)
        assigned = np.zeros(1, dtype=small)
        root = keep(0, committed, assigned)
        counts, committed, assigned = counts[root], committed[root], assigned[root]
        for i in range(n_vec):
            top = np.minimum(self.sizes[i], k - self.min_suffix[i + 1] - assigned.astype(work))
            reps = np.maximum(top - self.min_counts[i] + 1, 0)
            ends = np.cumsum(reps, dtype=np.int64)
            if len(ends) == 0 or ends[-1] == 0:
                return np.zeros((0, n_vec), dtype=np.int32)
            if ends[-1] > COMPOSITION_CAP:
                return None
            parts = []
            start = 0
            while start < len(reps):
                base = int(ends[start - 1]) if start else 0
                stop = max(int(np.searchsorted(ends, base + _EXPANSION_CHUNK, side="right")), start + 1)
                chunk_reps = reps[start:stop]
                # Expansion row j is the (j - first)-th child of its parent.
                parent = np.repeat(np.arange(start, stop), chunk_reps)
                first = np.repeat(ends[start:stop] - chunk_reps, chunk_reps)
                seats = (self.min_counts[i] + np.arange(base, ends[stop - 1]) - first).astype(work)
                child_committed = committed[parent] + seats[:, None] * member[i]
                child_assigned = assigned[parent] + seats
                ok = keep(i + 1, child_committed, child_assigned)
                child_counts = np.empty((int(ok.sum()), i + 1), dtype=small)
                child_counts[:, :i] = counts[parent[ok]]
                child_counts[:, i] = seats[ok]
                parts.append((child_counts, child_committed[ok].astype(small),
                              child_assigned[ok].astype(small)))
                start = stop
            counts = np.concatenate([part[0] for part in parts])
            committed = np.concatenate([part[1] for part in parts])
            assigned = np.concatenate([part[2] for part in parts])
        return counts[assigned == k].astype(np.int32)

    def best_composition(self, group_prefix: Mapping[FeatureVector, Sequence[float]]) -> dict[FeatureVector, int] | None:
        """Exact max-weight composition via branch and bound.

        ``group_prefix[v][c]`` is the best total weight of c agents from group
        v (prefix sums of the group's weights in descending order). The bound
        ignores quotas: current score plus the ``rem`` largest weights still
        available downstream can never be beaten.
        """
        # suffix_top[i] = descending weights of all agents in groups i..end,
        # truncated to k entries.
        n_vec = len(self.vectors)
        suffix_top: list[list[float]] = [[] for _ in range(n_vec + 1)]
        for i in range(n_vec - 1, -1, -1):
            prefix = group_prefix[self.vectors[i]]
            weights = [prefix[c + 1] - prefix[c] for c in range(len(prefix) - 1)]
            merged = sorted(weights + suffix_top[i + 1], reverse=True)[: self.k]
            suffix_top[i] = merged
        suffix_cum = [[0.0] for _ in range(n_vec + 1)]
        for i in range(n_vec + 1):
            acc = 0.0
            for w in suffix_top[i]:
                acc += w
                suffix_cum[i].append(acc)

        committed = {pair: 0 for pair in self.pairs}
        counts: list[int] = []
        best: dict[str, object] = {"score": -math.inf, "counts": None}

        def dfs(i: int, assigned: int, score: float) -> None:
            rem = self.k - assigned
            if i == n_vec:
                if (
                    assigned == self.k
                    and not self._prune(i, assigned, committed)
                    and score > best["score"] + 1e-12
                ):
                    best["score"] = score
                    best["counts"] = list(counts)
                return
            if self._prune(i, assigned, committed):
                return
            if rem >= len(suffix_cum[i]):
                return  # not enough agents left
            if score + suffix_cum[i][rem] <= best["score"] + 1e-12:
                return
            vector = self.vectors[i]
            prefix = group_prefix[vector]
            for c in self._candidate_range(i, assigned):
                for f_idx, feature in enumerate(self.features):
                    committed[(feature, vector[f_idx])] += c
                counts.append(c)
                dfs(i + 1, assigned + c, score + prefix[c])
                counts.pop()
                for f_idx, feature in enumerate(self.features):
                    committed[(feature, vector[f_idx])] -= c

        dfs(0, 0, 0.0)
        if best["counts"] is None:
            return None
        return {v: c for v, c in zip(self.vectors, best["counts"]) if c > 0}


def feasible_compositions(instance: Instance) -> list[PanelComposition]:
    """All valid seat-count compositions, in deterministic lexicographic order.

    Raises CAP_EXCEEDED when one level of the enumeration would expand to
    more than ``COMPOSITION_CAP`` rows (see ``_CompositionSearch.count_matrix``).
    """
    search = _CompositionSearch(instance)
    matrix = search.count_matrix()
    if matrix is None:
        raise CapExceededError(f"enumeration would expand past {COMPOSITION_CAP} rows")
    return [PanelComposition(tuple(zip(search.vectors, row))) for row in matrix.tolist()]


# Composition spaces within COMPOSITION_CAP are enumerated once per instance
# and memoized, turning every oracle call into a vectorized scoring pass;
# larger spaces fall back to branch and bound per query.
_COMP_CACHE_ATTR = "_cached_composition_matrix"


def _composition_matrix(instance: Instance):
    """(vectors, count matrix in lex order), or False when the space is too big.

    The matrix comes from ``_CompositionSearch.count_matrix``: the cap bounds
    every level's expansion, not only the number of valid compositions, so
    the enumeration gives up before allocating more than the cap.
    """
    cached = getattr(instance, _COMP_CACHE_ATTR, None)
    if cached is not None:
        return cached
    search = _CompositionSearch(instance)
    matrix = search.count_matrix()
    value = False if matrix is None else (search.vectors, matrix)
    object.__setattr__(instance, _COMP_CACHE_ATTR, value)
    return value


def has_valid_panel(instance: Instance) -> bool:
    cache = _composition_matrix(instance)
    if cache is not False:
        return cache[1].shape[0] > 0
    # Past the cap: with zero weights, branch and bound stops at the first
    # feasible composition.
    return composition_oracle(instance, [0.0] * len(instance.groups)) is not None


def _vector_coverable(instance: Instance, vector: FeatureVector) -> bool:
    """Is there a valid composition seating at least one agent of ``vector``?"""
    cache = _composition_matrix(instance)
    if cache is not False:
        vectors, matrix = cache
        column = vectors.index(vector)
        return bool((matrix[:, column] > 0).any())
    return composition_oracle(instance, [0.0] * len(instance.groups), min_counts={vector: 1}) is not None


def composition_oracle(instance: Instance, group_weights: Sequence[float],
                       min_counts: Mapping[FeatureVector, int] | None = None) -> PanelComposition | None:
    """A valid composition maximizing ``sum_w group_weights[w] * seats_w``,
    or None if none exists.

    ``group_weights`` holds one weight per group, in
    ``instance.present_vectors()`` order: every seat of a group weighs the
    same. Ties break as in ``panel_oracle``.
    """
    vectors = instance.present_vectors()
    if len(group_weights) != len(vectors):
        raise ValidationError(f"expected {len(vectors)} group weights, got {len(group_weights)}")
    group_prefix = {
        vector: list(itertools.accumulate([weight] * min(instance.group_size(vector), instance.k), initial=0.0))
        for vector, weight in zip(vectors, group_weights)
    }
    counts = _best_counts(instance, group_prefix, min_counts)
    return None if counts is None else PanelComposition(tuple(counts.items()))


def panel_oracle(instance: Instance, weights: Mapping[str, float],
                 min_counts: Mapping[FeatureVector, int] | None = None) -> Panel | None:
    """A valid panel maximizing total agent weight, or None if none exists.

    Exact: the search enumerates compositions with a sound optimistic bound,
    and within a composition each group contributes its heaviest agents.
    Ties break toward the lexicographically smallest composition, then the
    smallest agent ids.
    """
    group_sorted: dict[FeatureVector, list[str]] = {}
    group_prefix: dict[FeatureVector, list[float]] = {}
    for vector, members in instance.groups.items():
        ordered = sorted(members, key=lambda a: (-weights.get(a, 0.0), a))
        group_sorted[vector] = ordered
        prefix = [0.0]
        for agent_id in ordered:
            prefix.append(prefix[-1] + weights.get(agent_id, 0.0))
        group_prefix[vector] = prefix

    counts = _best_counts(instance, group_prefix, min_counts)
    if counts is None:
        return None
    members: list[str] = []
    for vector, c in counts.items():
        members.extend(group_sorted[vector][:c])
    return Panel(tuple(members))


def _best_counts(
    instance: Instance,
    group_prefix: Mapping[FeatureVector, Sequence[float]],
    min_counts: Mapping[FeatureVector, int] | None,
) -> dict[FeatureVector, int] | None:
    """Max-weight composition where ``group_prefix[v][c]`` is the weight of c
    seats of group v: a scoring pass over the memo, or branch and bound."""
    cache = _composition_matrix(instance)
    if cache is False:
        search = _CompositionSearch(instance, min_counts=min_counts)
        return search.best_composition(group_prefix)

    import numpy as np

    vectors, matrix = cache
    if matrix.shape[0] == 0:
        return None
    scores = np.zeros(matrix.shape[0])
    for column, vector in enumerate(vectors):
        prefix = np.asarray(group_prefix[vector])
        scores += prefix[matrix[:, column]]
    if min_counts:
        mask = np.ones(matrix.shape[0], dtype=bool)
        for vector, needed in min_counts.items():
            mask &= matrix[:, vectors.index(vector)] >= needed
        if not mask.any():
            return None
        scores[~mask] = -math.inf
    best = int(np.argmax(scores))  # lex order in the matrix; first max wins
    row = matrix[best]
    return {v: int(c) for v, c in zip(vectors, row) if c > 0}


def enumerate_panels(instance: Instance, cap: int = 1_000_000) -> list[Panel]:
    """All valid panels, each exactly once, in deterministic order.

    Compositions are enumerated first; the total panel count is checked
    against ``cap`` before any expansion happens.
    """
    compositions = feasible_compositions(instance)
    total = 0
    for comp in compositions:
        count = 1
        for vector, c in comp.items:
            count *= math.comb(instance.group_size(vector), c)
        total += count
        if total > cap:
            raise CapExceededError(f"instance has more than {cap} valid panels")
    panels: list[Panel] = []
    for comp in compositions:
        pools = [
            itertools.combinations(instance.groups[vector], c) for vector, c in comp.items
        ]
        for pick in itertools.product(*pools):
            members = tuple(itertools.chain.from_iterable(pick))
            panels.append(Panel(members))
    return panels


def marginals(instance: Instance, dist: PanelDistribution) -> ProbabilityAssignment:
    """Per-agent selection probabilities implied by a panel distribution."""
    pi = {agent_id: 0.0 for agent_id in instance.agent_ids}
    for panel, prob in dist.entries:
        if not panel.is_valid(instance):
            raise ValidationError(f"support panel {panel.members} is not valid for this instance")
        for agent_id in panel.members:
            pi[agent_id] += prob
    return ProbabilityAssignment(pi)


def structurally_excluded(instance: Instance) -> set[str]:
    """Agents that appear on no valid panel.

    Group-level query: agents sharing a vector are interchangeable, so one
    forced-inclusion feasibility check per present vector suffices.
    """
    excluded: set[str] = set()
    for vector in instance.present_vectors():
        if not _vector_coverable(instance, vector):
            excluded.update(instance.groups[vector])
    return excluded


def strip_self_excluders(instance: Instance, coalition: set[str] | frozenset[str]) -> Instance:
    """Drop manipulators whose reported vector lies on no valid panel.

    Raises if a non-coalition agent is excluded: size-bounded coalitions are
    supposed to make that impossible, and the metrics are undefined when it
    happens. Removing agents who are on no panel leaves the set of valid
    panels unchanged, so a single pass cannot create new exclusions.
    """
    excluded = structurally_excluded(instance)
    if not excluded:
        return instance
    truthful_excluded = excluded - set(coalition)
    if truthful_excluded:
        raise NonCoalitionExclusionError(
            f"misreport structurally excluded truthful agents: {sorted(truthful_excluded)}"
        )
    kept = [(a, v) for a, v in instance.agents if a not in excluded]
    return instance.replace_agents(kept)
