"""Valid compositions and the distributions over them.

Agents with the same feature vector are interchangeable for every objective
this package optimizes, so all search happens in *composition* space: a
composition assigns a seat count to each vector group. A pool with millions
of valid panels typically has only a handful of valid compositions, which is
what makes the exact weighted-panel oracle and brute enumeration tractable.
A solve returns a ``CompositionDistribution``, whose ``group_probabilities``
give every group's selection probability and ``marginals`` every agent's;
concrete ``Panel``s are built only as lottery tickets and as the ``legacy``
baseline's panel, never enumerated.

One vectorized step, ``_CompositionSearch._expand``, holds the quota
prune and the candidate seat range: it expands search states over the first
i sorted vector groups into their surviving children. A state is the seats
committed to each (feature, value) pair and the seats assigned, which is
all a partial row's completions depend on, so ``count_matrix`` merges equal
states level by level and then builds each state's completions backward
from its children's, never a row that fails to reach k seats. It lists
every valid composition once per instance, in lexicographic order, into the
memo (``_composition_matrix``), which the brute backend
(``feasible_compositions``) reads. The one cap, ``COMPOSITION_CAP``, bounds
each level's expansion in partial rows, counted through the states' path
counts, not only the number of compositions returned. Past it, brute raises
CAP_EXCEEDED and every query is an LP branch and bound over group seat
counts (``_branch_and_bound``) on the bundled simplex.

The oracle, ``composition_oracle``, is the max-weight valid composition.
Within the cap it scores every memo row as sum_w weight_w * seats_w, one
multiply-add per column, and returns the first maximum in lex order.

Two queries answer the rest. Feasibility (``has_valid_panel``) is a
zero-weight oracle call. Structural exclusion and the column-generation
seed read the per-group covers, ``covering_compositions``: one pass over
the memo within the cap, one oracle query per group past it.
"""

from __future__ import annotations

import math
import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import _simplex
from .errors import (
    CapExceededError,
    NonCoalitionExclusionError,
    SolverError,
    ValidationError,
)
from .model import FeatureVector, Instance

# Absolute tolerance for probability bookkeeping throughout the package.
PROB_EPS = 1e-9

# The one size cap on composition spaces: brute enumeration raises
# CAP_EXCEEDED beyond it, and the oracle memoizes spaces up to it. It bounds
# the partial rows of every level of the enumeration, so it also bounds the
# enumerator's distinct states and memory.
COMPOSITION_CAP = 300_000
# Children the enumerator builds and prunes at once.
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

    def is_valid(self, instance: Instance) -> bool:
        if any(agent_id not in instance.vector_of for agent_id in self.members):
            return False
        seats = Counter(instance.vector_of[a] for a in self.members)
        return PanelComposition(tuple(seats.items())).is_valid(instance)


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


@dataclass(frozen=True)
class CompositionDistribution:
    """A probability distribution over distinct compositions: what a solve
    returns. Concrete panels are built only when a lottery is drawn."""

    entries: tuple[tuple[PanelComposition, float], ...]

    def __post_init__(self):
        """Finite, non-negative mass, no repeated composition, total mass 1."""
        total = 0.0
        seen: set = set()
        for comp, prob in self.entries:
            if not math.isfinite(prob):
                raise ValidationError(f"probability {prob} on composition {comp.items} is not finite")
            if prob < -PROB_EPS:
                raise ValidationError(f"negative probability {prob} on composition {comp.items}")
            if comp.items in seen:
                raise ValidationError(f"composition {comp.items} appears twice in the support")
            seen.add(comp.items)
            total += prob
        if abs(total - 1.0) > PROB_EPS:
            raise ValidationError(f"support probabilities sum to {total}, expected 1")

    def support(self) -> list[PanelComposition]:
        return [comp for comp, _ in self.entries]

    def check_valid(self, instance: Instance) -> None:
        """Raise unless every support composition is valid for ``instance``."""
        for comp, _ in self.entries:
            if not comp.is_valid(instance):
                raise ValidationError(f"composition {comp.items} is not valid for this instance")

    def group_probabilities(self, instance: Instance) -> dict[FeatureVector, float]:
        """Every group's selection probability sum_c q_c * s_c(w) / n_w, in
        ``present_vectors()`` order; a vector ``instance`` lacks adds nothing.
        The one map from composition weights to probabilities: a solve's
        ``pi`` and the manipulation sweep read it. The seats-over-size matrix
        is column-major: the product's summation order, and so its last bits,
        depend on the layout."""
        vectors = instance.present_vectors()
        row = {vector: i for i, vector in enumerate(vectors)}
        seats = np.zeros((len(vectors), len(self.entries)), order="F")
        for j, (comp, _) in enumerate(self.entries):
            for vector, count in comp.items:
                if vector in row:
                    seats[row[vector], j] = count
        seats /= np.array([instance.group_size(v) for v in vectors], dtype=float)[:, None]
        probs = seats @ np.array([prob for _, prob in self.entries])
        return dict(zip(vectors, probs.tolist()))

    def marginals(self, instance: Instance) -> "ProbabilityAssignment":
        """Every agent's selection probability: its group's, from
        ``group_probabilities``."""
        groups, vector_of = self.group_probabilities(instance), instance.vector_of
        return ProbabilityAssignment({a: groups[vector_of[a]] for a in instance.agent_ids})

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
                (_composition_from_json(c["seats"]), float(c["prob"])) for c in payload["compositions"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"result has no well-formed compositions list ({exc!r})") from exc
        return CompositionDistribution(entries)


def _composition_from_json(rows) -> PanelComposition:
    """A composition from its ``[vector, seats]`` rows. Every seat count
    must be a whole number >= 0 and every vector appear once: truncating or
    dropping a row would load a different composition than the one stored."""
    counts: dict[FeatureVector, int] = {}
    for vector, seats in rows:
        vector = tuple(vector)
        whole = isinstance(seats, int) or (isinstance(seats, float) and seats.is_integer())
        if isinstance(seats, bool) or not whole or seats < 0:
            raise ValidationError(f"seat count {seats!r} of vector {vector} is not a whole number >= 0")
        if vector in counts:
            raise ValidationError(f"vector {vector} appears twice in one composition")
        counts[vector] = int(seats)
    return PanelComposition(tuple(counts.items()))


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


def _block_end(ends, start: int) -> int:
    """End of the block of states from ``start`` whose expansion fits in
    ``_EXPANSION_CHUNK`` rows (at least one state); ``ends`` is the running
    total of the states' fan-outs."""
    base = int(ends[start - 1]) if start else 0
    return max(int(np.searchsorted(ends, base + _EXPANSION_CHUNK, side="right")), start + 1)


def _runs(starts, lengths):
    """The integer runs starts[j], starts[j] + 1, ... of lengths[j] each,
    concatenated."""
    offsets = np.cumsum(lengths) - lengths
    return np.arange(int(lengths.sum())) + np.repeat(starts - offsets, lengths)


class _CompositionSearch:
    """Search over seat-count rows with quota propagation.

    A row over the first i vector groups (in canonical sorted order) holds
    their seat counts. Its state, one row of the seats it commits to each
    (feature, value) pair followed by the seats it assigns, is all that the
    prune and every later choice read, so the search runs over distinct
    states. ``_expand`` is its one step: it gives every state its candidate
    counts for group i in ascending order and drops the children whose
    quotas no completion can meet. The level-wise enumerator,
    ``count_matrix``, drives it and builds the rows, in lexicographic order,
    from the states that reach k seats.
    """

    def __init__(self, instance: Instance):
        self.vectors = instance.present_vectors()
        self.sizes = [instance.group_size(v) for v in self.vectors]
        self.k = k = instance.k
        features = instance.scheme.features
        pairs = instance.scheme.feature_value_pairs()
        pair_at = {pair: j for j, pair in enumerate(pairs)}
        # Every count, quota and availability fits in int32; states and rows
        # are stored in the smallest unsigned type that holds k.
        self.work, self.small = np.int32, np.min_scalar_type(k)
        self.lo = np.array([instance.quota(*pair)[0] for pair in pairs], dtype=self.work)
        self.hi = np.array([instance.quota(*pair)[1] for pair in pairs], dtype=self.work)
        self.member = np.zeros((len(self.vectors), len(pairs)), dtype=self.work)
        for i, vector in enumerate(self.vectors):
            for f_idx, feature in enumerate(features):
                self.member[i, pair_at[(feature, vector[f_idx])]] = 1
        # step[i]: what one seat of group i adds to a state.
        self.step = np.hstack([self.member, np.ones((len(self.vectors), 1), dtype=self.work)])
        # avail[i]: agents with each (feature, value) among groups i..
        agents = self.member * np.array(self.sizes, dtype=self.work)[:, None]
        self.avail = np.zeros((len(self.vectors) + 1, len(pairs)), dtype=self.work)
        self.avail[:-1] = np.cumsum(agents[::-1], axis=0)[::-1]
        # by_feature[j, f]: 1 when pair j is a value of feature f.
        self.by_feature = np.array([[pair[0] == feature for feature in features] for pair in pairs],
                                   dtype=self.work).reshape(len(pairs), len(features))

    def _keep(self, level: int, states):
        """The quota-propagation prune: False for states that no seats from
        groups ``level``.. can complete, because a pair is over its upper
        quota, or a feature's lower quotas need more seats than are left, or
        its upper quotas and the agents left leave too little room."""
        committed, rem = states[:, :-1], self.k - states[:, -1:]
        below_hi = self.hi - committed
        need = np.maximum(self.lo - committed, 0) @ self.by_feature
        room = np.minimum(below_hi, self.avail[level]) @ self.by_feature
        # Every slack must be >= 0; ``initial`` passes a pool with no features.
        return np.concatenate([below_hi, rem - need, room - rem], axis=1).min(axis=1, initial=0) >= 0

    def _root(self):
        """Level 0: the empty row's state, if it survives the prune."""
        states = np.zeros((1, len(self.lo) + 1), dtype=self.small)
        return states[self._keep(0, states)]

    def _fanout(self, i: int, states):
        """The number of candidate counts for group i under each state: from
        0 up to what its size and the seats left allow."""
        return np.minimum(self.sizes[i], self.k - states[:, -1].astype(self.work)) + 1

    def _expand(self, i: int, states, reps, start: int):
        """The children at group i of the states numbered from ``start``,
        over groups 0..i-1, with ``reps`` from ``_fanout``: each state's
        candidate counts in ascending order, less those the prune drops.
        Returns each child's parent number, its seat count for group i and
        its state."""
        parent = np.repeat(np.arange(start, start + len(reps)), reps)
        seats = _runs(0, reps).astype(self.work)
        children = states[parent - start] + seats[:, None] * self.step[i]
        ok = self._keep(i + 1, children)
        return parent[ok], seats[ok], children[ok].astype(self.small)

    def _merge(self, i: int, states, paths, reps):
        """One forward level over distinct states, with ``reps`` from
        ``_fanout``: the edges (parent state, seats, child state) that
        ``_expand`` keeps, then the distinct child states and each one's
        path count, the number of partial rows that reach it.

        The states are expanded in blocks whose expansion fits in
        ``_EXPANSION_CHUNK`` rows. Equal children merge; they are sorted and
        compared column by column, so the key holds at every pool size."""
        ends = np.cumsum(reps, dtype=np.int64)
        parts = []
        start = 0
        while start < len(reps):
            stop = _block_end(ends, start)
            parts.append(self._expand(i, states[start:stop], reps[start:stop], start))
            start = stop
        parent, seats, children = (np.concatenate(part) for part in zip(*parts))
        order = np.lexsort(children.T)
        ranked = children[order]
        fresh = np.ones(len(order), dtype=bool)
        fresh[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
        child = np.empty(len(order), dtype=np.intp)
        child[order] = np.cumsum(fresh) - 1
        child_paths = np.bincount(child, weights=paths[parent]).astype(np.int64)
        return (parent, seats, child), ranked[fresh], child_paths

    def count_matrix(self):
        """Every valid composition as a row of seat counts, columns in
        ``self.vectors`` order and rows in ascending lexicographic order; None
        as soon as one level's expansion would exceed ``COMPOSITION_CAP`` rows.

        Whether a partial row can be completed, and how, depends only on its
        state. So the rows are never carried from level to level:

        1. Forward over distinct states (``_merge``): each level expands its
           states, merges equal children and records the edges (parent
           state, seats, child state). A state's path count is the number of
           partial rows that reach it, and a state's fan-out depends only on
           the state, so path counts times fan-outs is the level's row
           expansion. The cap is checked on it before the level is built,
           with the same verdict as if every row were carried.
        2. Backward, the rows: every state gets its completions, the rows
           over the groups after it that reach k seats. A state's
           completions are, edge by edge in ascending seat order, the seats
           followed by each completion of the child, so they come in
           lexicographic order, and a dead end has none. The root's
           completions are the valid compositions.

        Working memory is the distinct states, expanded in blocks of at most
        ``_EXPANSION_CHUNK`` rows, their edges, and the completions, which
        are at most as many as the valid compositions on every level.
        """
        states = self._root()
        paths = np.ones(len(states), dtype=np.int64)
        levels = []
        for i in range(len(self.vectors)):
            if len(states) == 0:
                return np.zeros((0, len(self.vectors)), dtype=np.int32)
            reps = self._fanout(i, states)
            if int(paths @ reps) > COMPOSITION_CAP:
                return None
            n_parents = len(states)
            edges, states, paths = self._merge(i, states, paths, reps)
            levels.append((n_parents, *edges))

        # Completions of each state as a block of rows, ``count`` rows from ``first``.
        count = (states[:, -1] == self.k).astype(np.int64)
        first = np.cumsum(count) - count
        rows = np.zeros((int(count.sum()), 0), dtype=self.small)
        for n_parents, parent, seats, child in reversed(levels):
            # A state's edges are contiguous, in ascending seat order.
            edge_count = count[child]
            grown = np.empty((int(edge_count.sum()), rows.shape[1] + 1), dtype=self.small)
            grown[:, 0] = np.repeat(seats, edge_count)
            grown[:, 1:] = rows[_runs(first[child], edge_count)]
            count = np.bincount(parent, weights=edge_count, minlength=n_parents).astype(np.int64)
            first = np.cumsum(count) - count
            rows = grown
        return rows.astype(np.int32)


def _branch_and_bound(instance: Instance, group_weights: Sequence[float]) -> PanelComposition | None:
    """A max-weight valid composition by depth-first LP branch and bound, or
    None if there is none; the oracle past the cap.

    The relaxation is ``max sum_g w_g x_g`` subject to ``sum_g x_g = k``,
    ``lo <= (seats on each (feature, value) pair) <= hi`` and
    ``0 <= x_g <= min(n_g, k)``. It is written once in the standard form
    ``solve_lp`` takes: x is shifted by its lower bounds, and slack columns
    hold the upper bounds and the quota ranges, so a node, which is a pair
    of bound vectors, changes only the right-hand side. A node branches on
    its most fractional x_g, up branch first, and goes when its LP is
    infeasible or cannot beat the best leaf by more than 1e-9. A zero-weight
    call therefore stops at its first integral leaf.

    Every root has the same A and b, so phase 1 runs once per instance, as
    a zero-cost solve whose basis the memo keeps, and every root runs phase
    2 from it. A child starts from its parent's final basis, dual feasible
    when only b moves, and the dual simplex reoptimizes it.
    """
    search = _CompositionSearch(instance)
    k, weights = search.k, np.asarray(group_weights, dtype=float)
    member = search.member.T.astype(float)  # pairs x groups
    n_pairs, n_groups = member.shape
    eye_g, eye_p = np.eye(n_groups), np.eye(n_pairs)
    zeros = np.zeros
    # Columns: y = x - lower, upper slack, quota slack below hi, its slack below hi - lo.
    A = np.block([
        [np.ones((1, n_groups)), zeros((1, n_groups)), zeros((1, 2 * n_pairs))],
        [eye_g, eye_g, zeros((n_groups, 2 * n_pairs))],
        [member, zeros((n_pairs, n_groups)), eye_p, zeros((n_pairs, n_pairs))],
        [zeros((n_pairs, 2 * n_groups)), eye_p, eye_p],
    ])
    c = np.concatenate([-weights, zeros(A.shape[1] - n_groups)])
    hi, spread = search.hi.astype(float), (search.hi - search.lo).astype(float)

    upper = np.minimum(np.array(search.sizes, dtype=float), k)
    memo = _memo(instance)
    if memo.root_basis is None:
        phase1 = _simplex.solve_lp(zeros(len(c)), A, np.concatenate([[k], upper, hi, spread]))
        memo.root_basis = phase1.basis if phase1.status == "optimal" else False
    if memo.root_basis is False:
        return None
    stack = [(zeros(n_groups), upper, memo.root_basis)]
    best_score, best = -math.inf, None
    while stack:
        lower, upper, start = stack.pop()
        if (lower > upper).any():
            continue
        b = np.concatenate([[k - lower.sum()], upper - lower, hi - member @ lower, spread])
        res = _simplex.solve_lp(c, A, b, start)
        if res.status != "optimal" or weights @ lower - res.objective <= best_score + 1e-9:
            continue
        x = lower + res.x[:n_groups]
        off = np.abs(x - np.round(x))
        g = int(np.argmax(off))
        if off[g] > 1e-6:
            split = math.floor(x[g])
            down, up = upper.copy(), lower.copy()
            down[g], up[g] = split, split + 1
            stack += [(lower, down, res.basis), (up, upper, res.basis)]
            continue
        counts = np.round(x).astype(int)
        comp = PanelComposition(tuple(zip(search.vectors, counts.tolist())))
        if not comp.is_valid(instance):
            raise SolverError(f"branch and bound reached an invalid leaf {counts.tolist()}")
        score = float(weights @ counts)
        if score > best_score:
            best_score, best = score, comp
    return best


def feasible_compositions(instance: Instance) -> list[PanelComposition]:
    """All valid seat-count compositions, in deterministic lexicographic order.

    Raises CAP_EXCEEDED when one level of the enumeration would expand to
    more than ``COMPOSITION_CAP`` rows (see ``_CompositionSearch.count_matrix``).
    """
    matrix = _composition_matrix(instance)
    if matrix is False:
        raise CapExceededError(f"enumeration would expand past {COMPOSITION_CAP} rows")
    vectors = instance.present_vectors()
    return [PanelComposition(tuple(zip(vectors, row))) for row in matrix.tolist()]


# Composition spaces within COMPOSITION_CAP are enumerated once per instance
# and memoized: brute reads the list from it, and every oracle and covering
# query is a vectorized pass over it; larger spaces go to an LP branch and
# bound per query, whose root starts from the instance's phase-1 basis. A matrix
# can also be filled in without an enumeration, filtered from the matrix of a
# pool that encloses it (``derive_compositions``): a sweep's enclosing pool,
# or the unstripped pool of one with its self-excluders stripped. The
# covering query's answer is kept too, as a sweep asks it twice per pool.
# The memo lives here, keyed by id(instance), not in the frozen instance; an
# entry goes when its instance is collected.
@dataclass
class _Memo:
    matrix: object = None  # the count matrix, or False past the cap
    root_basis: object = None  # the relaxation's phase-1 basis, or False when it is infeasible
    covers: list | None = None  # covering_compositions' answer


_MEMO: dict[int, _Memo] = {}


def _memo(instance: Instance) -> _Memo:
    key = id(instance)
    memo = _MEMO.get(key)
    if memo is None:
        memo = _MEMO[key] = _Memo()
        weakref.finalize(instance, _MEMO.pop, key, None)
    return memo


def _composition_matrix(instance: Instance):
    """The count matrix of ``instance``'s valid compositions, columns in
    ``present_vectors()`` order and rows in lex order, or False when the
    space is too big.

    The matrix comes from ``_CompositionSearch.count_matrix``, which merges
    partial rows with equal quota states. The cap bounds every level's
    expansion in partial rows (the states' path counts times their
    fan-outs), not only the number of valid compositions, so the
    enumeration gives up before it builds a level past the cap.
    """
    memo = _memo(instance)
    if memo.matrix is None:
        matrix = _CompositionSearch(instance).count_matrix()
        memo.matrix = False if matrix is None else matrix
    return memo.matrix


def enclosing_compositions(instance: Instance, sizes: Mapping[FeatureVector, int]) -> Instance | None:
    """The pool with ``instance``'s k and quotas and the group ``sizes``
    (agents with synthetic ids), its valid compositions enumerated into its
    memo once to serve every pool it encloses (``derive_compositions``); None
    past the cap.

    A pool it encloses has the same scheme, k and quotas, and no group
    larger than in ``sizes``. The quotas do not depend on group sizes, so
    its valid compositions are exactly the enclosing pool's that seat no
    more of each group than it has, and none of a group it lacks.

    The cap verdict is the one the enclosed pool would reach alone. Padded
    with zeros for the groups it lacks, an enclosed pool's partial row is
    one of the enclosing pool's, and it survives the prune there too: the
    quotas are the same and at least as many agents are left on every
    (feature, value) pair. Each of its groups also offers at least as many
    candidate counts in the enclosing pool. So each level of the enclosed
    pool's enumeration expands to no more rows than the enclosing pool's
    level for the same group, and the enclosing pool stays within the cap
    only if every pool it encloses does. Past the cap, each pool enumerates
    itself.
    """
    vectors = [vector for vector, size in sizes.items() for _ in range(size)]
    enclosing = instance.replace_agents(((f"e{j}", vector) for j, vector in enumerate(vectors)),
                                        label=f"{instance.label}~enclosing")
    return None if _composition_matrix(enclosing) is False else enclosing


def derive_compositions(instance: Instance, enclosing: Instance | None) -> None:
    """Fill ``instance``'s empty memo from ``enclosing``'s valid compositions
    when that pool encloses it: the enclosing rows that seat at most each
    group's size (and 0 of every vector the pool lacks), in the pool's
    columns. Dropping columns that are 0 in every kept row keeps the rows in
    lexicographic order. The matrix is a fresh array, so no enclosing matrix
    outlives its pool."""
    if enclosing is None:
        return
    memo = _memo(instance)
    if memo.matrix is not None or (instance.scheme, instance.k, instance.quotas) != (
            enclosing.scheme, enclosing.k, enclosing.quotas):
        return
    matrix = _composition_matrix(enclosing)
    if matrix is False:
        return
    column = {vector: j for j, vector in enumerate(enclosing.present_vectors())}
    limit = np.zeros(len(column), dtype=np.int32)
    for vector, members in instance.groups.items():
        if len(members) > enclosing.group_size(vector):
            return
        limit[column[vector]] = len(members)
    keep = [column[vector] for vector in instance.present_vectors()]
    rows = (matrix <= limit).all(axis=1)
    memo.matrix = matrix[np.ix_(rows, keep)]


def has_valid_panel(instance: Instance) -> bool:
    """Whether any valid panel exists: a zero-weight oracle call, which past
    the cap stops at the branch and bound's first integral leaf."""
    return composition_oracle(instance, [0.0] * len(instance.groups)) is not None


def composition_oracle(instance: Instance, group_weights: Sequence[float]) -> PanelComposition | None:
    """A valid composition maximizing ``sum_w group_weights[w] * seats_w``,
    or None if none exists.

    ``group_weights`` holds one weight per group, in
    ``instance.present_vectors()`` order: every seat of a group weighs the
    same, so this is the max-weight valid panel up to the choice of agents
    within groups. Within the cap it scores the memo's rows with one
    multiply-add per column, the same left-to-right sum of weight times
    seats that column generation re-scores the answer with. The first
    maximum wins, so ties break toward the lexicographically first
    composition. Past the cap, ``_branch_and_bound`` returns a deterministic
    maximum, but not necessarily the lexicographically first.
    """
    vectors = instance.present_vectors()
    if len(group_weights) != len(vectors):
        raise ValidationError(f"expected {len(vectors)} group weights, got {len(group_weights)}")
    matrix = _composition_matrix(instance)
    if matrix is False:
        return _branch_and_bound(instance, group_weights)

    if matrix.shape[0] == 0:
        return None
    scores = np.zeros(matrix.shape[0])
    for column, weight in enumerate(group_weights):
        scores += weight * matrix[:, column]
    best = int(np.argmax(scores))  # lex order in the matrix; first max wins
    return PanelComposition(tuple(zip(vectors, matrix[best].tolist())))


def covering_compositions(instance: Instance) -> list[PanelComposition | None]:
    """For each group, in ``present_vectors()`` order, the valid composition
    that seats the most of its members, or None when no valid panel seats
    any of them.

    Within the cap this is one pass over the memo: each column's first
    maximum, so ties go to the lexicographically first composition, as the
    oracle's do. Past it, one oracle query per group, weighing only that
    group's seats, whose answer is kept when it seats at least one. The
    answer is memoized; each call returns a fresh list.
    """
    memo = _memo(instance)
    if memo.covers is None:
        memo.covers = _covers(instance)
    return list(memo.covers)


def _covers(instance: Instance) -> list[PanelComposition | None]:
    vectors = instance.present_vectors()
    matrix = _composition_matrix(instance)
    if matrix is False:
        best = (composition_oracle(instance, e_w) for e_w in np.eye(len(vectors)))
        return [cover if cover is not None and cover.seats(v) > 0 else None for cover, v in zip(best, vectors)]
    if matrix.shape[0] == 0:
        return [None] * len(vectors)
    rows = matrix.argmax(axis=0)
    return [
        PanelComposition(tuple(zip(vectors, matrix[row].tolist()))) if matrix[row, w] > 0 else None
        for w, row in enumerate(rows.tolist())
    ]


def structurally_excluded(instance: Instance) -> set[str]:
    """Agents that appear on no valid panel.

    Group-level query: agents sharing a vector are interchangeable, so a
    group is excluded exactly when it has no covering composition.
    """
    excluded: set[str] = set()
    for vector, cover in zip(instance.present_vectors(), covering_compositions(instance)):
        if cover is None:
            excluded.update(instance.groups[vector])
    return excluded


def strip_self_excluders(instance: Instance, coalition: set[str] | frozenset[str],
                         enclosing: Instance | None = None) -> Instance:
    """Drop manipulators whose reported vector lies on no valid panel.

    Raises if a non-coalition agent is excluded: size-bounded coalitions are
    supposed to make that impossible, and the metrics are undefined when it
    happens. Removing agents who are on no panel leaves the set of valid
    panels unchanged, so a single pass cannot create new exclusions.

    ``enclosing`` (from ``enclosing_compositions``) gives ``instance`` its
    valid compositions without an enumeration when it encloses the pool,
    and ``instance``, which encloses the kept pool, gives the kept pool its
    own.
    """
    derive_compositions(instance, enclosing)
    excluded = structurally_excluded(instance)
    if not excluded:
        return instance
    truthful_excluded = excluded - set(coalition)
    if truthful_excluded:
        raise NonCoalitionExclusionError(
            f"misreport structurally excluded truthful agents: {sorted(truthful_excluded)}"
        )
    kept = instance.replace_agents((a, v) for a, v in instance.agents if a not in excluded)
    derive_compositions(kept, instance)
    return kept
