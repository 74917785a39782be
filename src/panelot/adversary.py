"""Manipulation modeling: misreports, attack strategies, and worst-case metrics.

The coalition model: a set of agents may report arbitrary feature vectors
while everyone else is truthful. Metrics are worst case over coalitions and
reported vectors, with agents of equal truthful vector treated as
interchangeable (every objective here is anonymous), which collapses the
search space to multisets.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from .errors import (
    BudgetExceededError,
    CoalitionTooLargeError,
    NonCoalitionExclusionError,
    ValidationError,
)
from .fixtures import linked_fate_instance, small_group_instance
from .model import FeatureScheme, FeatureVector, Instance, pool_share
from .panels import (
    PROB_EPS,
    derive_compositions,
    enclosing_compositions,
    strip_self_excluders,
    structurally_excluded,
)
from .solver import SolveConfig, solve

METRIC_INT = "int"  # largest probability gain of a coalition member
METRIC_EXT = "ext"  # largest probability loss inflicted on an outsider
METRIC_COMP = "comp"  # most expected seats shifted onto one feature value
METRIC_FAIRNESS = "fairness"  # worst-case minimum probability under attack

SEARCH_MU = "mu"
SEARCH_EXHAUSTIVE = "exhaustive"
_MAX_CANDIDATES = 200_000  # most (coalition, report) multisets a sweep may score


@dataclass(frozen=True)
class Misreport:
    """A coalition and what each member reports (truthful members may repeat
    their real vector)."""

    coalition: frozenset[str]
    reported: Mapping[str, FeatureVector]

    def __post_init__(self):
        extra = set(self.reported) - set(self.coalition)
        if extra:
            raise ValidationError(f"reported vectors for non-coalition agents: {sorted(extra)}")

    def describe(self) -> str:
        if not self.coalition:
            return "-"
        parts = []
        for agent_id in sorted(self.coalition):
            vec = self.reported.get(agent_id)
            parts.append(f"{agent_id}->{'|'.join(vec) if vec else 'truthful'}")
        return ";".join(parts)


@dataclass(frozen=True)
class ManipReport:
    metric: str
    value: float
    witness: Misreport
    search: str


def coalition_size_cap(instance: Instance) -> int:
    """Largest coalition size that provably cannot exclude truthful agents."""
    return max(0, instance.min_group_size() - instance.k)


def apply_misreport(instance: Instance, mis: Misreport, enclosing: Instance | None = None) -> Instance:
    """The manipulated instance: reported vectors, self-excluders removed.

    ``enclosing``, a pool that encloses the manipulated one, gives it its
    valid compositions without an enumeration (see ``strip_self_excluders``).
    """
    unknown = set(mis.coalition) - set(instance.agent_ids)
    if unknown:
        raise ValidationError(f"coalition members not in the pool: {sorted(unknown)}")
    agents = tuple(
        (agent_id, mis.reported.get(agent_id, vector)) for agent_id, vector in instance.agents
    )
    manipulated = instance.replace_agents(agents, label=f"{instance.label}~manip")
    return strip_self_excluders(manipulated, set(mis.coalition), enclosing)


def _midpoint_share_ratio(instance: Instance, feature: str, value: str) -> float | None:
    """The quota midpoint (in seats) over the pool share, or None for a value
    absent from the pool."""
    share = pool_share(instance, feature, value)
    if share == 0:
        return None
    lo, hi = instance.quota(feature, value)
    return ((lo + hi) / 2.0) / float(share)


def mu_vector(instance: Instance) -> FeatureVector:
    """The most-underrepresented vector: per feature, the value whose quota
    midpoint most exceeds its pool share.

    Only values present in the pool compete; a value with zero pool share
    and a lower quota above 0 is an error (one with lower quota 0 is
    skipped, as no panel can seat it). Ties resolve to the earliest value in
    scheme order.
    """
    chosen: list[str] = []
    for feature in instance.scheme.features:
        best_value = None
        best_ratio = -math.inf
        for value in instance.scheme.values[feature]:
            ratio = _midpoint_share_ratio(instance, feature, value)
            if ratio is None:
                if instance.quotas.get((feature, value), (0, 0))[0] > 0:
                    raise ValidationError(
                        f"pair ({feature}, {value}) is quota-constrained but absent from the pool"
                    )
                continue
            if ratio > best_ratio + 1e-12:
                best_ratio = ratio
                best_value = value
        assert best_value is not None
        chosen.append(best_value)
    return tuple(chosen)


def worst_mu_manipulator(instance: Instance, config: SolveConfig) -> ManipReport:
    """Largest probability gain any single agent can get by reporting the
    most-underrepresented vector: the c = 1 sweep with {μ} as the only
    report, so one re-solve per truthful vector group (members are
    interchangeable). The value is at least zero, matching a rational
    manipulator who can always stay truthful.
    """
    return _sweep(instance, config, 1, METRIC_INT, [mu_vector(instance)], SEARCH_MU, False)


def _coalition_choices(instance: Instance, c: int):
    """Multisets of c truthful vector groups, capped by group sizes."""
    vectors = instance.present_vectors()
    for combo in itertools.combinations_with_replacement(vectors, c):
        counts = Counter(combo)
        if all(instance.group_size(v) >= cnt for v, cnt in counts.items()):
            yield counts


def _report_choices(scheme_vectors: list[FeatureVector], counts: Counter):
    """Per-group multisets of reported vectors, expanded over the coalition."""
    per_group = []
    groups = sorted(counts)
    for vector in groups:
        per_group.append(
            list(itertools.combinations_with_replacement(scheme_vectors, counts[vector]))
        )
    for assignment in itertools.product(*per_group):
        yield dict(zip(groups, assignment))


def manip_metric_exhaustive(
    instance: Instance,
    config: SolveConfig,
    c: int,
    metric: str,
    strict: bool = False,
) -> ManipReport:
    """Exact worst case over all size-c coalitions and reported vectors: the
    sweep with every vector of the scheme as a report. ``strict`` rejects a
    coalition larger than the safe bound max(0, smallest group - k)."""
    return _sweep(instance, config, c, metric, instance.scheme.all_vectors(), SEARCH_EXHAUSTIVE, strict)


def _sweep(
    instance: Instance,
    config: SolveConfig,
    c: int,
    metric: str,
    reports: list[FeatureVector],
    search: str,
    strict: bool,
) -> ManipReport:
    """Worst case of ``metric`` over size-c coalitions whose members each
    report a vector of ``reports``.

    Search and scoring go by truthful vector group (every solve is exactly
    anonymous): a candidate is scored from the group probabilities before
    and after it and its coalition's counts, so ``comp`` may differ from a
    per-agent sum by round-off. Misreports that would structurally exclude
    a truthful agent fall outside the model: they floor the fairness metric
    at zero and are skipped for the gain metrics. The sweep starts from the
    empty coalition, worth 0 for the gain metrics and the truthful minimum
    for fairness, and a misreport replaces the witness only when it beats
    the witness's value by more than ``PROB_EPS``.

    Every pool the sweep builds, the truthful one included, lies within the
    truthful pool with c more agents in the group of every reportable
    vector. That pool's valid compositions are enumerated once, and each
    pool's are filtered from them (``enclosing_compositions``); past the
    cap, each pool enumerates itself.
    """
    if metric not in (METRIC_INT, METRIC_EXT, METRIC_COMP, METRIC_FAIRNESS):
        raise ValidationError(f"unknown metric {metric!r}")
    if c < 0:
        raise ValidationError(f"coalition size must be >= 0, got {c}")
    truthful = Counter({vector: len(members) for vector, members in instance.groups.items()})
    sizes = truthful.copy()
    sizes.update(dict.fromkeys(reports, c))
    enclosing = enclosing_compositions(instance, sizes)
    derive_compositions(instance, enclosing)

    if metric == METRIC_FAIRNESS and structurally_excluded(instance):
        return ManipReport(metric, 0.0, Misreport(frozenset(), {}), search)

    if strict and c > coalition_size_cap(instance):
        raise CoalitionTooLargeError(
            f"coalition of {c} exceeds the safe bound {coalition_size_cap(instance)}"
        )

    base = solve(instance, config)
    base_groups = base.distribution.group_probabilities(instance)
    best_value = min(base_groups.values()) if metric == METRIC_FAIRNESS else 0.0
    best_witness = Misreport(frozenset(), {})
    if c == 0:
        return ManipReport(metric, best_value, best_witness, search)

    coalition_count = math.comb(len(instance.groups) + c - 1, c)
    report_count = math.comb(len(reports) + c - 1, c)
    if coalition_count * report_count > _MAX_CANDIDATES:
        raise BudgetExceededError(
            f"{coalition_count * report_count} misreport candidates exceed the budget {_MAX_CANDIDATES}"
        )

    # A misreport that keeps the truthful multiset solves to the base result.
    solve_cache: dict[tuple, dict[FeatureVector, float]] = {tuple(sorted(truthful.items())): base_groups}

    for counts in _coalition_choices(instance, c):
        outsiders = [vector for vector in truthful if truthful[vector] > counts[vector]]
        for assignment in _report_choices(reports, counts):
            # One (truthful vector, reported vector) move per member; the
            # members of group v are its first counts[v] agents.
            moves = [(vector, rep) for vector, reps in assignment.items() for rep in reps]
            reported = {
                agent_id: rep
                for vector, reps in assignment.items()
                for agent_id, rep in zip(instance.groups[vector], reps)
            }
            mis = Misreport(frozenset(reported), reported)
            try:
                manipulated = apply_misreport(instance, mis, enclosing=enclosing)
            except NonCoalitionExclusionError:
                if metric == METRIC_FAIRNESS and 0.0 < best_value - PROB_EPS:
                    best_value, best_witness = 0.0, mis
                continue
            key = tuple(sorted((truthful - counts + Counter(reported.values())).items()))
            if key not in solve_cache:
                solve_cache[key] = solve(manipulated, config).distribution.group_probabilities(manipulated)
            attacked = solve_cache[key]

            # A reported vector missing from the attacked pool was stripped
            # as a self-excluder; outsiders keep their vector and their place.
            if metric == METRIC_INT:
                value = max(attacked.get(rep, 0.0) - base_groups[vector] for vector, rep in moves)
            elif metric == METRIC_EXT:
                value = max(base_groups[vector] - attacked[vector] for vector in outsiders)
            elif metric == METRIC_COMP:
                value = max(
                    sum((truthful[vector] - counts[vector]) * (attacked[vector] - base_groups[vector])
                        for vector in outsiders if vector[f_idx] == fv)
                    + sum(attacked.get(rep, 0.0) - base_groups[vector]
                          for vector, rep in moves if vector[f_idx] == fv)
                    for f_idx, feature in enumerate(instance.scheme.features)
                    for fv in instance.scheme.values[feature]
                )
            else:  # fairness
                value = min(attacked.values())

            gain = best_value - value if metric == METRIC_FAIRNESS else value - best_value
            if gain > PROB_EPS:  # at a tie within round-off, the first witness holds
                best_value, best_witness = value, mis

    return ManipReport(metric, float(best_value), best_witness, search)


def feature_bias_spread(instance: Instance, feature: str) -> float:
    """Spread of quota-midpoint/pool-share ratios across a feature's values."""
    ratios = [
        ratio for value in instance.scheme.values[feature]
        if (ratio := _midpoint_share_ratio(instance, feature, value)) is not None
    ]
    if not ratios:
        return 0.0
    return max(ratios) - min(ratios)


def drop_features(instance: Instance, count: int) -> Instance:
    """Remove the quota constraints of the ``count`` most biased features.

    Features are ranked by their ratio spread, descending; dropped features
    keep their agent data but fall back to the vacuous (0, k) quotas.
    """
    if not 0 <= count < len(instance.scheme.features):
        raise ValidationError(f"can drop between 0 and {len(instance.scheme.features) - 1} features")
    if count == 0:
        return instance
    ranked = sorted(
        instance.scheme.features,
        key=lambda f: (-feature_bias_spread(instance, f), instance.scheme.features.index(f)),
    )
    dropped = set(ranked[:count])
    quotas = {
        (f, v): bounds for (f, v), bounds in instance.quotas.items() if f not in dropped
    }
    return Instance(
        scheme=instance.scheme,
        agents=instance.agents,
        k=instance.k,
        quotas=quotas,
        label=f"{instance.label}-drop{count}",
    )


# ---------------------------------------------------------------------------
# Constructed lower-bound families
# ---------------------------------------------------------------------------

KIND_EXAMPLE1 = "example1"
KIND_EXAMPLE2 = "example2"
KIND_THM31 = "thm31"
KIND_THM43 = "thm43"

# The parameters each kind of make_lb_instance takes.
LB_PARAMETERS = {
    KIND_EXAMPLE1: ("n", "k", "n_min"),
    KIND_EXAMPLE2: ("n", "k"),
    KIND_THM31: ("n", "k", "n_min", "c"),
    KIND_THM43: ("n", "k", "n_min", "c"),
}


def make_lb_instance(kind: str, **params) -> tuple[Instance, Misreport]:
    """Constructed instances with known analytic behavior, plus the coalition
    that attacks them (empty for the two example fixtures).

    thm31/thm43 build the three-binary-feature pools whose post-manipulation
    panels come in exactly two types, pinning the small groups' probabilities
    to closed forms; see the tests for the formulas they are checked against.
    A parameter the kind does not take raises ``ValidationError``.
    """
    kind = kind.lower()
    if kind not in LB_PARAMETERS:
        raise ValidationError(f"unknown constructed-instance kind {kind!r}")
    unknown = [name for name in params if name not in LB_PARAMETERS[kind]]
    if unknown:
        raise ValidationError(f"{kind} does not take the parameters {', '.join(unknown)}")
    if kind == KIND_EXAMPLE1:
        instance = small_group_instance(params.get("n", 6), params.get("k", 3), params.get("n_min", 2))
        return instance, Misreport(frozenset(), {})
    if kind == KIND_EXAMPLE2:
        return linked_fate_instance(**params), Misreport(frozenset(), {})
    missing = [name for name in LB_PARAMETERS[kind] if name not in params]
    if missing:
        raise ValidationError(f"{kind} needs the parameters {', '.join(missing)}")
    return _make_two_type_instance(kind, **params)


def _make_two_type_instance(kind: str, n: int, k: int, n_min: int, c: int) -> tuple[Instance, Misreport]:
    if k % 2 != 0 or k < 6:
        raise ValidationError("k must be even and at least 6")
    if (n - n_min) % 2 != 0:
        raise ValidationError("n - n_min must be even")
    if n_min > n // 2:
        raise ValidationError("n_min cannot exceed n/2")
    if kind == KIND_THM31:
        if not (k + 3 <= n_min):
            raise ValidationError("need n_min >= k + 3")
        if not (3 <= c <= n_min - k):
            raise ValidationError("need 3 <= c <= n_min - k")
    else:
        if not (k + 5 <= n_min and n_min <= n // k):
            raise ValidationError("need k + 5 <= n_min <= n/k")
        if not (5 <= c <= n_min - k):
            raise ValidationError("need 5 <= c <= n_min - k")

    scheme = _three_feature_scheme()
    agents: list[tuple[str, FeatureVector]] = []
    side = (n - n_min) // 2
    idx = 1
    for vector, size in ((("0", "0", "0"), side), (("1", "1", "0"), side), (("1", "1", "1"), n_min)):
        for _ in range(size):
            agents.append((f"a{idx}", vector))
            idx += 1
    half = k // 2
    quotas = {
        ("f1", "1"): (half + 1, half + 1),
        ("f1", "0"): (half - 1, half - 1),
        ("f2", "1"): (half + 1, half + 1),
        ("f2", "0"): (half - 1, half - 1),
        ("f3", "1"): (2, 2),
        ("f3", "0"): (k - 2, k - 2),
    }
    instance = Instance(
        scheme=scheme, agents=tuple(agents), k=k, quotas=quotas, label=kind
    )

    column = instance.groups[("1", "1", "1")]
    if kind == KIND_THM31:
        coalition = list(column[:c])
        reported: dict[str, FeatureVector] = {coalition[0]: ("1", "1", "1")}
        reported[coalition[1]] = ("0", "1", "0")
        for agent_id in coalition[2:]:
            reported[agent_id] = ("1", "0", "0")
    else:
        insiders = list(column[: c - 2])
        mover_up = instance.groups[("0", "0", "0")][0]
        mover_side = instance.groups[("1", "1", "0")][0]
        coalition = insiders + [mover_up, mover_side]
        reported = {mover_up: ("1", "1", "1"), mover_side: ("0", "1", "0")}
        reported[insiders[0]] = ("0", "0", "0")
        reported[insiders[1]] = ("1", "1", "0")
        for agent_id in insiders[2:]:
            reported[agent_id] = ("1", "0", "0")
    return instance, Misreport(frozenset(coalition), reported)


def _three_feature_scheme():
    return FeatureScheme(
        features=("f1", "f2", "f3"),
        values={"f1": ("0", "1"), "f2": ("0", "1"), "f3": ("0", "1")},
    )
