"""Domain model: feature schemes, pools, quotas, and derived pool statistics.

An :class:`Instance` bundles everything the selection task needs: the pool of
volunteers with one categorical value per feature, the panel size ``k``, and
per feature-value lower/upper quotas. Instances are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping

from .errors import DuplicateIdError, InfeasibleQuotasError, ValidationError

# An agent's feature vector: one value label per feature, in scheme order.
FeatureVector = tuple[str, ...]


@dataclass(frozen=True)
class FeatureScheme:
    """Ordered features and their admissible value labels.

    Value order matters: it is the tie-breaking order for strategy helpers and
    the column order of exported files.
    """

    features: tuple[str, ...]
    values: Mapping[str, tuple[str, ...]]

    def __post_init__(self):
        if len(set(self.features)) != len(self.features):
            raise ValidationError("feature names must be unique")
        if set(self.values) != set(self.features):
            raise ValidationError("values must be given for exactly the scheme features")
        for feature in self.features:
            labels = self.values[feature]
            if len(labels) < 2:
                raise ValidationError(f"feature {feature!r} needs at least 2 values")
            if len(set(labels)) != len(labels):
                raise ValidationError(f"feature {feature!r} has duplicate value labels")

    def check_vector(self, vector: FeatureVector) -> None:
        if len(vector) != len(self.features):
            raise ValidationError(f"vector {vector} has wrong length")
        for feature, value in zip(self.features, vector):
            if value not in self.values[feature]:
                raise ValidationError(f"value {value!r} not admissible for feature {feature!r}")

    def all_vectors(self) -> list[FeatureVector]:
        """Every representable vector (cartesian product of value sets)."""
        vectors: list[FeatureVector] = [()]
        for feature in self.features:
            vectors = [v + (label,) for v in vectors for label in self.values[feature]]
        return vectors

    def feature_value_pairs(self) -> list[tuple[str, str]]:
        return [(f, v) for f in self.features for v in self.values[f]]


@dataclass(frozen=True)
class Instance:
    """A panel selection instance: pool, panel size, and quotas.

    ``quotas`` holds the explicitly configured (feature, value) bounds; pairs
    without an entry default to the vacuous ``(0, k)`` at access time, so the
    original configuration stays distinguishable from the defaults.
    """

    scheme: FeatureScheme
    agents: tuple[tuple[str, FeatureVector], ...]
    k: int
    quotas: Mapping[tuple[str, str], tuple[int, int]]
    label: str = "instance"

    # Derived lookups, filled in __post_init__.
    groups: Mapping[FeatureVector, tuple[str, ...]] = field(init=False, repr=False, compare=False)
    vector_of: Mapping[str, FeatureVector] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = [agent_id for agent_id, _ in self.agents]
        seen: set[str] = set()
        for agent_id in ids:
            if agent_id in seen:
                raise DuplicateIdError(f"agent id {agent_id!r} appears more than once")
            seen.add(agent_id)
        if not 1 <= self.k <= len(self.agents):
            raise ValidationError(f"panel size k={self.k} must satisfy 1 <= k <= n={len(self.agents)}")
        # Each distinct vector once, in agent order, so the first bad one raises.
        for vector in dict.fromkeys(vector for _, vector in self.agents):
            self.scheme.check_vector(vector)
        for (feature, value), (lo, hi) in self.quotas.items():
            if feature not in self.scheme.values or value not in self.scheme.values[feature]:
                raise ValidationError(f"quota references unknown pair ({feature!r}, {value!r})")
            if not (0 <= lo <= hi <= self.k):
                raise InfeasibleQuotasError(
                    f"quota for ({feature}, {value}) must satisfy 0 <= min <= max <= k, got ({lo}, {hi})"
                )
        # Cheap necessary condition: per feature, the lower quotas must not
        # overshoot k and the upper quotas must be able to reach it.
        for feature in self.scheme.features:
            lo_sum = sum(self.quota(feature, v)[0] for v in self.scheme.values[feature])
            hi_sum = sum(self.quota(feature, v)[1] for v in self.scheme.values[feature])
            if lo_sum > self.k:
                raise InfeasibleQuotasError(
                    f"lower quotas for feature {feature!r} sum to {lo_sum} > k={self.k}"
                )
            if hi_sum < self.k:
                raise InfeasibleQuotasError(
                    f"upper quotas for feature {feature!r} sum to {hi_sum} < k={self.k}"
                )
        groups: dict[FeatureVector, list[str]] = {}
        vector_of: dict[str, FeatureVector] = {}
        for agent_id, vector in self.agents:
            groups.setdefault(vector, []).append(agent_id)
            vector_of[agent_id] = vector
        frozen_groups = {v: tuple(sorted(members)) for v, members in groups.items()}
        object.__setattr__(self, "groups", frozen_groups)
        object.__setattr__(self, "vector_of", vector_of)

    @property
    def n(self) -> int:
        return len(self.agents)

    @property
    def agent_ids(self) -> list[str]:
        return [agent_id for agent_id, _ in self.agents]

    def quota(self, feature: str, value: str) -> tuple[int, int]:
        return self.quotas.get((feature, value), (0, self.k))

    def present_vectors(self) -> list[FeatureVector]:
        """Distinct vectors in the pool, in a canonical (sorted) order."""
        return sorted(self.groups)

    def group_size(self, vector: FeatureVector) -> int:
        return len(self.groups.get(vector, ()))

    def min_group_size(self) -> int:
        return min(len(members) for members in self.groups.values())

    def replace_agents(self, agents: Iterable[tuple[str, FeatureVector]], label: str | None = None) -> "Instance":
        return Instance(
            scheme=self.scheme,
            agents=tuple(agents),
            k=self.k,
            quotas=dict(self.quotas),
            label=label if label is not None else self.label,
        )

    def to_json(self) -> dict:
        """Stable-key-order export, suitable for diffing."""
        return {
            "scheme": {
                "features": list(self.scheme.features),
                "values": {f: list(self.scheme.values[f]) for f in self.scheme.features},
            },
            "agents": [{"id": agent_id, "vector": list(vector)} for agent_id, vector in self.agents],
            "k": self.k,
            "quotas": [
                {"feature": f, "value": v, "min": lo, "max": hi}
                for (f, v), (lo, hi) in sorted(self.quotas.items())
            ],
        }

    @staticmethod
    def from_json(payload: dict, label: str = "instance") -> "Instance":
        scheme = FeatureScheme(
            features=tuple(payload["scheme"]["features"]),
            values={f: tuple(vals) for f, vals in payload["scheme"]["values"].items()},
        )
        agents = tuple((a["id"], tuple(a["vector"])) for a in payload["agents"])
        quotas = {(q["feature"], q["value"]): (int(q["min"]), int(q["max"])) for q in payload["quotas"]}
        return Instance(scheme=scheme, agents=agents, k=int(payload["k"]), quotas=quotas, label=label)


def pool_share(instance: Instance, feature: str, value: str) -> Fraction:
    idx = instance.scheme.features.index(feature)
    matching = sum(1 for _, vector in instance.agents if vector[idx] == value)
    return Fraction(matching, instance.n)


def duplicate_pool(instance: Instance, copies: int) -> Instance:
    """Simulate pool growth by replicating every agent ``copies`` times.

    Quotas and k are unchanged; replica ids get a ``#<copy>`` suffix so the
    original ids survive round-tripping.
    """
    if copies < 1:
        raise ValidationError("copies must be >= 1")
    if copies == 1:
        return instance
    # Every replica gets a suffix (copy 0 included) so stacked duplication
    # never collides: a1 -> a1#0/a1#1, then a1#0 -> a1#0#0/... and so on.
    agents: list[tuple[str, FeatureVector]] = []
    for copy_idx in range(copies):
        for agent_id, vector in instance.agents:
            agents.append((f"{agent_id}#{copy_idx}", vector))
    return instance.replace_agents(agents, label=f"{instance.label}x{copies}")


def _read_csv(path: Path, kind: str) -> tuple[list[str] | None, list[dict]]:
    """A CSV file's header and rows; an unreadable file is a ``ValidationError``."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            return reader.fieldnames, list(reader)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {kind} file {path}: {exc}") from exc


def load_instance(agents_file: str | Path, quotas_file: str | Path, k: int) -> Instance:
    """Load an instance from the two CSV files.

    The agents file must have header ``id,<feature1>,<feature2>,...``; the
    quotas file must have header ``feature,value,min,max``. Value labels are
    discovered from the union of quota rows and agent rows, quota rows first,
    so the quota file controls the value ordering.
    """
    agents_file = Path(agents_file)
    quotas_file = Path(quotas_file)

    header, quota_rows = _read_csv(quotas_file, "quotas")
    if header is None or not {"feature", "value", "min", "max"}.issubset(header):
        raise ValidationError(f"quotas file needs header feature,value,min,max, got {header}")

    header, agent_rows = _read_csv(agents_file, "agents")
    if header is None or header[0] != "id" or len(header) < 2:
        raise ValidationError(f"agents file needs header id,<feature...>, got {header}")
    features = tuple(header[1:])

    for row in quota_rows:
        if row["feature"] not in features:
            raise ValidationError(f"quota row references unknown feature {row['feature']!r}")

    # Discover value labels: quota rows first (they fix the order), then any
    # additional labels seen in the pool.
    values: dict[str, list[str]] = {f: [] for f in features}
    for row in quota_rows:
        if row["value"] not in values[row["feature"]]:
            values[row["feature"]].append(row["value"])
    for row in agent_rows:
        for feature in features:
            cell = row[feature]
            if cell is None or cell == "":
                raise ValidationError(f"agent {row['id']!r} has a blank value for feature {feature!r}")
            if cell not in values[feature]:
                values[feature].append(cell)

    scheme = FeatureScheme(features=features, values={f: tuple(v) for f, v in values.items()})
    agents = tuple((row["id"], tuple(row[f] for f in features)) for row in agent_rows)

    quotas: dict[tuple[str, str], tuple[int, int]] = {}
    for row in quota_rows:
        key = (row["feature"], row["value"])
        if key in quotas:
            raise ValidationError(f"duplicate quota row for {key}")
        try:
            lo, hi = int(row["min"]), int(row["max"])
        except (TypeError, ValueError) as exc:  # TypeError: a short row leaves a bound None
            raise ValidationError(f"quota bounds for {key} must be integers") from exc
        quotas[key] = (lo, hi)

    return Instance(scheme=scheme, agents=agents, k=k, quotas=quotas, label=agents_file.stem)


def save_instance(instance: Instance, agents_file: str | Path, quotas_file: str | Path) -> None:
    """Write the two CSVs back out; ``load_instance`` reproduces the instance."""
    with open(agents_file, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", *instance.scheme.features])
        for agent_id, vector in instance.agents:
            writer.writerow([agent_id, *vector])
    with open(quotas_file, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "value", "min", "max"])
        for feature in instance.scheme.features:
            for value in instance.scheme.values[feature]:
                if (feature, value) in instance.quotas:
                    lo, hi = instance.quotas[(feature, value)]
                    writer.writerow([feature, value, lo, hi])


def instance_hash(instance: Instance) -> str:
    """Content fingerprint used to tie lottery artifacts to their instance."""
    import hashlib

    blob = json.dumps(instance.to_json(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]
