"""Equality objectives over selection probability assignments.

All objectives are scalar measures where *lower means more equal*. The
goldilocks family scores an assignment by how far its extremes deviate
multiplicatively from the ideal k/n, penalizing the top and bottom jointly:

    goldilocks_gamma(pi) = max(pi) / (k/n) + gamma * (k/n) / min(pi)
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ValidationError
from .model import Instance, pool_share
from .panels import ProbabilityAssignment


class Kind(enum.Enum):
    MAXIMIN = "maximin"
    MINIMAX = "minimax"
    NASH = "nash"
    LEXIMIN = "leximin"
    GOLDILOCKS = "goldilocks"
    LINEAR = "linear"


# gamma selection for the goldilocks family
GAMMA_FIXED = "fixed"
GAMMA_AUTO_BALANCED = "auto1"  # from optimal extremes (needs two pre-solves)
GAMMA_AUTO_SELECTION_BIAS = "auto2"  # from quota/pool ratios only


@dataclass(frozen=True)
class EqualityObjective:
    """A tagged objective: kind, gamma (goldilocks/linear), tie-break flag."""

    kind: Kind
    gamma: float | None = None
    gamma_mode: str = GAMMA_FIXED
    tie_break: bool = False

    def __post_init__(self):
        if self.gamma_mode not in (GAMMA_FIXED, GAMMA_AUTO_BALANCED, GAMMA_AUTO_SELECTION_BIAS):
            raise ValidationError(f"unknown gamma mode {self.gamma_mode!r}")
        if self.gamma_mode != GAMMA_FIXED:
            if self.kind != Kind.GOLDILOCKS:
                raise ValidationError(f"auto gamma exists only for goldilocks, not {self.kind.value}")
            if self.gamma is not None:
                raise ValidationError(f"gamma mode {self.gamma_mode} sets gamma itself; got gamma={self.gamma}")
        elif self.kind in (Kind.GOLDILOCKS, Kind.LINEAR):
            if self.gamma is None or self.gamma < 0:
                raise ValidationError(f"{self.kind.value} needs gamma >= 0")
        elif self.gamma is not None:
            raise ValidationError(f"gamma is only meaningful for goldilocks/linear, not {self.kind.value}")
        if self.tie_break and self.kind not in (Kind.MAXIMIN, Kind.MINIMAX):
            raise ValidationError("tie-break variants exist only for maximin/minimax")

    def spec_string(self) -> str:
        if self.kind in (Kind.MAXIMIN, Kind.MINIMAX):
            return self.kind.value + ("-tb" if self.tie_break else "")
        if self.kind == Kind.GOLDILOCKS:
            if self.gamma_mode != GAMMA_FIXED:
                return f"goldilocks:{self.gamma_mode}"
            return f"goldilocks:{self.gamma:g}"
        if self.kind == Kind.LINEAR:
            return f"linear:{self.gamma:g}"
        return self.kind.value


def parse_objective(text: str) -> EqualityObjective:
    """Parse the CLI/config objective grammar.

    Accepted: maximin | minimax | maximin-tb | minimax-tb | leximin | nash |
    goldilocks:<gamma> | goldilocks:auto1 | goldilocks:auto2 | linear:<gamma>.
    Bare ``goldilocks`` is shorthand for ``goldilocks:1``.
    """
    text = text.strip().lower()
    plain = {
        "maximin": EqualityObjective(Kind.MAXIMIN),
        "minimax": EqualityObjective(Kind.MINIMAX),
        "maximin-tb": EqualityObjective(Kind.MAXIMIN, tie_break=True),
        "minimax-tb": EqualityObjective(Kind.MINIMAX, tie_break=True),
        "leximin": EqualityObjective(Kind.LEXIMIN),
        "nash": EqualityObjective(Kind.NASH),
        "goldilocks": EqualityObjective(Kind.GOLDILOCKS, gamma=1.0),
    }
    if text in plain:
        return plain[text]
    if ":" in text:
        head, _, arg = text.partition(":")
        if head == "goldilocks":
            if arg in (GAMMA_AUTO_BALANCED, GAMMA_AUTO_SELECTION_BIAS):
                return EqualityObjective(Kind.GOLDILOCKS, gamma_mode=arg)
            return EqualityObjective(Kind.GOLDILOCKS, gamma=_parse_gamma(arg))
        if head == "linear":
            return EqualityObjective(Kind.LINEAR, gamma=_parse_gamma(arg))
    raise ValidationError(f"unknown objective spec {text!r}")


def _parse_gamma(arg: str) -> float:
    try:
        gamma = float(arg)
    except ValueError as exc:
        raise ValidationError(f"bad gamma {arg!r}") from exc
    if gamma < 0 or not math.isfinite(gamma):
        raise ValidationError(f"gamma must be finite and >= 0, got {arg!r}")
    return gamma


def _values(pi: ProbabilityAssignment | Sequence[float]) -> list[float]:
    if isinstance(pi, ProbabilityAssignment):
        return list(pi.pi.values())
    return list(pi)


def evaluate(obj: EqualityObjective, pi: ProbabilityAssignment | Sequence[float], k: int, n: int) -> float:
    """Score an assignment; lower is more equal. Infinities are values.

    Leximin is scored by its first criterion (the maximin value); the full
    lexicographic refinement lives in the solver.
    """
    values = _values(pi)
    if len(values) != n:
        raise ValidationError(f"expected {n} probabilities, got {len(values)}")
    lo, hi = min(values), max(values)
    if obj.kind in (Kind.MAXIMIN, Kind.LEXIMIN):
        return -lo
    if obj.kind == Kind.MINIMAX:
        return hi
    if obj.kind == Kind.NASH:
        if lo <= 0.0:
            return 0.0
        log_mean = sum(math.log(v) for v in values) / n
        return -math.exp(log_mean)
    if obj.kind == Kind.GOLDILOCKS:
        if obj.gamma is None:
            raise ValidationError("goldilocks gamma is unresolved; fix gamma before evaluating")
        ideal = k / n
        if lo <= 0.0:
            return math.inf
        return hi / ideal + obj.gamma * ideal / lo
    if obj.kind == Kind.LINEAR:
        assert obj.gamma is not None
        return hi - obj.gamma * lo
    raise ValidationError(f"cannot evaluate objective kind {obj.kind}")


def gamma_star(z: float, min_group_size: int, c: int, n: int, k: int) -> float:
    """The gamma that pins the achievable min/max trade-off at level z.

    Requires c < smallest group size and z in (0, 1/n].
    """
    if not 0 < z <= 1.0 / n:
        raise ValidationError(f"z={z} must lie in (0, 1/n]")
    if c >= min_group_size:
        raise ValidationError(f"coalition size {c} must be below the smallest group size {min_group_size}")
    return z * max(1.0 / (min_group_size - c), c * z) * (n / k) ** 2


def gamma_balanced(min_opt: float, max_opt: float, n: int, k: int) -> float:
    """Balance gamma from the best achievable extremes.

    ``min_opt`` is the optimal minimum probability (a maximin solve),
    ``max_opt`` the optimal maximum (a minimax solve). Equals 1 when both
    extremes can reach k/n.
    """
    if not (0 <= min_opt <= 1 and 0 <= max_opt <= 1):
        raise ValidationError("optimal extremes must be probabilities")
    return (n * n) / (k * k) * max_opt * min_opt


def quota_pool_ratios(instance: Instance) -> dict[tuple[str, str], float]:
    """Representation ratio per explicitly constrained pair: the quota
    midpoint as a fraction of the panel, divided by the pool share.

    A ratio of 1 means the value is demanded exactly in proportion to its
    presence in the pool. A value absent from the pool is skipped when its
    lower quota is 0, since no panel can seat it, and rejected otherwise.
    """
    ratios: dict[tuple[str, str], float] = {}
    for (feature, value), (lo, hi) in instance.quotas.items():
        share = pool_share(instance, feature, value)
        if share == 0:
            if lo == 0:
                continue
            raise ValidationError(f"pair ({feature}, {value}) is quota-constrained but absent from the pool")
        ratios[(feature, value)] = ((lo + hi) / (2.0 * instance.k)) / float(share)
    return ratios


def gamma_selection_bias(instance: Instance) -> float:
    """Balance gamma from quota/pool ratios alone (no pre-solves).

    The product of the extreme representation ratios; 1 for an unbiased pool.
    """
    ratios = quota_pool_ratios(instance)
    if not ratios:
        return 1.0
    return min(ratios.values()) * max(ratios.values())


def gini(pi: ProbabilityAssignment | Sequence[float]) -> float:
    """Gini coefficient of an assignment: sum_{i,j} |v_i - v_j| / (2 n sum_i v_i).

    0 iff perfectly equal, below 1 always, and unchanged when every value is
    scaled by the same positive factor.
    """
    values = sorted(_values(pi))
    n = len(values)
    total = sum(values)
    if total <= 0.0:
        raise ValidationError("gini is undefined for an all-zero assignment")
    # sum_{i,j} |v_i - v_j| via the sorted-order identity
    abs_diff_sum = 2.0 * sum((2 * idx + 1 - n) * v for idx, v in enumerate(values))
    return abs_diff_sum / (2.0 * n * total)
