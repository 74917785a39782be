"""Transparent lotteries: round a composition distribution to m equally likely tickets.

The randomized pairwise rounding and the randomly rotated round-robin ticket
fill used here preserve every agent's selection probability in expectation
(over the rounding randomness and the final draw), which is the property
that lets the pre-lottery guarantees carry over to the live draw. Individual
runs carry no worst-case promise; the closed-form deviation bounds of the
non-constructive rounding results are reported alongside for reference.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .errors import ValidationError
from .model import Instance, instance_hash
from .panels import (
    CompositionDistribution,
    Panel,
    PanelComposition,
    PanelDistribution,
    ProbabilityAssignment,
)

_INT_SNAP = 1e-9


@dataclass(frozen=True)
class UniformLottery:
    """Exactly m tickets; duplicates allowed; ticket i wins with chance 1/m."""

    m: int
    tickets: tuple[Panel, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValidationError("m must be at least 1")
        if len(self.tickets) != self.m:
            raise ValidationError(f"expected {self.m} tickets, got {len(self.tickets)}")

    def distribution(self) -> PanelDistribution:
        counts: dict[tuple[str, ...], int] = {}
        for panel in self.tickets:
            counts[panel.members] = counts.get(panel.members, 0) + 1
        return PanelDistribution(
            tuple((Panel(members), cnt / self.m) for members, cnt in sorted(counts.items()))
        )


def pipage_round(dist: CompositionDistribution, instance: Instance, m: int, seed: int) -> UniformLottery:
    """Round a composition distribution to an m-uniform lottery.

    Scale the weights by m and round them to ticket counts with randomized
    pairwise rounding, which keeps every composition's expected count. Then
    fill each composition's tickets: every group's seats go round-robin
    through its members, starting at a rotation drawn from the same RNG. Over
    c tickets a member of group w sits on floor or ceil of c*s_w/n_w of them,
    and the random rotation makes the expectation exactly c*s_w/n_w.
    """
    if m < 1:
        raise ValidationError("m must be at least 1")
    dist.check_valid(instance)
    rng = random.Random(seed)
    counts, _rounds = _round_counts([prob * m for _, prob in dist.entries], rng)
    if sum(counts) != m:
        raise ValidationError("rounded ticket counts drifted; distribution mass must sum to 1")
    tickets = itertools.chain.from_iterable(
        _fill_tickets(instance, comp, count, rng)
        for (comp, _), count in zip(dist.entries, counts)
        if count
    )
    return UniformLottery(m=m, tickets=tuple(tickets))


def _fill_tickets(
    instance: Instance, comp: PanelComposition, count: int, rng: random.Random
) -> Iterator[Panel]:
    """``count`` tickets of one composition, seats filled round-robin per group.

    Ticket j of group w starts s_w*j places after the rotation, so the
    tickets repeat with period lcm_w(n_w / gcd(n_w, s_w)); only one period of
    distinct panels is built.
    """
    groups = []
    period = 1
    for vector, seats in comp.items:
        members = instance.groups[vector]
        size = len(members)
        groups.append((members, size, seats, rng.randrange(size)))
        period = math.lcm(period, size // math.gcd(size, seats))
    distinct = [
        Panel(tuple(
            members[(start + j * seats + t) % size]
            for members, size, seats, start in groups
            for t in range(seats)
        ))
        for j in range(min(period, count))
    ]
    return itertools.islice(itertools.cycle(distinct), count)


def _round_counts(x: list[float], rng: random.Random) -> tuple[list[int], int]:
    """Pairwise randomized rounding of x (sum integral) to integers.

    One pass from left to right carries the single fractional entry seen so
    far and pairs it with the next one: shift mass between them, up by d1 or
    down by d2 (the distances to the nearest integers), choosing up with
    probability d2/(d1+d2) so both expectations are untouched. Every pairing
    makes one of the two integral, so at most len(x) - 1 rounds run; that
    count is returned with the integers.
    """

    def snap(value: float) -> float:
        nearest = round(value)
        return float(nearest) if abs(value - nearest) < _INT_SNAP else value

    x = [snap(v) for v in x]
    rounds = 0
    carry = None  # the one fractional entry to the left of j, if any
    for j, v in enumerate(x):
        if v == math.floor(v):
            continue
        if carry is None:
            carry = j
            continue
        rounds += 1
        i = carry
        d1 = min(math.ceil(x[i]) - x[i], x[j] - math.floor(x[j]))
        d2 = min(x[i] - math.floor(x[i]), math.ceil(x[j]) - x[j])
        if rng.random() < d2 / (d1 + d2):
            x[i] += d1
            x[j] -= d1
        else:
            x[i] -= d2
            x[j] += d2
        x[i] = snap(x[i])
        x[j] = snap(x[j])
        carry = i if x[i] != math.floor(x[i]) else (j if x[j] != math.floor(x[j]) else None)
    if carry is not None:
        # Total mass is integral, so a lone fractional entry is float noise.
        x[carry] = float(round(x[carry]))
    return [int(round(v)) for v in x], rounds


def rounding_bounds(k: int, vector_count: int, m: int) -> tuple[float, float]:
    """Worst-case probability deviation bounds of the existence results.

    b1 = k/m; b2 scales with the number of distinct feature vectors W as
    (sqrt((1 + ln2/lnW)/2) * sqrt(W lnW) + 1)/m. The smaller of the two is
    the advertised bound.
    """
    if vector_count < 2:
        raise ValidationError("vector count must be at least 2")
    if m < 1:
        raise ValidationError("m must be at least 1")
    b1 = k / m
    log_w = math.log(vector_count)
    b2 = (math.sqrt(0.5 * (1.0 + math.log(2.0) / log_w)) * math.sqrt(vector_count * log_w) + 1.0) / m
    return b1, b2


def lottery_marginals(instance: Instance, lottery: UniformLottery) -> ProbabilityAssignment:
    """Ticket-counting probabilities: appearances / m, exactly as the public
    would tabulate them from the released panel list."""
    pi = {agent_id: 0.0 for agent_id in instance.agent_ids}
    for panel in lottery.tickets:
        for agent_id in panel.members:
            pi[agent_id] += 1.0
    return ProbabilityAssignment({a: v / lottery.m for a, v in pi.items()})


def write_lottery(lottery: UniformLottery, path: str | Path, instance: Instance, seed: int) -> None:
    """One ticket per line (tab-separated from its number), plus a JSON
    sidecar carrying m, the instance fingerprint, and the seed."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for number, panel in enumerate(lottery.tickets, start=1):
            fh.write(f"{number}\t{','.join(panel.members)}\n")
    sidecar = {"m": lottery.m, "instance_hash": instance_hash(instance), "seed": seed}
    with open(path.with_suffix(path.suffix + ".json"), "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_lottery(path: str | Path) -> UniformLottery:
    tickets: list[Panel] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            _, _, members = line.partition("\t")
            tickets.append(Panel(tuple(members.split(","))))
    return UniformLottery(m=len(tickets), tickets=tuple(tickets))
