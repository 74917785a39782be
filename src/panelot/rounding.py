"""Transparent lotteries: round a composition distribution to m equally likely tickets.

The randomized pairwise rounding and the randomly rotated round-robin ticket
fill used here preserve every agent's selection probability in expectation
(over the rounding randomness and the final draw), which is the property
that lets the pre-lottery guarantees carry over to the live draw. Individual
draws carry no worst-case promise; the closed-form deviation bounds of the
non-constructive rounding results are reported alongside for reference.

A lottery is stored as ticket runs: one run per drawn composition, holding
the few distinct panels its tickets cycle through and the run's length. The
public tally is computed from those runs in O(distinct panels). The ticket
file is written from one bytes template per run, each distinct panel's line
formatted once and filled with ticket numbers a chunk at a time; lines end
in ``\\n`` on every platform.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .errors import ValidationError
from .model import Instance, instance_hash
from .panels import CompositionDistribution, Panel, PanelComposition, ProbabilityAssignment

_INT_SNAP = 1e-9
# Ticket lines per write: the size of one run's bytes template. On the
# 500,000-ticket thm43a leximin lottery (15 MB, 2-core x86-64 VM) 4,096
# writes as fast as 8,192 (median 0.049 s against 0.048 s), but the writer's
# allocation peak is 0.63 MB at 4,096 and 1.30 MB at 8,192 (it was 0.85 MB
# for the per-ticket join), which shows in the process's peak RSS.
_WRITE_CHUNK = 4096


@dataclass(frozen=True)
class TicketRun:
    """``count`` consecutive tickets cycling through ``panels``.

    With p = len(panels), panel j sits on count // p + (j < count % p) of
    the run's tickets.
    """

    panels: tuple[Panel, ...]
    count: int

    def __post_init__(self):
        if not 1 <= len(self.panels) <= self.count:
            raise ValidationError(
                f"a run of {self.count} tickets cannot cycle through {len(self.panels)} panels"
            )

    def multiplicities(self) -> Iterator[tuple[Panel, int]]:
        whole, extra = divmod(self.count, len(self.panels))
        return ((panel, whole + (j < extra)) for j, panel in enumerate(self.panels))

    def tickets(self) -> Iterator[Panel]:
        return itertools.islice(itertools.cycle(self.panels), self.count)


@dataclass(frozen=True, init=False)
class UniformLottery:
    """Exactly m tickets; duplicates allowed; ticket i wins with chance 1/m.

    Built from either the tickets in order or their runs; a ticket sequence
    is split into runs on the way in, so runs are the only stored form.
    """

    m: int
    runs: tuple[TicketRun, ...]

    def __init__(
        self,
        m: int,
        tickets: Iterable[Panel] | None = None,
        *,
        runs: Iterable[TicketRun] | None = None,
    ):
        if m < 1:
            raise ValidationError("m must be at least 1")
        if (tickets is None) == (runs is None):
            raise ValidationError("a lottery takes either its tickets or its runs")
        runs = tuple(_cycle_runs(tickets) if runs is None else runs)
        count = sum(run.count for run in runs)
        if count != m:
            raise ValidationError(f"expected {m} tickets, got {count}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "runs", runs)

    @property
    def tickets(self) -> tuple[Panel, ...]:
        """All m tickets in file order (builds an m-tuple)."""
        return tuple(itertools.chain.from_iterable(run.tickets() for run in self.runs))

    def multiplicities(self) -> Iterator[tuple[Panel, int]]:
        """(panel, tickets it sits on) per run and distinct panel."""
        return itertools.chain.from_iterable(run.multiplicities() for run in self.runs)


def _cycle_runs(tickets: Iterable[Panel]) -> list[TicketRun]:
    """Split a ticket sequence, in order, into runs that each cycle through
    their distinct panels. Greedy: a run grows while the next ticket is a
    new panel or the next one of its closed cycle."""
    runs: list[TicketRun] = []
    panels: list[Panel] = []
    seen: set[Panel] = set()
    count = period = 0  # period stays 0 until the run's first panel recurs
    for panel in tickets:
        if period:
            fits = panel == panels[count % period]
        elif panel not in seen:
            panels.append(panel)
            seen.add(panel)
            fits = True
        elif panel == panels[0]:
            period = len(panels)
            fits = True
        else:
            fits = False
        if not fits:
            runs.append(TicketRun(tuple(panels), count))
            panels, seen, count, period = [panel], {panel}, 0, 0
        count += 1
    if panels:
        runs.append(TicketRun(tuple(panels), count))
    return runs


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
    runs = tuple(
        _fill_run(instance, comp, count, rng)
        for (comp, _), count in zip(dist.entries, counts)
        if count
    )
    return UniformLottery(m=m, runs=runs)


def _fill_run(
    instance: Instance, comp: PanelComposition, count: int, rng: random.Random
) -> TicketRun:
    """The run of ``count`` tickets of one composition, seats filled
    round-robin per group.

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
    return TicketRun(tuple(distinct), count)


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
    would tabulate them from the released panel list, counted as members
    times multiplicity over each run's distinct panels."""
    appearances = dict.fromkeys(instance.agent_ids, 0)
    for panel, count in lottery.multiplicities():
        for agent_id in panel.members:
            appearances[agent_id] += count
    return ProbabilityAssignment({a: v / lottery.m for a, v in appearances.items()})


def write_lottery(lottery: UniformLottery, path: str | Path, instance: Instance, seed: int) -> None:
    """One ticket per line (tab-separated from its number, ending in ``\\n``),
    plus a JSON sidecar carrying m, the instance fingerprint, and the seed.

    Each run's distinct panel lines are formatted once, as bytes, and
    repeated to whole periods into one ``%d`` template of at most
    ``_WRITE_CHUNK`` lines (one period, if that is longer); each chunk is
    that template filled with its ticket numbers, and the last, partial
    chunk joins the lines it needs.
    An agent id holding ``,``, ``\\n`` or ``\\r`` would not read back as one
    member, so it raises ``ValidationError`` before any file is opened.
    """
    for run in lottery.runs:
        for panel in run.panels:
            for agent_id in panel.members:
                if any(ch in agent_id for ch in ",\n\r"):
                    raise ValidationError(
                        f"agent id {agent_id!r} cannot be written to a ticket file: "
                        "ids may not contain ',', '\\n' or '\\r'"
                    )
    path = Path(path)
    with open(path, "wb") as fh:
        first = 1
        for run in lottery.runs:
            lines = [
                b"%d\t" + ",".join(panel.members).replace("%", "%%").encode("utf-8") + b"\n"
                for panel in run.panels
            ]
            block = lines * max(1, min(run.count, _WRITE_CHUNK) // len(lines))
            template = b"".join(block)
            end = first + run.count
            for start in range(first, end, len(block)):
                stop = min(start + len(block), end)
                chunk = template if stop - start == len(block) else b"".join(block[:stop - start])
                fh.write(chunk % tuple(range(start, stop)))
            first = end
    sidecar = {"m": lottery.m, "instance_hash": instance_hash(instance), "seed": seed}
    with open(path.with_suffix(path.suffix + ".json"), "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_lottery(path: str | Path) -> UniformLottery:
    """The lottery in a ticket file, as runs in file order; one ``Panel`` is
    built per distinct line. Every non-blank line must be
    ``<i>\\t<members>`` with i counting 1, 2, ... in file order."""
    panels: dict[str, Panel] = {}

    def tickets() -> Iterator[Panel]:
        number = 0
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                number += 1
                head, tab, members = line.partition("\t")
                if not tab or head != str(number):
                    raise ValidationError(
                        f"{path}: line {line_no} is not ticket {number} (expected '{number}<TAB>members')"
                    )
                panel = panels.get(members)
                if panel is None:
                    panel = panels[members] = Panel(tuple(members.split(",")))
                yield panel

    runs = _cycle_runs(tickets())
    return UniformLottery(m=sum(run.count for run in runs), runs=runs)
