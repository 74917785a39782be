"""Spans around the program's layer boundaries, recorded from the outside.

``Tracer.install`` replaces each wrapped function in the module namespace its
caller looks it up in, and ``uninstall`` puts the originals back. A span holds
name, start, end, parent and op id; spans stay in memory until ``dump``. A
span's self time is its duration minus the durations of its direct children;
the benchmark runs single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

CLI_SPAN = "cli"  # the span around one whole cli.main call


def _lp_cols(args, kwargs, result):
    return {"cols": int(args[1].shape[1])}


def _solve_result(args, kwargs, result):
    return {"iterations": int(result.iterations), "unconverged": int(not result.converged)}


def _panels_out(args, kwargs, result):
    return {"panels_out": len(result.entries)}


def _support_in(args, kwargs, result):
    return {"support_in": len(args[0].entries)}


# (layer, module the caller looks the name up in, attribute, attrs from the call)
SITES = [
    ("model.load_instance", "panelot.cli", "load_instance", None),
    ("panels.panel_oracle", "panelot.solver", "panel_oracle", None),
    ("panels.structurally_excluded", "panelot.panels", "structurally_excluded", None),
    ("panels.structurally_excluded", "panelot.adversary", "structurally_excluded", None),
    ("panels.structurally_excluded", "panelot.cli", "structurally_excluded", None),
    ("simplex.solve_lp", "panelot.solver", "solve_lp", _lp_cols),
    ("solver.solve", "panelot.cli", "solve", _solve_result),
    ("solver.solve", "panelot.adversary", "solve", _solve_result),
    ("solver.solve", "panelot.solver", "solve", _solve_result),
    ("panels.expand_composition_distribution", "panelot.solver",
     "expand_composition_distribution", _panels_out),
    ("panels.marginals", "panelot.solver", "marginals", None),
    ("rounding.pipage_round", "panelot.cli", "pipage_round", _support_in),
    ("rounding.write_lottery", "panelot.cli", "write_lottery", None),
    ("rounding.lottery_marginals", "panelot.cli", "lottery_marginals", None),
    ("adversary.apply_misreport", "panelot.adversary", "apply_misreport", None),
]
LAYERS = sorted({layer for layer, *_ in SITES})


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.present: set[str] = set()

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, op: int, **attrs) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, op, attrs))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        """Close ``index`` and any span still open inside it (an op cut short
        by its time limit unwinds through them all)."""
        now = time.perf_counter()
        while self._open:
            top = self._open.pop()
            self.spans[top].end = now
            if top == index:
                break

    def _wrap(self, layer: str, site: str, fn, extract):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer.spans[tracer._open[0]].op if tracer._open else -1
            index = tracer.begin(layer, op, site=site)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if extract is not None:
                try:
                    tracer.spans[index].attrs.update(extract(args, kwargs, result))
                except (AttributeError, IndexError, TypeError):
                    pass  # the call changed shape; its counts read as zero
            return result

        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every site that exists; a layer with no site left is absent."""
        for layer, module_name, attr, extract in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._installed.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, module_name, original, extract))
            self.present.add(layer)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its direct children's durations."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


def layer_totals(spans: list[Span], ops: set[int]) -> dict[str, dict[str, float]]:
    """Per span name, over the spans of ``ops``: calls, inclusive seconds of
    outermost spans of that name (a nested call of the same name is not
    counted twice), self seconds, and the summed and max numeric attributes."""
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for index, span in enumerate(spans):
        if span.op not in ops:
            continue
        t = totals.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["self_s"] += own[index]
        ancestor = span.parent
        while ancestor is not None and spans[ancestor].name != span.name:
            ancestor = spans[ancestor].parent
        if ancestor is None:
            t["s"] += span.duration
        for key, value in span.attrs.items():
            if isinstance(value, (int, float)):
                t[key] = t.get(key, 0) + value
                t[key + "_max"] = max(t.get(key + "_max", 0), value)
    return totals
