"""In-memory span tracer that wraps the library's public functions from outside.

Each target function is replaced, at every ``pendular`` module attribute that
holds it, by a wrapper recording one span ``[name, parent, start, end]``.
``parent`` is the index of the enclosing span (-1 for a root), so self times
and parent attribution follow from the span list alone.  Nothing in ``src/``
changes: :meth:`Tracer.restore` puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

#: (module, function) pairs wrapped in a traced run.  Module names are
#: resolved with importlib because ``pendular.moments`` on the package is
#: the function ``moments``, not the module.
TARGETS = (
    ("rotor", "solve_pendular"),
    ("rotor", "operator_matrix"),
    ("moments", "moments"),
    ("moments", "pseudo_spin_states"),
    ("moments", "moment_curves"),
    ("moments", "c1_zero_crossing"),
    ("pair", "coupling_surface"),
    ("pair", "heisenberg_constants"),
    ("pair", "pseudo_spin_operators"),
    ("pair", "vdd_from_first_principles"),
    ("fits", "fit_moment"),
    ("fits", "fit_gap"),
    ("fits", "comparison_table"),
    ("fits", "double_sigmoid"),
    ("chain", "ground_state"),
    ("chain", "polarization_onset_gamma"),
    ("chain", "phase_diagram"),
    ("tables", "render"),
)

#: Spans whose result size is summed into a ``<name>.bytes`` counter.
SIZED = {"tables.render"}

#: Per-layer metrics: (metric name, unit).  The suffix says how a metric is
#: computed from the spans of one pass (see :func:`layer_metrics`).
LAYER_METRICS = (
    ("rotor.solve_pendular.calls", "count"),
    ("rotor.solve_pendular.s", "s"),
    ("rotor.operator_matrix.calls", "count"),
    ("rotor.operator_matrix.s", "s"),
    ("moments.moments.calls", "count"),
    ("moments.moments.self_s", "s"),
    ("moments.pseudo_spin_states.calls", "count"),
    ("moments.moment_curves.s", "s"),
    ("moments.c1_zero_crossing.s", "s"),
    ("pair.coupling_surface.s", "s"),
    ("pair.heisenberg_constants.calls", "count"),
    ("pair.pseudo_spin_operators.calls", "count"),
    ("pair.vdd_from_first_principles.s", "s"),
    ("fits.fit_moment.s", "s"),
    ("fits.fit_gap.s", "s"),
    ("fits.comparison_table.self_s", "s"),
    ("fits.double_sigmoid.calls", "count"),
    ("chain.ground_state.calls", "count"),
    ("chain.ground_state.s", "s"),
    ("chain.ground_state.max_ms", "ms"),
    ("chain.polarization_onset_gamma.s", "s"),
    ("chain.phase_diagram.s", "s"),
    ("chain.phase_diagram.self_s", "s"),
    ("tables.render.s", "s"),
    ("tables.render.bytes", "bytes"),
    ("cli.cold_start.s", "s"),
    ("cli.convert.s", "s"),
    ("cli.couplings.s", "s"),
    ("cli.coupling-grid.s", "s"),
    ("cli.moments.s", "s"),
    ("cli.chain-ed.s", "s"),
    ("cli.phase-diagram.s", "s"),
    ("cli.payload_bytes", "bytes"),
)


class Tracer:
    """Span recorder; install() wraps the targets, restore() unwraps them."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        span = [name, self._stack[-1] if self._stack else -1, perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[3] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code; yields its index."""
        span = self._open(name)
        try:
            yield self._stack[-1]
        finally:
            self._close(span)

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, name: str, fn):
        sized = name in SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if sized:
                self.count(f"{name}.bytes", len(result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target wherever a ``pendular`` module holds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "pendular" or n.startswith("pendular.")]
        for module_name, func_name in TARGETS:
            original = getattr(importlib.import_module(f"pendular.{module_name}"), func_name, None)
            if original is None:
                print(f"tracer: pendular.{module_name}.{func_name} not found, not traced", file=sys.stderr)
                continue
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def graft(self, spans: list[list], counters: dict[str, int], parent: int) -> None:
        """Append spans recorded in a child process under span ``parent``."""
        base = len(self.spans)
        for name, par, start, end in spans:
            self.spans.append([name, parent if par < 0 else par + base, start, end])
        for name, amount in counters.items():
            self.count(name, amount)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list], counters: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one pass, keyed as in :data:`LAYER_METRICS`."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    longest: dict[str, float] = {}
    for (name, _, start, end), mine in zip(spans, own):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + mine
        longest[name] = max(longest.get(name, 0.0), end - start)
    out = {}
    for metric, _ in LAYER_METRICS:
        base, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls.get(base, 0)
        elif kind == "s":
            out[metric] = total.get(base, 0.0)
        elif kind == "self_s":
            out[metric] = self_s.get(base, 0.0)
        elif kind == "max_ms":
            out[metric] = 1e3 * longest.get(base, 0.0)
        else:
            out[metric] = counters.get(metric, 0)
    return out


def attribution(spans: list[list]) -> dict[str, dict[str, dict[str, float]]]:
    """Calls, time and self time of each span name, split by parent name."""
    own = self_times(spans)
    table: dict[str, dict[str, dict[str, float]]] = {}
    for (name, parent, start, end), mine in zip(spans, own):
        parent_name = spans[parent][0] if parent >= 0 else "(root)"
        row = table.setdefault(name, {}).setdefault(parent_name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += mine
    return table


def write_spans(path, spans: list[list], counters: dict[str, int], extra: dict) -> None:
    payload = dict(extra)
    payload["counters"] = counters
    payload["attribution"] = attribution(spans)
    payload["span_fields"] = ["name", "parent", "start_s", "end_s"]
    payload["spans"] = spans
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")
