"""Out-of-program tracing for the benchmark's traced pass.

Each layer's public entry point is swapped for a wrapper that records a
span (name, parent, start, end). The swap happens in every
``barrier_restore`` module that holds the function, because callers import
names directly (``from .graph import build_intersection_graph``) and
rebinding only the defining module would miss them. ``World`` accessors
and the ``MessageBus`` methods are wrapped on their classes.

Spans are kept in memory and folded into per-layer totals at the end of
each unit of work. A span's self time is its duration minus the durations
of its direct children; calls within one thread nest, so children never
overlap.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

PACKAGE = "barrier_restore"

# Spans of the restore call that harness makes once per failure episode.
EPISODE_SPANS = ("central.restore", "baselines.rmove", "distributed.handle_failure")


class Span:
    __slots__ = ("name", "parent", "start", "end", "stats")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.stats: Optional[dict[str, float]] = None

    def add(self, key: str, value: float = 1.0) -> None:
        if self.stats is None:
            self.stats = {}
        self.stats[key] = self.stats.get(key, 0.0) + value


class LayerTotals:
    __slots__ = ("calls", "self_s", "stats")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.stats: dict[str, float] = defaultdict(float)


class Tracer:
    """Span recorder with parent links; ``fold`` turns the spans of one
    unit of work into per-layer totals and frees them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.layers: dict[str, LayerTotals] = defaultdict(LayerTotals)
        self.episode_ms: list[float] = []

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, open_[-1] if open_ else -1)
            open_.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                open_.pop()
            if observe is not None:
                for key, value in observe(args, kwargs, result).items():
                    span.add(key, value)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def count(self, layer: str, key: str) -> None:
        """Add one to ``key`` on the innermost open span of ``layer``."""
        for idx in reversed(self._open):
            if self.spans[idx].name == layer:
                self.spans[idx].add(key)
                return

    def fold(self) -> None:
        spans = self.spans
        child_s = [0.0] * len(spans)
        builds_under = [0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                child_s[span.parent] += span.end - span.start
                if span.name == "graph.build":
                    builds_under[span.parent] += 1
        for idx, span in enumerate(spans):
            totals = self.layers[span.name]
            totals.calls += 1
            totals.self_s += span.end - span.start - child_s[idx]
            if span.stats:
                for key, value in span.stats.items():
                    totals.stats[key] += value
            if span.name == "harness.deploy":
                totals.stats["redraws"] += builds_under[idx] - 1
            if span.name in EPISODE_SPANS and span.parent >= 0 \
                    and spans[span.parent].name == "harness.trial":
                self.episode_ms.append((span.end - span.start) * 1e3)
        spans.clear()


def _found(args, kwargs, result) -> dict[str, float]:
    return {"found": float(result is not None)}


def _sensors(args, kwargs, result) -> dict[str, float]:
    return {"sensors": float(len(args[0]))}


def _assignment(args, kwargs, result) -> dict[str, float]:
    rows, cols = result.cost.shape
    vacancies = len(set(args[1]))
    return {"rows": float(rows), "cols": float(cols), "vacancies": float(vacancies),
            "single_vacancy": float(vacancies == 1)}


def _infeasible(args, kwargs, result) -> dict[str, float]:
    return {"infeasible": float(result is None)}


def _alternate(args, kwargs, result) -> dict[str, float]:
    return {"alternate": float(result.mechanism == "alternate_path")}


def _moves(args, kwargs, result) -> dict[str, float]:
    return {"moves": float(len(result.moves))}


# (defining module, function, span name, observer)
FUNCTIONS = (
    ("harness", "run_experiment", "harness.experiment", None),
    ("harness", "run_trial", "harness.trial", None),
    ("harness", "deploy_with_barrier", "harness.deploy", None),
    ("graph", "build_intersection_graph", "graph.build", _sensors),
    ("graph", "find_barrier", "graph.bfs", _found),
    ("graph", "find_alternate_path", "graph.bfs", _found),
    ("graph", "verify_barrier", "graph.verify", None),
    ("central", "build_assignment", "central.build_assignment", _assignment),
    ("central", "hungarian", "central.hungarian", _infeasible),
    ("central", "restore_nmove", "central.restore", _alternate),
    ("central", "restore_cmove", "central.restore", _alternate),
    ("distributed", "init_recovery_nodes", "distributed.elect", None),
    ("distributed", "mldfs", "distributed.mldfs", _found),
    ("distributed", "handle_failure_dmove", "distributed.handle_failure", None),
    ("baselines", "restore_rmove", "baselines.rmove", _moves),
)

# (defining module, class, method, span name)
METHODS = (
    ("core", "World", "active_sensors", "core.active_sensors"),
    ("core", "World", "apply_move", "core.apply_move"),
)


def _counting(tracer: Tracer, fn: Callable, key: str) -> Callable:
    def counted(*args, **kwargs):
        tracer.count("distributed.elect", key)
        return fn(*args, **kwargs)

    counted.__wrapped__ = fn
    return counted


@contextmanager
def instrumented(tracer: Tracer):
    """Route every layer entry point of the loaded package through
    ``tracer`` for the duration of the block, then put the originals back."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    restore: list[tuple[object, str, object]] = []

    def rebind(owner: object, attr: str, value: object) -> None:
        restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    try:
        for mod_name, attr, span_name, observe in FUNCTIONS:
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], attr)
            wrapper = tracer.wrap(span_name, original, observe)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        rebind(module, name, wrapper)
        for mod_name, cls_name, attr, span_name in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], cls_name)
            rebind(cls, attr, tracer.wrap(span_name, getattr(cls, attr)))
        bus = sys.modules[f"{PACKAGE}.distributed"].MessageBus
        rebind(bus, "send", _counting(tracer, bus.send, "messages"))
        rebind(bus, "drain_round", _counting(tracer, bus.drain_round, "rounds"))
        yield tracer
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)
