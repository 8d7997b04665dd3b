"""Per-layer timing from outside the program.

:class:`LayerTracer` wraps the public callables at each layer boundary of
``repro`` (module functions and class methods) while it is installed, and
restores the originals on :meth:`LayerTracer.uninstall`. Every wrapped call
records its count, wall time, maximum and *self* time: its duration minus
the part covered by wrapped calls nested inside it. The benchmark is
single-threaded (``workers=1``, no drain thread), so one plain stack
attributes child time correctly.

Only public names are wrapped. ``WhatIfOptimizer.cost`` is deliberately
left alone: WFA's mask fast path engages only when a part's cost function
*is* that method, so wrapping it would change which code runs.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    max: float = 0.0


def _targets():
    """(owner, attribute, span name) for every wrapped callable."""
    from repro.core import candidates, partitioning, wfa, wfit
    from repro.ibg import analysis, graph
    from repro.ioutil import FileIO
    from repro.optimizer import whatif
    from repro.service import engine, scheduler, snapshot, wal

    return [
        # optimizer.whatif: IBG requests and the per-part cost fill.
        (whatif.WhatIfOptimizer, "statement_ibg", "whatif.statement_ibg"),
        (whatif.StatementCosts, "costs_into", "whatif.cost_fill"),
        # ibg: graph construction and the statistics it feeds.
        (graph, "build_ibg", "ibg.build"),
        (analysis, "max_benefit", "ibg.stats"),
        (analysis, "degree_of_interaction", "ibg.stats"),
        # core.candidates / core.partitioning: chooseCands (Figure 6-7).
        (candidates, "top_indices", "candidates.top_indices"),
        (partitioning, "choose_partition", "partitioning.choose_partition"),
        # core.wfit / core.wfa: the work-function update and feedback.
        (wfit.WFIT, "analyze_statement", "wfit.analyze"),
        (wfa.WFA, "prepare_statement", "wfa.prepare"),
        (wfa.WFA, "relax", "wfa.relax"),
        (wfa.WFA, "apply_feedback", "wfa.feedback"),
        # service.engine / service.scheduler: ingest and DBA entry points.
        (engine.TuningEngine, "submit", "engine.submit"),
        (engine.TuningEngine, "submit_many", "engine.submit"),
        (engine.TuningEngine, "pump", "engine.pump"),
        (engine.TuningEngine, "recommendation", "engine.recommendation"),
        (engine.TuningEngine, "vote", "engine.vote"),
        (engine.TuningEngine, "adopt", "engine.adopt"),
        (engine.TuningEngine, "metrics", "engine.metrics"),
        (scheduler.IngestScheduler, "push", "scheduler.push"),
        (scheduler.IngestScheduler, "take", "scheduler.take"),
        # service.wal / service.snapshot: the durable write side.
        (wal.WriteAheadLog, "append", "wal.append"),
        (wal.WriteAheadLog, "reset", "wal.rotate"),
        (FileIO, "fsync", "io.fsync"),
        (wal.Durability, "checkpoint", "snapshot.checkpoint"),
        (snapshot, "restore_engine", "snapshot.restore"),
    ]


#: Engine entry points whose self time is the engine's own overhead.
ENGINE_SPANS = (
    "engine.submit", "engine.pump", "engine.recommendation", "engine.vote",
)


class LayerTracer:
    """Install timing wrappers on the layer boundaries; collect span stats."""

    def __init__(self) -> None:
        self.spans: Dict[str, SpanStats] = {}
        self._stack: List[Tuple[str, float]] = []  # (name, child seconds)
        self._undo: List[Tuple[object, str, object]] = []

    def stats(self, name: str) -> SpanStats:
        return self.spans.get(name, SpanStats())

    def _record(self, name: str, elapsed: float, child: float) -> None:
        stat = self.spans.get(name)
        if stat is None:
            stat = self.spans[name] = SpanStats()
        stat.calls += 1
        stat.total += elapsed
        stat.self_time += elapsed - child
        if elapsed > stat.max:
            stat.max = elapsed

    def _wrap(self, fn: Callable, name: str) -> Callable:
        stack = self._stack
        record = self._record
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name
            if span == "io.fsync" and stack and stack[-1][0] == "wal.append":
                span = "wal.sync"
            stack.append((span, 0.0))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                _, child = stack.pop()
                record(span, elapsed, child)
                if stack:
                    parent, parent_child = stack[-1]
                    stack[-1] = (parent, parent_child + elapsed)

        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for owner, attribute, name in _targets():
            if isinstance(owner, type):
                original = owner.__dict__[attribute]
                self._undo.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(original, name))
                continue
            # A module function: rebind it in every repro module that
            # imported the same object, so `from x import f` callers see it.
            original = getattr(owner, attribute)
            wrapper = self._wrap(original, name)
            for module_name, module in list(sys.modules.items()):
                if not module_name.startswith("repro") or module is None:
                    continue
                if getattr(module, attribute, None) is original:
                    self._undo.append((module, attribute, original))
                    setattr(module, attribute, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)
