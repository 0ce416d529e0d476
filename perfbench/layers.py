"""Span tracing around each layer's public functions, from outside ``src/``.

:class:`LayerTracer` installs timing wrappers around the functions that
form the boundary of each layer (table below) and records one span per
call: name, layer, start, end, parent span and the op id the benchmark
loop set.  Spans stay in memory; :meth:`LayerTracer.chrome_trace` turns
them into Chrome-trace JSON at the end of the run.  Nothing in the
program is edited: each name is patched where its callers look it up —
as a class attribute for methods, and in every ``repro`` module that
bound a module-level function by ``from ... import``.

=============  ==========================================================
layer          functions
=============  ==========================================================
compile        ``Workload.compile``, ``compile_graph``
delta          ``DeltaAnalyzer.__init__/clone/copy_from/resync/apply_*``
               and ``snapshot``
kernel         the ``DeltaAnalyzer`` scoring entry points (``best_move``,
               ``evaluate_*``, ``score_*``)
analyze        ``steady_state.throughput.analyze``
heuristics     the strategies the ``search`` workload calls
scheduler      ``OnlineScheduler.process``
journal        ``EventJournal.append``
checkpoint     ``write_checkpoint``, ``OnlineScheduler.snapshot_state``,
               ``DurableScheduler.recover``
service        ``SchedulerService._process`` (one serving-loop request)
op             the benchmark's own per-op span (the root)
=============  ==========================================================

A layer's time is the *self* time of its spans: duration minus the part
covered by child spans, so the layers plus ``unattributed`` (the root
span's self time) add up to the op time.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

KERNEL_METHODS = (
    "best_move",
    "evaluate",
    "evaluate_move",
    "evaluate_moves",
    "evaluate_swap",
    "evaluate_changes",
    "evaluate_all_moves",
    "evaluate_swaps",
    "evaluate_assignments",
    "score_move",
    "score_moves",
    "score_swap",
    "score_changes",
    "score_move_matrix",
    "score_swaps",
    "score_assignments",
    "try_apply_changes",
)
DELTA_METHODS = (
    "__init__",
    "clone",
    "copy_from",
    "resync",
    "apply_move",
    "apply_swap",
    "apply_changes",
    "snapshot",
)
STRATEGIES = (
    "tabu_search",
    "simulated_annealing",
    "genetic_algorithm",
    "local_search",
    "greedy_cpu",
)

# Span record fields (lists, mutated in place, for low overhead).
NAME, LAYER, START, END, PARENT, OP, OUTER = range(7)


class LayerTracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._depth: Counter = Counter()
        self._undo: List[Callable[[], None]] = []
        #: Op id stamped on every span opened while it is set.
        self.op: Optional[int] = None
        #: Free-form tag grouping samples (e.g. the service phase).
        self.phase = ""
        self.journal_bytes = 0
        self.checkpoint_bytes_last = 0
        self.submitted: Dict[int, float] = {}
        #: Registry counter increments made outside the measured ops.
        self.excluded: Counter = Counter()
        self.queue_waits: Dict[str, List[float]] = defaultdict(list)
        self._served = 0

    # ------------------------------------------------------------------ #
    # Wrappers

    def wrap(self, fn, name: str, layer: str, before=None, after=None):
        spans, stack, depth = self.spans, self._stack, self._depth
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            idx = len(spans)
            outer = depth[layer] == 0
            spans.append(
                [name, layer, 0.0, 0.0, stack[-1] if stack else -1,
                 tracer.op, outer]
            )
            stack.append(idx)
            depth[layer] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                depth[layer] -= 1
                stack.pop()
                span = spans[idx]
                span[START] = start
                span[END] = end
            if after is not None:
                after(args, result, token)
            return result

        return wrapper

    def patch_method(self, cls, attr: str, name: str, layer: str, **hooks):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(raw.__func__, name, layer, **hooks))
        else:
            wrapped = self.wrap(raw, name, layer, **hooks)
        setattr(cls, attr, wrapped)
        self._undo.append(lambda: setattr(cls, attr, raw))

    def patch_function(self, module, attr: str, name: str, layer: str, **hooks):
        """Wrap ``module.attr`` in every ``repro`` module that bound it."""
        original = getattr(module, attr)
        wrapped = self.wrap(original, name, layer, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append(
                        lambda m=mod, k=key: setattr(m, k, original)
                    )

    def span(self, name: str, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of the benchmark's own."""
        return self.wrap(fn, name, layer)(*args, **kwargs)

    # ------------------------------------------------------------------ #
    # Installation

    def install(self) -> "LayerTracer":
        from importlib import import_module

        from repro.graph.workload import Workload

        def mod(name):
            return import_module("repro." + name)

        extra, greedy = mod("heuristics.extra"), mod("heuristics.greedy")
        checkpoint, journal = mod("runtime.checkpoint"), mod("runtime.journal")
        scheduler, service = mod("runtime.scheduler"), mod("runtime.service")
        compiled = mod("steady_state.compiled")
        delta = mod("steady_state.delta")
        throughput = mod("steady_state.throughput")

        self.patch_method(Workload, "compile", "compile.workload", "compile")
        self.patch_function(
            compiled, "compile_graph", "compile.graph", "compile"
        )
        for attr in DELTA_METHODS:
            label = "build" if attr == "__init__" else attr
            self.patch_method(
                delta.DeltaAnalyzer, attr, "delta." + label, "delta"
            )
        for attr in KERNEL_METHODS:
            self.patch_method(
                delta.DeltaAnalyzer, attr, "kernel." + attr, "kernel"
            )
        self.patch_function(throughput, "analyze", "analyze", "analyze")
        for attr in STRATEGIES:
            module = greedy if attr == "greedy_cpu" else extra
            self.patch_function(
                module, attr, "strategy." + attr, "heuristics"
            )
        self.patch_method(
            scheduler.OnlineScheduler, "process", "scheduler.process",
            "scheduler",
        )
        self.patch_method(
            journal.EventJournal, "append", "journal.append", "journal",
            before=self._journal_size, after=self._journal_grew,
        )
        self.patch_function(
            checkpoint, "write_checkpoint", "checkpoint.write", "checkpoint",
            after=self._checkpoint_written,
        )
        self.patch_method(
            scheduler.OnlineScheduler, "snapshot_state",
            "checkpoint.snapshot_state", "checkpoint",
        )
        self.patch_method(
            checkpoint.DurableScheduler, "recover", "checkpoint.recover",
            "checkpoint",
        )
        self.patch_method(
            service.SchedulerService, "_process", "service.process",
            "service", before=self._dequeued,
        )
        self._patch_submit(service.SchedulerService)
        return self

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _patch_submit(self, cls) -> None:
        raw = cls.__dict__["submit"]
        submitted = self.submitted

        @functools.wraps(raw)
        async def submit(service, event, timeout=None):
            submitted[id(event)] = perf_counter()
            return await raw(service, event, timeout)

        cls.submit = submit
        self._undo.append(lambda: setattr(cls, "submit", raw))

    # Hooks --------------------------------------------------------------

    @staticmethod
    def _journal_size(args):
        return os.path.getsize(args[0].path)

    def _journal_grew(self, args, _result, before):
        if isinstance(self.op, int):
            self.journal_bytes += os.path.getsize(args[0].path) - before

    def _checkpoint_written(self, _args, path, _token):
        if isinstance(self.op, int):
            self.checkpoint_bytes_last = os.path.getsize(path)

    def _dequeued(self, args):
        request = args[1]
        sent = self.submitted.pop(id(request.event), None)
        if sent is not None and not request.future.done():
            self.queue_waits[self.phase].append(perf_counter() - sent)
        self.op = self._served
        self._served += 1

    # ------------------------------------------------------------------ #
    # Analysis

    def summary(self, ops: Optional[set] = None) -> Dict[str, Dict[str, float]]:
        """Totals over the spans stamped with an op id in ``ops``.

        ``ops=None`` takes every span with an integer op id.  Returns,
        per layer, ``self_s`` and the ``calls``/``incl_s`` of its
        outermost spans (a layer calling itself counts once), and per
        span name, under ``"name:<span name>"``, every call.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "incl_s": 0.0, "calls": 0}
        )
        for idx, span in enumerate(spans):
            op = span[OP]
            if ops is None:
                if not isinstance(op, int):
                    continue
            elif op not in ops:
                continue
            dur = span[END] - span[START]
            layer = out[span[LAYER]]
            layer["self_s"] += dur - child[idx]
            by_name = out["name:" + span[NAME]]
            by_name["self_s"] += dur - child[idx]
            by_name["incl_s"] += dur
            by_name["calls"] += 1
            if span[OUTER]:
                layer["calls"] += 1
                layer["incl_s"] += dur
        return out

    def outside(self, fn, *args, op=None):
        """Run ``fn`` outside the measured ops.

        Its spans carry ``op`` (not an op id) and its registry counter
        increments are set aside, so neither feeds the per-op metrics.
        """
        from repro.obs import metrics

        registry = metrics.REGISTRY
        before = dict(registry.counters)
        saved, self.op = self.op, op
        try:
            return fn(*args)
        finally:
            self.op = saved
            for key, value in registry.counters.items():
                self.excluded[key] += value - before.get(key, 0)

    def count_within(self, inner: str, outer: str) -> int:
        """Spans named ``inner`` that have an ancestor named ``outer``."""
        spans = self.spans
        total = 0
        for span in spans:
            if span[NAME] != inner:
                continue
            parent = span[PARENT]
            while parent >= 0:
                if spans[parent][NAME] == outer:
                    total += 1
                    break
                parent = spans[parent][PARENT]
        return total

    def chrome_trace(self, path) -> None:
        """Write every span as a Chrome-trace complete ("X") event."""
        if not self.spans:
            return
        origin = min(span[START] for span in self.spans)
        events = [
            {
                "name": span[NAME],
                "cat": span[LAYER],
                "ph": "X",
                "ts": round((span[START] - origin) * 1e6, 3),
                "dur": round((span[END] - span[START]) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"op": span[OP], "parent": span[PARENT], "id": idx},
            }
            for idx, span in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


UNITS = {
    "compile.calls_per_op": "count",
    "compile.ms_per_op": "ms",
    "delta.builds_per_op": "count",
    "delta.clones_per_op": "count",
    "delta.resyncs_per_op": "count",
    "delta.ms_per_op": "ms",
    "delta.snapshot_ms_per_op": "ms",
    "delta.clone_pool_hit_share": "ratio",
    "kernel.calls_per_op": "count",
    "kernel.candidates_per_op": "count",
    "kernel.ms_per_op": "ms",
    "kernel.us_per_candidate": "us",
    "analyze.calls_per_op": "count",
    "analyze.ms_per_op": "ms",
    "strategy.self_ms_per_op": "ms",
    "scheduler.self_ms_per_op": "ms",
    "admissions.accepted": "count",
    "admissions.rejected": "count",
    "admissions.shed": "count",
    "scheduler.retries": "count",
    "journal.bytes_per_op": "bytes",
    "journal.ms_per_op": "ms",
    "checkpoint.writes": "count",
    "checkpoint.bytes.last": "bytes",
    "checkpoint.ms_per_write": "ms",
    "checkpoint.state_ms_per_write": "ms",
    "recover.replayed_events": "count",
    "service.self_ms_per_op": "ms",
    "service.queue_wait_ms.p50": "ms",
    "service.queue_wait_ms.tail": "ms",
    "service.batches": "count",
    "service.max_depth": "count",
    "loop.gen_late_ms.tail": "ms",
    "unattributed.ms_per_op": "ms",
    "trace.overhead": "ratio",
}


def per_layer_metrics(tracer: LayerTracer, registry, result):
    """Per-layer rows ``{name: (value, samples, note)}`` of a traced pass.

    Per-op values divide by the requests the pass served (``service``)
    or by its ops; ``recover`` spans only feed the ``recover.*`` row.
    """
    from stats import median, percentile, tail_percentile

    n_ops = tracer._served or len(result.op_ids)
    totals = tracer.summary()

    def layer(name, key="self_s"):
        return totals[name][key] if name in totals else 0.0

    def named(name, key="calls"):
        return layer("name:" + name, key)

    def per_op(value, scale=1.0):
        return (scale * value / n_ops, n_ops, "per op")

    counters = {
        key: value - tracer.excluded[key]
        for key, value in registry.counters.items()
    }
    candidates = sum(
        counters.get(key, 0)
        for key in ("moves_scored", "swaps_scored", "bulk_changes")
    )
    hits = counters.get("clone_pool_hits", 0)
    pool = hits + counters.get("clone_pool_misses", 0)
    writes = int(named("checkpoint.write"))
    recovers = sum(
        1 for span in tracer.spans if span[NAME] == "checkpoint.recover"
    )
    waits = tracer.queue_waits.get("ladder0", [])
    wait_tail = tail_percentile(len(waits))
    # Time of the op sample not covered by any layer span.
    op_totals = tracer.summary(result.op_ids)
    covered = sum(
        entry["self_s"]
        for key, entry in op_totals.items()
        if not key.startswith("name:") and key != "op"
    )
    n_sample = len(result.op_ids)
    rows = {
        "compile.calls_per_op": per_op(layer("compile", "calls")),
        "compile.ms_per_op": per_op(layer("compile"), 1e3),
        "delta.builds_per_op": per_op(named("delta.build")),
        "delta.clones_per_op": per_op(
            named("delta.clone") + named("delta.copy_from")
        ),
        "delta.resyncs_per_op": per_op(named("delta.resync")),
        "delta.ms_per_op": per_op(layer("delta"), 1e3),
        "delta.snapshot_ms_per_op": per_op(
            named("delta.snapshot", "self_s"), 1e3
        ),
        "delta.clone_pool_hit_share": (
            hits / pool if pool else 0.0, pool, "pool clones"
        ),
        "kernel.calls_per_op": per_op(layer("kernel", "calls")),
        "kernel.candidates_per_op": per_op(candidates),
        "kernel.ms_per_op": per_op(layer("kernel"), 1e3),
        "kernel.us_per_candidate": (
            1e6 * layer("kernel") / candidates if candidates else 0.0,
            candidates,
            "kernel self time per candidate",
        ),
        "analyze.calls_per_op": per_op(layer("analyze", "calls")),
        "analyze.ms_per_op": per_op(layer("analyze"), 1e3),
        "strategy.self_ms_per_op": per_op(layer("heuristics"), 1e3),
        "scheduler.self_ms_per_op": per_op(layer("scheduler"), 1e3),
        "admissions.accepted": (counters.get("admissions.accepted", 0), 1, "total"),
        "admissions.rejected": (counters.get("admissions.rejected", 0), 1, "total"),
        "admissions.shed": (counters.get("admissions.shed", 0), 1, "total"),
        "scheduler.retries": (result.layer.get("scheduler.retries", 0), 1, "total"),
        "journal.bytes_per_op": per_op(tracer.journal_bytes),
        "journal.ms_per_op": per_op(layer("journal"), 1e3),
        "checkpoint.writes": (writes, 1, "total"),
        "checkpoint.bytes.last": (tracer.checkpoint_bytes_last, 1, ""),
        "checkpoint.ms_per_write": (
            1e3 * named("checkpoint.write", "incl_s") / writes if writes else 0.0,
            writes,
            "",
        ),
        "checkpoint.state_ms_per_write": (
            1e3 * named("checkpoint.snapshot_state", "incl_s") / writes
            if writes
            else 0.0,
            writes,
            "",
        ),
        "recover.replayed_events": (
            tracer.count_within("scheduler.process", "checkpoint.recover")
            / recovers
            if recovers
            else 0.0,
            recovers,
            "per recovery",
        ),
        "service.self_ms_per_op": per_op(layer("service"), 1e3),
        "service.queue_wait_ms.p50": (
            1e3 * median(waits) if waits else 0.0, len(waits), "reference rate"
        ),
        "service.queue_wait_ms.tail": (
            1e3 * percentile(waits, wait_tail) if waits else 0.0,
            len(waits),
            f"p{wait_tail:g} reference rate",
        ),
        **{
            name: (result.layer.get(name, 0), 1, "reference rate")
            for name in (
                "service.batches", "service.max_depth", "loop.gen_late_ms.tail"
            )
        },
        "unattributed.ms_per_op": (
            1e3 * (result.layer["op_wall_s"] - covered) / n_sample,
            n_sample,
            "op wall time outside every layer span",
        ),
    }
    return rows
