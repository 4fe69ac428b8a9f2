"""The traced run: spans around calls into each layer, kept in memory.

:class:`Tracer` wraps the public entry points of every layer the benchmark
attributes time to (the wrappers live here, in the benchmark; the program
is not modified) and records one span per call: id, parent id, layer,
name, start, end and an output row count.  A layer's self time is the
duration of its spans minus the time their direct child spans cover.  At
the end of the traced rounds :meth:`Tracer.metrics` turns the spans, the
interpreter's GC callbacks and the program's own stats objects
(``PlanCache.stats``, ``ShardStats``, ``DurabilityStats``, ``ViewStats``,
``AdmissionStats``) into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import gc
import itertools
import threading
import time
from importlib import import_module
from typing import Callable, Dict, List, Optional

from repro.durability.durable import DurableStore
from repro.engine.session import CertaintySession
from repro.engine.shards import ShardedCertaintySession
from repro.incremental.view import MaterializedCertainView
from repro.service.admission import AdmissionController
from repro.service.tenant import Tenant
from repro.store.index import ColumnarFactIndex

# Imported by module path: the packages re-export functions of the same
# names (``repro.core.classify`` is also a function), which would shadow
# the modules whose globals the wrappers replace.
classify_module = import_module("repro.core.classify")
plan_module = import_module("repro.engine.plan")
fo_module = import_module("repro.fo.compile")

#: Layers in reporting order; each gets a ``<layer>.self_s`` metric.
LAYERS = ("client", "service", "admission", "views", "wal", "shards", "session",
          "plan", "fo", "solvers", "store")
#: ShardStats counters the traced run reads.
SHARD_STATS = ("dispatches", "shard_decides", "parent_decides", "cross_shard_fallbacks",
               "delta_bytes_shipped", "bootstrap_bytes_shipped", "worker_failures",
               "degraded_decides")


def _length(args, kwargs, result) -> int:
    return len(result)


def _relation_rows(args, kwargs, result) -> int:
    return len(result.rows)


def _decided(args, kwargs, result):
    candidates = args[2] if len(args) > 2 else kwargs["candidates"]
    return len(candidates), len(result)


def _targets(op_log):
    """``(owner, attribute, layer, name, rows)`` of every traced call."""
    return [
        (op_log, "run", "client", "op", None),
        (Tenant, "apply", "service", "apply", None),
        (Tenant, "view_answers", "service", "view_read", None),
        (Tenant, "execute", "service", "execute", None),
        (AdmissionController, "submit", "admission", "submit", None),
        (MaterializedCertainView, "apply", "views", "refresh", None),
        (MaterializedCertainView, "refresh", "views", "refresh", None),
        (DurableStore, "batch_applied", "wal", "commit", None),
        (DurableStore, "fact_added", "wal", "commit", None),
        (DurableStore, "fact_discarded", "wal", "commit", None),
        (DurableStore, "checkpoint", "wal", "checkpoint", None),
        (ShardedCertaintySession, "decide_candidates", "shards", "decide", None),
        (CertaintySession, "candidate_answers", "session", "candidates", _length),
        (CertaintySession, "decide_candidates", "session", "decide", _decided),
        (classify_module, "classify", "plan", "classify", None),
        (plan_module.QueryPlan, "__init__", "plan", "compile", None),
        (fo_module.AtomNode, "produce", "fo", "produce", _relation_rows),
        (fo_module, "_join", "fo", "join", _relation_rows),
        (fo_module, "_project", "fo", "project", _relation_rows),
        (fo_module, "_antijoin", "fo", "antijoin", _relation_rows),
        (fo_module, "_semijoin", "fo", "semijoin", _relation_rows),
        (plan_module, "certain_terminal_cycles", "solvers", "t3", None),
        (plan_module, "certain_cycle_query", "solvers", "t4", None),
        (plan_module, "certain_brute_force", "solvers", "conp", None),
        (ColumnarFactIndex, "__init__", "store", "build", None),
        (ColumnarFactIndex, "fact_added", "store", "delta", None),
        (ColumnarFactIndex, "fact_discarded", "store", "delta", None),
    ]


class Span:
    """A span still open on a thread's stack."""

    __slots__ = ("id", "layer", "name", "child_s")

    def __init__(self, sid, layer, name) -> None:
        self.id, self.layer, self.name = sid, layer, name
        self.child_s = 0.0  # time covered by direct children


class Tracer:
    """Installs the span wrappers for the duration of each ``with`` block.

    A tracer can be entered many times; spans, GC time and the growth of
    the program's counters accumulate over the traced blocks only.
    """

    def __init__(self, workload, state, op_log) -> None:
        self.workload = workload
        self.state = state
        self.op_log = op_log  # the class whose ``run`` times each client op
        #: Finished spans, kept as tuples of atoms (which the garbage
        #: collector stops tracking, so a long traced run does not slow
        #: every collection): ``(id, parent id, layer, name, start, end,
        #: child time, rows, nested)``, where *nested* says an enclosing
        #: span has the same layer and name.
        self.spans: List[tuple] = []
        self.queue_waits: List[float] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []
        self._gc_start: Optional[float] = None
        self.gc_s = 0.0
        self.gc_collections = 0
        self.deltas: Dict[str, float] = {}
        self.after: Dict[str, float] = {}

    # -- installing ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, original: Callable, layer: str, name: str, rows) -> Callable:
        key = (layer, name)

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            nested = any((s.layer, s.name) == key for s in stack)
            span = Span(next(self._ids), layer, name)
            stack.append(span)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += end - start
            self.spans.append((span.id, parent.id if parent else None, layer, name, start,
                               end, span.child_s,
                               None if rows is None else rows(args, kwargs, result), nested))
            return result

        return traced

    def _wrap_submit(self, original: Callable) -> Callable:
        """Also time each request from submit to the start of its execution."""
        waits = self.queue_waits

        def submit(controller, tenant_id, query, band, execute, *rest, **kwargs):
            submitted = time.perf_counter()

            def timed_execute():
                waits.append(time.perf_counter() - submitted)
                return execute()

            return original(controller, tenant_id, query, band, timed_execute, *rest, **kwargs)

        return submit

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    def __enter__(self) -> "Tracer":
        self._before = self._snapshot()
        for owner, attribute, layer, name, rows in _targets(self.op_log):
            original = getattr(owner, attribute)
            wrapped = original
            if owner is AdmissionController and attribute == "submit":
                wrapped = self._wrap_submit(original)
            setattr(owner, attribute, self._wrap(wrapped, layer, name, rows))
            self._patches.append((owner, attribute, original))
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()
        self.after = self._snapshot()
        for key, value in self.after.items():
            self.deltas[key] = self.deltas.get(key, 0) + value - self._before.get(key, 0)

    # -- counters the program keeps itself ----------------------------------------

    def _snapshot(self) -> Dict[str, float]:
        sources = self.workload.stats_sources(self.state)
        snap: Dict[str, float] = {"user_bytes": self.state.get("user_bytes", 0)}
        for cache in sources.get("plan_caches", []):
            stats = cache.stats
            snap["cache_hits"] = snap.get("cache_hits", 0) + stats.hits
            snap["cache_misses"] = snap.get("cache_misses", 0) + stats.misses
        intern = sources["intern"].memory_stats()
        snap["intern_constants"] = intern["constants"]
        snap["intern_bytes"] = intern["total_bytes"]
        shards = sources.get("shards")
        if shards is not None:
            for field in SHARD_STATS:
                snap[f"shards.{field}"] = getattr(shards.stats, field)
            snap["shards.pool_started"] = int(shards.pool_started)
        durable = sources.get("durable")
        if durable is not None:
            for field, value in durable.stats.as_dict().items():
                snap[f"wal.{field}"] = value
        for view in sources.get("views", []):
            for field in ("decisions", "full_refreshes"):
                snap[f"views.{field}"] = snap.get(f"views.{field}", 0) + getattr(view.stats, field)
        admission = sources.get("admission")
        if admission is not None:
            for field, value in admission.as_dict().items():
                snap[f"admission.{field}"] = value
        return snap

    def _delta(self, key: str) -> float:
        """How much a program counter grew inside the traced rounds."""
        return self.deltas.get(key, 0)

    # -- metrics -----------------------------------------------------------------

    def metrics(self, traced_ops_s: float, untraced_ops_s: float, records) -> Dict[str, float]:
        time_of: Dict[str, float] = {}
        calls_of: Dict[str, int] = {}
        rows_of: Dict[str, float] = {}
        self_of = {layer: 0.0 for layer in LAYERS}
        certain = 0
        remote = parent_decide = 0.0
        layer_of = {span[0]: span[2] for span in self.spans}
        for _, parent, layer, name, start, end, child_s, rows, nested in self.spans:
            duration = end - start
            self_of[layer] += duration - child_s
            key = f"{layer}.{name}"
            calls_of[key] = calls_of.get(key, 0) + 1
            if not nested:
                time_of[key] = time_of.get(key, 0.0) + duration
            if isinstance(rows, tuple):
                rows_of[key] = rows_of.get(key, 0) + rows[0]
                certain += rows[1]
            elif rows is not None:
                rows_of[key] = rows_of.get(key, 0) + rows
            if key == "shards.decide":
                remote += duration - child_s
            if key == "session.decide" and layer_of.get(parent) == "shards":
                parent_decide += duration
        writes = sum(1 for record in records if record[0] == "write")
        lookups = self._delta("cache_hits") + self._delta("cache_misses")
        decided = rows_of.get("session.decide", 0)
        shard_decides = self._delta("shards.shard_decides")
        shard_total = shard_decides + self._delta("shards.parent_decides")
        user_bytes = self._delta("user_bytes")
        out = {
            "store.build_s": time_of.get("store.build", 0.0),
            "store.builds": calls_of.get("store.build", 0),
            "store.delta_s": time_of.get("store.delta", 0.0),
            "store.intern_constants": self.after["intern_constants"],
            "store.intern_bytes": self.after["intern_bytes"],
            "plan.classify_calls": calls_of.get("plan.classify", 0),
            "plan.classify_s": time_of.get("plan.classify", 0.0),
            "plan.compile_calls": calls_of.get("plan.compile", 0),
            "plan.compile_s": time_of.get("plan.compile", 0.0),
            "plan.cache_hit_rate": self._delta("cache_hits") / lookups if lookups else 0.0,
            "session.candidates_s": time_of.get("session.candidates", 0.0),
            "session.candidate_rows": rows_of.get("session.candidates", 0),
            "session.decide_s": time_of.get("session.decide", 0.0),
            "session.decided": decided,
            "session.certain_frac": certain / decided if decided else 0.0,
        }
        for op in ("produce", "join", "project", "antijoin", "semijoin"):
            out[f"fo.{op}_s"] = time_of.get(f"fo.{op}", 0.0)
            out[f"fo.{op}_rows"] = rows_of.get(f"fo.{op}", 0)
        for solver in ("t3", "t4", "conp"):
            out[f"solvers.{solver}_s"] = time_of.get(f"solvers.{solver}", 0.0)
            out[f"solvers.{solver}_calls"] = calls_of.get(f"solvers.{solver}", 0)
        decisions = self._delta("views.decisions")
        out.update({
            "views.refresh_s": time_of.get("views.refresh", 0.0),
            "views.decisions": decisions,
            "views.decisions_per_write": decisions / writes if writes else 0.0,
            "views.full_refreshes": self._delta("views.full_refreshes"),
            "wal.commit_s": time_of.get("wal.commit", 0.0),
            "wal.commits": self._delta("wal.commits"),
            "wal.bytes_per_user_byte": (
                self._delta("wal.log_bytes_appended") / user_bytes if user_bytes else 0.0),
            "wal.checkpoint_s": time_of.get("wal.checkpoint", 0.0),
            "wal.failed_commits": self._delta("wal.failed_commits"),
            "wal.reopens": self._delta("wal.wal_reopens"),
            "admission.queue_wait_s": sum(self.queue_waits, 0.0),
            "admission.inline": self._delta("admission.inline_served"),
            "admission.queued": self._delta("admission.queued"),
            "admission.rejected": self._delta("admission.rejected"),
            "admission.shed": self._delta("admission.shed"),
            "shards.remote_s": remote,
            "shards.parent_decide_s": parent_decide,
            "shards.delta_bytes": self._delta("shards.delta_bytes_shipped"),
            "shards.bootstrap_bytes": self.after.get("shards.bootstrap_bytes_shipped", 0),
            "shards.dispatches": self._delta("shards.dispatches"),
            "shards.useful_frac": shard_decides / shard_total if shard_total else 0.0,
            "shards.cross_shard_fallbacks": self._delta("shards.cross_shard_fallbacks"),
            "shards.worker_failures": self.after.get("shards.worker_failures", 0),
            "shards.degraded_decides": self.after.get("shards.degraded_decides", 0),
            "shards.pool_started": self.after.get("shards.pool_started", 0),
            "runtime.gc_s": self.gc_s,
            "runtime.gc_collections": self.gc_collections,
        })
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_of[layer]
        out["trace.overhead_frac"] = (
            (untraced_ops_s - traced_ops_s) / untraced_ops_s if untraced_ops_s else 0.0)
        out["trace.spans"] = len(self.spans)
        return out
