"""Per-layer spans, recorded from outside the program.

:class:`LayerTracer` wraps the public entry points of each layer (the
table in ``README.md``) for the traced run only.  Every call records a
span: the operation it belongs to, its layer, thread, start and end, and
its *self* wall and CPU time: its own duration minus that of wrapped
calls nested inside it on the same thread.  CPU is ``time.thread_time``,
so wall minus CPU is the time the layer waited (for the GIL, a lock or
the fetch pool).  With one client only one operation is in flight, so
calls on the fetch pool's threads are charged to that operation.

Spans stay in memory; :meth:`LayerTracer.write` saves them when the run
ends.  :meth:`LayerTracer.remove` puts back every patched attribute.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict

#: Layer names, in the order they are reported.
LAYERS = (
    "query.processor",
    "query.parse",
    "schema.expand",
    "query.optimize",
    "cache.plan",
    "query.executor",
    "cache.fragment",
    "gateway.fetch",
    "gateway.update",
    "gateway.stats",
    "gateway.2pc",
    "localdb.session",
    "engine.plan",
    "engine.component",
    "engine.residual",
    "net.send",
    "net.codec",
    "txn.coordinator",
    "concurrency.lock",
    "concurrency.wal",
)


def _engine_layer(args) -> str:
    """Component engines versus the federation site's residual engine."""
    if args[0].catalog.database_name.startswith("federation:"):
        return "engine.residual"
    return "engine.component"


def _count_hit(tracer, layer, args, kwargs, result) -> None:
    tracer.count(f"{layer}.lookups", 1)
    tracer.count(f"{layer}.hits", result is not None)


def _count_scanned(tracer, layer, args, kwargs, result) -> None:
    if layer == "engine.component":
        report = args[0].last_report
        tracer.count("engine.component.rows_scanned", report.rows_scanned)
        tracer.count("engine.component.rows_returned", report.rows_returned)


def _count_bytes(tracer, layer, args, kwargs, result) -> None:
    payload = args[3] if len(args) > 3 else kwargs["payload_bytes"]
    tracer.count("net.send.bytes", payload)


def targets() -> list[tuple]:
    """``(owner, attribute, layer, after-hook)`` for every wrapped entry.

    ``layer`` is a name, or a function of the call's arguments that
    returns one.  The hook runs after a call returns, to count outcomes.
    """
    from repro.cache.fragments import FragmentCache
    from repro.cache.plans import PlanCache
    from repro.concurrency.locks import LockManager
    from repro.concurrency.wal import WriteAheadLog
    from repro.engine.executor import LocalEngine
    from repro.engine.planner import LocalPlanner
    from repro.gateway.gateway import Gateway
    from repro.localdb.dbms import Session
    from repro.net import codec
    from repro.net.sim import Network
    from repro.query.executor import GlobalExecutor
    from repro.query.optimizer.costbased import CostBasedOptimizer
    from repro.query.optimizer.simple import SimpleOptimizer
    from repro.query.processor import GlobalQueryProcessor
    from repro.schema.federation import Federation
    from repro.txn.coordinator import GlobalTransactionManager

    return [
        (GlobalQueryProcessor, "execute", "query.processor", None),
        (GlobalQueryProcessor, "parse", "query.parse", None),
        (Federation, "expand", "schema.expand", None),
        (SimpleOptimizer, "plan", "query.optimize", None),
        (CostBasedOptimizer, "plan", "query.optimize", None),
        (PlanCache, "get", "cache.plan", _count_hit),
        (PlanCache, "put", "cache.plan", None),
        (GlobalExecutor, "execute", "query.executor", None),
        (FragmentCache, "lookup", "cache.fragment", _count_hit),
        (FragmentCache, "store", "cache.fragment", None),
        (Gateway, "execute_query", "gateway.fetch", None),
        (Gateway, "execute_update", "gateway.update", None),
        (Gateway, "export_stats", "gateway.stats", None),
        (Gateway, "begin", "gateway.2pc", None),
        (Gateway, "prepare", "gateway.2pc", None),
        (Gateway, "commit", "gateway.2pc", None),
        (Gateway, "abort", "gateway.2pc", None),
        (Session, "execute", "localdb.session", None),
        (LocalPlanner, "plan_query", "engine.plan", None),
        (LocalEngine, "execute_query", _engine_layer, _count_scanned),
        (Network, "send", "net.send", _count_bytes),
        (codec, "encode_fragment", "net.codec", None),
        (codec, "decode_fragment", "net.codec", None),
        (GlobalTransactionManager, "begin", "txn.coordinator", None),
        (GlobalTransactionManager, "execute", "txn.coordinator", None),
        (GlobalTransactionManager, "commit", "txn.coordinator", None),
        (GlobalTransactionManager, "abort", "txn.coordinator", None),
        (LockManager, "acquire", "concurrency.lock", None),
        (WriteAheadLog, "append", "concurrency.wal", None),
    ]


class LayerTracer:
    """Wraps each layer's entry points and records one span per call."""

    def __init__(self, entries: list[tuple] | None = None):
        self.entries = entries if entries is not None else targets()
        #: ``(op, layer, thread, start, end, self_wall, self_cpu)``.
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        #: Index of the operation in flight; set by the runner.
        self.op = -1
        self._saved: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, layer, after):
        tracer = self
        layer_of = layer if callable(layer) else (lambda args: layer)
        perf_counter, thread_time = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            children = [0.0, 0.0]  # nested wall, nested CPU
            stack.append(children)
            start, cpu_start = perf_counter(), thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu, end = thread_time() - cpu_start, perf_counter()
                stack.pop()
                wall = end - start
                if stack:
                    stack[-1][0] += wall
                    stack[-1][1] += cpu
                name = layer_of(args)
                tracer.spans.append((
                    tracer.op, name, threading.get_ident(), start, end,
                    wall - children[0], cpu - children[1],
                ))
            if after is not None:
                after(tracer, name, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("layer wrappers are already installed")
        for owner, attr, layer, after in self.entries:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, after))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- reporting ---------------------------------------------------------

    def covered(self, thread: int) -> dict[int, float]:
        """Self wall time on one thread, summed per operation."""
        out: dict[int, float] = defaultdict(float)
        for op, _layer, span_thread, _s, _e, self_wall, _cpu in self.spans:
            if span_thread == thread:
                out[op] += self_wall
        return out

    def per_op(self, ops: int) -> dict[str, float]:
        """Per-layer calls, self wall and self CPU per operation."""
        calls: dict[str, int] = defaultdict(int)
        wall: dict[str, float] = defaultdict(float)
        cpu: dict[str, float] = defaultdict(float)
        for op, layer, _thread, _s, _e, self_wall, self_cpu in self.spans:
            if 0 <= op < ops:
                calls[layer] += 1
                wall[layer] += self_wall
                cpu[layer] += self_cpu
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls_per_op"] = calls[layer] / ops
            out[f"{layer}.wall_ms_per_op"] = 1000.0 * wall[layer] / ops
            out[f"{layer}.cpu_ms_per_op"] = 1000.0 * cpu[layer] / ops
        counts = self.counts
        for cache in ("cache.plan", "cache.fragment"):
            lookups = counts[f"{cache}.lookups"]
            out[f"{cache}.hit_ratio"] = (
                counts[f"{cache}.hits"] / lookups if lookups else 0.0
            )
        returned = counts["engine.component.rows_returned"]
        out["engine.component.rows_scanned_per_row"] = (
            counts["engine.component.rows_scanned"] / returned
            if returned else 0.0
        )
        sends = calls["net.send"]
        out["net.send.bytes_per_call"] = (
            counts["net.send.bytes"] / sends if sends else 0.0
        )
        return out

    def write(self, path) -> None:
        """Save the spans, one JSON array per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
