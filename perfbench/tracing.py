"""Span tracing of the program's public entry points, from outside the program.

:class:`Tracer` replaces each entry point in :data:`ENTRY_POINTS` on its class
or module with a wrapper that records one span per call: name, start, end,
parent span and request id.  Spans live in memory and are written out once,
at the end of the run.  The parent is the innermost span open in the calling
task (a :class:`contextvars.ContextVar`, so concurrent asyncio tasks do not
see each other's spans); the request id is that of the enclosing
``submit_many`` admission, or ``-1`` for work not done on a caller's behalf,
such as a drain loop executing a batch that mixes many admissions.

Every wrapped entry point except ``submit_many`` is synchronous, so its spans
nest strictly and the time it holds the interpreter is its duration.  A
layer's self time is its spans' duration minus that of their child spans.
``submit_many`` spans cover the admission's whole wait and are kept as
request spans, outside the self-time ledger.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: (module, owner attribute or "" for the module itself, function, span name)
ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.service.service", "SlabHashService", "submit_many", "service.submit_many"),
    ("repro.persist.wal", "WriteAheadLog", "append_group", "wal.append_group"),
    ("repro.engine.sharded", "ShardedSlabHash", "admit_partition", "engine.admit_partition"),
    ("repro.core.slab_hash", "SlabHash", "concurrent_batch", "exec.concurrent_batch"),
    ("repro.core.slab_hash", "SlabHash", "bulk_insert", "exec.bulk_insert"),
    ("repro.core.slab_hash", "SlabHash", "bulk_search", "exec.bulk_search"),
    ("repro.core.slab_hash", "SlabHash", "bulk_delete", "exec.bulk_delete"),
    ("repro.core.slab_hash", "SlabHash", "resize", "resize.resize"),
    ("repro.core.slab_hash", "SlabHash", "migrate_step", "resize.migrate_step"),
    ("repro.core.slab_alloc", "SlabAlloc", "warp_allocate", "alloc.warp_allocate"),
    ("repro.core.slab_alloc", "SlabAlloc", "deallocate", "alloc.deallocate"),
    ("repro.persist.snapshot", "", "save", "snapshot.save"),
    ("repro.persist.snapshot", "", "load", "snapshot.load"),
    # recovery imported ``load`` by name, so its copy is wrapped as well.
    ("repro.persist.recovery", "", "load", "snapshot.load"),
    ("repro.persist.recovery", "", "recover", "recovery.recover"),
    ("repro.persist.recovery", "", "replay_record", "recovery.replay"),
)

#: Span names whose calls wait on other tasks; kept out of the self-time ledger.
REQUEST_SPANS = frozenset({"service.submit_many"})

_SPAN = contextvars.ContextVar("perfbench_span", default=-1)
_REQUEST = contextvars.ContextVar("perfbench_request", default=-1)


class Tracer:
    """Records spans while installed; :meth:`installed` patches and restores."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.request: List[int] = []
        self._next_request = 0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        span = len(self.start)
        self.name_of.append(name_id)
        self.start.append(time.perf_counter())
        self.end.append(float("nan"))
        self.parent.append(_SPAN.get())
        self.request.append(_REQUEST.get())
        return span

    def _wrap(self, function: Callable, name: str) -> Callable:
        name_id = self._name_id(name)
        tracer = self

        if name in REQUEST_SPANS:
            @functools.wraps(function)
            async def traced_request(*args, **kwargs):
                request_token = _REQUEST.set(tracer._next_request)
                tracer._next_request += 1
                span = tracer._open(name_id)
                span_token = _SPAN.set(span)
                try:
                    return await function(*args, **kwargs)
                finally:
                    tracer.end[span] = time.perf_counter()
                    _SPAN.reset(span_token)
                    _REQUEST.reset(request_token)

            return traced_request

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = tracer._open(name_id)
            token = _SPAN.set(span)
            try:
                return function(*args, **kwargs)
            finally:
                tracer.end[span] = time.perf_counter()
                _SPAN.reset(token)

        return traced

    def installed(self) -> "_Installation":
        return _Installation(self)

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.asarray(self.name_of, dtype=np.int32),
            "start": np.asarray(self.start, dtype=np.float64),
            "end": np.asarray(self.end, dtype=np.float64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "request": np.asarray(self.request, dtype=np.int64),
        }

    def ledger(self, window_start: float, window_end: float) -> Dict[str, dict]:
        """Per span name over spans that started in the window.

        ``calls``, ``busy_s`` (duration of the spans not nested in a span of
        the same name) and ``self_s`` (duration minus child spans).  Request
        spans get ``calls`` and ``busy_s`` only; their children are roots of
        the ledger.
        """
        spans = self.arrays()
        count = len(spans["start"])
        inside = (spans["start"] >= window_start) & (spans["start"] < window_end)
        duration = np.nan_to_num(spans["end"] - spans["start"])
        request_ids = {self._name_ids[n] for n in REQUEST_SPANS if n in self._name_ids}
        is_request = np.isin(spans["name"], list(request_ids))
        child_time = np.zeros(count, dtype=np.float64)
        same_name_nested = np.zeros(count, dtype=bool)
        for span in range(count):
            parent = spans["parent"][span]
            if parent >= 0 and not is_request[parent]:
                child_time[parent] += duration[span]
        # A span is nested in its own name if any ancestor shares it.
        for span in range(count):
            parent = spans["parent"][span]
            while parent >= 0:
                if spans["name"][parent] == spans["name"][span]:
                    same_name_nested[span] = True
                    break
                parent = spans["parent"][parent]
        out: Dict[str, dict] = {}
        for name_id, name in enumerate(self.names):
            mine = inside & (spans["name"] == name_id)
            entry = {
                "calls": int(mine.sum()),
                "busy_s": float(duration[mine & ~same_name_nested].sum()),
            }
            if name_id not in request_ids:
                entry["self_s"] = float((duration[mine] - child_time[mine]).sum())
            out[name] = entry
        return out

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())


class _Installation:
    """Context manager that swaps the entry points for traced wrappers."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        for module_name, owner_name, attribute, span_name in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attribute)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self.tracer._wrap(original, span_name))
        return self.tracer

    def __exit__(self, *exc: object) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved = []


def layer_metrics(ledger: dict, window_s: float, window_ops: int, persist: dict) -> dict:
    """Per-layer figures that come from spans (window and persistence phase)."""

    def get(name: str, field: str, source: Optional[dict] = None) -> float:
        return (source or ledger).get(name, {}).get(field, 0)

    layers_self = sum(entry.get("self_s", 0.0) for entry in ledger.values())
    batch_calls = get("exec.concurrent_batch", "calls")
    batch_busy = get("exec.concurrent_batch", "busy_s")
    return {
        "service.self_s": window_s - layers_self,
        "wal.append_group.calls": get("wal.append_group", "calls"),
        "wal.append_group.busy_s": get("wal.append_group", "busy_s"),
        "engine.admit_partition.busy_s": get("engine.admit_partition", "busy_s"),
        "exec.concurrent_batch.calls": batch_calls,
        "exec.concurrent_batch.busy_s": batch_busy,
        "exec.us_per_batch": batch_busy / batch_calls * 1e6 if batch_calls else 0.0,
        "exec.us_per_op": (
            (batch_busy + get("exec.bulk_insert", "busy_s") + get("exec.bulk_delete", "busy_s")
             + get("exec.bulk_search", "busy_s")) / window_ops * 1e6
        ),
        "exec.bulk_insert.busy_s": get("exec.bulk_insert", "busy_s"),
        "exec.bulk_delete.busy_s": get("exec.bulk_delete", "busy_s"),
        "exec.bulk_search.busy_s": get("exec.bulk_search", "busy_s"),
        "alloc.warp_allocate.calls": get("alloc.warp_allocate", "calls"),
        "alloc.warp_allocate.busy_s": get("alloc.warp_allocate", "busy_s"),
        "alloc.deallocate.calls": get("alloc.deallocate", "calls"),
        "alloc.deallocate.busy_s": get("alloc.deallocate", "busy_s"),
        "resize.busy_s": get("resize.resize", "busy_s") + get("resize.migrate_step", "busy_s"),
        "snapshot.save.busy_s": get("snapshot.save", "busy_s", persist),
        "snapshot.load.busy_s": get("snapshot.load", "busy_s", persist),
        "recovery.replay.busy_s": get("recovery.replay", "busy_s", persist),
        "recovery.records_replayed": get("recovery.replay", "calls", persist),
        "trace.window_s": window_s,
        "trace.layers_self_s": layers_self,
    }
