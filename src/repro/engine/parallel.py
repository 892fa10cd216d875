"""Real multiprocess shard parallelism for :class:`ShardedSlabHash`.

Every shard of a sharded engine is an independent table on its own
simulated device, so the engine's *modelled* time is already the slowest
shard's time — but until this module, the simulation itself still executed
all shards serially in one Python process.  :class:`ProcessShardExecutor`
closes that gap: each shard's state lives resident in a persistent worker
process (``multiprocessing`` **spawn** context, one worker per shard group).
The engine's one dispatcher builds the same ``(shard, method, args,
kwargs)`` table calls in serial and process mode; :meth:`run_calls` runs
them in the workers instead of inline.

Design:

* **State handoff via snapshots.**  A shard is shipped to its worker once,
  as the same compressed snapshot bytes :mod:`repro.persist.snapshot`
  writes to disk (:func:`~repro.persist.snapshot.table_to_bytes`), and then
  stays resident; restoring is bit-identical by the persistence layer's
  guarantee, so a worker-executed batch produces exactly the results and
  device-counter deltas the serial path would.
* **Array traffic per batch.**  Per-batch traffic is the pickled call —
  NumPy op/key/value arrays, plus a seeded
  :class:`~repro.gpusim.scheduler.WarpScheduler` for a scheduled batch —
  and result arrays over OS pipes; no table state moves per batch.
  Every reply carries the worker-side device-counter state, which the
  parent copies onto its local shard mirror — so ``engine.measure()`` and
  the service's per-batch ``measure_phase`` see exactly the counters a
  serial run would, without collecting shard state.
* **Sync on read, barrier on maintenance.**  Structural reads
  (``items()``, ``save()``, chain checks) collect worker snapshots back
  into the parent's mirror (in place, via
  :func:`~repro.persist.snapshot.adopt_table_state`, so long-lived
  references stay valid).  ``rebalance()`` barriers: collect, mutate in
  the parent, re-ship.  Workers pump ``migrate_step`` locally — a shard's
  incremental migration advances inside its worker exactly as it would
  inline.
* **Worker death is a fault site.**  ``shard:<i>.worker`` (see
  :mod:`repro.faults.plan`) kills the worker before a dispatch; a genuine
  worker death is detected the same way.  Both raise
  :class:`~repro.faults.WorkerCrashed`, which the service treats like an
  injected dirty failure: abort marker, immediate quarantine, restore from
  checkpoint + WAL tail, and a re-ship to a freshly spawned worker.
* **Crash-safe teardown.**  Workers are daemonic, an ``atexit``/finalizer
  hook terminates whatever :meth:`close` did not, and :meth:`close` is
  idempotent — a failed test cannot leak child processes into later jobs.

Restrictions (documented in docs/API.md): the worker-resident shards do not
carry the parent's :class:`~repro.faults.FaultPlan`, so worker-*internal*
sites (``shard:<i>.alloc.warp_allocate``, ``shard:<i>.migration.step``)
never fire in process mode; parent-side sites (``shard:<i>.execute``,
``wal.*``, ``service.restore``, ``shard:<i>.worker``) behave unchanged.
Mutating a shard object directly while an executor is attached is out of
contract — use the engine API, which dispatches.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import weakref
from types import TracebackType
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
    TypedDict,
    cast,
)

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

    from repro.core.slab_hash import SlabHash

from repro.faults import FaultPlan, WorkerCrashed

__all__ = ["ProcessShardExecutor", "ShardCall", "ShardQuery", "shard_summary"]

#: One per-shard table call: ``(shard, method, args, kwargs)``.
ShardCall = Tuple[int, str, Tuple[object, ...], Dict[str, object]]


class ShardQuery(TypedDict, total=False):
    """Per-shard state summary; holds only the fields asked for."""

    len: int
    num_buckets: int
    used_bytes: int
    migrating: bool


_SUMMARY_READERS: Dict[str, Callable[["SlabHash"], object]] = {
    "len": len,
    "num_buckets": lambda table: table.num_buckets,
    "used_bytes": lambda table: table.used_bytes(),
    "migrating": lambda table: table.migration is not None,
}


def shard_summary(table: "SlabHash", fields: Sequence[str]) -> ShardQuery:
    """The ``fields`` of :class:`ShardQuery` read from one table.

    The worker's ``query`` command and the engine's local reads both call
    this.  Only the requested fields are read, because ``len`` and
    ``used_bytes`` walk every chain.
    """
    return cast(ShardQuery, {field: _SUMMARY_READERS[field](table) for field in fields})


#: Seconds to wait for a worker to exit cleanly before terminating it.
_JOIN_TIMEOUT = 5.0

_CTX = multiprocessing.get_context("spawn")


def _worker_main(conn: Connection) -> None:
    """Worker process entry point: resident shard tables, command loop.

    Commands arrive as tuples; every reply is ``(status, payload,
    counters_dict, warp_counter, cpu_seconds)`` where ``counters_dict`` is
    the touched shard's device-counter state *after* the command (sent even
    on error — a batch that fails halfway has still charged events, exactly
    as it would have inline), ``warp_counter`` is the shard's warp-issue
    counter (mirrored for the same reason: *read* dispatches advance it
    worker-side without marking the parent mirror stale, and a later
    snapshot must still be bit-identical to a serial run's), and
    ``cpu_seconds`` is the worker-side ``time.process_time()`` consumed —
    the measured per-worker compute the parallel benchmark's critical-path
    metric sums.
    """
    from repro.persist.snapshot import table_from_bytes, table_to_bytes

    tables: Dict[int, "SlabHash"] = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "exit":
            break
        shard = message[1]
        started = time.process_time()
        status, payload = "ok", None
        try:
            kind = message[0]
            if kind == "load":
                tables[shard] = table_from_bytes(message[2])
            elif kind == "call":
                _, _, method, args, kwargs = message
                payload = getattr(tables[shard], method)(*args, **kwargs)
            elif kind == "query":
                payload = shard_summary(tables[shard], message[2])
            elif kind == "collect":
                payload = table_to_bytes(tables[shard])
            else:
                raise ValueError(f"unknown worker command {kind!r}")
        except Exception as error:  # noqa: BLE001 - shipped back to the parent
            status, payload = "err", error
        counters = (
            tables[shard].device.counters.as_dict() if shard in tables else None
        )
        warp_counter = tables[shard]._warp_counter if shard in tables else None
        cpu = time.process_time() - started
        try:
            conn.send((status, payload, counters, warp_counter, cpu))
        except Exception:  # noqa: BLE001 - e.g. an unpicklable exception
            detail = f"{type(payload).__name__}: {payload}" if status == "err" else ""
            conn.send(
                ("err", RuntimeError(detail or "unserializable reply"),
                 counters, warp_counter, cpu)
            )


def _terminate_workers(
    procs: List[Optional[multiprocessing.process.BaseProcess]],
    conns: List[Optional["Connection"]],
) -> None:
    """Best-effort teardown shared by :meth:`close` and the exit finalizer."""
    for conn in conns:
        try:
            if conn is not None:
                conn.send(("exit",))
        except Exception:  # noqa: BLE001 - worker already gone
            pass
    for proc in procs:
        if proc is None:
            continue
        proc.join(timeout=_JOIN_TIMEOUT)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=_JOIN_TIMEOUT)
        if proc.is_alive():  # pragma: no cover - SIGTERM ignored
            proc.kill()
            proc.join(timeout=_JOIN_TIMEOUT)
    for conn in conns:
        try:
            if conn is not None:
                conn.close()
        except Exception:  # noqa: BLE001
            pass
    procs.clear()
    conns.clear()


class ProcessShardExecutor:
    """Persistent per-shard-group worker processes for a sharded engine.

    Parameters
    ----------
    shards:
        The engine's shard list (the *mirror*: parent-resident tables whose
        device counters this executor keeps fresh, and whose full state
        :meth:`sync` refreshes in place).  The list object must be stable;
        elements may be replaced (``install``) or adopted into.
    num_workers:
        Worker process count; shard ``i`` lives in worker ``i %
        num_workers``.  Defaults to one worker per shard.
    faults:
        Optional :class:`~repro.faults.FaultPlan`; the executor consults
        the ``shard:<i>.worker`` site before each dispatch and kills the
        target worker when it fires.
    """

    def __init__(
        self,
        shards: List["SlabHash"],
        num_workers: Optional[int] = None,
        *,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if not shards:
            raise ValueError("ProcessShardExecutor needs at least one shard")
        self._shards = shards
        self.num_workers = min(len(shards), num_workers or len(shards))
        if self.num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        self.faults = faults
        self._procs: List[Optional[multiprocessing.process.BaseProcess]] = [
            None for _ in range(self.num_workers)
        ]
        self._conns: List[Optional["Connection"]] = [None for _ in range(self.num_workers)]
        self._worker_cpu = [0.0 for _ in range(self.num_workers)]
        # Shards whose worker-resident state was lost in a crash and has not
        # been re-shipped: the next call dispatch to each raises
        # WorkerCrashed exactly once, so every affected lane gets its own
        # crash signal even when one worker hosted several shards.  Reads
        # (collect/query) serve the respawned mirror state instead.
        self._lost: Set[int] = set()
        self._closed = False
        # Crash-safe teardown: daemonic workers die with the parent, and
        # this finalizer (also registered with atexit by weakref.finalize)
        # terminates them even when close() was never called.
        self._finalizer = weakref.finalize(
            self, _terminate_workers, self._procs, self._conns
        )
        self.start()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def _worker_of(self, shard: int) -> int:
        return shard % self.num_workers

    def _spawn(self, worker: int) -> None:
        from repro.persist.snapshot import table_to_bytes

        parent_conn, child_conn = _CTX.Pipe()
        proc = _CTX.Process(
            target=_worker_main,
            args=(child_conn,),
            name=f"slabhash-shard-worker-{worker}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._procs[worker] = proc
        self._conns[worker] = parent_conn
        # Ship this worker's shards from the parent mirror.  At start the
        # mirror is authoritative; after a crash it is the best available
        # state and the service's restore path overwrites it immediately.
        for shard in range(len(self._shards)):
            if self._worker_of(shard) == worker:
                parent_conn.send(("load", shard, table_to_bytes(self._shards[shard])))
        for shard in range(len(self._shards)):
            if self._worker_of(shard) == worker:
                self._read_reply(worker, shard)

    def start(self) -> "ProcessShardExecutor":
        """Spawn any missing workers and ship their shards; idempotent."""
        if self._closed:
            raise RuntimeError("executor is closed")
        for worker in range(self.num_workers):
            if self._procs[worker] is None or not self._procs[worker].is_alive():
                self._spawn(worker)
        return self

    def close(self) -> None:
        """Terminate every worker; idempotent and safe after crashes."""
        if self._closed:
            return
        self._closed = True
        _terminate_workers(self._procs, self._conns)
        self._finalizer.detach()

    def __enter__(self) -> "ProcessShardExecutor":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------ #
    # Dispatch plumbing
    # ------------------------------------------------------------------ #

    def _crash(self, worker: int, shard: int, why: str) -> WorkerCrashed:
        proc = self._procs[worker]
        if proc is not None and proc.is_alive():
            proc.terminate()
            proc.join(timeout=_JOIN_TIMEOUT)
        self._procs[worker] = None
        if self._conns[worker] is not None:
            try:
                self._conns[worker].close()
            except Exception:  # noqa: BLE001
                pass
            self._conns[worker] = None
        # Every shard the dead worker hosted lost its resident state; the
        # raise below is shard ``shard``'s own crash signal, the rest fire
        # lazily from _send.
        self._lost.update(
            s for s in range(len(self._shards)) if self._worker_of(s) == worker
        )
        self._lost.discard(shard)
        return WorkerCrashed(f"shard worker {worker} (shard {shard}) died: {why}")

    def _send(self, shard: int, command: Tuple[object, ...]) -> int:
        """Fault-check, ensure the worker is live, send; returns the worker."""
        if self._closed:
            raise RuntimeError("executor is closed")
        worker = self._worker_of(shard)
        if command[0] == "call" and shard in self._lost:
            # This shard's state died with its worker and nothing has been
            # re-shipped: executing against the respawned mirror copy would
            # silently serve stale state, so fail loudly (once per shard).
            self._lost.discard(shard)
            raise WorkerCrashed(
                f"shard {shard} lost its worker-resident state in a crash; "
                "restore and re-ship it (install/load_shard) before executing"
            )
        if self.faults is not None:
            action = self.faults.fire(f"shard:{shard}.worker")
            if action is not None:
                proc = self._procs[worker]
                if proc is not None and proc.is_alive():
                    proc.kill()  # hard kill: resident shard state is lost
                    proc.join(timeout=_JOIN_TIMEOUT)
                raise self._crash(worker, shard, "killed by fault plan")
        if self._procs[worker] is not None and not self._procs[worker].is_alive():
            # Genuine, not-yet-signalled death (OOM kill, segfault): the
            # worker's resident state is gone.  Signal it like any other
            # crash; the respawn below only covers already-signalled slots.
            raise self._crash(worker, shard, "worker found dead")
        if self._procs[worker] is None:
            self._spawn(worker)  # respawn from the parent mirror
        try:
            self._conns[worker].send(command)
        except (BrokenPipeError, EOFError, OSError) as error:
            raise self._crash(
                worker, shard, f"send failed ({type(error).__name__})"
            ) from error
        return worker

    def _read_reply(self, worker: int, shard: int) -> object:
        try:
            status, payload, counters, warp_counter, cpu = self._conns[worker].recv()
        except (EOFError, OSError) as error:
            raise self._crash(
                worker, shard, f"recv failed ({type(error).__name__})"
            ) from error
        self._worker_cpu[worker] += cpu
        if counters is not None:
            # Mirror the worker's authoritative counters so measure() and
            # measure_phase() in the parent see serial-identical deltas.
            device = self._shards[shard].device
            for name, value in counters.items():
                setattr(device.counters, name, value)
        if warp_counter is not None:
            # Reads advance the warp-issue counter worker-side without
            # marking the mirror stale; mirror it so a later snapshot of
            # the mirror stays bit-identical to a serial run's.
            self._shards[shard]._warp_counter = warp_counter
        if status == "err":
            raise payload
        return payload

    def _run(self, commands: Sequence[Tuple[int, Tuple[object, ...]]]) -> List[object]:
        """Dispatch ``(shard, command)`` pairs fan-out, collect in order.

        All commands are sent before any reply is read, so workers compute
        concurrently; replies are read in send order (each worker's pipe is
        FIFO).  On a send failure the remaining commands are not sent —
        matching the serial loop, which stops mutating at the first raise —
        but replies for everything already sent are still drained so the
        pipes stay consistent.  The first error (send or reply) is
        re-raised after the drain.
        """
        sent: List[Tuple[int, int]] = []
        first_error: Optional[BaseException] = None
        for shard, command in commands:
            try:
                sent.append((self._send(shard, command), shard))
            except Exception as error:  # noqa: BLE001
                first_error = error
                break
        results: List[object] = []
        for worker, shard in sent:
            try:
                results.append(self._read_reply(worker, shard))
            except Exception as error:  # noqa: BLE001
                if first_error is None:
                    first_error = error
                results.append(None)
        if first_error is not None:
            raise first_error
        return results

    # ------------------------------------------------------------------ #
    # Shard operations
    # ------------------------------------------------------------------ #

    def run_calls(self, calls: Sequence[ShardCall]) -> List[object]:
        """Fan out :data:`ShardCall` calls; results in input order.

        Arguments are pickled to the worker, so a
        :class:`~repro.gpusim.scheduler.WarpScheduler` passed as a keyword
        argument arrives with its seed state and draws exactly what it
        would have drawn inline.
        """
        return self._run(
            [
                (shard, ("call", shard, method, args, kwargs))
                for shard, method, args, kwargs in calls
            ]
        )

    def query(self, shards: Sequence[int], fields: Sequence[str]) -> List[ShardQuery]:
        """The summary ``fields`` of each shard (see :func:`shard_summary`)."""
        return cast(
            List[ShardQuery],
            self._run([(shard, ("query", shard, tuple(fields))) for shard in shards]),
        )

    def sync(self, into: Optional[List["SlabHash"]] = None) -> None:
        """Collect every worker-resident shard into the parent mirror.

        State is adopted **in place** (same table objects), so references
        held by a service or by tests stay valid.  After a sync the mirror
        is bit-identical to the worker state.
        """
        from repro.persist.snapshot import adopt_table_state, table_from_bytes

        mirror = self._shards if into is None else into
        blobs = self._run(
            [(shard, ("collect", shard)) for shard in range(len(self._shards))]
        )
        for shard, data in enumerate(blobs):
            adopt_table_state(mirror[shard], table_from_bytes(data))

    def load_shard(self, shard: int, table: "SlabHash") -> None:
        """Ship ``table`` as shard ``shard``'s new worker-resident state.

        Respawns the worker first if it died — the restore path after a
        :class:`~repro.faults.WorkerCrashed` quarantine ends here.
        """
        from repro.persist.snapshot import table_to_bytes

        self._run([(shard, ("load", shard, table_to_bytes(table)))])
        self._lost.discard(shard)

    def push(self, shards: Optional[List["SlabHash"]] = None) -> None:
        """Re-ship every mirror shard (the write half of a maintenance barrier)."""
        from repro.persist.snapshot import table_to_bytes

        mirror = self._shards if shards is None else shards
        self._run(
            [
                (shard, ("load", shard, table_to_bytes(mirror[shard])))
                for shard in range(len(mirror))
            ]
        )
        self._lost.clear()

    # ------------------------------------------------------------------ #
    # Measurement
    # ------------------------------------------------------------------ #

    def worker_cpu_seconds(self) -> List[float]:
        """Measured CPU seconds each worker has consumed (``process_time``).

        The maximum over workers is the measured critical path of the work
        dispatched so far — what wall-clock would converge to given at
        least ``num_workers`` free cores (``benchmarks/bench_parallel.py``).
        """
        return list(self._worker_cpu)

    def reset_worker_cpu(self) -> None:
        self._worker_cpu = [0.0 for _ in range(self.num_workers)]

    def worker_pids(self) -> List[Optional[int]]:
        """Live worker PIDs (``None`` for a dead slot); teardown tests use this."""
        return [
            proc.pid if proc is not None and proc.is_alive() else None
            for proc in self._procs
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "live"
        return (
            f"ProcessShardExecutor(shards={len(self._shards)}, "
            f"workers={self.num_workers}, {state})"
        )
