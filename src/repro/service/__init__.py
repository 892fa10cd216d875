"""Request-service layer: an async micro-batching front door for the engine.

Where :mod:`repro.core` scales the table *up* and :mod:`repro.engine`
scales it *out*, this package makes it *servable*: callers await single
operations or whole arrays, admissions are routed to per-shard operation
logs as NumPy chunks (one future per admission, not per operation), and one
drain task per shard cuts warp-aligned mixed batches and runs them through
the shard's ``concurrent_batch`` — on the vectorized concurrent fast path
by default, with WAL appends group-committed across a drain round.

* :class:`~repro.service.batcher.MicroBatcher` — the event-loop-agnostic
  coalescing core (array-backed chunk log, warp-aligned cuts, forced ragged
  flushes), with :class:`~repro.service.batcher.OpSlice` /
  :class:`~repro.service.batcher.OpChunk` /
  :class:`~repro.service.batcher.CutBatch` as the admission→batch→results
  data path;
* :class:`~repro.service.service.SlabHashService` — the asyncio front door
  (``insert`` / ``search`` / ``delete`` / ``submit_many``), per-shard drain
  loops, group commit, and per-operation latency/throughput accounting;
* :class:`~repro.service.service.ServiceConfig` /
  :class:`~repro.service.service.ServiceStats` /
  :class:`~repro.service.service.ShardLaneStats` — tuning knobs and the
  measurement snapshot (percentiles via :mod:`repro.perf.latency`), with a
  per-shard lane breakdown;
* :mod:`~repro.service.errors` — the typed rejection vocabulary
  (retryable :class:`~repro.service.errors.ServiceOverloaded` /
  :class:`~repro.service.errors.ShardQuarantined` /
  :class:`~repro.service.errors.WalCommitFailed`, non-retryable
  :class:`~repro.service.errors.OpDeadlineExceeded` /
  :class:`~repro.service.errors.ServiceStopped`) plus
  :func:`~repro.service.retry.retry_with_backoff`, the client half of the
  fail-fast contract (docs/FAULTS.md).

Hardening: admission is budget-bounded per shard, operations carry optional
deadlines enforced at cut time, each drain lane has a circuit breaker with
background checkpoint+WAL restore, and a :class:`~repro.faults.FaultPlan`
can be armed across the allocator / WAL / execute sites for deterministic
chaos testing.

``benchmarks/bench_service_saturation.py`` sweeps offered concurrency
through this layer to the throughput knee and records the service document
at the repo root, with a fixed-load latency point beside the sweep
(``benchmarks/bench_degraded.py`` measures the degraded modes);
``docs/TUTORIAL.md`` walks through using it.
"""

from repro.service.batcher import CutBatch, MicroBatcher, OpChunk, OpSlice
from repro.service.errors import (
    OpDeadlineExceeded,
    RetryableServiceError,
    ServiceError,
    ServiceOverloaded,
    ServiceStopped,
    ShardQuarantined,
    WalCommitFailed,
)
from repro.service.retry import retry_with_backoff
from repro.service.service import (
    LANE_CLOSED,
    LANE_HALF_OPEN,
    LANE_OPEN,
    ServiceConfig,
    ServiceStats,
    ShardLaneStats,
    SlabHashService,
)

__all__ = [
    "CutBatch",
    "LANE_CLOSED",
    "LANE_HALF_OPEN",
    "LANE_OPEN",
    "MicroBatcher",
    "OpChunk",
    "OpDeadlineExceeded",
    "OpSlice",
    "RetryableServiceError",
    "ServiceConfig",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceStats",
    "ServiceStopped",
    "ShardLaneStats",
    "ShardQuarantined",
    "SlabHashService",
    "WalCommitFailed",
    "retry_with_backoff",
]
