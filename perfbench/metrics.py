"""Metric names, units and the result every workload returns."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

#: End-to-end metrics: name -> unit.  Every workload reports every one.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "insert_ops_s": "ops/s",
    "delete_ops_s": "ops/s",
    "search_ops_s": "ops/s",
    "checkpoint_s": "s",
    "restart_s": "s",
    "peak_rss_mb": "MiB",
    "device_bytes_per_key": "B/key",
    "modelled_ops_s": "ops/s",
}

#: Per-layer metrics of the traced run: name -> unit.  Zero where a layer is
#: not on a workload's path.
PER_LAYER: Dict[str, str] = {
    "service.batches": "count",
    "service.ops_per_batch": "ops",
    "service.forced_cut_fraction": "fraction",
    "service.self_s": "s",
    "wal.append_group.calls": "count",
    "wal.append_group.busy_s": "s",
    "wal.bytes_per_op": "B/op",
    "engine.admit_partition.busy_s": "s",
    "engine.shard_ops_skew": "ratio",
    "exec.concurrent_batch.calls": "count",
    "exec.concurrent_batch.busy_s": "s",
    "exec.us_per_batch": "us",
    "exec.us_per_op": "us",
    "exec.bulk_insert.busy_s": "s",
    "exec.bulk_delete.busy_s": "s",
    "exec.bulk_search.busy_s": "s",
    "alloc.warp_allocate.calls": "count",
    "alloc.warp_allocate.busy_s": "s",
    "alloc.deallocate.calls": "count",
    "alloc.deallocate.busy_s": "s",
    "alloc.page_faults": "count",
    "alloc.sys_s": "s",
    "alloc.warmup_s": "s",
    "alloc.resident_changes_per_allocation": "ratio",
    "resize.count": "count",
    "resize.grows": "count",
    "resize.shrinks": "count",
    "resize.busy_s": "s",
    "resize.migrated_items": "count",
    "snapshot.save.busy_s": "s",
    "snapshot.bytes": "B",
    "snapshot.load.busy_s": "s",
    "recovery.replay.busy_s": "s",
    "recovery.records_replayed": "count",
    "gpusim.modelled_s": "s",
    "gpusim.cas_failures_per_op": "ratio",
    "gpusim.allocations": "count",
    "gpusim.coalesced_read_transactions": "count",
    "trace.window_s": "s",
    "trace.layers_self_s": "s",
    "trace.throughput_ops_s": "ops/s",
}

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def percentile_ms(samples_s: Sequence[float], q: float,
                  min_tail: int = MIN_TAIL_SAMPLES) -> float:
    """The ``q``-th percentile of ``samples_s`` in milliseconds.

    Raises when fewer than ``min_tail`` samples lie beyond it, so a tail
    figure never rests on a handful of points.
    """
    values = np.asarray(samples_s, dtype=np.float64)
    beyond = len(values) * (100.0 - q) / 100.0
    if beyond < min_tail:
        raise ValueError(
            f"p{q:g} of {len(values)} samples has {beyond:.1f} beyond it; need {min_tail}"
        )
    return float(np.percentile(values, q)) * 1e3


@dataclass
class Result:
    """What one workload run measured and whether its answers were right."""

    attempted: int = 0
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.mismatches and self.attempted > 0

    def check(self, ok: bool, what: str) -> None:
        """Record a failed correctness check."""
        if not ok:
            self.mismatches.append(what)

    def output(self, trace: bool) -> dict:
        """The benchmark's last line: every metric of the requested kind."""
        names = PER_LAYER if trace else END_TO_END
        source = self.per_layer if trace else self.end_to_end
        missing = [name for name in names if name not in source]
        if missing:
            raise KeyError(f"workload did not report {missing}")
        return {
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {
                name: {"value": float(source[name]), "unit": unit}
                for name, unit in names.items()
            },
        }
