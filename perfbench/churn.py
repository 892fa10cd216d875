"""``bulk_churn``: the paper's bulk operations on one auto-resizing table.

A single :class:`~repro.core.slab_hash.SlabHash` with the adaptive
:class:`~repro.core.resize.LoadFactorPolicy` of ``benchmarks/bench_resize.py``
(``grow_factor=4``, bucket floor at half the initial sizing) swings between a
base population and a peak several times larger than the service workloads'.
Each step is one ``bulk_insert`` of fresh keys (rising half) or one
``bulk_delete`` of the oldest keys (falling half), followed by a
``bulk_search`` of live keys and one of guaranteed misses.  Latency is per
bulk call: its median is a search, its 99th percentile a call that carried a
resize.  The table keeps replace semantics, the paper's default; its resizes
rebuild the chains, so the tombstones a falling half leaves are cleared each
cycle.

The first cycle is an untimed warm-up.  The window then runs whole cycles
until ``--seconds`` have passed and the 99th percentile has enough calls
beyond it, so every run measures the same mix of growing, shrinking and
resizing.  The service, WAL and engine are not on
this path.  ``checkpoint_s`` and ``restart_s`` are the table's own snapshot
save and load, once per cycle at the peak population, there being no WAL;
their time is left out of ``throughput_ops_s``.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass, replace
from statistics import median
from typing import List, Optional

import numpy as np

from perfbench.host import Usage, anon_huge_mb, peak_rss_mb
from perfbench.metrics import MIN_TAIL_SAMPLES, Result, percentile_ms
from perfbench.stream import NOT_FOUND, KeySpace
from perfbench.tracing import Tracer, layer_metrics
from repro.core.resize import LoadFactorPolicy
from repro.core.slab_hash import SlabHash
from repro.gpusim.costmodel import CostModel
from repro.persist import snapshot as snapshot_io


@dataclass(frozen=True)
class ChurnConfig:
    """Sizes of the churn workload."""

    peak: int = 60_000
    base: int = 15_000
    step: int = 1_500
    #: Queries after each step: half in a call over live keys, half in a
    #: call over never-stored keys.  Searches are then two thirds of the
    #: calls, so the median call is a search rather than the boundary
    #: between the insert and delete calls.
    queries: int = 1_500
    setups: int = 9
    min_tail: int = MIN_TAIL_SAMPLES


CHURN = ChurnConfig()


def churn_policy(initial_buckets: int) -> LoadFactorPolicy:
    """The policy ``benchmarks/bench_resize.churn_policy`` measures churn with."""
    return LoadFactorPolicy(grow_factor=4.0, min_buckets=max(1, initial_buckets // 2))


class _Churn:
    """The table, its model (live ids ``[lo, hi)``) and the per-call ledger."""

    def __init__(self, config: ChurnConfig, seed: int) -> None:
        self.config = config
        self.seed = seed
        self.space = KeySpace(seed)
        buckets = SlabHash.buckets_for_beta(config.base, 0.6)
        self.table = SlabHash(buckets, seed=seed, policy=churn_policy(buckets))
        keys = self.space.keys(np.arange(config.base, dtype=np.uint64))
        self.table.bulk_build(keys, self.space.values(keys))
        self.lo, self.hi = 0, config.base
        self.cost = CostModel(self.table.device.spec)
        self.attempted = 0
        self.failed = 0
        self.snapshot_bytes = 0
        self.reset_window()

    def reset_window(self) -> None:
        self.keys_done = {"insert": 0, "delete": 0, "search": 0}
        self.busy = {"insert": 0.0, "delete": 0.0, "search": 0.0}
        self.calls: List[float] = []
        self.modelled = 0.0
        self.checkpoints: List[float] = []
        self.restarts: List[float] = []
        self.persist_s = 0.0

    def _timed(self, kind: str, count: int, call):
        device = self.table.device
        before = device.snapshot()
        started = time.perf_counter()
        out = call()
        elapsed = time.perf_counter() - started
        self.modelled += self.cost.elapsed(device.events_since(before)).total_time
        self.busy[kind] += elapsed
        self.keys_done[kind] += count
        self.attempted += count
        self.calls.append(elapsed)
        return out

    def insert_step(self) -> None:
        keys = self.space.keys(np.arange(self.hi, self.hi + self.config.step, dtype=np.uint64))
        values = self.space.values(keys)
        self._timed("insert", len(keys), lambda: self.table.bulk_insert(keys, values))
        self.hi += self.config.step

    def delete_step(self) -> None:
        keys = self.space.keys(np.arange(self.lo, self.lo + self.config.step, dtype=np.uint64))
        removed = self._timed("delete", len(keys), lambda: self.table.bulk_delete(keys))
        self.failed += int(np.count_nonzero(removed != 1))
        self.lo += self.config.step

    def search_step(self, cycle: int, step: int) -> None:
        """One ``bulk_search`` of live keys, then one of never-stored keys."""
        rng = np.random.default_rng([self.seed, 0x63687572, cycle, step])
        hits = self.space.keys(rng.integers(self.lo, self.hi, self.config.queries // 2)
                               .astype(np.uint64))
        misses = self.space.miss_keys(rng.integers(0, 1 << 29, self.config.queries // 2)
                                      .astype(np.uint64))
        for queries, expected in ((hits, self.space.values(hits)),
                                  (misses, np.full(len(misses), NOT_FOUND, dtype=np.uint32))):
            found = self._timed("search", len(queries), lambda: self.table.bulk_search(queries))
            self.failed += int(np.count_nonzero(found != expected))

    def cycle(self, index: int, result: Result, workdir: str) -> None:
        """Base to peak and back, with a snapshot round at the peak."""
        steps = (self.config.peak - self.config.base) // self.config.step
        for step in range(steps):
            self.insert_step()
            self.search_step(index, step)
        self.snapshot_round(result, os.path.join(workdir, "table.npz"))
        for step in range(steps):
            self.delete_step()
            self.search_step(index, steps + step)

    def snapshot_round(self, result: Result, path: str) -> None:
        """Save the table, load it back and check the copy.

        One round per cycle spreads the samples over the whole window, so
        their median does not rest on one moment of the host.
        """
        started = time.perf_counter()
        snapshot_io.save(self.table, path)
        saved = time.perf_counter()
        self.checkpoints.append(saved - started)
        restored = snapshot_io.load(path)
        self.restarts.append(time.perf_counter() - saved)
        result.check(self.contents_match(restored), "restored table differs from the model")
        del restored
        self.snapshot_bytes = os.path.getsize(path)
        self.persist_s += time.perf_counter() - started

    def contents_match(self, table: SlabHash) -> bool:
        expected = self.space.contents(self.lo, self.hi)
        return {int(key): int(value) for key, value in table.items()} == expected


def run_churn(config: ChurnConfig, seed: int, seconds: float, workdir: str,
              tracer: Optional[Tracer] = None) -> Result:
    result = Result()
    setup_times = []
    for attempt in range(config.setups):
        gc.collect()
        started = time.perf_counter()
        churn = _Churn(config, seed)
        setup_times.append(time.perf_counter() - started)
        if attempt + 1 < config.setups:
            del churn
    table = churn.table

    warm_start = Usage.now()
    churn.cycle(0, result, workdir)
    warm = Usage.now().since(warm_start)
    churn.reset_window()

    resize_before = table.resize_stats.as_dict()
    counters_before = table.device.snapshot()
    window_start = Usage.now()
    cycles = 0
    # A p99 needs ``min_tail`` calls beyond it, so a slow program runs more
    # cycles rather than print no tail figure.
    while (time.perf_counter() - window_start.wall < seconds
           or len(churn.calls) < 100 * config.min_tail):
        cycles += 1
        churn.cycle(cycles, result, workdir)
    window_end = Usage.now()
    window = window_end.since(window_start)
    window["anon_huge_mb"] = anon_huge_mb()
    resize_after = table.resize_stats.as_dict()
    events = table.device.events_since(counters_before)
    live = len(table)
    result.check(churn.contents_match(table), "table contents differ from the model")
    result.check(live == config.base, f"{live} live keys, expected {config.base}")
    total = sum(churn.keys_done.values())
    # The snapshot rounds are measured on their own, not as churn time.
    churn_s = window["wall_s"] - churn.persist_s

    result.attempted = churn.attempted
    result.failed = churn.failed
    result.check(result.failed == 0, f"{result.failed} answers differ from the model")
    result.end_to_end = {
        "setup_s": median(setup_times),
        "throughput_ops_s": total / churn_s,
        "latency_p50_ms": percentile_ms(churn.calls, 50, config.min_tail),
        "latency_p99_ms": percentile_ms(churn.calls, 99, config.min_tail),
        "insert_ops_s": churn.keys_done["insert"] / churn.busy["insert"],
        "delete_ops_s": churn.keys_done["delete"] / churn.busy["delete"],
        "search_ops_s": churn.keys_done["search"] / churn.busy["search"],
        "checkpoint_s": median(churn.checkpoints),
        "restart_s": median(churn.restarts),
        "peak_rss_mb": peak_rss_mb(),
        "device_bytes_per_key": table.used_bytes() / live,
        "modelled_ops_s": total / churn.modelled,
    }
    resized = {key: resize_after[key] - resize_before[key]
               for key in ("resizes", "grows", "shrinks", "migrated_items")}
    per_layer = {
        "service.batches": 0,
        "service.ops_per_batch": 0.0,
        "service.forced_cut_fraction": 0.0,
        "wal.bytes_per_op": 0.0,
        "engine.shard_ops_skew": 1.0,
        "alloc.page_faults": window["minor_faults"],
        "alloc.sys_s": window["sys_s"],
        "alloc.warmup_s": warm["wall_s"],
        "alloc.resident_changes_per_allocation": (
            events.resident_changes / events.allocations if events.allocations else 0.0
        ),
        "resize.count": resized["resizes"],
        "resize.grows": resized["grows"],
        "resize.shrinks": resized["shrinks"],
        "resize.migrated_items": resized["migrated_items"],
        "gpusim.modelled_s": churn.modelled,
        "gpusim.cas_failures_per_op": events.cas_failures / total,
        "gpusim.allocations": events.allocations,
        "gpusim.coalesced_read_transactions": events.coalesced_read_transactions,
        "snapshot.bytes": churn.snapshot_bytes,
    }
    if tracer is not None:
        ledger = tracer.ledger(window_start.wall, window_end.wall)
        per_layer.update(layer_metrics(ledger, window["wall_s"], total, ledger))
        per_layer["trace.throughput_ops_s"] = result.end_to_end["throughput_ops_s"]
    result.per_layer = per_layer
    result.details = {
        "setup_s_samples": setup_times,
        "checkpoint_s_samples": churn.checkpoints,
        "restart_s_samples": churn.restarts,
        "window_cycles": cycles,
        "latency_samples": len(churn.calls),
        "warmup": warm,
        "window": window,
        "resizes": resized,
    }
    return result


def tiny(config: ChurnConfig) -> ChurnConfig:
    """The same workload at a size a unit test can afford."""
    return replace(config, peak=4_000, base=1_000, step=100, queries=100,
                   setups=1, min_tail=1)
