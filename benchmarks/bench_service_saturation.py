"""Saturation sweep of the request-service layer — finding the throughput knee.

Offers a Figure-7-style mixed stream (Gamma_1: 40 % updates, 60 % searches)
to :class:`repro.service.SlabHashService` at increasing client concurrency,
one fresh sharded engine per level so levels do not contaminate each other.
Each level drives ``num_ops`` operations as ``burst``-sized ``submit_many``
admissions with at most ``concurrency`` admissions in flight; the sweep
records wall-clock throughput, latency percentiles, and batching efficiency
per level, then reports the *knee* — the smallest concurrency whose
throughput reaches 95 % of the peak — and its speedup over the schema-v2
single-drain baseline.

A separate low-load *latency point* (a small single-lane table, light
concurrency, with a warm-up pass so the allocator and bulk backend are
paged in) supplies the document's headline latency percentiles: saturation
throughput and tail latency are different operating points and are
reported as such.

Run directly (or via ``scripts/smoke.sh`` with ``--smoke``)::

    PYTHONPATH=src python benchmarks/bench_service_saturation.py
        [--num-ops 60000] [--num-shards 4] [--initial 20000]
        [--max-batch 2048] [--max-delay 0.002] [--burst 256]
        [--levels 4,8,16,32,64,96,128,160] [--smoke] [--out BENCH_service.json]

Schema (``SCHEMA_VERSION`` 4; version 3 replaced the single fixed-load run
with the concurrency sweep, the knee summary, and the dedicated latency
load point; version 4 adds an optional
``degraded`` section written by ``benchmarks/bench_degraded.py`` recording
the overload/quarantine operating points — this script leaves it intact if
present and omits it on a fresh document)::

    {
      "schema_version": 4,
      "benchmark": "service_saturation",
      "device_model": "...", "python": "...", "numpy": "...",
      "config": {"num_ops_per_level": ..., "num_shards": ...,
                 "initial_elements": ..., "max_batch_size": ...,
                 "max_delay_s": ..., "burst": ...,
                 "concurrency_levels": [...],
                 "distribution": "40% updates, 60% searches",
                 "latency_point": {"num_ops": ..., "initial_elements": ...,
                                   "concurrency": ..., "burst": ...,
                                   "warmup_ops": ...}},
      "sweep": [{"concurrency": ..., "ops_per_sec": ..., "wall_seconds": ...,
                 "latency": {...}, "batches": {...}}, ...],
      "knee": {"concurrency": ..., "ops_per_sec": ...,
               "fraction_of_peak": ..., "v2_baseline_ops_per_sec": ...,
               "speedup_vs_v2_baseline": ...},
      "latency": {"count": ..., "mean_s": ..., "p50_s": ..., "p90_s": ...,
                  "p99_s": ..., "max_s": ...},
      "throughput": {"wall_seconds": ..., "ops_per_sec": ...,
                     "modelled_seconds": ..., "modelled_ops_per_sec": ...},
      "batches": {"executed": ..., "mean_size": ..., "warp_aligned_fraction": ...,
                  "deadline_forced_fraction": ...},
      "degraded": {                                  # optional, bench_degraded.py
        "config": {...},
        "healthy": {"ops_per_sec": ..., "latency": {...}},
        "overloaded": {"accepted_ops_per_sec": ..., "admitted_ops": ...,
                       "rejected_admissions": ..., "ops_rejected": ...,
                       "rejection_latency": {...}},
        "quarantined": {"ops_per_sec": ..., "breaker_trips": ...,
                        "shard_restores": ..., "injected_faults": ...,
                        "latency": {...}}
      }
    }

``validate_document`` is the schema's single source of truth; the smoke test
``tests/perf/test_service_schema.py`` regenerates a tiny document and fails
if the schema drifts from it.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
from typing import List, Optional

import numpy as np

from repro.core.slab_hash import SlabHash
from repro.engine.sharded import ShardedSlabHash
from repro.gpusim.device import TESLA_K40C
from repro.service import ServiceConfig, ServiceStats, SlabHashService
from repro.workloads.distributions import GAMMA_40_UPDATES, build_concurrent_workload
from repro.workloads.generators import unique_random_keys, values_for_keys

SCHEMA_VERSION = 4
DEFAULT_OUT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "BENCH_service.json")

# Measured ops/s of the schema-v2 document (single shared drain loop,
# per-operation futures, one WAL flush per batch) at its default load; the
# knee's speedup is reported against this so the sweep is comparable across
# revisions of the service layer.
V2_BASELINE_OPS_PER_SEC = 22_203.0

KNEE_FRACTION = 0.95


async def _drive(
    service: SlabHashService, workload, *, burst: int, concurrency: int
) -> None:
    """Offer the workload as ``burst``-sized admissions, ``concurrency`` deep.

    Every admission is a ``submit_many`` slice of the stream; a semaphore
    caps how many are in flight, modelling ``concurrency`` simultaneous
    clients each waiting for their previous burst before sending the next.
    """
    gate = asyncio.Semaphore(concurrency)

    async def one(start: int, end: int) -> None:
        async with gate:
            await service.submit_many(
                workload.op_codes[start:end],
                workload.keys[start:end],
                workload.values[start:end],
            )

    await asyncio.gather(
        *[
            asyncio.ensure_future(one(start, min(start + burst, len(workload))))
            for start in range(0, len(workload), burst)
        ]
    )


def _batches_section(stats: ServiceStats) -> dict:
    executed = stats.batches_executed
    return {
        "executed": executed,
        "mean_size": stats.mean_batch_size,
        "warp_aligned_fraction": (
            stats.warp_aligned_batches / executed if executed else 0.0
        ),
        "deadline_forced_fraction": (
            stats.deadline_forced_batches / executed if executed else 0.0
        ),
    }


def _run_level(
    *,
    concurrency: int,
    num_ops: int,
    num_shards: int,
    initial_elements: int,
    max_batch_size: int,
    max_delay: float,
    burst: int,
    seed: int,
) -> dict:
    """One sweep level: fresh engine, serve the stream, snapshot the stats."""
    engine = ShardedSlabHash.for_utilization(
        num_shards, initial_elements, 0.6, seed=seed
    )
    keys = unique_random_keys(initial_elements, seed=seed)
    engine.bulk_build(keys, values_for_keys(keys))
    workload = build_concurrent_workload(GAMMA_40_UPDATES, num_ops, keys, seed=seed + 7)
    config = ServiceConfig(max_batch_size=max_batch_size, max_delay=max_delay)
    service = SlabHashService(engine, config=config)

    async def main() -> None:
        async with service:
            await _drive(service, workload, burst=burst, concurrency=concurrency)

    asyncio.run(main())
    stats = service.stats()
    return {
        "concurrency": int(concurrency),
        "ops_per_sec": stats.ops_per_second,
        "wall_seconds": stats.wall_seconds,
        "latency": stats.latency.as_dict(),
        "batches": _batches_section(stats),
    }


def _run_latency_point(
    *,
    num_ops: int,
    initial_elements: int,
    concurrency: int,
    burst: int,
    warmup_ops: int,
    max_batch_size: int,
    max_delay: float,
    seed: int,
) -> ServiceStats:
    """The low-load latency operating point: small single-lane table.

    A throwaway warm-up service first pushes ``warmup_ops`` through the same
    table so slab storage and the bulk backend are paged in; the measured
    service then sees only steady-state traffic, the way a long-running
    server would.
    """
    table = SlabHash(max(256, initial_elements // 12), seed=seed)
    keys = unique_random_keys(initial_elements, seed=seed + 1)
    table.bulk_build(keys, values_for_keys(keys))
    warmup = build_concurrent_workload(GAMMA_40_UPDATES, warmup_ops, keys, seed=seed + 2)
    measured = build_concurrent_workload(GAMMA_40_UPDATES, num_ops, keys, seed=seed + 3)
    config = ServiceConfig(max_batch_size=max_batch_size, max_delay=max_delay)

    async def main() -> SlabHashService:
        async with SlabHashService(table, config=config) as warm_service:
            await _drive(warm_service, warmup, burst=burst, concurrency=concurrency)
        service = SlabHashService(table, config=config)
        async with service:
            await _drive(service, measured, burst=burst, concurrency=concurrency)
        return service

    return asyncio.run(main()).stats()


def find_knee(sweep: List[dict]) -> dict:
    """Smallest concurrency reaching ``KNEE_FRACTION`` of peak throughput."""
    peak = max(entry["ops_per_sec"] for entry in sweep)
    knee = next(
        entry for entry in sweep if entry["ops_per_sec"] >= KNEE_FRACTION * peak
    )
    return {
        "concurrency": knee["concurrency"],
        "ops_per_sec": knee["ops_per_sec"],
        "fraction_of_peak": knee["ops_per_sec"] / peak if peak else 0.0,
        "v2_baseline_ops_per_sec": V2_BASELINE_OPS_PER_SEC,
        "speedup_vs_v2_baseline": knee["ops_per_sec"] / V2_BASELINE_OPS_PER_SEC,
    }


def run_benchmark(
    *,
    num_ops: int = 60_000,
    num_shards: int = 4,
    initial_elements: int = 20_000,
    max_batch_size: int = 2048,
    max_delay: float = 0.002,
    burst: int = 256,
    concurrency_levels: Optional[List[int]] = None,
    latency_num_ops: int = 6_000,
    latency_initial: int = 1_000,
    latency_concurrency: int = 1,
    latency_burst: int = 128,
    latency_warmup_ops: int = 2_000,
    seed: int = 1,
) -> dict:
    """Run the sweep plus the latency point and assemble the JSON document."""
    levels = sorted(set(concurrency_levels or [4, 8, 16, 32, 64, 96, 128, 160]))
    sweep = [
        _run_level(
            concurrency=level,
            num_ops=num_ops,
            num_shards=num_shards,
            initial_elements=initial_elements,
            max_batch_size=max_batch_size,
            max_delay=max_delay,
            burst=burst,
            seed=seed,
        )
        for level in levels
    ]
    latency_stats = _run_latency_point(
        num_ops=latency_num_ops,
        initial_elements=latency_initial,
        concurrency=latency_concurrency,
        burst=latency_burst,
        warmup_ops=latency_warmup_ops,
        max_batch_size=max_batch_size,
        max_delay=max_delay,
        seed=seed + 100,
    )
    return {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "service_saturation",
        "device_model": f"{TESLA_K40C.name} (simulated)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "config": {
            "num_ops_per_level": int(num_ops),
            "num_shards": int(num_shards),
            "initial_elements": int(initial_elements),
            "max_batch_size": int(max_batch_size),
            "max_delay_s": float(max_delay),
            "burst": int(burst),
            "concurrency_levels": [int(level) for level in levels],
            "distribution": GAMMA_40_UPDATES.describe(),
            "latency_point": {
                "num_ops": int(latency_num_ops),
                "initial_elements": int(latency_initial),
                "concurrency": int(latency_concurrency),
                "burst": int(latency_burst),
                "warmup_ops": int(latency_warmup_ops),
            },
        },
        "sweep": sweep,
        "knee": find_knee(sweep),
        "latency": latency_stats.latency.as_dict(),
        "throughput": {
            "wall_seconds": latency_stats.wall_seconds,
            "ops_per_sec": latency_stats.ops_per_second,
            "modelled_seconds": latency_stats.modelled_seconds,
            "modelled_ops_per_sec": latency_stats.modelled_ops_per_second,
        },
        "batches": _batches_section(latency_stats),
    }


def validate_document(document: dict, *, require_degraded: bool = False) -> None:
    """Raise ``ValueError`` if ``document`` does not match the v4 schema.

    Single source of truth for the repo-root BENCH_service.json layout; the
    smoke test runs a tiny benchmark through this to catch schema drift.
    The ``degraded`` section (written by ``benchmarks/bench_degraded.py``)
    is optional on a fresh sweep but validated whenever present;
    ``require_degraded=True`` additionally demands it — the committed
    repo-root document must carry both operating-point views.
    """
    required_top = {
        "schema_version": int,
        "benchmark": str,
        "device_model": str,
        "python": str,
        "numpy": str,
        "config": dict,
        "sweep": list,
        "knee": dict,
        "latency": dict,
        "throughput": dict,
        "batches": dict,
    }
    for field, kind in required_top.items():
        if field not in document:
            raise ValueError(f"missing top-level field {field!r}")
        if not isinstance(document[field], kind):
            raise ValueError(f"field {field!r} must be {kind.__name__}")
    if document["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"schema_version {document['schema_version']} != {SCHEMA_VERSION}"
        )
    if document["benchmark"] != "service_saturation":
        raise ValueError("benchmark field must be 'service_saturation'")

    config = document["config"]
    for field in ("num_ops_per_level", "num_shards", "initial_elements",
                  "max_batch_size", "max_delay_s", "burst",
                  "concurrency_levels", "distribution", "latency_point"):
        if field not in config:
            raise ValueError(f"missing config field {field!r}")
    if not isinstance(config["concurrency_levels"], list) or not config["concurrency_levels"]:
        raise ValueError("config.concurrency_levels must be a non-empty list")
    for field in ("num_ops", "initial_elements", "concurrency", "burst", "warmup_ops"):
        if field not in config["latency_point"]:
            raise ValueError(f"missing config.latency_point field {field!r}")

    def check_latency(latency: dict, where: str) -> None:
        for field in ("count", "mean_s", "p50_s", "p90_s", "p99_s", "max_s"):
            value = latency.get(field)
            if not isinstance(value, (int, float)) or value < 0:
                raise ValueError(f"{where} field {field!r} must be a non-negative number")
        if not (latency["p50_s"] <= latency["p90_s"]
                <= latency["p99_s"] <= latency["max_s"]):
            raise ValueError(f"{where} percentiles must be monotone")

    def check_batches(batches: dict, where: str) -> None:
        if not isinstance(batches.get("executed"), int) or batches["executed"] <= 0:
            raise ValueError(f"{where}.executed must be a positive integer")
        if not isinstance(batches.get("mean_size"), (int, float)) or batches["mean_size"] <= 0:
            raise ValueError(f"{where}.mean_size must be positive")
        for field in ("warp_aligned_fraction", "deadline_forced_fraction"):
            fraction = batches.get(field)
            if not isinstance(fraction, (int, float)) or not 0.0 <= fraction <= 1.0:
                raise ValueError(f"{where}.{field} must be in [0, 1]")

    sweep = document["sweep"]
    if not sweep:
        raise ValueError("sweep must contain at least one level")
    if len(sweep) != len(config["concurrency_levels"]):
        raise ValueError("sweep must have one entry per configured concurrency level")
    previous = 0
    for entry in sweep:
        if not isinstance(entry, dict):
            raise ValueError("sweep entries must be objects")
        for field in ("concurrency", "ops_per_sec", "wall_seconds", "latency", "batches"):
            if field not in entry:
                raise ValueError(f"missing sweep field {field!r}")
        if not isinstance(entry["concurrency"], int) or entry["concurrency"] <= previous:
            raise ValueError("sweep concurrency levels must be strictly increasing")
        previous = entry["concurrency"]
        if not isinstance(entry["ops_per_sec"], (int, float)) or entry["ops_per_sec"] <= 0:
            raise ValueError("sweep ops_per_sec must be positive")
        if entry["latency"]["count"] != config["num_ops_per_level"]:
            raise ValueError("sweep latency count must equal num_ops_per_level")
        check_latency(entry["latency"], "sweep latency")
        check_batches(entry["batches"], "sweep batches")

    knee = document["knee"]
    for field in ("concurrency", "ops_per_sec", "fraction_of_peak",
                  "v2_baseline_ops_per_sec", "speedup_vs_v2_baseline"):
        value = knee.get(field)
        if not isinstance(value, (int, float)) or value <= 0:
            raise ValueError(f"knee field {field!r} must be a positive number")
    if knee["concurrency"] not in {entry["concurrency"] for entry in sweep}:
        raise ValueError("knee concurrency must be one of the swept levels")
    if not KNEE_FRACTION <= knee["fraction_of_peak"] <= 1.0:
        raise ValueError(
            f"knee fraction_of_peak must be in [{KNEE_FRACTION}, 1]"
        )

    check_latency(document["latency"], "latency")
    if document["latency"]["count"] != config["latency_point"]["num_ops"]:
        raise ValueError("latency count must equal the latency_point num_ops")
    for field in ("wall_seconds", "ops_per_sec", "modelled_seconds", "modelled_ops_per_sec"):
        value = document["throughput"].get(field)
        if not isinstance(value, (int, float)) or value < 0:
            raise ValueError(f"throughput field {field!r} must be a non-negative number")
    check_batches(document["batches"], "batches")

    degraded = document.get("degraded")
    if degraded is None:
        if require_degraded:
            raise ValueError(
                "missing degraded section (run benchmarks/bench_degraded.py)"
            )
        return
    if not isinstance(degraded, dict):
        raise ValueError("degraded must be an object")
    for field in ("config", "healthy", "overloaded", "quarantined"):
        if not isinstance(degraded.get(field), dict):
            raise ValueError(f"missing degraded section field {field!r}")
    for field in ("num_ops", "num_shards", "max_pending_per_shard",
                  "breaker_threshold", "burst", "chaos_seed"):
        if field not in degraded["config"]:
            raise ValueError(f"missing degraded.config field {field!r}")
    healthy = degraded["healthy"]
    if not isinstance(healthy.get("ops_per_sec"), (int, float)) or healthy["ops_per_sec"] <= 0:
        raise ValueError("degraded.healthy.ops_per_sec must be positive")
    check_latency(healthy["latency"], "degraded.healthy latency")
    overloaded = degraded["overloaded"]
    for field in ("accepted_ops_per_sec", "admitted_ops",
                  "rejected_admissions", "ops_rejected"):
        value = overloaded.get(field)
        if not isinstance(value, (int, float)) or value < 0:
            raise ValueError(
                f"degraded.overloaded field {field!r} must be a non-negative number"
            )
    if overloaded["rejected_admissions"] <= 0:
        raise ValueError(
            "degraded.overloaded.rejected_admissions must be positive "
            "(the overload point must actually overload)"
        )
    check_latency(overloaded["rejection_latency"], "degraded.overloaded rejection_latency")
    quarantined = degraded["quarantined"]
    for field in ("ops_per_sec", "breaker_trips", "shard_restores", "injected_faults"):
        value = quarantined.get(field)
        if not isinstance(value, (int, float)) or value < 0:
            raise ValueError(
                f"degraded.quarantined field {field!r} must be a non-negative number"
            )
    if quarantined["breaker_trips"] <= 0:
        raise ValueError(
            "degraded.quarantined.breaker_trips must be positive "
            "(the chaos point must actually trip a breaker)"
        )
    check_latency(quarantined["latency"], "degraded.quarantined latency")


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--num-ops", type=int, default=60_000,
                        help="operations served per sweep level (default %(default)s)")
    parser.add_argument("--num-shards", type=int, default=4,
                        help="shards behind the service (default %(default)s)")
    parser.add_argument("--initial", type=int, default=20_000,
                        help="elements pre-built into each engine (default %(default)s)")
    parser.add_argument("--max-batch", type=int, default=2048,
                        help="micro-batcher batch-size cap (default %(default)s)")
    parser.add_argument("--max-delay", type=float, default=0.002,
                        help="co-batching latency budget, seconds (default %(default)s)")
    parser.add_argument("--burst", type=int, default=256,
                        help="operations per client admission (default %(default)s)")
    parser.add_argument("--levels", type=str, default="4,8,16,32,64,96,128,160",
                        help="comma-separated concurrency levels (default %(default)s)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale for CI smoke: two levels, small tables")
    parser.add_argument("--out", type=str, default=DEFAULT_OUT,
                        help="output JSON path (default: BENCH_service.json at the repo root)")
    args = parser.parse_args(argv)

    if args.smoke:
        document = run_benchmark(
            num_ops=1_024,
            num_shards=2,
            initial_elements=1_024,
            max_batch_size=256,
            max_delay=args.max_delay,
            burst=64,
            concurrency_levels=[2, 4],
            latency_num_ops=512,
            latency_initial=256,
            latency_concurrency=1,
            latency_burst=64,
            latency_warmup_ops=256,
        )
    else:
        document = run_benchmark(
            num_ops=args.num_ops,
            num_shards=args.num_shards,
            initial_elements=args.initial,
            max_batch_size=args.max_batch,
            max_delay=args.max_delay,
            burst=args.burst,
            concurrency_levels=[int(part) for part in args.levels.split(",")],
        )
    if os.path.exists(args.out):
        # Re-running the sweep must not discard the degraded operating
        # points recorded by benchmarks/bench_degraded.py.
        try:
            with open(args.out, encoding="utf-8") as handle:
                previous = json.load(handle)
        except (OSError, ValueError):
            previous = {}
        if isinstance(previous, dict) and "degraded" in previous:
            document["degraded"] = previous["degraded"]
    validate_document(document)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")

    print(f"wrote {args.out}")
    for entry in document["sweep"]:
        print(f"  conc {entry['concurrency']:4d}  "
              f"{entry['ops_per_sec'] / 1e3:9.1f} kops/s   "
              f"p50 {entry['latency']['p50_s'] * 1e3:7.2f} ms   "
              f"p99 {entry['latency']['p99_s'] * 1e3:7.2f} ms   "
              f"{entry['batches']['deadline_forced_fraction']:.0%} deadline-forced")
    knee = document["knee"]
    print(f"  knee at concurrency {knee['concurrency']}: "
          f"{knee['ops_per_sec'] / 1e3:.1f} kops/s "
          f"({knee['speedup_vs_v2_baseline']:.1f}x the v2 baseline)")
    latency = document["latency"]
    print(f"  latency point  p50 {latency['p50_s'] * 1e3:5.2f} ms   "
          f"p90 {latency['p90_s'] * 1e3:5.2f} ms   p99 {latency['p99_s'] * 1e3:5.2f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
