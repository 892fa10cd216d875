"""Micro-benchmarks of the simulator itself (wall-clock, pytest-benchmark style).

Unlike the figure benchmarks (whose interesting output is the *modelled*
device throughput), these measure the wall-clock speed of the pure-Python warp
simulator on the core operations.  They are useful for tracking regressions in
the simulator's own performance and for sizing the figure benchmarks.
"""

import numpy as np

from repro.core.config import SlabAllocConfig
from repro.core.slab_alloc import SlabAlloc
from repro.core.slab_hash import SlabHash
from repro.gpusim.device import Device
from repro.gpusim.warp import Warp
from repro.workloads.generators import unique_random_keys, values_for_keys

CFG = SlabAllocConfig(num_super_blocks=4, num_memory_blocks=32, units_per_block=256)
N = 2**11


def _fresh_table(seed=0):
    table = SlabHash(SlabHash.buckets_for_utilization(N, 0.6), alloc_config=CFG, seed=seed)
    keys = unique_random_keys(N, seed=seed)
    values = values_for_keys(keys)
    return table, keys, values


def test_micro_bulk_build(benchmark):
    def build():
        table, keys, values = _fresh_table(seed=1)
        table.bulk_build(keys, values)
        return table

    table = benchmark.pedantic(build, rounds=3, iterations=1)
    assert len(table) == N


def test_micro_bulk_search(benchmark):
    table, keys, values = _fresh_table(seed=2)
    table.bulk_build(keys, values)
    result = benchmark.pedantic(lambda: table.bulk_search(keys), rounds=3, iterations=1)
    assert np.array_equal(result, values)


def test_micro_bulk_delete(benchmark):
    def build_and_delete():
        table, keys, _ = _fresh_table(seed=3)
        table.bulk_build(keys, values_for_keys(keys))
        return table.bulk_delete(keys)

    removed = benchmark.pedantic(build_and_delete, rounds=2, iterations=1)
    assert removed.sum() == N


def test_micro_slaballoc_allocate(benchmark):
    def allocate_many():
        device = Device()
        alloc = SlabAlloc(device, CFG, seed=4)
        warps = [Warp(i, device.counters) for i in range(16)]
        return [alloc.warp_allocate(warps[i % 16]) for i in range(4096)]

    addresses = benchmark.pedantic(allocate_many, rounds=3, iterations=1)
    assert len(set(addresses)) == 4096


def test_micro_flush(benchmark):
    table, keys, values = _fresh_table(seed=5)
    table.bulk_build(keys, values)
    table.bulk_delete(keys[::2])

    results = benchmark.pedantic(table.flush, rounds=1, iterations=1)
    assert sum(r.slabs_released for r in results) >= 0


RELEASE_CFG = SlabAllocConfig(num_super_blocks=4, num_memory_blocks=64, units_per_block=256)


def test_micro_slaballoc_release(benchmark):
    """Resize a chained table after ~5k warps have been resident in the allocator.

    The resize releases ~2k old chained slabs in one ``deallocate_many``; each
    release must touch only the warps resident in the freed slab's block, so
    a scan over every resident warp shows up here as a multi-fold slowdown.
    """

    def churned_table():
        table = SlabHash(256, alloc_config=RELEASE_CFG, seed=6)
        keys = unique_random_keys(2**15, seed=6)
        table.bulk_build(keys, values_for_keys(keys))
        for buckets in (384, 256, 384, 256):
            table.resize(buckets)  # each rebuild makes fresh warps resident
        return (table,), {}

    def release(table):
        return table.resize(384)

    result = benchmark.pedantic(release, setup=churned_table, rounds=3, iterations=1)
    assert result.released_slabs > 1000
