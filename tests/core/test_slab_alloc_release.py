"""SlabAlloc release paths: the resident index, deallocate_many, and lazy stores.

* ``deallocate`` refreshes only the cached bitmaps of warps resident in the
  freed unit's block, through the ``(super_block, block)`` resident index; a
  reference allocator that scans every resident warp must agree on every
  cache and every address.
* ``deallocate_many`` must be indistinguishable from a loop of ``deallocate``
  (counters, units, bitmaps, caches), and must reject a bad batch whole.
* Slab stores fault in 4 KiB pages on demand, so a table's resident set
  follows its allocated slabs rather than the allocator's 1 GiB reservation.
"""

import os

import numpy as np
import pytest

from repro.core import constants as C
from repro.core.address import decode_address, make_address
from repro.core.config import SlabAllocConfig
from repro.core.slab_alloc import SlabAlloc
from repro.core.slab_hash import SlabHash
from repro.gpusim.device import Device
from repro.gpusim.errors import AllocationError
from repro.gpusim.warp import Warp
from repro.workloads.generators import unique_random_keys, values_for_keys

_FULL_WORD = 0xFFFFFFFF


class FullScanSlabAlloc(SlabAlloc):
    """Reference: ``deallocate`` refreshes caches by scanning every resident warp."""

    def deallocate(self, warp, address):
        super_block, block, unit = decode_address(address)
        self._check_bounds(super_block, block, unit)
        warp.charge(C.DEALLOC_INSTRUCTIONS)
        lane, bit = divmod(unit, 32)
        old = self.mem.atomic_and32(
            self._bitmaps[super_block], (block, lane), _FULL_WORD ^ (1 << bit)
        )
        if not old & (1 << bit):
            raise AllocationError(f"double free of slab address 0x{address:08X}")
        self.device.counters.deallocations += 1
        self._allocated_units -= 1
        store = self._super_stores.get(super_block)
        row = self._row(block, unit)
        if store is not None and np.any(store[row] != C.EMPTY_KEY):
            self.mem.write_slab(store, row, np.full(self.slab_words, C.EMPTY_KEY, np.uint32))
        for resident in self._resident.values():
            if resident.super_block == super_block and resident.block == block:
                resident.cached_bitmap[lane] &= np.uint32(~(1 << bit) & _FULL_WORD)


SMALL = SlabAllocConfig(num_super_blocks=2, num_memory_blocks=4, units_per_block=128)


def _caches(alloc):
    return {
        warp_id: (state.super_block, state.block, state.cached_bitmap.copy())
        for warp_id, state in alloc._resident.items()
    }


def _assert_same_state(alloc, reference):
    assert alloc.device.counters == reference.device.counters
    assert alloc.allocated_units == reference.allocated_units
    for mine, theirs in zip(alloc._bitmaps, reference._bitmaps):
        assert np.array_equal(mine, theirs)
    mine, theirs = _caches(alloc), _caches(reference)
    assert mine.keys() == theirs.keys()
    for warp_id, (super_block, block, cached) in mine.items():
        assert (super_block, block) == theirs[warp_id][:2]
        assert np.array_equal(cached, theirs[warp_id][2])
    mine_addresses, mine_words = alloc.export_units()
    their_addresses, their_words = reference.export_units()
    assert np.array_equal(mine_addresses, their_addresses)
    assert np.array_equal(mine_words, their_words)


def _pair(reference=FullScanSlabAlloc, seed=7, config=SMALL):
    """Two allocators with the same seed on separate devices."""
    return SlabAlloc(Device(), config, seed=seed), reference(Device(), config, seed=seed)


class TestResidentIndex:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_churn_matches_the_full_scan(self, seed):
        rng = np.random.default_rng(seed)
        # 512 units held ~80% full: blocks fill and warps change residence.
        alloc, reference = _pair(seed=seed, config=SlabAllocConfig(2, 4, 64))
        warps = [
            (Warp(i, alloc.device.counters), Warp(i, reference.device.counters))
            for i in range(48)
        ]
        live = []
        for step in range(1500):
            if live and (rng.random() < 0.3 or alloc.occupancy() > 0.8):
                address = live.pop(int(rng.integers(len(live))))
                super_block, block, _ = decode_address(address)
                # Warps resident in any other block must not be touched.
                elsewhere = {
                    warp_id: cached
                    for warp_id, (sb, b, cached) in _caches(alloc).items()
                    if (sb, b) != (super_block, block)
                }
                w = int(rng.integers(len(warps)))
                alloc.deallocate(warps[w][0], address)
                reference.deallocate(warps[w][1], address)
                for warp_id, cached in elsewhere.items():
                    assert np.array_equal(alloc._resident[warp_id].cached_bitmap, cached)
            else:
                w = int(rng.integers(len(warps)))
                address = alloc.warp_allocate(warps[w][0])
                assert address == reference.warp_allocate(warps[w][1]), f"step {step}"
                store, row = alloc.slab_view(address)
                store[row, 0] = np.uint32(step)  # dirty it so release rewrites it
                store, row = reference.slab_view(address)
                store[row, 0] = np.uint32(step)
                live.append(address)
            if step % 50 == 0:
                _assert_same_state(alloc, reference)
        _assert_same_state(alloc, reference)
        assert alloc.device.counters.resident_changes > 0

    def test_index_follows_resident_changes(self):
        alloc = SlabAlloc(Device(), SMALL, seed=1)
        warps = [Warp(i, alloc.device.counters) for i in range(16)]
        for i in range(600):
            alloc.warp_allocate(warps[i % 16])
        indexed = {
            warp_id: key
            for key, peers in alloc._residents_in.items()
            for warp_id in peers
        }
        assert indexed == {
            warp_id: (state.super_block, state.block)
            for warp_id, state in alloc._resident.items()
        }
        for key, peers in alloc._residents_in.items():
            assert peers, f"empty index entry left behind for {key}"
            for warp_id, state in peers.items():
                assert alloc._resident[warp_id] is state


def _filled(seed, allocations=700):
    """Allocator pair driven through the same allocations, slabs dirtied."""
    rng = np.random.default_rng(seed)
    alloc, twin = _pair(reference=SlabAlloc, seed=seed)
    warps = [(Warp(i, alloc.device.counters), Warp(i, twin.device.counters)) for i in range(24)]
    addresses = []
    for step in range(allocations):
        w = int(rng.integers(len(warps)))
        address = alloc.warp_allocate(warps[w][0])
        assert address == twin.warp_allocate(warps[w][1])
        if rng.random() < 0.7:  # some slabs stay empty: no write when released
            lane = int(rng.integers(C.SLAB_WORDS))
            for table in (alloc, twin):
                store, row = table.slab_view(address)
                store[row, lane] = np.uint32(step)
        addresses.append(address)
    return rng, alloc, twin, np.array(addresses, dtype=np.int64)


class TestDeallocateMany:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batches_equal_a_loop_of_deallocate(self, seed):
        rng, batched, looped, addresses = _filled(seed)
        live = list(rng.permutation(addresses))
        warp_id = 1000
        while live:
            size = min(len(live), int(rng.integers(0, 90)))
            batch, live = live[:size], live[size:]
            batched.deallocate_many(Warp(warp_id, batched.device.counters), np.array(batch))
            warp = Warp(warp_id, looped.device.counters)
            for address in batch:
                looped.deallocate(warp, int(address))
            _assert_same_state(batched, looped)
            # Interleave allocations so recycled units get handed out again.
            for _ in range(int(rng.integers(0, 8))):
                w = int(rng.integers(24))
                address = batched.warp_allocate(Warp(w, batched.device.counters))
                assert address == looped.warp_allocate(Warp(w, looped.device.counters))
            warp_id += 1
        assert batched.device.counters.deallocations > 0

    def test_accepts_lists_and_empty_batches(self):
        _, batched, looped, addresses = _filled(4, allocations=40)
        before = batched.device.counters.copy()
        batched.deallocate_many(Warp(0, batched.device.counters), [])
        assert batched.device.counters == before
        batched.deallocate_many(Warp(0, batched.device.counters), [int(a) for a in addresses])
        for address in addresses:
            looped.deallocate(Warp(0, looped.device.counters), int(address))
        _assert_same_state(batched, looped)

    @pytest.mark.parametrize(
        "bad",
        ["double_free", "repeated", "super_block", "memory_block", "unit", "negative", "wide"],
    )
    def test_bad_batch_raises_and_changes_nothing(self, bad):
        rng, alloc, _, addresses = _filled(5, allocations=200)
        freed = int(addresses[0])
        alloc.deallocate(Warp(0, alloc.device.counters), freed)
        batch = [int(a) for a in rng.permutation(addresses[1:])[:50]]
        invalid = {
            "double_free": freed,
            "repeated": batch[17],
            "super_block": make_address(SMALL.num_super_blocks, 0, 0),
            "memory_block": make_address(0, SMALL.num_memory_blocks, 0),
            "unit": make_address(0, 0, SMALL.units_per_block),
            "negative": -1,
            "wide": 1 << 32,
        }[bad]
        batch.insert(31, invalid)
        counters = alloc.device.counters.copy()
        bitmaps = [bitmap.copy() for bitmap in alloc._bitmaps]
        caches = _caches(alloc)
        units = alloc.export_units()
        with pytest.raises(AllocationError):
            alloc.deallocate_many(Warp(1, alloc.device.counters), np.array(batch))
        assert alloc.device.counters == counters
        assert alloc.allocated_units == len(addresses) - 1
        for mine, saved in zip(alloc._bitmaps, bitmaps):
            assert np.array_equal(mine, saved)
        for warp_id, (_, _, cached) in _caches(alloc).items():
            assert np.array_equal(cached, caches[warp_id][2])
        after = alloc.export_units()
        assert np.array_equal(after[0], units[0]) and np.array_equal(after[1], units[1])


_STATM = "/proc/self/statm"


def _resident_bytes():
    with open(_STATM) as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not os.path.exists(_STATM), reason="needs Linux /proc/self/statm")
def test_resident_set_follows_allocated_slabs():
    """Building and churning ~50k keys grows VmRSS by the slabs used, not the pool."""
    keys = unique_random_keys(100_000, seed=11)
    values = values_for_keys(keys)
    before = _resident_bytes()
    table = SlabHash(2048, seed=11)  # ~25 keys per bucket: every bucket chains
    assert table.alloc.capacity_bytes >= 2**30
    table.bulk_build(keys[:50_000], values[:50_000])
    peak_units = table.alloc.allocated_units
    for cycle in range(4):
        lo = 50_000 + cycle * 12_500
        table.bulk_delete(keys[cycle * 12_500 : lo - 37_500])
        table.bulk_insert(keys[lo : lo + 12_500], values[lo : lo + 12_500])
        peak_units = max(peak_units, table.alloc.allocated_units)
        table.flush()
        resized = table.resize(4096 if cycle % 2 == 0 else 2048)
        # Old and new chains are both live until the old ones are released.
        peak_units = max(peak_units, table.alloc.allocated_units + resized.released_slabs)
    assert len(table) == 50_000
    growth = _resident_bytes() - before
    # An allocated slab faults in at most one 4 KiB page (a 128-byte slab
    # never straddles a page).  The margin covers pages of released slabs
    # that stay resident until their blocks are reused (measured total
    # growth is ~30 MiB against ~12 MiB for the peak live slabs), base-slab
    # arrays, NumPy temporaries and interpreter state.  With huge-page
    # backed stores this run grows by ~1 GiB.
    bound = 4096 * peak_units + 48 * 2**20
    assert growth <= bound, (growth / 2**20, peak_units)
