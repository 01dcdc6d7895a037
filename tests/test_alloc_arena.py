"""The jemalloc-style arena: size classes, slabs, large allocations,
coalescing, invariants."""

import pytest

from repro.alloc.arena import Arena, EXTENT_SIZE, PAGE, SIZE_CLASSES, SMALL_LIMIT
from repro.config import DRAM_CONFIG
from repro.errors import AllocationError
from repro.memory import MemoryDevice
from repro.units import KiB, MB


@pytest.fixture
def arena(dram):
    return Arena(dram, owner="test")


class TestSizeClasses:
    def test_ladder_is_sorted_unique(self):
        assert SIZE_CLASSES == sorted(set(SIZE_CLASSES))

    def test_smallest_is_8(self):
        assert SIZE_CLASSES[0] == 8

    def test_limit_under_16k(self):
        assert SMALL_LIMIT <= 14 * KiB

    def test_class_for_exact(self):
        assert Arena.size_class_for(8) == 8
        assert Arena.size_class_for(64) == 64

    def test_class_for_rounds_up(self):
        assert Arena.size_class_for(9) == 16
        assert Arena.size_class_for(129) > 129

    def test_class_for_large_is_none(self):
        assert Arena.size_class_for(SMALL_LIMIT + 1) is None

    def test_spacing_within_25_percent(self):
        """jemalloc's 4-per-doubling ladder bounds internal
        fragmentation at ~25%."""
        for a, b in zip(SIZE_CLASSES[8:], SIZE_CLASSES[9:]):
            assert b / a <= 1.34


class TestSmallAllocations:
    def test_basic_alloc_free(self, arena):
        a = arena.alloc(100)
        assert a.size_class == 112  # ladder: ...96, 112, 128...
        assert a.size == 112
        arena.free(a)
        assert arena.live_allocations == 0

    def test_slab_slot_reuse(self, arena):
        a = arena.alloc(64)
        addr = a.addr
        arena.free(a)
        b = arena.alloc(64)
        assert b.addr == addr  # LIFO slot reuse

    def test_distinct_addresses(self, arena):
        allocs = [arena.alloc(64) for _ in range(100)]
        addrs = {a.addr for a in allocs}
        assert len(addrs) == 100
        arena.check_invariants()

    def test_slab_released_when_empty(self, arena):
        allocs = [arena.alloc(64) for _ in range(10)]
        extent_before = arena.extent_bytes
        for a in allocs:
            arena.free(a)
        # slab returned to the page pool; new large alloc can use it
        big = arena.alloc(MB(1))
        assert arena.extent_bytes == extent_before or big is not None

    def test_double_free_rejected(self, arena):
        a = arena.alloc(64)
        arena.free(a)
        with pytest.raises(AllocationError):
            arena.free(a)

    def test_zero_size_rejected(self, arena):
        with pytest.raises(AllocationError):
            arena.alloc(0)


class TestLargeAllocations:
    def test_page_rounding(self, arena):
        a = arena.alloc(SMALL_LIMIT + 1)
        assert a.size % PAGE == 0
        assert a.size >= SMALL_LIMIT + 1
        assert a.size_class is None

    def test_huge_allocation(self, arena):
        a = arena.alloc(2 * EXTENT_SIZE)
        assert a.size >= 2 * EXTENT_SIZE

    def test_split_and_reuse(self, arena):
        a = arena.alloc(MB(1))
        arena.free(a)
        b = arena.alloc(MB(1))
        assert b.addr == a.addr  # first-fit reuses the hole

    def test_coalescing_adjacent_frees(self, arena):
        a = arena.alloc(MB(1))
        b = arena.alloc(MB(1))
        c = arena.alloc(MB(1))
        assert b.addr == a.addr + a.size  # contiguous carving
        arena.free(a)
        arena.free(b)
        # coalesced hole of 2MB should satisfy a 2MB request in place
        d = arena.alloc(MB(2))
        assert d.addr == a.addr
        arena.free(c)
        arena.free(d)

    def test_extent_amortization(self, arena):
        before = arena.extent_bytes
        arena.alloc(PAGE)
        grown = arena.extent_bytes - before
        assert grown >= EXTENT_SIZE or before > 0


class TestAccounting:
    def test_device_charged_for_extents(self, dram, arena):
        base = dram.allocated
        arena.alloc(MB(1))
        assert dram.allocated > base

    def test_requested_vs_reserved(self, arena):
        arena.alloc(100)  # -> 112 class
        assert arena.bytes_requested == 100
        assert arena.bytes_reserved == 112

    def test_counters(self, arena):
        a = arena.alloc(64)
        arena.free(a)
        assert arena.alloc_count == 1
        assert arena.free_count == 1

    def test_release_returns_capacity(self, dram):
        arena = Arena(dram, owner="x")
        base = dram.allocated
        arena.alloc(MB(1))
        arena.release()
        assert dram.allocated == base

    def test_mixed_workload_invariants(self, arena):
        import random

        rng = random.Random(7)
        live = []
        for _ in range(300):
            if live and rng.random() < 0.4:
                arena.free(live.pop(rng.randrange(len(live))))
            else:
                live.append(arena.alloc(rng.choice([8, 100, 5000, 20_000, 200_000])))
        arena.check_invariants()
        for a in live:
            arena.free(a)
        assert arena.live_allocations == 0
        assert arena.bytes_requested == 0
