"""The NVM kernel manager: nvmmap family, process metadata, restart
re-mapping, cache flush, phantom regions."""

import re
import tracemalloc

import numpy as np
import pytest

from repro.errors import AllocationError, PersistenceError
from repro.memory import InMemoryStore, NVMKernelManager
from repro.units import GB, MB, PAGE_SIZE


class TestNvmmap:
    def test_map_and_write_read(self, nvmm):
        r = nvmm.nvmmap("p0", "data", 8192)
        r.write(0, np.arange(1024, dtype=np.float64))
        got = r.read(0, 8192).view(np.float64)
        assert np.array_equal(got, np.arange(1024))

    def test_double_map_rejected(self, nvmm):
        nvmm.nvmmap("p0", "data", 4096)
        with pytest.raises(AllocationError):
            nvmm.nvmmap("p0", "data", 4096)

    def test_same_name_different_process_ok(self, nvmm):
        nvmm.nvmmap("p0", "data", 4096)
        nvmm.nvmmap("p1", "data", 4096)
        assert nvmm.region("p0", "data") is not nvmm.region("p1", "data")

    def test_unmap_releases_capacity(self, nvmm):
        before = nvmm.device.allocated
        nvmm.nvmmap("p0", "data", MB(1))
        nvmm.nvmunmap("p0", "data")
        assert nvmm.device.allocated == before

    def test_unmap_unknown_rejected(self, nvmm):
        with pytest.raises(AllocationError):
            nvmm.nvmunmap("p0", "ghost")

    def test_region_lookup_unknown(self, nvmm):
        with pytest.raises(AllocationError):
            nvmm.region("p0", "ghost")

    def test_capacity_charged_to_owner(self, nvmm):
        nvmm.nvmmap("p0", "a", MB(2))
        assert nvmm.device.allocated_by("p0") == MB(2)

    def test_process_regions_sorted(self, nvmm):
        nvmm.nvmmap("p0", "b", 4096)
        nvmm.nvmmap("p0", "a", 4096)
        nvmm.nvmmap("p1", "z", 4096)
        names = [r.name for r in nvmm.process_regions("p0")]
        assert names == ["a", "b"]


class TestRealloc:
    def test_grow_preserves_data(self, nvmm):
        r = nvmm.nvmmap("p0", "d", 4096)
        r.write(0, np.full(4096, 3, dtype=np.uint8))
        r2 = nvmm.nvmrealloc("p0", "d", 8192)
        assert r2 is r
        assert (r.read(0, 4096) == 3).all()
        assert r.nbytes == 8192

    def test_grow_charges_capacity_delta(self, nvmm):
        nvmm.nvmmap("p0", "d", 4096)
        before = nvmm.device.allocated
        nvmm.nvmrealloc("p0", "d", 12288)
        assert nvmm.device.allocated == before + 8192

    def test_shrink_releases(self, nvmm):
        nvmm.nvmmap("p0", "d", 8192)
        before = nvmm.device.allocated
        nvmm.nvmrealloc("p0", "d", 4096)
        assert nvmm.device.allocated == before - 4096

    def test_realloc_unknown_rejected(self, nvmm):
        with pytest.raises(AllocationError):
            nvmm.nvmrealloc("p0", "ghost", 4096)


class TestRestart:
    def test_metadata_lists_known_processes(self, nvmm):
        nvmm.nvmmap("p0", "a", 4096)
        nvmm.nvmmap("p1", "b", 4096)
        assert nvmm.known_processes() == ["p0", "p1"]

    def test_crash_then_load_restores_mapping(self, nvmm, store):
        r = nvmm.nvmmap("p0", "a", 8192)
        r.write(0, np.full(8192, 7, dtype=np.uint8))
        nvmm.cache_flush()
        nvmm.crash_process("p0")
        regions = nvmm.load_process("p0")
        assert (regions["a"].read() == 7).all()

    def test_load_idempotent_for_live_regions(self, nvmm):
        r = nvmm.nvmmap("p0", "a", 4096)
        regions = nvmm.load_process("p0")
        assert regions["a"] is r

    def test_load_detects_missing_data(self, nvmm, store):
        nvmm.nvmmap("p0", "a", 4096)
        nvmm.cache_flush()
        nvmm.crash_process("p0")
        store.delete("p0/a")
        with pytest.raises(PersistenceError):
            nvmm.load_process("p0")

    def test_unflushed_region_orphan_detected_on_remap(self, nvmm, store):
        """If a store region exists without a clean mapping (stale
        leftovers), nvmmap refuses rather than silently aliasing."""
        store.create("p0/a", 4096)
        with pytest.raises(PersistenceError):
            nvmm.nvmmap("p0", "a", 4096)


class TestPhantomRegions:
    def test_phantom_accounts_without_storing(self, nvmm, store):
        r = nvmm.nvmmap("p0", "ph", MB(4), phantom=True)
        assert not store.exists("p0/ph")
        moved = r.write_phantom(0, MB(1))
        assert moved == MB(1)
        assert nvmm.device.wear.bytes_written == MB(1)

    def test_phantom_read_returns_zeros(self, nvmm):
        r = nvmm.nvmmap("p0", "ph", 4096, phantom=True)
        assert not r.read(0, 4096).any()

    def test_phantom_survives_restart_via_metadata(self, nvmm):
        nvmm.nvmmap("p0", "ph", 4096, phantom=True)
        nvmm.cache_flush()
        nvmm.crash_process("p0")
        regions = nvmm.load_process("p0")
        assert regions["ph"].phantom
        assert regions["ph"].nbytes == 4096

    def test_phantom_bounds_checked(self, nvmm):
        from repro.errors import InvalidAddress

        r = nvmm.nvmmap("p0", "ph", 4096, phantom=True)
        with pytest.raises(InvalidAddress):
            r.write_phantom(4000, 200)

    def test_bounds_message_names_the_access(self, nvmm):
        from repro.errors import InvalidAddress

        r = nvmm.nvmmap("p0", "ph", 4096, phantom=True)
        msg = "access [4000, 4200) outside region of 4096 bytes"
        for access in (lambda: r.write_phantom(4000, 200), lambda: r.read(4000, 200)):
            with pytest.raises(InvalidAddress, match=re.escape(msg)):
                access()
        with pytest.raises(InvalidAddress, match=re.escape("access [-1, 9)")):
            r.write(-1, np.zeros(10, dtype=np.uint8))
        r.write(4096 - PAGE_SIZE, np.zeros(PAGE_SIZE, dtype=np.uint8))
        assert nvmm.device.wear.bytes_written == PAGE_SIZE

    def test_mapping_holds_no_per_page_state(self, nvmm):
        """A region is bounds and accounting only: mapping 1 GiB of
        phantom NVM allocates no per-page bitmaps."""
        nvmm.nvmmap("p0", "warm", PAGE_SIZE, phantom=True)
        tracemalloc.start()
        try:
            nvmm.nvmmap("p0", "big", GB(1), phantom=True)
            grown, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grown < 4096


class TestCosts:
    def test_syscalls_accrue_cost(self, nvmm):
        nvmm.nvmmap("p0", "a", 4096)
        nvmm.nvmunmap("p0", "a")
        assert nvmm.syscall_count >= 2
        assert nvmm.accrued_cost > 0

    def test_cache_flush_cost_and_reset(self, nvmm):
        cost = nvmm.cache_flush()
        assert cost > 0
        total = nvmm.take_accrued_cost()
        assert total >= cost
        assert nvmm.take_accrued_cost() == 0.0
