"""The Table-III allocation API: nvalloc/nv2dalloc/nvattach/nvrealloc/
nvdelete, metadata persistence, restart paths."""

import numpy as np
import pytest

from repro.alloc import NVAllocator, genid
from repro.alloc.chunk import batch_commit
from repro.errors import AllocationError, DuplicateChunkId, UnknownChunkId
from repro.memory import MemoryDevice, NVMKernelManager
from repro.config import DRAM_CONFIG
from repro.units import MB


class TestGenid:
    def test_stable(self):
        assert genid("ions") == genid("ions")

    def test_distinct(self):
        assert genid("ions") != genid("electrons")

    def test_48_bit(self):
        assert 0 <= genid("x") < 2**48


class TestNvalloc:
    def test_returns_chunk_with_dram_and_shadows(self, allocator):
        c = allocator.nvalloc("ions", MB(1))
        assert c.nbytes == MB(1)
        assert c.dram is not None
        assert c.n_versions == 2

    def test_duplicate_name_rejected(self, allocator):
        allocator.nvalloc("x", 1024)
        with pytest.raises(DuplicateChunkId):
            allocator.nvalloc("x", 1024)

    def test_nonpositive_size_rejected(self, allocator):
        with pytest.raises(AllocationError):
            allocator.nvalloc("x", 0)

    def test_non_persistent_has_no_shadow(self, allocator):
        c = allocator.nvalloc("scratch", 1024, pflag=False)
        assert c.n_versions == 0
        assert not c.persistent
        assert c not in allocator.persistent_chunks()

    def test_lookup_by_name_and_id(self, allocator):
        c = allocator.nvalloc("x", 1024)
        assert allocator.chunk("x") is c
        assert allocator.chunk(c.chunk_id) is c
        assert allocator.has_chunk("x")
        assert not allocator.has_chunk("ghost")

    def test_unknown_lookup(self, allocator):
        with pytest.raises(UnknownChunkId):
            allocator.chunk("ghost")
        with pytest.raises(UnknownChunkId):
            allocator.chunk(12345)

    def test_chunks_ordered_by_id(self, allocator):
        for name in ("zeta", "alpha", "mid"):
            allocator.nvalloc(name, 1024)
        ids = [c.chunk_id for c in allocator.chunks()]
        assert ids == sorted(ids)

    def test_checkpoint_bytes_sums_persistent_only(self, allocator):
        allocator.nvalloc("a", MB(1))
        allocator.nvalloc("b", MB(2))
        allocator.nvalloc("scratch", MB(4), pflag=False)
        assert allocator.checkpoint_bytes == MB(3)


class TestNv2dAllocAndAttach:
    def test_nv2dalloc_sizes_for_dtype(self, allocator):
        c = allocator.nv2dalloc("grid", 100, 200, dtype=np.float64)
        assert c.nbytes == 100 * 200 * 8
        assert c.view(np.float64, shape=(100, 200)).shape == (100, 200)

    def test_nvattach_copies_source(self, allocator):
        src = np.arange(256, dtype=np.float32)
        c = allocator.nvattach("existing", src)
        assert np.array_equal(c.view(np.float32), src)
        assert c.persistent

    def test_nvattach_2d_source(self, allocator):
        src = np.ones((16, 16))
        c = allocator.nvattach("m", src)
        assert c.nbytes == src.nbytes


class TestNvRealloc:
    def test_grow_preserves_data(self, allocator):
        c = allocator.nvalloc("x", 1024)
        c.write(0, np.arange(128, dtype=np.float64))
        allocator.nvrealloc("x", 2048)
        assert c.nbytes == 2048
        assert np.array_equal(c.view(np.float64)[:128], np.arange(128))

    def test_shrink(self, allocator):
        c = allocator.nvalloc("x", 2048)
        allocator.nvrealloc("x", 1024)
        assert c.nbytes == 1024
        assert c.versions[0].nbytes == 1024

    def test_same_size_noop(self, allocator):
        c = allocator.nvalloc("x", 1024)
        assert allocator.nvrealloc("x", 1024) is c

    def test_realloc_marks_dirty(self, allocator):
        c = allocator.nvalloc("x", 1024)
        c.dirty_local = False
        allocator.nvrealloc("x", 2048)
        assert c.dirty_local

    def test_invalid_size(self, allocator):
        allocator.nvalloc("x", 1024)
        with pytest.raises(AllocationError):
            allocator.nvrealloc("x", 0)


class TestNvDelete:
    def test_delete_removes_everything(self, allocator, ctx):
        c = allocator.nvalloc("x", MB(1))
        nvm_before = ctx.nvm.allocated
        allocator.nvdelete("x")
        assert not allocator.has_chunk("x")
        assert ctx.nvm.allocated == nvm_before - 2 * MB(1)

    def test_name_reusable_after_delete(self, allocator):
        allocator.nvalloc("x", 1024)
        allocator.nvdelete("x")
        c = allocator.nvalloc("x", 2048)
        assert c.nbytes == 2048

    def test_delete_unknown(self, allocator):
        with pytest.raises(UnknownChunkId):
            allocator.nvdelete("ghost")


class TestRestartPaths:
    def _commit_all(self, allocator, ctx):
        for c in allocator.persistent_chunks():
            c.stage_to_nvm()
        ctx.nvmm.cache_flush()
        batch_commit(allocator.persistent_chunks())
        allocator._persist_metadata()
        ctx.nvmm.cache_flush()

    def test_eager_restart_restores_all_chunks(self, allocator, ctx):
        data = np.arange(512, dtype=np.float64)
        allocator.nvalloc("a", 4096).write(0, data)
        allocator.nvalloc("b", 2048)
        self._commit_all(allocator, ctx)
        ctx.nvmm.store.crash()
        ctx.nvmm.crash_process("p0")
        re = NVAllocator.restart("p0", ctx.nvmm, MemoryDevice(DRAM_CONFIG))
        assert np.array_equal(re.chunk("a").view(np.float64)[:512], data)
        assert re.chunk("b").nbytes == 2048

    def test_nvalloc_pflag_reload_path(self, allocator, ctx):
        data = np.full(100, 3.25)
        allocator.nvalloc("a", 4096).write(0, data)
        self._commit_all(allocator, ctx)
        ctx.nvmm.store.crash()
        ctx.nvmm.crash_process("p0")
        fresh = NVAllocator("p0", ctx.nvmm, MemoryDevice(DRAM_CONFIG))
        c = fresh.nvalloc("a", 4096, pflag=True)
        assert np.array_equal(c.view(np.float64)[:100], data)
        assert c.committed_version == 0

    def test_nvalloc_reload_size_mismatch_rejected(self, allocator, ctx):
        allocator.nvalloc("a", 4096)
        self._commit_all(allocator, ctx)
        ctx.nvmm.crash_process("p0")
        fresh = NVAllocator("p0", ctx.nvmm, MemoryDevice(DRAM_CONFIG))
        with pytest.raises(AllocationError):
            fresh.nvalloc("a", 8192, pflag=True)

    def test_restart_without_metadata_rejected(self, ctx):
        with pytest.raises(UnknownChunkId):
            NVAllocator.restart("ghost", ctx.nvmm, MemoryDevice(DRAM_CONFIG))

    def test_uncommitted_chunk_restarts_empty(self, allocator, ctx):
        c = allocator.nvalloc("a", 4096)
        c.write(0, np.full(10, 9, dtype=np.uint8))
        allocator._persist_metadata()
        ctx.nvmm.cache_flush()  # metadata durable, data never staged
        ctx.nvmm.store.crash()
        ctx.nvmm.crash_process("p0")
        re = NVAllocator.restart("p0", ctx.nvmm, MemoryDevice(DRAM_CONFIG))
        assert re.chunk("a").committed_version == -1
        assert not re.chunk("a").view()[:10].any()

    def test_phantom_roundtrip(self, ctx, phantom_allocator):
        phantom_allocator.nvalloc("ph", MB(2)).touch()
        self._commit_all(phantom_allocator, ctx)
        ctx.nvmm.crash_process("p0")
        re = NVAllocator.restart("p0", ctx.nvmm, MemoryDevice(DRAM_CONFIG))
        assert re.chunk("ph").phantom
        assert re.chunk("ph").nbytes == MB(2)


class TestMetadataCost:
    """An allocation writes its own metadata record, not the process's
    tables — and the tables it leaves read exactly like a rewrite."""

    @staticmethod
    def copied_leaves(monkeypatch, fn):
        """Leaf values the persistent store copies while *fn* runs:
        every value handed to its copy function, counted by its leaves
        (the copy recurses through the same name, so only the outermost
        call of each counts) — host-speed independent."""
        from repro.memory import persistence

        copy = persistence._json_copy
        total, depth = [0], [0]

        def leaves(value):
            if isinstance(value, dict):
                return sum(map(leaves, value.values()))
            if isinstance(value, (list, tuple)):
                return sum(map(leaves, value))
            return 1

        def counting(value):
            if not depth[0]:
                total[0] += leaves(value)
            depth[0] += 1
            try:
                return copy(value)
            finally:
                depth[0] -= 1

        with monkeypatch.context() as m:
            m.setattr(persistence, "_json_copy", counting)
            fn()
        return total[0]

    @staticmethod
    def allocate(ctx, n):
        alloc = NVAllocator("p0", ctx.nvmm, ctx.dram, phantom=True)
        for i in range(n):
            alloc.nvalloc(f"chunk{i:04d}", 4096)
        return alloc

    def test_allocating_twice_the_chunks_serialises_about_twice_the_bytes(
        self, monkeypatch
    ):
        from repro.core.context import make_standalone_context

        def cost(n):
            ctx = make_standalone_context(name=f"meta{n}")
            return self.copied_leaves(monkeypatch, lambda: self.allocate(ctx, n))

        small, large = cost(100), cost(200)
        assert small > 0
        assert large <= 2.5 * small  # ~4x when every nvalloc rewrote both tables

    def test_gtc_cell_metadata_bytes_grow_linearly(self, monkeypatch):
        from repro.exec.cell import run_cell
        from tests.conftest import gtc_cell

        def cost(small_chunks):
            cell = gtc_cell(small_chunks)
            return self.copied_leaves(monkeypatch, lambda: run_cell(cell))

        small, large = cost(96), cost(192)
        assert small > 0
        assert large <= 2.5 * small

    # one record of the region table / the chunk table, in leaf values
    REGION_LEAVES = 2  # size, phantom
    CHUNK_LEAVES = 8  # id, size, persistent, phantom, n_versions, committed, 2 checksums

    @pytest.mark.parametrize("n,commit_leaves", [(31, 496), (62, 992)])
    def test_nvalloc_and_commit_copy_what_they_wrote_twice(
        self, monkeypatch, n, commit_leaves
    ):
        """The copy budget, pinned exactly: a write copies its records
        once into the store and the flush once more to the durable side
        — one ``nvalloc`` its own three records however many chunks
        exist, one coordinated commit the rank's chunk table."""
        from repro.config import PrecopyPolicy
        from repro.core import LocalCheckpointer
        from repro.core.context import make_standalone_context

        ctx = make_standalone_context(name=f"budget{n}")
        alloc = self.allocate(ctx, n - 1)
        ctx.nvmm.cache_flush()
        written = 2 * self.REGION_LEAVES + self.CHUNK_LEAVES  # two versions + the chunk

        def one_nvalloc():
            alloc.nvalloc("last", 4096)
            ctx.nvmm.cache_flush()

        assert self.copied_leaves(monkeypatch, one_nvalloc) == 2 * written
        ck = LocalCheckpointer(ctx, alloc, PrecopyPolicy(mode="none"))
        assert commit_leaves == 2 * n * self.CHUNK_LEAVES
        assert self.copied_leaves(monkeypatch, ck.checkpoint) == commit_leaves

    def test_tables_read_like_a_whole_rewrite(self, ctx):
        alloc = self.allocate(ctx, 5)
        alloc.nvrealloc("chunk0001", 8192)
        alloc.nvdelete("chunk0003")
        store = ctx.nvmm.store
        by_entries = store.get_meta("alloc/proc:p0")
        alloc._persist_metadata()
        assert store.get_meta("alloc/proc:p0") == by_entries
        assert sorted(by_entries["chunks"]) == [
            "chunk0000", "chunk0001", "chunk0002", "chunk0004"
        ]
        assert by_entries["chunks"]["chunk0001"]["size"] == 8192
        regions = store.get_meta("nvmm/proc:p0")["regions"]
        assert sorted(regions) == sorted(
            f"{name}#v{v}" for name in by_entries["chunks"] for v in (0, 1)
        )
        assert regions["chunk0001#v0"] == {"size": 8192, "phantom": True}

    def test_unflushed_allocation_dies_alone_on_crash(self, ctx):
        alloc = self.allocate(ctx, 2)
        ctx.nvmm.cache_flush()
        alloc.nvalloc("late", 4096)
        alloc.nvdelete("chunk0000")
        ctx.nvmm.store.crash()
        assert sorted(ctx.nvmm.store.get_meta("alloc/proc:p0")["chunks"]) == [
            "chunk0000", "chunk0001"
        ]
        assert "late#v0" not in ctx.nvmm.store.get_meta("nvmm/proc:p0")["regions"]
