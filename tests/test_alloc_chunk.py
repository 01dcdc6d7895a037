"""Chunks: write barrier, dirt/protection, versioning, checksums."""

import numpy as np
import pytest

from repro.alloc.chunk import Chunk, ChunkState, batch_commit
from repro.errors import CheckpointError
from repro.memory import InMemoryStore, NVMKernelManager


def make_chunk(nbytes=8192, n_versions=2, phantom=False, clock=None):
    store = InMemoryStore()
    nvmm = NVMKernelManager(store=store)
    versions = [
        nvmm.nvmmap("p0", f"c#v{i}", nbytes, phantom=phantom) for i in range(n_versions)
    ]
    chunk = Chunk(
        chunk_id=1,
        name="c",
        nbytes=nbytes,
        phantom=phantom,
        dram_buffer=None if phantom else np.zeros(nbytes, dtype=np.uint8),
        nvm_versions=versions,
        clock=clock or (lambda: 0.0),
    )
    return chunk, nvmm


class TestWriteBarrier:
    def test_write_stores_bytes(self):
        chunk, _ = make_chunk()
        chunk.write(0, np.arange(100, dtype=np.float64))
        assert np.array_equal(chunk.view(np.float64)[:100], np.arange(100))

    def test_write_marks_both_dirty_bits(self):
        chunk, _ = make_chunk()
        chunk.dirty_local = chunk.dirty_remote = False
        chunk.write(0, b"\x01")
        assert chunk.dirty_local and chunk.dirty_remote

    def test_write_counts_mods(self):
        chunk, _ = make_chunk()
        before = chunk.total_mods
        chunk.write(0, b"\x01")
        chunk.write(1, b"\x02")
        assert chunk.total_mods == before + 2
        assert chunk.mods_this_interval == 2

    def test_protected_write_takes_exactly_one_fault(self):
        chunk, _ = make_chunk()
        chunk.mark_precopied("local")
        assert chunk.write(0, b"\x01") == 1
        assert chunk.write(1, b"\x02") == 0  # chunk already unprotected
        assert chunk.fault_count == 1

    def test_unprotected_write_no_fault(self):
        chunk, _ = make_chunk()
        assert chunk.write(0, b"\x01") == 0

    def test_out_of_bounds_write(self):
        chunk, _ = make_chunk(nbytes=16)
        with pytest.raises(CheckpointError):
            chunk.write(8, np.zeros(16, dtype=np.uint8))

    def test_observers_called(self):
        seen = []
        chunk, _ = make_chunk(clock=lambda: 42.0)
        chunk.on_dirty.append(lambda c, t: seen.append((c.name, t)))
        chunk.write(0, b"\x01")
        assert seen == [("c", 42.0)]

    def test_view_is_read_only(self):
        chunk, _ = make_chunk()
        v = chunk.view(np.float64)
        with pytest.raises(ValueError):
            v[0] = 1.0

    def test_view_shape(self):
        chunk, _ = make_chunk(nbytes=8 * 12)
        v = chunk.view(np.float64, shape=(3, 4))
        assert v.shape == (3, 4)

    def test_phantom_write_rejected_touch_works(self):
        chunk, _ = make_chunk(phantom=True)
        with pytest.raises(CheckpointError):
            chunk.write(0, b"\x01")
        chunk.dirty_local = False
        chunk.touch()
        assert chunk.dirty_local

    @pytest.mark.parametrize(
        "nbytes, offset",
        [(5000, 8000), (100, -50), (-1, 0), (None, 1)],
        ids=["beyond-end", "negative-offset", "negative-length", "whole-chunk-shifted"],
    )
    def test_touch_outside_the_chunk_is_rejected(self, nbytes, offset):
        """``touch`` checks its range as ``write`` does: no clipping, and
        a rejected touch neither counts a modification nor dirties."""
        chunk, _ = make_chunk(nbytes=10_000, phantom=True)
        chunk.mark_clean("local")
        chunk.mark_clean("remote")
        chunk.mark_extents_copied("local", None, slot=0)
        mods = chunk.total_mods
        with pytest.raises(CheckpointError, match="outside 10000 bytes"):
            chunk.touch(nbytes, offset=offset)
        assert chunk.total_mods == mods and chunk.mods_this_interval == 0
        assert not chunk.dirty_local and not chunk.dirty_remote
        assert chunk.copy_extents("local", slot=0) == []

    def test_page_state_does_not_grow_with_the_chunk(self):
        """A 410 MB phantom chunk's local and remote page state is a few
        page runs per slot, not a bitmap of its 105 k pages per slot."""
        import tracemalloc

        from repro.memory import page

        tracemalloc.start(8)
        try:
            chunk, _ = make_chunk(nbytes=410 * 2**20, phantom=True)
            chunk.ensure_remote_slots(2)
            chunk.mark_extents_copied("local", None, slot=1)
            chunk.touch(3 * 4096, offset=5 * 4096)
            held = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        # whatever was allocated under a page.py frame and is still held
        held = held.filter_traces([tracemalloc.Filter(True, page.__file__, all_frames=True)])
        assert sum(trace.size for trace in held.traces) < 4096
        assert chunk.copy_extents("local", slot=1) == [(5 * 4096, 3 * 4096)]

    def test_dropped_stale_map_is_never_rebuilt_or_invented(self):
        """A stream whose map was dropped marks nothing on writes, gets
        no map from ``ensure_remote_slots``, and reading its extents
        raises instead of reporting an all-stale chunk."""
        chunk, _ = make_chunk(nbytes=10 * 4096, phantom=True)
        chunk.drop_stale_map("local")
        chunk.drop_stale_map("remote")
        chunk.ensure_remote_slots(2)
        chunk.touch(4096, offset=0)
        chunk.mark_all_stale()
        for stream in ("local", "remote"):
            with pytest.raises(ValueError, match=f"no {stream!r} stale map"):
                chunk.copy_extents(stream)
            with pytest.raises(ValueError, match=f"no {stream!r} stale map"):
                chunk.mark_extents_copied(stream, [(0, 4096)])
            # a whole-chunk copy has nothing to clear
            chunk.mark_extents_copied(stream, None, slot=0)
        assert chunk.stage_to_nvm() == 10 * 4096

    def test_remote_map_of_an_undropped_stream_is_not_invented(self):
        """Before a buddy target adopts the chunk there is no remote map
        to read or clear, dropped or not."""
        chunk, _ = make_chunk(phantom=True)
        with pytest.raises(ValueError, match="no 'remote' stale map"):
            chunk.copy_extents("remote")
        with pytest.raises(ValueError, match="no 'remote' stale map"):
            chunk.mark_extents_copied("remote", None)

    def test_phantom_read_rejected(self):
        chunk, _ = make_chunk(phantom=True)
        with pytest.raises(CheckpointError):
            chunk.view()


class TestVersioning:
    def test_fresh_chunk_has_no_committed_version(self):
        chunk, _ = make_chunk()
        assert chunk.committed_version == -1
        with pytest.raises(CheckpointError):
            chunk.committed_region()

    def test_commit_flips_between_slots(self):
        chunk, _ = make_chunk()
        assert chunk.inprogress_index() == 0
        chunk.stage_to_nvm()
        batch_commit([chunk])
        assert chunk.committed_version == 0
        assert chunk.inprogress_index() == 1
        chunk.stage_to_nvm()
        batch_commit([chunk])
        assert chunk.committed_version == 1
        assert chunk.inprogress_index() == 0

    def test_commit_preserves_old_version_data(self):
        chunk, _ = make_chunk()
        chunk.write(0, np.full(10, 1, dtype=np.uint8))
        chunk.stage_to_nvm()
        batch_commit([chunk])
        v0 = chunk.committed_region()
        chunk.write(0, np.full(10, 2, dtype=np.uint8))
        chunk.stage_to_nvm()  # goes to slot 1
        assert (v0.read(0, 10) == 1).all()

    def test_stage_requires_regions(self):
        chunk = Chunk(chunk_id=1, name="x", nbytes=8, dram_buffer=np.zeros(8, dtype=np.uint8))
        with pytest.raises(CheckpointError):
            chunk.stage_to_nvm()

    def test_restore_from_committed(self):
        chunk, _ = make_chunk()
        data = np.arange(1024, dtype=np.float64)
        chunk.write(0, data)
        chunk.stage_to_nvm()
        batch_commit([chunk])
        chunk.write(0, np.zeros(1024, dtype=np.float64))
        chunk.restore_from_committed()
        assert np.array_equal(chunk.view(np.float64), data)

    def test_bytes_copied_accounting(self):
        chunk, _ = make_chunk(nbytes=4096)
        chunk.stage_to_nvm()
        chunk.stage_to_nvm()
        assert chunk.bytes_copied_local == 8192


class TestChecksums:
    def test_checksum_verifies_after_commit(self):
        chunk, _ = make_chunk()
        chunk.write(0, np.arange(100, dtype=np.float64))
        chunk.stage_to_nvm()
        batch_commit([chunk])
        assert chunk.verify_checksum()

    def test_checksum_detects_corruption(self):
        chunk, nvmm = make_chunk()
        chunk.write(0, np.arange(100, dtype=np.float64))
        chunk.stage_to_nvm()
        batch_commit([chunk])
        # corrupt the committed NVM bytes behind the chunk's back
        nvmm.store.write("p0/c#v0", 0, np.full(8, 0xFF, dtype=np.uint8))
        assert not chunk.verify_checksum()

    def test_no_committed_version_fails_verification(self):
        chunk, _ = make_chunk()
        assert not chunk.verify_checksum()

    def test_phantom_checksum(self):
        chunk, _ = make_chunk(phantom=True)
        chunk.stage_to_nvm()  # a phantom stage writes phantom bytes
        batch_commit([chunk])
        assert chunk.verify_checksum()


class TestStateAndIntervals:
    def test_per_stream_state_independent(self):
        chunk, _ = make_chunk()
        chunk.set_state("local", ChunkState.CHECKPOINTING)
        assert chunk.get_state("remote") is ChunkState.IDLE
        chunk.set_state("remote", ChunkState.PRECOPYING)
        assert chunk.get_state("local") is ChunkState.CHECKPOINTING

    def test_begin_interval_resets_counter(self):
        chunk, _ = make_chunk()
        chunk.write(0, b"\x01")
        chunk.begin_interval()
        assert chunk.mods_this_interval == 0
        assert chunk.total_mods > 1  # lifetime counter untouched

    def test_mark_precopied_streams(self):
        chunk, _ = make_chunk()
        chunk.mark_precopied("local")
        assert not chunk.dirty_local and chunk.dirty_remote
        chunk.mark_precopied("remote")
        assert not chunk.dirty_remote
        assert chunk.protected

    def test_mark_precopied_unknown_stream(self):
        chunk, _ = make_chunk()
        with pytest.raises(ValueError):
            chunk.mark_precopied("sideways")
