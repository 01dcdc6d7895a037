"""Lazy restart: NVM-resident chunks, in-place reads, copy-on-write
migration (§IV read path / §VIII recovery optimization)."""

import numpy as np
import pytest

from repro.core import NVMCheckpoint
from repro.errors import CheckpointError
from repro.memory import InMemoryStore
from repro.units import MB


@pytest.fixture
def checkpointed_store():
    store = InMemoryStore()
    app = NVMCheckpoint("p", store=store)
    data = np.arange(MB(2) // 8, dtype=np.float64)
    app.nvalloc("x", MB(2)).write(0, data)
    app.nvalloc("y", MB(1)).write(0, np.ones(MB(1) // 8))
    app.nvchkptall()
    app.crash()
    return store, data


class TestLazyRestartSemantics:
    def test_restart_is_near_instant(self, checkpointed_store):
        store, _ = checkpointed_store
        eager_app, eager_rep = NVMCheckpoint.restart("p", store)
        store2 = store  # same store: restart again lazily
        lazy_app, lazy_rep = NVMCheckpoint.restart("p", store2, lazy=True)
        assert lazy_rep.chunks_lazy == 2
        assert lazy_rep.bytes_local == 0  # nothing copied
        # lazy restart pays only the verification read (~4x cheaper
        # than the eager copy-back)
        assert lazy_rep.duration < eager_rep.duration / 2

    def test_resident_reads_serve_committed_data(self, checkpointed_store):
        store, data = checkpointed_store
        app, rep = NVMCheckpoint.restart("p", store, lazy=True)
        x = app.chunk("x")
        assert x.nvm_resident
        assert np.array_equal(x.view(np.float64), data)
        assert np.array_equal(x.view(np.float64)[:10], data[:10])
        assert x.nvm_resident  # reads do not migrate

    def test_view_is_read_only_while_resident(self, checkpointed_store):
        store, _ = checkpointed_store
        app, _ = NVMCheckpoint.restart("p", store, lazy=True)
        v = app.chunk("x").view(np.float64)
        with pytest.raises(ValueError):
            v[0] = 1.0

    def test_first_write_migrates_and_applies(self, checkpointed_store):
        store, data = checkpointed_store
        app, _ = NVMCheckpoint.restart("p", store, lazy=True)
        x = app.chunk("x")
        x.write(0, np.full(10, -1.0))
        assert not x.nvm_resident
        got = x.view(np.float64)
        assert (got[:10] == -1.0).all()
        assert np.array_equal(got[10:], data[10:])  # rest preserved by COW
        assert x.take_migration_bytes() == MB(2)
        assert x.take_migration_bytes() == 0  # reset after take

    def test_migration_observer_fires(self, checkpointed_store):
        store, _ = checkpointed_store
        app, _ = NVMCheckpoint.restart("p", store, lazy=True)
        x = app.chunk("x")
        seen = []
        x.on_migrate.append(lambda c, n: seen.append((c.name, n)))
        x.write(0, b"\x01")
        assert seen == [("x", MB(2))]

    def test_migration_counts_as_fault(self, checkpointed_store):
        store, _ = checkpointed_store
        app, _ = NVMCheckpoint.restart("p", store, lazy=True)
        x = app.chunk("x")
        assert x.protected  # restore_lazy write-protects
        faults = x.write(0, b"\x01")
        assert faults == 1

    def test_resident_chunks_skipped_by_checkpoint(self, checkpointed_store):
        store, _ = checkpointed_store
        app, _ = NVMCheckpoint.restart("p", store, lazy=True)
        stats = app.nvchkptall()
        assert stats.chunks_copied == 0
        assert stats.chunks_skipped == 2
        assert app.chunk("x").nvm_resident  # untouched chunks stay put

    def test_written_resident_chunk_recheckpoints(self, checkpointed_store):
        store, _ = checkpointed_store
        app, _ = NVMCheckpoint.restart("p", store, lazy=True)
        app.chunk("x").write(0, np.full(10, 5.0))
        stats = app.nvchkptall()
        assert stats.chunks_copied == 1
        assert app.chunk("x").committed_version == 1

    def test_crash_after_lazy_restart_loses_nothing(self, checkpointed_store):
        store, data = checkpointed_store
        app, _ = NVMCheckpoint.restart("p", store, lazy=True)
        app.crash()
        app2, _ = NVMCheckpoint.restart("p", store)
        assert np.array_equal(app2.chunk("x").view(np.float64), data)

    def test_restore_lazy_requires_committed(self, ctx):
        from repro.alloc import NVAllocator

        alloc = NVAllocator("q", ctx.nvmm, ctx.dram)
        c = alloc.nvalloc("fresh", 1024)
        with pytest.raises(CheckpointError):
            c.restore_lazy()

    def test_stage_of_resident_chunk_migrates_first(self, checkpointed_store):
        store, data = checkpointed_store
        app, _ = NVMCheckpoint.restart("p", store, lazy=True)
        x = app.chunk("x")
        x.stage_to_nvm()
        assert not x.nvm_resident
        assert np.array_equal(x.view(np.float64), data)


class TestLazyRestartProtection:
    """Regression: the restart manager's lazy branch must re-protect
    verified NVM-resident chunks, and charge the checksum-verify read
    symmetrically on both restart paths."""

    def test_lazy_restart_reprotects_verified_chunks(self, checkpointed_store):
        store, _ = checkpointed_store
        app, rep = NVMCheckpoint.restart("p", store, lazy=True)
        assert rep.chunks_lazy == 2
        for name in ("x", "y"):
            c = app.chunk(name)
            assert c.nvm_resident
            assert c.protected, (
                f"lazy restart left {name!r} unprotected: its first write "
                "would neither fault nor migrate, so pre-copy never sees it"
            )
            # the first write faults exactly once and migrates
            assert c.write(0, b"\x01") == 1
            assert not c.nvm_resident

    def test_bytes_verified_charged_on_both_paths(self, checkpointed_store):
        store, _ = checkpointed_store
        _, eager_rep = NVMCheckpoint.restart("p", store)
        _, lazy_rep = NVMCheckpoint.restart("p", store, lazy=True)
        total = MB(2) + MB(1)
        assert eager_rep.bytes_verified == total
        assert lazy_rep.bytes_verified == total

    def test_eager_restart_pays_verify_plus_copy(self, checkpointed_store):
        """The verify read (nbytes/4 on the NVM bus) is charged before
        the eager copy-back, so eager duration strictly exceeds the
        copy alone and the lazy path costs exactly the verify read."""
        store, _ = checkpointed_store
        _, eager_rep = NVMCheckpoint.restart("p", store)
        _, lazy_rep = NVMCheckpoint.restart("p", store, lazy=True)
        assert lazy_rep.duration > 0.0
        # eager = verify + full copy ~= 5x the lazy verify-only cost
        assert eager_rep.duration == pytest.approx(5 * lazy_rep.duration, rel=0.01)


class TestLazyRestartAccounting:
    def test_binding_charges_migration_time(self, ctx):
        from repro.apps import RankBinding
        from repro.alloc import NVAllocator

        alloc = NVAllocator("r0", ctx.nvmm, ctx.dram, phantom=True)
        binding = RankBinding(rank="r0", node_id=0, allocator=alloc, engine=ctx.engine)
        cost = binding.charge_migration(MB(200))
        assert cost == pytest.approx(MB(200) / binding.migration_rate)
        assert binding.migration_time == pytest.approx(cost)

    def test_phantom_lazy_roundtrip(self, ctx):
        from repro.alloc import NVAllocator
        from repro.config import PrecopyPolicy
        from repro.core import LocalCheckpointer

        alloc = NVAllocator("r0", ctx.nvmm, ctx.dram, phantom=True)
        c = alloc.nvalloc("ph", MB(4))
        ck = LocalCheckpointer(ctx, alloc, PrecopyPolicy(mode="none"))
        ck.checkpoint()
        c.restore_lazy()
        assert c.nvm_resident
        c.touch()
        assert not c.nvm_resident
        assert c.take_migration_bytes() == MB(4)
