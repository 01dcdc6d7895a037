"""The Table-III synchronous facade: NVMCheckpoint."""

import numpy as np
import pytest

from repro.config import CheckpointConfig, PrecopyPolicy
from repro.core import NVMCheckpoint
from repro.errors import DuplicateChunkId, UnknownChunkId
from repro.units import MB


@pytest.fixture
def app(store):
    return NVMCheckpoint("proc0", store=store)


class TestAllocationVerbs:
    def test_genid_matches_module(self, app):
        from repro.alloc import genid

        assert NVMCheckpoint.genid("x") == genid("x")

    def test_nvalloc_and_chunk(self, app):
        c = app.nvalloc("x", MB(1))
        assert app.chunk("x") is c
        assert app.checkpoint_bytes == MB(1)

    def test_nv2dalloc(self, app):
        c = app.nv2dalloc("grid", 64, 64)
        assert c.nbytes == 64 * 64 * 8

    def test_nvattach(self, app):
        src = np.arange(100, dtype=np.float64)
        c = app.nvattach("att", src)
        assert np.array_equal(c.view(np.float64), src)

    def test_nvrealloc_and_delete(self, app):
        app.nvalloc("x", 1024)
        assert app.nvrealloc("x", 2048).nbytes == 2048
        app.nvdelete("x")
        with pytest.raises(UnknownChunkId):
            app.chunk("x")

    def test_duplicate_alloc_rejected(self, app):
        app.nvalloc("x", 1024)
        with pytest.raises(DuplicateChunkId):
            app.nvalloc("x", 1024)


class TestCheckpointVerbs:
    def test_nvchkptall_advances_clock(self, app):
        app.nvalloc("x", MB(4))
        t0 = app.now
        stats = app.nvchkptall()
        assert app.now > t0
        assert stats.chunks_copied == 1

    def test_nvchkptid_single(self, app):
        app.nvalloc("x", MB(1))
        app.nvalloc("y", MB(1))
        stats = app.nvchkptid("x")
        assert stats.chunks_copied == 1
        assert app.chunk("y").committed_version == -1

    def test_repeated_checkpoints_skip_clean(self, app):
        app.nvalloc("x", MB(1))
        app.nvchkptall()
        stats = app.nvchkptall()
        assert stats.chunks_copied == 0

    def test_stats_summary_keys(self, app):
        app.nvalloc("x", MB(1))
        app.nvchkptall()
        s = app.stats_summary()
        assert s["checkpoints"] == 1
        assert s["coordinated_bytes"] == MB(1)
        assert s["nvm_bytes_written"] >= MB(1)
        assert 0 <= s["nvm_endurance_used"] < 1


class TestCrashRestart:
    def test_full_cycle(self, store):
        app = NVMCheckpoint("p", store=store)
        data = np.linspace(0, 1, 1000)
        app.nvalloc("x", data.nbytes).write(0, data)
        app.nvchkptall()
        app.chunk("x").write(0, np.zeros(1000))  # post-ckpt garbage
        app.crash()
        app2, report = NVMCheckpoint.restart("p", store)
        assert report.chunks_local == 1
        assert np.array_equal(app2.chunk("x").view(np.float64), data)

    def test_restart_without_checkpoint_fails(self, store):
        from repro.errors import ReproError

        app = NVMCheckpoint("p", store=store)
        app.nvalloc("x", 1024)
        app.crash()
        with pytest.raises(ReproError):
            NVMCheckpoint.restart("p", store)

    def test_restarted_app_can_checkpoint_again(self, store):
        app = NVMCheckpoint("p", store=store)
        app.nvalloc("x", 1024).write(0, np.ones(128))
        app.nvchkptall()
        app.crash()
        app2, _ = NVMCheckpoint.restart("p", store)
        app2.chunk("x").write(0, np.full(128, 2.0))
        stats = app2.nvchkptall()
        assert stats.chunks_copied == 1
        assert app2.chunk("x").committed_version == 1

    def test_two_processes_share_a_store(self, store):
        a = NVMCheckpoint("pa", store=store, node_config=None)
        b = NVMCheckpoint("pb", store=store)
        a.nvalloc("x", 1024).write(0, np.ones(128))
        b.nvalloc("x", 1024).write(0, np.full(128, 2.0))
        a.nvchkptall()
        b.nvchkptall()
        a.crash()
        a2, _ = NVMCheckpoint.restart("pa", store)
        assert (a2.chunk("x").view(np.float64) == 1.0).all()


class TestConfiguration:
    def test_custom_policy(self, store):
        cfg = CheckpointConfig(precopy=PrecopyPolicy(mode="none"))
        app = NVMCheckpoint("p", store=store, checkpoint_config=cfg)
        assert app.checkpointer.policy.mode == "none"

    def test_phantom_mode(self, store):
        app = NVMCheckpoint("p", store=store, phantom=True)
        c = app.nvalloc("x", MB(100))
        assert c.phantom
        c.touch()
        stats = app.nvchkptall()
        assert stats.bytes_copied == MB(100)
