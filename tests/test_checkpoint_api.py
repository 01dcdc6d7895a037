"""The unified ``checkpoint()`` verb, deprecation shims, and uniform
``ChunkKey`` resolution across the Table-III facade."""

import numpy as np
import pytest

from repro import NVMCheckpoint
from repro.alloc import NVAllocator
from repro.config import PrecopyPolicy
from repro.core import LocalCheckpointer, make_standalone_context
from repro.core.engine import CheckpointStats
from repro.core.transparent import TransparentCheckpointer
from repro.errors import AllocationError, UnknownChunkId
from repro.units import MB


def make_local_rig(mode="dcpcp"):
    ctx = make_standalone_context(name="api")
    alloc = NVAllocator("p0", ctx.nvmm, ctx.dram, phantom=True,
                        clock=lambda: ctx.engine.now)
    ck = LocalCheckpointer(ctx, alloc, PrecopyPolicy(mode=mode))
    return ctx, alloc, ck


class TestUnifiedCheckpointVerb:
    def test_blocking_default_returns_stats(self):
        ctx, alloc, ck = make_local_rig()
        alloc.nvalloc("a", MB(4))
        stats = ck.checkpoint()
        assert isinstance(stats, CheckpointStats)
        assert stats.chunks_copied == 1

    def test_nonblocking_returns_des_generator(self):
        ctx, alloc, ck = make_local_rig()
        alloc.nvalloc("a", MB(4))
        gen = ck.checkpoint(blocking=False)
        assert hasattr(gen, "send")  # a generator, not stats
        proc = ctx.engine.process(gen)
        ctx.engine.run()
        assert proc.value.chunks_copied == 1

    def test_blocking_only_subset(self):
        ctx, alloc, ck = make_local_rig()
        a = alloc.nvalloc("a", MB(4))
        alloc.nvalloc("b", MB(4))
        stats = ck.checkpoint(only=[a])
        assert stats.chunks_copied == 1
        assert stats.bytes_copied == MB(4)

    def test_legacy_sync_alias_is_gone(self):
        """The 1.0 DeprecationWarning shim was removed in 1.1.0: the
        old spelling fails loudly instead of warning."""
        ctx, alloc, ck = make_local_rig()
        alloc.nvalloc("a", MB(4))
        assert not hasattr(ck, "checkpoint_" + "sync")
        ctx2 = make_standalone_context(name="xp")
        tc = TransparentCheckpointer(ctx2, "p0", MB(8))
        assert not hasattr(tc, "checkpoint_" + "sync")
        # the unified verb stays warning-free
        tc.mark_activity()
        assert tc.checkpoint().bytes_copied == MB(8)

    def test_facade_checkpoint_all_and_single(self):
        app = NVMCheckpoint("p0")
        app.nvalloc("a", MB(2))
        app.nvalloc("b", MB(2))
        all_stats = app.checkpoint()
        assert all_stats.chunks_copied == 2
        app.chunk("a").touch()
        app.chunk("b").touch()
        one = app.checkpoint("a")
        assert one.chunks_copied == 1
        assert one.bytes_copied == MB(2)

    def test_nvchkpt_aliases_route_through_unified_verb(self):
        app = NVMCheckpoint("p0")
        app.nvalloc("a", MB(2))
        assert app.nvchkptall().chunks_copied == 1
        app.chunk("a").touch()
        assert app.nvchkptid("a").chunks_copied == 1


class TestChunkKeyResolution:
    def setup_method(self):
        self.app = NVMCheckpoint("p0")
        self.chunk = self.app.nvalloc("temp", MB(1))

    def test_int_and_str_keys_are_interchangeable(self):
        cid = NVMCheckpoint.genid("temp")
        assert self.app.chunk("temp") is self.app.chunk(cid)
        assert self.app.nvrealloc(cid, MB(2)).nbytes == MB(2)
        assert self.app.nvrealloc("temp", MB(1)).nbytes == MB(1)

    @pytest.mark.parametrize("method,args", [
        ("chunk", ()),
        ("nvrealloc", (MB(2),)),
        ("nvdelete", ()),
        ("nvchkptid", ()),
        ("checkpoint", ()),
    ])
    def test_unknown_key_raises_uniform_keyerror(self, method, args):
        with pytest.raises(KeyError) as exc:
            getattr(self.app, method)("missing", *args)
        assert "no chunk with key 'missing'" in str(exc.value)
        assert "'p0'" in str(exc.value)

    def test_unknown_int_key_same_message_shape(self):
        with pytest.raises(KeyError, match="no chunk with key 1234"):
            self.app.chunk(1234)

    def test_unknown_key_is_both_keyerror_and_allocationerror(self):
        # callers may catch either hierarchy; both must work
        with pytest.raises(UnknownChunkId):
            self.app.nvdelete("missing")
        with pytest.raises(AllocationError):
            self.app.nvdelete("missing")
        try:
            self.app.nvdelete("missing")
        except KeyError as e:
            assert "missing" in str(e)

    def test_bad_key_type_raises_typeerror(self):
        for bad in (1.5, None, b"temp", True, ["temp"]):
            with pytest.raises(TypeError):
                self.app.chunk(bad)

    def test_nvattach_new_str_key_allocates(self):
        arr = np.arange(64, dtype=np.float64)
        chunk = self.app.nvattach("field", arr)
        assert chunk.nbytes == arr.nbytes
        assert self.app.chunk("field") is chunk

    def test_nvattach_existing_key_reattaches_and_resizes(self):
        bigger = np.zeros(2 * MB(1), dtype=np.uint8)
        chunk = self.app.nvattach("temp", bigger)
        assert chunk.nbytes == bigger.nbytes
        assert self.app.chunk("temp").nbytes == bigger.nbytes
        # re-attach by integer id works too
        chunk2 = self.app.nvattach(NVMCheckpoint.genid("temp"), bigger)
        assert chunk2.nbytes == bigger.nbytes

    def test_nvattach_unknown_int_key_raises_keyerror(self):
        arr = np.zeros(16, dtype=np.uint8)
        with pytest.raises(KeyError, match="no chunk with key"):
            self.app.nvattach(987654, arr)


class TestRoundTrip:
    def test_unified_verb_survives_crash_restart(self):
        from repro.memory import InMemoryStore

        store = InMemoryStore()
        app = NVMCheckpoint("p0", store=store, phantom=False)
        t = app.nvalloc("t", 8 * 64)
        t.write(0, np.arange(64, dtype=np.float64))
        app.checkpoint()
        app.crash()
        app2, report = NVMCheckpoint.restart("p0", store)
        assert report.chunks_local == 1
        assert app2.chunk("t").view(np.float64)[63] == 63.0
