"""Transparent checkpointing."""

import pytest

from repro.core import TransparentCheckpointer, make_standalone_context
from repro.errors import CheckpointError
from repro.units import GB, MB


class TestTransparent:
    def test_segments_cover_the_address_space(self, ctx):
        t = TransparentCheckpointer(ctx, "p0", GB(1))
        assert sum(s.nbytes for s in t.segments) == GB(1)
        assert t.checkpoint_bytes == GB(1)
        assert len(t.segments) == 16  # 64 MB segments

    def test_small_space_single_segment(self, ctx):
        t = TransparentCheckpointer(ctx, "p0", MB(10))
        assert len(t.segments) == 1

    def test_empty_space_rejected(self, ctx):
        with pytest.raises(CheckpointError):
            TransparentCheckpointer(ctx, "p0", 0)

    def test_checkpoint_copies_everything(self, ctx):
        t = TransparentCheckpointer(ctx, "p0", MB(256))
        stats = t.checkpoint()
        assert stats.bytes_copied == MB(256)
        # and again: no dirty tracking without application knowledge
        t.mark_activity()
        stats2 = t.checkpoint()
        assert stats2.bytes_copied == MB(256)

    def test_transparent_bigger_than_declared(self, ctx):
        """The §II argument: the address space dwarfs the declared
        checkpoint set."""
        from repro.alloc import NVAllocator
        from repro.config import PrecopyPolicy
        from repro.core import LocalCheckpointer

        declared = NVAllocator("app", ctx.nvmm, ctx.dram, phantom=True)
        declared.nvalloc("state", MB(100))
        app_ck = LocalCheckpointer(ctx, declared, PrecopyPolicy(mode="none"))
        app_stats = app_ck.checkpoint()

        t = TransparentCheckpointer(ctx, "app2", MB(300))
        t_stats = t.checkpoint()
        assert t_stats.bytes_copied == 3 * app_stats.bytes_copied
        assert t_stats.duration > app_stats.duration

    def test_page_tracking_mode_faults_per_page(self, ctx):
        from repro.units import PAGE_SIZE

        t = TransparentCheckpointer(ctx, "p0", MB(1), page_tracking=True)
        t.checkpoint()  # protects segments
        faults = t.mark_activity(MB(1))
        assert faults == MB(1) // PAGE_SIZE

    def test_mark_activity_partial(self, ctx):
        t = TransparentCheckpointer(ctx, "p0", MB(256))
        t.checkpoint()
        t.mark_activity(MB(64))  # dirties only the first segment
        stats = t.checkpoint()
        assert stats.bytes_copied == MB(256)  # policy NONE: full copy anyway

    def test_history_accumulates(self, ctx):
        t = TransparentCheckpointer(ctx, "p0", MB(64))
        t.checkpoint()
        t.checkpoint()
        assert len(t.history) == 2
        assert t.total_bytes_to_nvm == 2 * MB(64)

