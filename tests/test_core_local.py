"""Coordinated local checkpoints: dirty tracking, commit protocol,
baseline vs pre-copy behaviour, interval bookkeeping."""

import numpy as np
import pytest

from repro.alloc import NVAllocator
from repro.config import PrecopyPolicy
from repro.core import LocalCheckpointer, make_standalone_context
from repro.metrics.timeline import Timeline, LOCAL_CKPT
from repro.metrics.trace import BUS
from repro.units import MB


def make_rig(mode="dcpcp", phantom=True):
    ctx = make_standalone_context(name="lc")
    alloc = NVAllocator("p0", ctx.nvmm, ctx.dram, phantom=phantom, clock=lambda: ctx.engine.now)
    ck = LocalCheckpointer(ctx, alloc, PrecopyPolicy(mode=mode))
    return ctx, alloc, ck


class TestCoordinatedStep:
    def test_first_checkpoint_copies_everything(self):
        ctx, alloc, ck = make_rig()
        alloc.nvalloc("a", MB(10))
        alloc.nvalloc("b", MB(20))
        stats = ck.checkpoint()
        assert stats.chunks_copied == 2
        assert stats.bytes_copied == MB(30)
        assert stats.duration > 0

    def test_clean_chunks_skipped_with_tracking(self):
        ctx, alloc, ck = make_rig(mode="dcpcp")
        a = alloc.nvalloc("a", MB(10))
        ck.checkpoint()
        stats = ck.checkpoint()  # nothing written since
        assert stats.chunks_copied == 0
        assert stats.chunks_skipped == 1

    def test_no_precopy_baseline_copies_everything_every_time(self):
        ctx, alloc, ck = make_rig(mode="none")
        alloc.nvalloc("a", MB(10))
        ck.checkpoint()
        stats = ck.checkpoint()
        assert stats.chunks_copied == 1  # no dirty tracking
        assert not ck.tracks_dirty

    def test_redirtied_chunk_recopied(self):
        ctx, alloc, ck = make_rig()
        a = alloc.nvalloc("a", MB(10))
        ck.checkpoint()
        a.touch()
        stats = ck.checkpoint()
        assert stats.chunks_copied == 1

    def test_commit_advances_versions(self):
        ctx, alloc, ck = make_rig()
        a = alloc.nvalloc("a", MB(1))
        ck.checkpoint()
        assert a.committed_version == 0
        a.touch()
        ck.checkpoint()
        assert a.committed_version == 1

    def test_nvchkptid_subset(self):
        ctx, alloc, ck = make_rig()
        a = alloc.nvalloc("a", MB(1))
        b = alloc.nvalloc("b", MB(1))
        stats = ck.checkpoint(only=[a])
        assert stats.chunks_copied == 1
        assert a.committed_version == 0
        assert b.committed_version == -1

    def test_flush_cost_included(self):
        ctx, alloc, ck = make_rig()
        alloc.nvalloc("a", MB(1))
        stats = ck.checkpoint()
        assert stats.flush_cost > 0

    def test_checkpoint_time_scales_with_bandwidth(self):
        from repro.units import GB_per_sec

        def run_at(bw):
            ctx = make_standalone_context(name="x", nvm_write_bandwidth=bw)
            alloc = NVAllocator("p0", ctx.nvmm, ctx.dram, phantom=True)
            ck = LocalCheckpointer(ctx, alloc, PrecopyPolicy(mode="none"))
            alloc.nvalloc("a", MB(100))
            return ck.checkpoint().duration

        assert run_at(GB_per_sec(0.5)) > 2 * run_at(GB_per_sec(2.0))

    def test_real_data_checkpoint_restores(self):
        ctx, alloc, ck = make_rig(phantom=False)
        a = alloc.nvalloc("a", 4096)
        data = np.arange(512, dtype=np.float64)
        a.write(0, data)
        ck.checkpoint()
        a.write(0, np.zeros(512))
        a.restore_from_committed()
        assert np.array_equal(a.view(np.float64), data)


class TestPrecopyIntegration:
    def test_precopied_chunks_skip_coordinated_step(self):
        ctx, alloc, ck = make_rig(mode="cpc")
        a = alloc.nvalloc("a", MB(10))
        ck.start_background()

        def app():
            a.touch()
            yield ctx.engine.timeout(10.0)  # precopy catches up
            stats = yield from ck.checkpoint(blocking=False)
            return stats

        proc = ctx.engine.process(app())
        ctx.engine.run(until=30.0)
        ck.stop_background()
        ctx.engine.run()
        assert proc.value.chunks_copied == 0
        assert proc.value.chunks_skipped == 1
        # at least one full pre-copy; a stale first attempt (the t=0
        # race between the engine starting and the app's write) may
        # add one more
        assert MB(10) <= ck.total_precopy_bytes <= MB(20)

    def test_total_bytes_accounting(self):
        ctx, alloc, ck = make_rig(mode="cpc")
        a = alloc.nvalloc("a", MB(10))
        ck.start_background()

        def app():
            for _ in range(2):
                a.touch()
                yield ctx.engine.timeout(10.0)
                yield from ck.checkpoint(blocking=False)
            ck.stop_background()

        ctx.engine.process(app())
        ctx.engine.run()
        assert ck.total_bytes_to_nvm == ck.total_precopy_bytes + ck.total_coordinated_bytes
        assert ck.total_bytes_to_nvm >= MB(20)

    def test_fault_overhead_reported(self):
        ctx, alloc, ck = make_rig(mode="cpc")
        a = alloc.nvalloc("a", MB(1))
        ck.start_background()

        def app():
            a.touch()
            yield ctx.engine.timeout(5.0)
            a.touch()  # faults: chunk was protected after precopy
            yield ctx.engine.timeout(1.0)
            ck.stop_background()

        ctx.engine.process(app())
        ctx.engine.run()
        assert ck.fault_overhead() == pytest.approx(ck.policy.fault_cost)


class TestIntervalBookkeeping:
    def test_threshold_fed_with_compute_only_interval(self):
        ctx, alloc, ck = make_rig(mode="dcpcp")
        alloc.nvalloc("a", MB(50))

        def app():
            yield from ck.checkpoint(blocking=False)
            yield ctx.engine.timeout(10.0)  # compute
            yield from ck.checkpoint(blocking=False)

        ctx.engine.process(app())
        ctx.engine.run()
        assert ck.threshold is not None
        # interval estimate ~ the 10 s compute, not compute + ckpt time
        est = ck.threshold.interval_estimate
        assert est == pytest.approx(10.0, abs=1.0)

    def test_history_and_counters(self):
        ctx, alloc, ck = make_rig()
        alloc.nvalloc("a", MB(1))
        ck.checkpoint()
        ck.checkpoint()
        assert ck.checkpoints_done == 2
        assert len(ck.history) == 2
        assert ck.total_checkpoint_time == pytest.approx(
            sum(s.duration for s in ck.history)
        )

    def test_on_complete_observers(self):
        ctx, alloc, ck = make_rig()
        alloc.nvalloc("a", MB(1))
        seen = []
        ck.on_complete.append(lambda stats: seen.append(stats.chunks_copied))
        ck.checkpoint()
        assert seen == [1]

    def test_timeline_records_phase(self):
        ctx, alloc, ck = make_rig()
        alloc.nvalloc("a", MB(10))
        with BUS.capture(Timeline()) as tl:
            ck.checkpoint()
        assert tl.count(LOCAL_CKPT, actor="p0") == 1
        assert tl.total(LOCAL_CKPT) > 0
