"""Remote checkpointing: targets, the paced stream, rounds, commit
consistency, helper CPU accounting."""

import zlib

import numpy as np
import pytest

from repro.alloc import NVAllocator
from repro.config import CheckpointConfig, PrecopyPolicy
from repro.core import LocalCheckpointer, RemoteHelper, RemoteTarget, make_standalone_context
from repro.errors import CheckpointError
from repro.net import Fabric
from repro.sim import Engine
from repro.units import MB


def make_pair(remote_precopy=True, remote_interval=30.0, local_interval=10.0, phantom=True):
    """Two nodes on one engine: node 0 runs ranks, node 1 is the buddy."""
    engine = Engine()
    src = make_standalone_context(name="n0", engine=engine)
    dst = make_standalone_context(name="n1", engine=engine)
    fabric = Fabric(engine, 2)
    alloc = NVAllocator("r0", src.nvmm, src.dram, phantom=phantom, clock=lambda: engine.now)
    cfg = CheckpointConfig(
        local_interval=local_interval,
        remote_interval=remote_interval,
        remote_precopy=remote_precopy,
        precopy=PrecopyPolicy(mode="dcpcp"),
    )
    helper = RemoteHelper(0, src, fabric, 1, dst, [alloc], cfg)
    ck = LocalCheckpointer(src, alloc, cfg.precopy)
    ck.on_complete.append(lambda stats: helper.notify_local_checkpoint("r0"))
    return engine, src, dst, fabric, alloc, helper, ck


class TestRemoteTarget:
    def test_stage_and_commit_roundtrip(self):
        engine, src, dst, fabric, alloc, helper, ck = make_pair(phantom=False)
        chunk = alloc.nvalloc("a", 4096)
        chunk.write(0, np.arange(512, dtype=np.float64))
        target = helper.targets["r0"]
        target.stage(chunk)
        target.commit()
        got = target.fetch("a").view(np.float64)
        assert np.array_equal(got, np.arange(512))

    def test_fetch_uncommitted_rejected(self):
        engine, src, dst, fabric, alloc, helper, ck = make_pair()
        alloc.nvalloc("a", 4096)
        with pytest.raises(CheckpointError):
            helper.targets["r0"].fetch("a")

    def test_two_version_flip(self):
        engine, src, dst, fabric, alloc, helper, ck = make_pair(phantom=False)
        chunk = alloc.nvalloc("a", 1024)
        target = helper.targets["r0"]
        chunk.write(0, np.full(1024, 1, dtype=np.uint8))
        target.stage(chunk)
        target.commit()
        assert target.committed["a"] == 0
        chunk.write(0, np.full(1024, 2, dtype=np.uint8))
        target.stage(chunk)
        target.commit()
        assert target.committed["a"] == 1
        assert (target.fetch("a") == 2).all()

    def test_uncommitted_stage_keeps_old_version_readable(self):
        engine, src, dst, fabric, alloc, helper, ck = make_pair(phantom=False)
        chunk = alloc.nvalloc("a", 1024)
        target = helper.targets["r0"]
        chunk.write(0, np.full(1024, 1, dtype=np.uint8))
        target.stage(chunk)
        target.commit()
        chunk.write(0, np.full(1024, 9, dtype=np.uint8))
        target.stage(chunk)  # staged, NOT committed
        assert (target.fetch("a") == 1).all()

    def test_reattach_from_metadata(self):
        engine, src, dst, fabric, alloc, helper, ck = make_pair(phantom=False)
        chunk = alloc.nvalloc("a", 1024)
        chunk.write(0, np.full(1024, 5, dtype=np.uint8))
        target = helper.targets["r0"]
        target.stage(chunk)
        target.commit()
        again = RemoteTarget.reattach("r0", dst)
        assert (again.fetch("a") == 5).all()

    def test_reattach_without_metadata_rejected(self):
        engine, src, dst, fabric, alloc, helper, ck = make_pair()
        with pytest.raises(CheckpointError):
            RemoteTarget.reattach("ghost", dst)

    def test_ensure_chunk_grows_regions(self):
        engine, src, dst, fabric, alloc, helper, ck = make_pair()
        chunk = alloc.nvalloc("a", 1024)
        target = helper.targets["r0"]
        target.ensure_chunk(chunk)
        alloc.nvrealloc("a", 2048)
        target.ensure_chunk(chunk)
        assert dst.nvmm.region(target.pid, "a#v0").nbytes == 2048


class TestBuddyFirstContact:
    """``ensure_chunk`` maps a chunk's buddy regions on first contact
    and returns at once afterwards, per chunk *object*: after a hard
    failure ``populate`` re-creates chunks under the same names."""

    SIZE = 4 * 4096

    @staticmethod
    def _nodes():
        engine = Engine()
        src = make_standalone_context(name="n0", engine=engine)
        dst = make_standalone_context(name="n1", engine=engine)
        return dst, NVAllocator("r0", src.nvmm, src.dram, phantom=True)

    def _twins(self):
        """A target that mirrors chunk ``a``, then a second ``a`` object
        of the same size."""
        # no helper: a chunk-granular helper would drop the remote maps
        dst, alloc = self._nodes()
        target = RemoteTarget("r0", dst)
        first = alloc.nvalloc("a", self.SIZE)
        target.ensure_chunk(first)
        alloc.nvdelete("a")
        second = alloc.nvalloc("a", self.SIZE)
        return dst, target, first, second

    def test_second_object_gets_its_own_remote_stale_map(self):
        dst, target, first, second = self._twins()
        target.ensure_chunk(second)
        assert second.copy_extents("remote", slot=0) == [(0, self.SIZE)]

    def test_second_objects_first_page_granular_copy_moves_the_whole_chunk(self):
        from repro.core.copystep import CopyStep

        dst, target, first, second = self._twins()
        step = CopyStep(
            dst, PrecopyPolicy(mode="dcpcp", copy_granularity="page"),
            actor="helper", stream="remote",
        )
        # the first object fills both buddy slots and is clean there
        for _ in range(target.n_versions):
            target.stage(first, target.pending_extents(first))
            target.commit()
        assert step.plan(first, target).nbytes == 0
        plan = step.plan(second, target)
        assert plan.nbytes == self.SIZE
        assert target.stage(second, plan.extents) == self.SIZE

    def test_repeat_contact_maps_nothing_and_a_resize_re_maps(self, monkeypatch):
        dst, target, first, second = self._twins()
        nvmm = dst.nvmm
        calls = []
        for name in ("nvmmap", "nvmrealloc"):
            real = getattr(nvmm, name)
            monkeypatch.setattr(
                nvmm, name,
                lambda *a, _real=real, _name=name, **k: calls.append(_name) or _real(*a, **k),
            )
        target.ensure_chunk(second)
        target.ensure_chunk(second)
        assert calls == []  # the regions exist at this size
        second.nbytes *= 2  # what NVAllocator.nvrealloc does to the object
        target.ensure_chunk(second)
        assert calls == ["nvmrealloc", "nvmrealloc"]
        assert nvmm.region(target.pid, "a#v1").nbytes == 2 * self.SIZE
        assert target.sizes["a"] == 2 * self.SIZE

    def test_a_failing_region_lookup_propagates(self):
        """Only "not mapped" maps a fresh region; any other error in
        the lookup is the caller's."""
        dst, alloc = self._nodes()
        chunk = alloc.nvalloc("a", self.SIZE)
        target = RemoteTarget("r0", dst)

        class UnreadableTable(dict):
            def __getitem__(self, key):
                raise RuntimeError("region table unreadable")

            get = __getitem__

        dst.nvmm._regions = UnreadableTable(dst.nvmm._regions)
        with pytest.raises(RuntimeError, match="unreadable"):
            target.ensure_chunk(chunk)
        assert not [key for key in dict.keys(dst.nvmm._regions) if key[0] == target.pid]


class TestNoPrecopyRounds:
    def test_round_moves_everything(self):
        engine, src, dst, fabric, alloc, helper, ck = make_pair(remote_precopy=False)
        alloc.nvalloc("a", MB(5))
        alloc.nvalloc("b", MB(3))
        engine.process(helper.run())
        engine.run(until=35.0)
        helper.stop()
        assert len(helper.history) == 1
        assert helper.copier.accounting.remote_round_bytes == MB(8)
        assert helper.copier.accounting.remote_precopy_bytes == 0

    def test_rounds_repeat_full_volume(self):
        engine, src, dst, fabric, alloc, helper, ck = make_pair(remote_precopy=False)
        alloc.nvalloc("a", MB(5))
        engine.process(helper.run())
        engine.run(until=65.0)
        helper.stop()
        assert helper.copier.accounting.remote_round_bytes == MB(10)  # 2 rounds x 5MB

    def test_a_commit_after_the_round_voids_its_claim(self):
        """Rounds without the stream re-send every chunk, but a failover
        asks ``holds_current`` what the buddy lacks: a local commit
        after the round must move the chunk's generation."""
        engine, src, dst, fabric, alloc, helper, ck = make_pair(remote_precopy=False)
        chunk = alloc.nvalloc("a", MB(5))
        ck.checkpoint()
        engine.process(helper.remote_checkpoint())
        engine.run()
        assert helper.holds_current("r0", chunk)
        assert not helper._queue  # nothing streams
        chunk.touch()
        ck.checkpoint()
        assert not helper.holds_current("r0", chunk)
        assert not helper._queue


    def test_send_straddling_a_retarget_is_not_credited_to_the_new_buddy(self):
        """The bytes went to the old buddy: the new pairing's targets
        and replication records must not claim them."""
        engine, src, dst, fabric, alloc, helper, ck = make_pair(remote_precopy=False)
        helper.fabric = Fabric(engine, 3)
        third = make_standalone_context(name="n2", engine=engine)
        chunk = alloc.nvalloc("a", MB(50))
        chunk.committed_version = 0
        proc = engine.process(helper.remote_checkpoint())
        engine.run(until=1e-3)  # mid-send
        assert not proc.triggered
        helper.retarget(2, third)
        engine.run()
        assert proc.ok
        new = helper.targets["r0"]
        assert new.dst_ctx is third
        assert not new._staged and not new.committed_chunks()
        assert not helper.holds_current("r0", chunk)
        assert chunk.dirty_remote and ("r0", chunk.chunk_id) in helper._queue


class TestBuddyReboot:
    """A copy staged on the buddy counts as held only once the buddy
    commits it: a reboot of the buddy between a stream stage and the
    round's commit loses the staged copy, and nothing may trust it."""

    def _stream(self, engine, helper):
        engine.process(helper._stream_until(engine.now + helper.stream_window))
        engine.run()

    def _round(self, engine, helper):
        engine.process(helper.remote_checkpoint())
        engine.run()

    def test_a_reboot_between_stage_and_commit_loses_nothing_committed(self):
        engine, src, dst, fabric, alloc, helper, ck = make_pair(phantom=False)
        chunk = alloc.nvalloc("a", 4096)
        chunk.write(0, np.full(512, 1.0))
        ck.checkpoint()
        self._round(engine, helper)
        target = helper.targets["r0"]
        first = target.fetch("a").copy()
        assert helper.holds_current("r0", chunk)

        chunk.write(0, np.full(512, 2.0))
        ck.checkpoint()  # a new commit generation, queued for the stream
        self._stream(engine, helper)
        assert "a" in target._staged and not chunk.dirty_remote
        assert not helper.holds_current("r0", chunk)  # staged, not committed

        dst.nvmm.store.crash()  # the buddy reboots
        helper.drop_uncommitted(1)
        assert not target._staged
        self._round(engine, helper)
        # the round committed no lost slot: the buddy still serves the
        # last committed copy, and it verifies
        copy = target.fetch("a")
        assert zlib.crc32(copy) == target.checksums["a"]
        assert np.array_equal(copy, first)
        assert not helper.holds_current("r0", chunk)

        # the failure reset re-dirties what the buddy lacks; the next
        # local commit queues it and the buddy catches up
        chunk.dirty_remote = not helper.holds_current("r0", chunk)
        assert chunk.dirty_remote
        ck.checkpoint()
        self._stream(engine, helper)
        self._round(engine, helper)
        copy = target.fetch("a")
        assert zlib.crc32(copy) == target.checksums["a"]
        assert np.array_equal(copy.view(np.float64), np.full(512, 2.0))
        assert helper.holds_current("r0", chunk)

    def test_a_reboot_voids_stages_on_a_buddy_a_failover_would_reuse(self):
        engine, src, dst, fabric, alloc, helper, ck = make_pair(phantom=False)
        helper.fabric = Fabric(engine, 3)
        third = make_standalone_context(name="n2", engine=engine)
        chunk = alloc.nvalloc("a", 4096)
        chunk.write(0, np.full(512, 1.0))
        ck.checkpoint()
        self._stream(engine, helper)
        old = helper.targets["r0"]
        assert "a" in old._staged
        helper.retarget(2, third)
        dst.nvmm.store.crash()
        helper.drop_uncommitted(1)
        assert not old._staged
        helper.retarget(1, dst)
        assert helper.targets["r0"] is old
        assert chunk.dirty_remote and ("r0", chunk.chunk_id) in helper._queue


class TestStream:
    def _drive(self, engine, ck, alloc, iterations, interval=10.0):
        def app():
            for _ in range(iterations):
                for c in alloc.persistent_chunks():
                    c.touch()
                yield engine.timeout(interval)
                yield from ck.checkpoint(blocking=False)

        return engine.process(app())

    def test_stream_idle_during_learning_interval(self):
        """§IV: no pre-copy before the first checkpoint round."""
        engine, src, dst, fabric, alloc, helper, ck = make_pair()
        alloc.nvalloc("a", MB(5))
        engine.process(helper.run())
        self._drive(engine, ck, alloc, 3)
        engine.run(until=29.0)  # just before the first round
        assert helper.copier.accounting.remote_precopy_bytes == 0
        helper.stop()
        engine.run()

    def test_stream_sends_committed_chunks_after_learning(self):
        engine, src, dst, fabric, alloc, helper, ck = make_pair()
        alloc.nvalloc("a", MB(5))
        engine.process(helper.run())
        self._drive(engine, ck, alloc, 6)
        engine.run(until=59.0)  # into the second round interval
        helper.stop()
        engine.run()
        assert helper.copier.accounting.remote_precopy_bytes > 0

    def test_stream_reduces_round_volume(self):
        engine, src, dst, fabric, alloc, helper, ck = make_pair()
        alloc.nvalloc("a", MB(5))
        engine.process(helper.run())
        self._drive(engine, ck, alloc, 9)
        acc = helper.copier.accounting
        engine.run(until=45.0)  # past the learning round
        assert len(helper.history) == 1
        learning_round_bytes = acc.remote_round_bytes
        engine.run(until=95.0)  # three rounds: learning + 2 steady
        helper.stop()
        engine.run()
        assert len(helper.history) >= 2
        # round 1 is the learning burst; steady-state rounds move less
        # than the stream
        steady_round_bytes = acc.remote_round_bytes - learning_round_bytes
        assert steady_round_bytes < acc.remote_precopy_bytes

    def test_uncommitted_chunks_never_streamed(self):
        engine, src, dst, fabric, alloc, helper, ck = make_pair()
        c = alloc.nvalloc("a", MB(5))
        c.touch()  # dirty but never locally committed
        engine.process(helper.run())
        engine.run(until=29.0)
        helper.stop()
        engine.run()
        assert helper.copier.accounting.remote_precopy_bytes == 0

    def test_queue_coalescing(self):
        engine, src, dst, fabric, alloc, helper, ck = make_pair()
        c = alloc.nvalloc("a", MB(1))
        c.committed_version = 0
        helper.notify_local_checkpoint("r0")
        helper.notify_local_checkpoint("r0")
        assert len(helper._queue) == 1

    def test_enqueue_all(self):
        """A buddy that holds nothing gets every committed chunk."""
        engine, src, dst, fabric, alloc, helper, ck = make_pair()
        a = alloc.nvalloc("a", MB(1))
        a.committed_version = 0
        a.dirty_remote = False
        helper.enqueue_unreplicated()
        assert a.dirty_remote
        assert len(helper._queue) == 1

    def test_pacing_spreads_transfers(self):
        """Stream throughput stays near pace_rate, far below line rate."""
        engine, src, dst, fabric, alloc, helper, ck = make_pair(
            remote_interval=30.0, local_interval=5.0
        )
        alloc.nvalloc("a", MB(20))
        engine.process(helper.run())
        self._drive(engine, ck, alloc, 5, interval=5.0)
        engine.run(until=29.0)
        helper.stop()
        engine.run()
        peak = fabric.egress_of(0).utilization.peak()
        # 1s-window average would be ~pace_rate; instantaneous peak is
        # one chunk at line rate, but total streamed stays bounded
        assert helper.copier.accounting.remote_precopy_bytes <= MB(20) * 2 + MB(1)


class TestHelperCpu:
    def test_cpu_charged_per_byte(self):
        engine, src, dst, fabric, alloc, helper, ck = make_pair(remote_precopy=False)
        alloc.nvalloc("a", MB(10))
        engine.process(helper.run())
        engine.run(until=35.0)
        helper.stop()
        assert helper.helper_utilization(35.0) > 0

    def test_streamed_bytes_cost_more_cpu(self):
        from repro.core.remote import HELPER_CPU_PER_BYTE, TRACKING_CPU_PER_BYTE

        engine, src, dst, fabric, alloc, helper, ck = make_pair()
        helper._charge_cpu(MB(1), streamed=False)
        plain = src.cpu.busy_time(helper.owner)
        helper._charge_cpu(MB(1), streamed=True)
        streamed = src.cpu.busy_time(helper.owner) - plain
        assert streamed > plain
