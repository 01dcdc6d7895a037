"""The resilience layer: retry/backoff transports, buddy health
monitoring, the live buddy directory, degraded-mode control, background
re-sync, transient failure injection, and AllReplicasLost escalation."""

import numpy as np
import pytest

from repro.alloc import NVAllocator
from repro.apps import SyntheticModel
from repro.baselines import precopy_config
from repro.cluster import (
    Cluster,
    ClusterRunner,
    FailureEvent,
    FailureInjector,
    ScriptedInjector,
    phases,
)
from repro.config import (
    CheckpointConfig,
    ClusterConfig,
    FailureConfig,
    PrecopyPolicy,
)
from repro.core import (
    LocalCheckpointer,
    RemoteHelper,
    RestartManager,
    make_standalone_context,
)
from repro.errors import (
    AllReplicasLost,
    NoCheckpointAvailable,
    TransferFailed,
)
from repro.metrics import timeline as tl
from repro.metrics.timeline import Timeline
from repro.metrics.trace import BUS
from repro.models.notation import ModelParams
from repro.net import Fabric
from repro.net.rdma import rdma_put
from repro.net.topology import Topology
from repro.resilience import (
    BuddyDirectory,
    DegradedModeController,
    HealthMonitor,
    ResilientTransport,
    ResyncTask,
    RetryPolicy,
    degraded_local_interval,
)
from repro.sim import Engine
from repro.sim.rng import RngStreams
from repro.units import MB, GB_per_sec


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=2.0, max_delay=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    @pytest.mark.parametrize("field", ["deadline"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_non_positive_timeout_or_deadline_is_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            RetryPolicy(**{field: value})

    def test_no_timeout_and_no_deadline_stay_allowed(self):
        p = RetryPolicy(deadline=None)
        assert p.deadline is None
        # an attempt has no stall timer: a flow that is not cancelled
        # progresses, so only the attempt count and deadline bound it
        assert not hasattr(p, "timeout")

    def test_backoff_grows_and_caps(self):
        p = RetryPolicy(base_delay=1.0, max_delay=5.0, backoff=2.0, jitter=0.0)
        rng = RngStreams(0)
        delays = [p.backoff_delay(a, rng, "s") for a in range(5)]
        assert delays == [1.0, 2.0, 4.0, 5.0, 5.0]

    def test_jitter_is_deterministic_per_stream(self):
        p = RetryPolicy(base_delay=1.0, jitter=0.5)
        a = [p.backoff_delay(0, RngStreams(9), "x") for _ in range(1)]
        b = [p.backoff_delay(0, RngStreams(9), "x") for _ in range(1)]
        assert a == b
        # jitter stays within +/- 50%
        d = p.backoff_delay(0, RngStreams(1), "x")
        assert 0.5 <= d <= 1.5


# ---------------------------------------------------------------------------
# ResilientTransport
# ---------------------------------------------------------------------------


def run_proc(engine, gen):
    p = engine.process(gen)
    engine.run()
    return p


class TestResilientTransfers:
    def test_success_path_matches_plain_rdma_exactly(self):
        done = {}

        engine_a = Engine()
        fabric_a = Fabric(engine_a, 2)

        def plain():
            yield rdma_put(fabric_a, 0, 1, MB(64), tag="r0:rckpt")
            done["plain"] = engine_a.now

        run_proc(engine_a, plain())

        engine_b = Engine()
        fabric_b = Fabric(engine_b, 2)
        rng = RngStreams(7)
        transport = ResilientTransport(0, rng, RetryPolicy())

        def resilient():
            yield from transport.put(fabric_b, 0, 1, MB(64), tag="r0:rckpt")
            done["res"] = engine_b.now

        run_proc(engine_b, resilient())
        assert done["res"] == done["plain"]
        # the success path consumes no RNG draws
        fresh = RngStreams(7)
        assert (
            rng.stream(transport.stream).random()
            == fresh.stream(transport.stream).random()
        )

    def test_long_healthy_send_completes_on_its_first_attempt(self):
        # a flow that is not cancelled progresses: a send of ~100 s
        # finishes when the bytes land, with no retry and no cancel
        engine = Engine()
        fabric = Fabric(engine, 2)
        transport = ResilientTransport(0, RngStreams(1), RetryPolicy())
        nbytes = fabric.config.effective_bandwidth * 100.0
        got = {}

        def proc():
            got["elapsed"] = yield from transport.put(
                fabric, 0, 1, nbytes, tag="r0:rckpt"
            )

        p = run_proc(engine, proc())
        assert p.ok
        assert got["elapsed"] == pytest.approx(100.0)
        stats = transport.stats
        assert (stats.transfers, stats.delivered) == (1, 1)
        assert stats.retries == stats.abandoned == 0

    def test_success_path_dispatches_what_a_bare_put_does(self):
        def dispatched(send):
            engine = Engine()
            fabric = Fabric(engine, 2)
            run_proc(engine, send(fabric))
            return engine.events_processed

        def plain(fabric):
            yield rdma_put(fabric, 0, 1, MB(64), tag="r0:rckpt")

        def resilient(fabric):
            transport = ResilientTransport(0, RngStreams(7), RetryPolicy())
            yield from transport.put(fabric, 0, 1, MB(64), tag="r0:rckpt")

        assert dispatched(resilient) == dispatched(plain)

    def test_retries_through_an_outage(self):
        engine = Engine()
        fabric = Fabric(engine, 2)
        transport = ResilientTransport(
            0, RngStreams(3), RetryPolicy(base_delay=0.5, max_delay=4.0)
        )
        stats = transport.stats
        fabric.begin_outage(1)
        engine.call_at(5.0, lambda: fabric.end_outage(1))
        got = {}

        def proc():
            got["elapsed"] = yield from transport.put(
                fabric, 0, 1, MB(8), tag="r0:rckpt"
            )

        p = run_proc(engine, proc())
        assert p.ok
        assert stats.delivered == 1
        assert stats.retries >= 1
        # the payload could only land after the link healed
        assert got["elapsed"] >= 5.0

    def test_transfer_failed_after_attempt_exhaustion(self):
        engine = Engine()
        fabric = Fabric(engine, 2)
        fabric.begin_outage(1)  # never heals
        transport = ResilientTransport(
            0, RngStreams(1), RetryPolicy(max_attempts=3, base_delay=0.1, jitter=0.0)
        )
        stats = transport.stats

        def proc():
            yield from transport.put(fabric, 0, 1, MB(8), tag="r0:rckpt")

        p = run_proc(engine, proc())
        assert not p.ok
        exc = p.exception
        assert isinstance(exc, TransferFailed)
        assert exc.attempts == 3
        assert exc.src == 0 and exc.dst == 1
        assert stats.abandoned == 1

    def test_transport_is_deterministic(self):
        def one_run():
            engine = Engine()
            fabric = Fabric(engine, 2)
            transport = ResilientTransport(
                0, RngStreams(11), RetryPolicy(base_delay=0.3)
            )
            fabric.begin_outage(1)
            engine.call_at(3.0, lambda: fabric.end_outage(1))
            times = []

            def proc():
                yield from transport.put(fabric, 0, 1, MB(4), tag="r0:rckpt")
                times.append(engine.now)

            run_proc(engine, proc())
            return times[0], transport.stats.retries

        assert one_run() == one_run()


# ---------------------------------------------------------------------------
# HealthMonitor
# ---------------------------------------------------------------------------


class TestHealthMonitor:
    def test_detects_outage_and_recovery(self):
        engine = Engine()
        fabric = Fabric(engine, 2)
        downs, ups = [], []
        mon = HealthMonitor(
            0, 1, fabric, interval=1.0, miss_threshold=2,
            on_down=downs.append, on_up=ups.append,
        )
        engine.process(mon.run())
        engine.call_at(3.2, lambda: fabric.begin_outage(1))
        engine.call_at(8.2, lambda: fabric.end_outage(1))
        engine.call_at(15.0, mon.stop)
        engine.run(until=20.0)
        assert downs == [1]
        assert ups == [1]
        assert mon.stats.detections == 1
        assert mon.stats.recoveries == 1
        assert mon.stats.missed >= 2
        assert mon.buddy_healthy

    def test_single_miss_below_threshold_is_tolerated(self):
        engine = Engine()
        fabric = Fabric(engine, 2)
        downs = []
        mon = HealthMonitor(
            0, 1, fabric, interval=1.0, miss_threshold=3,
            on_down=downs.append,
        )
        engine.process(mon.run())
        # a flap shorter than miss_threshold consecutive beats
        engine.call_at(0.9, lambda: fabric.begin_outage(1))
        engine.call_at(2.5, lambda: fabric.end_outage(1))
        engine.call_at(6.0, mon.stop)
        engine.run(until=10.0)
        assert downs == []
        assert mon.buddy_healthy

    def test_retarget_resets_state(self):
        engine = Engine()
        fabric = Fabric(engine, 3)
        mon = HealthMonitor(0, 1, fabric, miss_threshold=1)
        mon.buddy_healthy = False
        mon.misses = 4
        mon.retarget(2)
        assert mon.buddy_id == 2
        assert mon.buddy_healthy
        assert mon.misses == 0

    def test_retarget_mid_beat_discards_stale_outcome(self):
        # a beat in flight to the OLD buddy must not apply its outcome
        # to the new pairing: without the retarget epoch, the beat
        # launched at t=1.0 (still in flight thanks to the oversized
        # payload) would count the miss of its t=1.5 cancellation by
        # node 1's outage — and with miss_threshold=1, fire on_down —
        # against freshly-healthy node 2, retargeted to at t=1.2
        engine = Engine()
        fabric = Fabric(engine, 3)
        downs = []
        mon = HealthMonitor(
            0, 1, fabric, interval=1.0, miss_threshold=1,
            payload_bytes=10**10, on_down=downs.append,
        )
        engine.process(mon.run())
        engine.call_at(1.2, lambda: mon.retarget(2))  # mid-beat
        engine.call_at(1.5, lambda: fabric.begin_outage(1))  # old buddy
        engine.call_at(2.0, mon.stop)
        engine.run(until=6.0)
        assert downs == []
        assert mon.buddy_id == 2
        assert mon.buddy_healthy
        assert mon.misses == 0
        assert mon.stats.missed == 0  # the stale beat vanished entirely

    def test_validation(self):
        engine = Engine()
        fabric = Fabric(engine, 2)
        with pytest.raises(ValueError):
            HealthMonitor(0, 1, fabric, miss_threshold=0)


# ---------------------------------------------------------------------------
# BuddyDirectory
# ---------------------------------------------------------------------------


class TestBuddyDirectory:
    def test_initial_pairing_follows_topology(self):
        topo = Topology(4, 2)
        d = BuddyDirectory(topo)
        assert [d.buddy_of(n) for n in range(4)] == [topo.buddy_of(n) for n in range(4)]

    def test_repair_prefers_healthy_cross_rack(self):
        # racks are striped: rack0={0,2}, rack1={1,3}; 0's buddy is 1
        d = BuddyDirectory(Topology(4, 2))
        d.mark_failed(1)
        new = d.repair(0)
        assert new == 3  # healthy, cross-rack (node 2 shares 0's rack)
        assert d.buddy_of(0) == 3
        assert d.repairs == [(0, 1, 3)]

    def test_repair_never_self_and_never_failed(self):
        d = BuddyDirectory(Topology(4, 2))
        d.mark_failed(1)
        d.mark_failed(3)
        new = d.repair(0)
        assert new == 2  # only healthy candidate left, same rack
        assert new != 0

    def test_repair_keeps_a_healthy_buddy(self):
        d = BuddyDirectory(Topology(4, 2))
        assert d.repair(0) == d.buddy_of(0)
        assert d.repairs == []  # no re-pairing happened

    def test_repair_returns_none_without_candidates(self):
        d = BuddyDirectory(Topology(2, 1))
        d.mark_failed(1)
        assert d.repair(0) is None

    def test_recovered_node_is_a_candidate_again(self):
        d = BuddyDirectory(Topology(2, 1))
        d.mark_failed(1)
        assert d.repair(0) is None
        d.mark_recovered(1)
        assert d.repair(0) == 1

    def test_capacity_gate_filters_candidates(self):
        d = BuddyDirectory(Topology(4, 2))
        d.mark_failed(1)
        # node 3 (the preferred cross-rack candidate) has no room
        assert d.repair(0, fits=lambda o, c: c != 3) == 2
        # nobody has room: defer (None), pairing unchanged
        d2 = BuddyDirectory(Topology(4, 2))
        d2.mark_failed(1)
        assert d2.repair(0, fits=lambda o, c: False) is None
        assert d2.buddy_of(0) == 1

    def test_load_spreading(self):
        d = BuddyDirectory(Topology(8, 2))
        d.mark_failed(2)
        assert d.repair(1) == 4  # nearest healthy cross-rack node
        d.mark_failed(6)
        # node 4 now serves two sources; node 0 is equally cross-rack
        # but lighter, so the next orphan spreads onto it
        assert d.repair(5) == 0


# ---------------------------------------------------------------------------
# Degraded mode
# ---------------------------------------------------------------------------


def model_params(**kw):
    defaults = dict(
        compute_time=4000.0,
        checkpoint_bytes=MB(1000),
        nvm_bw_per_core=GB_per_sec(1.0),
        remote_bw=MB(400),
        local_interval=60.0,
        remote_interval=180.0,
        mtbf_local=900.0,
        mtbf_remote=1800.0,
    )
    defaults.update(kw)
    return ModelParams(**defaults)


class TestDegradedInterval:
    def test_shorter_than_normal_under_failure_pressure(self):
        params = model_params()
        d = degraded_local_interval(params, min_interval=5.0)
        assert 5.0 <= d <= params.local_interval
        # both failure rates now hit the local level: checkpoint more
        assert d < params.local_interval

    def test_clamped_to_min_interval(self):
        params = model_params(mtbf_local=20.0, mtbf_remote=20.0)
        d = degraded_local_interval(params, min_interval=8.0)
        assert d >= 8.0

    def test_never_exceeds_normal_interval(self):
        params = model_params(mtbf_local=1e9, mtbf_remote=1e9, local_interval=30.0)
        d = degraded_local_interval(params, min_interval=5.0)
        assert d <= 30.0


class TestDegradedModeController:
    def make(self):
        clock = {"now": 0.0}
        applied = []
        ctrl = DegradedModeController(
            3,
            clock=lambda: clock["now"],
            normal_interval=40.0,
            solve_interval=lambda: 10.0,
            on_enter=lambda i: applied.append(("enter", i)),
            on_exit=lambda i: applied.append(("exit", i)),
        )
        return ctrl, clock, applied

    def test_enter_exit_span_and_hooks(self):
        ctrl, clock, applied = self.make()
        with BUS.capture(Timeline()) as timeline:
            assert ctrl.enter("buddy-failed")
            clock["now"] = 25.0
            assert ctrl.exit()
        assert ctrl.degraded_time == 25.0
        assert ctrl.entries == 1
        assert applied == [("enter", 10.0), ("exit", 40.0)]
        assert timeline.total(tl.DEGRADED, "n3") == 25.0
        span = ctrl.spans[0]
        assert span.reason == "buddy-failed"
        assert span.interval == 10.0

    def test_idempotent_transitions(self):
        ctrl, clock, applied = self.make()
        assert ctrl.enter("a")
        assert not ctrl.enter("b")  # already degraded
        clock["now"] = 5.0
        assert ctrl.exit()
        assert not ctrl.exit()
        assert ctrl.entries == 1
        assert len(applied) == 2

    def test_finalize_closes_open_span(self):
        ctrl, clock, applied = self.make()
        ctrl.enter("x")
        clock["now"] = 12.0
        ctrl.finalize()
        assert not ctrl.active
        assert ctrl.degraded_time == 12.0
        ctrl.finalize()  # no-op when closed
        assert ctrl.entries == 1


# ---------------------------------------------------------------------------
# ResyncTask
# ---------------------------------------------------------------------------


def make_helper_world():
    engine = Engine()
    src = make_standalone_context(name="n0", engine=engine)
    dst = make_standalone_context(name="n1", engine=engine)
    fabric = Fabric(engine, 2)
    alloc = NVAllocator("r0", src.nvmm, src.dram)
    ck = LocalCheckpointer(src, alloc, PrecopyPolicy(mode="none"))
    helper = RemoteHelper(
        0, src, fabric, 1, dst, [alloc], CheckpointConfig(remote_precopy=False)
    )
    return engine, src, dst, fabric, alloc, ck, helper


class TestResyncTask:
    def prime(self, engine, alloc, ck):
        alloc.nvalloc("a", 4096).write(0, np.ones(512))
        alloc.nvalloc("b", 2048).write(0, np.ones(256))
        p = engine.process(ck.checkpoint(blocking=False))
        engine.run()
        assert p.ok

    def test_resync_restores_protection(self):
        engine, src, dst, fabric, alloc, ck, helper = make_helper_world()
        self.prime(engine, alloc, ck)
        helper.enqueue_unreplicated()
        task = ResyncTask(helper)
        p = engine.process(task.run())
        with BUS.capture(Timeline()) as timeline:
            engine.run()
        assert p.ok
        assert task.completed and not task.aborted
        assert task.chunks_sent == 2
        assert task.bytes_sent == 4096 + 2048
        target = helper.targets["r0"]
        assert target.committed["a"] >= 0 and target.committed["b"] >= 0
        assert all(
            not c.dirty_remote for c in alloc.persistent_chunks()
        )
        assert not helper._paused  # rounds resumed
        assert timeline.total(tl.RESYNC, helper.owner) > 0

    def test_resync_paces_at_stream_rate(self):
        engine, src, dst, fabric, alloc, ck, helper = make_helper_world()
        self.prime(engine, alloc, ck)
        helper.enqueue_unreplicated()
        task = ResyncTask(helper)
        engine.process(task.run())
        engine.run()
        expected = (4096 + 2048) / helper.pace_rate
        assert task.duration >= expected * 0.9

    def test_stale_task_stops_silently(self):
        engine, src, dst, fabric, alloc, ck, helper = make_helper_world()
        self.prime(engine, alloc, ck)
        helper.enqueue_unreplicated()
        task = ResyncTask(helper)
        helper.epoch += 1  # retargeted before the task ever ran
        p = engine.process(task.run())
        engine.run()
        assert p.ok
        assert task.aborted and not task.completed

    def test_abort_after_failure_limit(self):
        engine, src, dst, fabric, alloc, ck, helper = make_helper_world()
        self.prime(engine, alloc, ck)
        helper.enqueue_unreplicated()
        fabric.begin_outage(1)  # buddy unreachable, never heals
        task = ResyncTask(helper)
        p = engine.process(task.run())
        engine.run()
        assert p.ok
        assert task.aborted and not task.completed
        # chunks went back on the queue for the next attempt
        assert helper.queued_bytes > 0

    def test_failure_limit_abort_escalates(self):
        engine, src, dst, fabric, alloc, ck, helper = make_helper_world()
        self.prime(engine, alloc, ck)
        helper.enqueue_unreplicated()
        fabric.begin_outage(1)
        escalated = []
        task = ResyncTask(helper, on_abort=escalated.append)
        with BUS.capture() as ring:
            engine.process(task.run())
            engine.run()
        # a failed send (vs. staleness) is final: flagged, announced on
        # the trace bus, and escalated through on_abort so the runner
        # can keep the node in degraded mode
        assert task.send_failed
        assert escalated == [task]
        events = ring.of_kind("resync.aborted")
        assert len(events) == 1
        assert events[0].failures == 1

    def test_stale_abort_does_not_escalate(self):
        engine, src, dst, fabric, alloc, ck, helper = make_helper_world()
        self.prime(engine, alloc, ck)
        helper.enqueue_unreplicated()
        escalated = []
        task = ResyncTask(helper, on_abort=escalated.append)
        helper.epoch += 1  # a newer retarget owns the pairing now
        engine.process(task.run())
        engine.run()
        assert task.aborted and not task.send_failed
        assert escalated == []


# ---------------------------------------------------------------------------
# Failure injection (transients are scripted only)
# ---------------------------------------------------------------------------


class TestTransientInjection:
    def test_peek_never_skips_or_duplicates(self):
        fc = FailureConfig(mtbf_local=100.0, mtbf_remote=400.0, seed=7)
        pure = FailureInjector(fc, 4, RngStreams(7))
        mixed = FailureInjector(fc, 4, RngStreams(7))
        want = [pure.next_failure() for _ in range(30)]
        got = []
        for i in range(30):
            for _ in range(i % 3):  # arbitrary interleaved peeks
                mixed.peek()
            got.append(mixed.next_failure())
        assert got == want
        assert mixed.injected == pure.injected


class TestScriptedInjector:
    def test_replays_in_time_order(self):
        events = [
            FailureEvent(time=60.0, node=1, kind="hard"),
            FailureEvent(time=20.0, node=0, kind="soft"),
            FailureEvent(time=40.0, node=2, kind="transient", duration=5.0),
        ]
        inj = ScriptedInjector(events)
        out = [inj.next_failure() for _ in range(3)]
        assert [e.time for e in out] == [20.0, 40.0, 60.0]
        assert [e.kind for e in inj.injected] == ["soft", "transient", "hard"]

    def test_sentinel_after_exhaustion(self):
        inj = ScriptedInjector([FailureEvent(time=1.0, node=0, kind="soft")])
        inj.next_failure()
        assert inj.peek().time == float("inf")

    def test_peek_does_not_consume(self):
        inj = ScriptedInjector([FailureEvent(time=1.0, node=0, kind="soft")])
        assert inj.peek() is inj.peek()
        assert inj.next_failure().time == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ScriptedInjector([FailureEvent(time=1.0, node=0, kind="weird")])
        with pytest.raises(ValueError):
            ScriptedInjector(
                [FailureEvent(time=1.0, node=0, kind="transient", duration=0.0)]
            )


# ---------------------------------------------------------------------------
# The one failover path: generation-aware on every run
# ---------------------------------------------------------------------------


def _remote_state(helper):
    """(key, committed, held current, dirty_remote, queued) per chunk."""
    return [
        (
            (alloc.pid, chunk.chunk_id),
            chunk.committed_version >= 0,
            helper.holds_current(alloc.pid, chunk),
            chunk.dirty_remote,
            (alloc.pid, chunk.chunk_id) in helper._queue,
        )
        for alloc in helper.ranks
        for chunk in alloc.persistent_chunks()
    ]


class TestOneFailoverPath:
    """A plain failure run, no scenario: after a failure, what the
    current buddy provably holds at its latest commit generation stays
    clean; a re-pair, onto any buddy, re-sends every committed chunk."""

    @pytest.fixture(scope="class")
    def run(self):
        app = SyntheticModel(
            checkpoint_mb_per_rank=20, chunk_mb=5, iteration_compute_time=10.0,
            comm_mb_per_iteration=5, write_once_fraction=0.5,
        )
        cluster = Cluster(ClusterConfig(nodes=4), nvm_write_bandwidth=GB_per_sec(2.0), seed=5)
        cluster.build(app, precopy_config(10, 30), ranks_per_node=2)
        runner = ClusterRunner(
            cluster, injector=ScriptedInjector([FailureEvent(time=75.0, node=1, kind="soft")])
        )
        after_failure = []
        handle_failure = phases.handle_failure

        def observed(runner, ev, procs):
            yield from handle_failure(runner, ev, procs)
            after_failure.extend(
                row for node in cluster.active_nodes for row in _remote_state(node.helper)
            )

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(phases, "handle_failure", observed)
            res = runner.run(10)
        assert res.soft_failures == 1
        return cluster, after_failure

    def test_soft_failure_keeps_what_the_buddy_holds_clean(self, run):
        _, rows = run
        held = [row for row in rows if row[1] and row[2]]
        assert held, "no committed chunk was current on its buddy"
        assert all(not dirty and not queued for _, _, _, dirty, queued in held)
        stale = [row for row in rows if row[1] and not row[2]]
        assert all(dirty for _, _, _, dirty, _ in stale)

    def test_replaced_buddy_gets_every_committed_chunk(self, run):
        cluster, _ = run
        helper = cluster.nodes[0].helper
        buddy = cluster.nodes[helper.buddy_id]
        other = next(
            n for n in cluster.active_nodes if n.node_id not in (0, buddy.node_id)
        )
        committed = {key for key, done, *_ in _remote_state(helper) if done}
        held = {key for key, done, current, *_ in _remote_state(helper) if done and current}
        assert held and committed

        # away, back onto the same hardware, and back after the buddy's
        # hardware is replaced: each re-pair queues every committed chunk
        for node, replace in ((other, False), (buddy, False), (other, False), (buddy, True)):
            helper._queue.clear()
            if replace:
                buddy.replace_hardware()
            helper.retarget(node.node_id, node.ctx)
            assert helper.targets[helper.ranks[0].pid].dst_ctx is node.ctx
            assert set(helper._queue) == committed
            assert not any(current for _, _, current, *_ in _remote_state(helper))


class TestBuddyRebootMidStream:
    """A soft failure of a buddy while its sources' streams have staged
    copies on it: those copies die with its unflushed writes, so they
    are neither committed by the next round nor counted as held."""

    @pytest.fixture(scope="class")
    def run(self):
        app = SyntheticModel(
            checkpoint_mb_per_rank=20, chunk_mb=5, iteration_compute_time=10.0,
            comm_mb_per_iteration=5, write_once_fraction=0.5,
        )
        cluster = Cluster(ClusterConfig(nodes=4), nvm_write_bandwidth=GB_per_sec(2.0), seed=5)
        cluster.build(app, precopy_config(10, 30), ranks_per_node=2)
        # 85 s is inside the stream window before the 90 s round
        runner = ClusterRunner(
            cluster, injector=ScriptedInjector([FailureEvent(time=85.0, node=1, kind="soft")])
        )
        seen = {}
        handle_failure, recover_soft = phases.handle_failure, phases.recover_soft
        helper, bystander = cluster.nodes[0].helper, cluster.nodes[2].helper

        def staged(h):
            return {pid: dict(t._staged) for pid, t in h.targets.items()}

        def observed(runner, ev, procs):
            assert helper.buddy_id == ev.node
            seen["staged"] = [
                (alloc.pid, chunk)
                for alloc in helper.ranks
                for chunk in alloc.persistent_chunks()
                if chunk.name in helper.targets[alloc.pid]._staged
            ]
            seen["bystander"] = staged(bystander)
            yield from handle_failure(runner, ev, procs)
            seen["after"] = [
                (helper.holds_current(pid, chunk), chunk.dirty_remote)
                for pid, chunk in seen["staged"]
            ]

        def rebooting(runner, node):
            # the same instant as the reboot's store crash
            seen["left"] = staged(helper)
            seen["held"] = [helper.holds_current(pid, c) for pid, c in seen["staged"]]
            seen["bystander_at_reboot"] = staged(bystander)
            yield from recover_soft(runner, node)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(phases, "handle_failure", observed)
            mp.setattr(phases, "recover_soft", rebooting)
            res = runner.run(10)
        assert res.soft_failures == 1
        return cluster, seen

    def test_staged_copies_on_the_rebooted_buddy_are_dropped(self, run):
        _, seen = run
        assert seen["staged"], "nothing was staged on the buddy at the failure"
        assert not any(seen["left"].values())
        assert not any(seen["held"])
        # after recovery each is re-dirtied, or was re-sent and committed
        assert all(held or dirty for held, dirty in seen["after"])

    def test_other_buddies_keep_their_staged_copies(self, run):
        _, seen = run
        assert any(seen["bystander"].values())
        assert seen["bystander_at_reboot"] == seen["bystander"]

    def test_every_held_claim_is_a_committed_copy(self, run):
        cluster, _ = run
        for node in cluster.active_nodes:
            helper = node.helper
            for alloc in helper.ranks:
                target = helper.targets[alloc.pid]
                for chunk in alloc.persistent_chunks():
                    if helper.holds_current(alloc.pid, chunk):
                        assert target.committed.get(chunk.name, -1) >= 0


# ---------------------------------------------------------------------------
# AllReplicasLost escalation
# ---------------------------------------------------------------------------


class TestAllReplicasLost:
    def corrupt_local(self, src, alloc, name="a"):
        chunk = alloc.chunk(name)
        src.nvmm.store.write(
            f"r0/{name}#v{chunk.committed_version}",
            0,
            np.full(16, 0xAB, dtype=np.uint8),
        )
        src.nvmm.store.flush()

    def test_local_restart_without_remote_escalates(self):
        engine, src, dst, fabric, alloc, ck, helper = make_helper_world()
        alloc.nvalloc("a", 4096).write(0, np.ones(512))
        p = engine.process(ck.checkpoint(blocking=False))
        engine.run()
        assert p.ok
        self.corrupt_local(src, alloc)
        src.nvmm.crash_process("r0")
        with pytest.raises(AllReplicasLost) as ei:
            RestartManager(src).restart_process_sync("r0")
        assert ei.value.pid == "r0"
        assert ei.value.chunk == "a"
        assert ei.value.tried == ("local",)
        # structured escalation still satisfies the old contract
        assert isinstance(ei.value, NoCheckpointAvailable)

    def test_chunk_missing_on_buddy_escalates_with_both_tried(self):
        engine, src, dst, fabric, alloc, ck, helper = make_helper_world()
        alloc.nvalloc("a", 4096).write(0, np.ones(512))
        p = engine.process(ck.checkpoint(blocking=False))
        engine.run()
        assert p.ok
        self.corrupt_local(src, alloc)
        src.nvmm.crash_process("r0")
        # a buddy target exists but never committed anything
        mgr = RestartManager(src, fabric=fabric, node_id=0)
        with pytest.raises(AllReplicasLost) as ei:
            mgr.restart_process_sync(
                "r0", remote_target=helper.targets["r0"], remote_node=1
            )
        assert ei.value.tried == ("local", "buddy")

    def test_remote_restart_with_empty_buddy_escalates(self):
        engine, src, dst, fabric, alloc, ck, helper = make_helper_world()
        alloc.nvalloc("a", 4096)
        replacement = make_standalone_context(name="n0v2", engine=engine)
        mgr = RestartManager(replacement, fabric=fabric, node_id=0)
        proc = engine.process(
            mgr.restart_from_remote("r0", helper.targets["r0"], remote_node=1)
        )
        engine.run()
        assert isinstance(proc.exception, AllReplicasLost)
        assert proc.exception.tried == ("buddy",)

    def test_buddy_fetch_exhaustion_escalates(self):
        engine, src, dst, fabric, alloc, ck, helper = make_helper_world()
        alloc.nvalloc("a", 4096).write(0, np.ones(512))

        def prime():
            yield from ck.checkpoint(blocking=False)
            yield from helper.remote_checkpoint()

        p = engine.process(prime())
        engine.run()
        assert p.ok
        replacement = make_standalone_context(name="n0v2", engine=engine)
        transport = ResilientTransport(
            0, RngStreams(2),
            RetryPolicy(max_attempts=2, base_delay=0.1, jitter=0.0),
        )
        mgr = RestartManager(
            replacement, fabric=fabric, node_id=0, resilience=transport
        )
        fabric.begin_outage(1)  # buddy unreachable, never heals
        proc = engine.process(
            mgr.restart_from_remote("r0", helper.targets["r0"], remote_node=1)
        )
        engine.run()
        assert isinstance(proc.exception, AllReplicasLost)
        assert transport.stats.abandoned == 1
