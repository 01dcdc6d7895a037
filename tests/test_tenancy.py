"""Multi-tenant QoS layer: capacity partitions, the weighted-fair
bandwidth bus, admission control/preemption, and the pinned scenario
driver's acceptance behaviour."""

import pytest

from repro.config import PCM_CONFIG, BandwidthModelConfig
from repro.errors import SimulationError, TransferCancelled
from repro.memory.bandwidth import CoreContentionModel
from repro.metrics.trace import BUS
from repro.sim import Engine
from repro.tenancy import (
    AdmissionController,
    NvmPartition,
    TenantSpec,
    WeightedFairBus,
    run_scenario,
)
from repro.units import MB

pytestmark = pytest.mark.tenancy


# ---------------------------------------------------------------------------
# NvmPartition
# ---------------------------------------------------------------------------


class TestNvmPartition:
    def test_reserve_release_accounting(self):
        p = NvmPartition("a", MB(10))
        assert p.reserve(MB(4))
        assert p.used_bytes == MB(4)
        assert p.available_bytes == MB(6)
        p.release(MB(4))
        assert p.used_bytes == 0
        assert p.peak_used_bytes == MB(4)

    def test_over_quota_reserve_fails_and_counts(self):
        p = NvmPartition("a", MB(10))
        assert p.reserve(MB(8))
        assert not p.reserve(MB(4))  # hard wall, never borrowed
        assert p.used_bytes == MB(8)
        assert p.reserve_failures == 1
        assert p.can_reserve(MB(2))

    def test_validation(self):
        with pytest.raises(SimulationError):
            NvmPartition("a", 0)
        with pytest.raises(SimulationError):
            NvmPartition("a", MB(1), share=0.0)
        p = NvmPartition("a", MB(1))
        with pytest.raises(SimulationError):
            p.reserve(-1)
        with pytest.raises(SimulationError):
            p.release(1)  # more than reserved


# ---------------------------------------------------------------------------
# WeightedFairBus
# ---------------------------------------------------------------------------


def make_bus(shares, engine=None):
    engine = engine or Engine()
    contention = CoreContentionModel(PCM_CONFIG, BandwidthModelConfig())
    partitions = {
        name: NvmPartition(name, MB(1024), share=share)
        for name, share in shares.items()
    }
    return engine, contention, WeightedFairBus(engine, contention, partitions)


def run_proc(engine, gen):
    p = engine.process(gen)
    engine.run()
    return p


class TestWeightedFairBus:
    def test_lone_tenant_runs_at_device_speed(self):
        """Work-conserving: a lone low-share tenant is not limited by
        its weight — only by the per-flow cap."""
        engine, contention, bus = make_bus({"a": 0.01, "b": 10.0})
        done = []

        def xfer():
            yield bus.transfer("a", contention.single_core_cap, tag="t")
            done.append(engine.now)

        run_proc(engine, xfer())
        assert done[0] == pytest.approx(1.0)
        assert bus.throttle_time.get("a", 0.0) == 0.0

    def test_weighted_split_under_contention(self):
        """With both tenants demanding more than the device gives, the
        high-share tenant is satiated first and never throttled; the
        low-share tenant absorbs the contention."""
        engine, contention, bus = make_bus({"hi": 4.0, "lo": 1.0})
        cap = contention.single_core_cap
        ends = {}

        def xfer(tenant, i):
            yield bus.transfer(tenant, cap, tag=f"{tenant}:{i}")
            ends[(tenant, i)] = engine.now

        for i in range(2):
            engine.process(xfer("hi", i))
            engine.process(xfer("lo", i))
        engine.run()
        bus.finalize()
        # 4 flows demand 4x the single-core cap = the device peak, but
        # C_eff(4) < peak: somebody must be throttled, and the weights
        # say it is "lo"
        assert max(ends[("hi", 0)], ends[("hi", 1)]) == pytest.approx(1.0)
        assert min(ends[("lo", 0)], ends[("lo", 1)]) > 1.0
        assert bus.throttle_time.get("hi", 0.0) == 0.0
        assert bus.throttle_time["lo"] > 0.0
        assert bus.throttle_events >= 1

    def test_water_fill_borrows_unused_share(self):
        """A demand-capped heavyweight's surplus goes to the others."""
        engine, contention, bus = make_bus({"big": 100.0, "small": 1.0})
        cap = contention.single_core_cap
        shares = bus._water_fill({"big": 1, "small": 3})
        # "big" can only use one flow's worth despite its weight...
        assert shares["big"] == pytest.approx(cap)
        # ...and "small" borrows everything left, far beyond its
        # 1/101 weighted slice
        c4 = contention.effective_capacity(4)
        assert shares["small"] == pytest.approx(c4 - cap)
        assert shares["small"] > c4 * (1.0 / 101.0)

    def test_byte_conservation(self):
        engine, contention, bus = make_bus({"a": 2.0, "b": 1.0})
        sizes = [MB(64), MB(32), MB(128), MB(16)]
        done = []

        def xfer(tenant, n, tag):
            done.append((yield bus.transfer(tenant, n, tag=tag)))

        for i, n in enumerate(sizes):
            engine.process(xfer("a" if i % 2 == 0 else "b", n, f"f{i}"))
        engine.run()
        assert len(done) == len(sizes)
        assert bus.total_bytes == pytest.approx(sum(sizes), rel=1e-6)
        assert bus.active_flows == 0
        assert sum(bus.bytes_by_tenant.values()) == pytest.approx(sum(sizes), rel=1e-6)

    def test_zero_byte_transfer_completes_immediately(self):
        engine, _, bus = make_bus({"a": 1.0})
        ev = bus.transfer("a", 0)
        assert ev.triggered
        assert bus.active_flows == 0

    def test_unknown_tenant_and_negative_bytes_raise(self):
        engine, _, bus = make_bus({"a": 1.0})
        with pytest.raises(SimulationError):
            bus.transfer("ghost", MB(1))
        with pytest.raises(SimulationError):
            bus.transfer("a", -1)
        for nbytes in (float("nan"), float("inf")):
            with pytest.raises(SimulationError):
                bus.transfer("a", nbytes)
        assert bus.active_flows == 0

    def test_cancel_tag_preempts_with_transfer_cancelled(self):
        engine, contention, bus = make_bus({"a": 1.0})
        outcome = {}

        def xfer():
            try:
                yield bus.transfer("a", MB(512), tag="victim")
            except TransferCancelled:
                outcome["cancelled"] = engine.now

        engine.process(xfer())
        engine.call_at(0.25, lambda: bus.cancel_tag("victim"))
        engine.run()
        assert outcome["cancelled"] == pytest.approx(0.25)
        assert bus.active_flows == 0

    def test_estimate_rate_is_pure(self):
        engine, contention, bus = make_bus({"a": 1.0, "b": 1.0})
        bus.transfer("a", MB(256), tag="x")
        before = bus.active_flows
        r1 = bus.estimate_rate("b", extra_flows=1)
        r2 = bus.estimate_rate("b", extra_flows=1)
        assert r1 == r2 > 0
        assert bus.active_flows == before

    def test_deterministic_completion_times(self):
        def one_run():
            engine, contention, bus = make_bus({"a": 3.0, "b": 1.0})
            ends = []

            def xfer(tenant, n, delay):
                yield engine.timeout(delay)
                yield bus.transfer(tenant, n, tag=f"{tenant}:{n}")
                ends.append((tenant, engine.now))

            for i in range(4):
                engine.process(xfer("a", MB(64 + i), 0.1 * i))
                engine.process(xfer("b", MB(48 + i), 0.15 * i))
            engine.run()
            bus.finalize()
            return ends, dict(bus.throttle_time)

        assert one_run() == one_run()


# ---------------------------------------------------------------------------
# AdmissionController
# ---------------------------------------------------------------------------


def make_controller(max_running=1, max_queue_depth=4, capacity=MB(64)):
    engine = Engine()
    contention = CoreContentionModel(PCM_CONFIG, BandwidthModelConfig())
    specs = {
        "guar": TenantSpec(
            name="guar", share=4.0, capacity_bytes=capacity,
            interval=30.0, rpo=90.0, guaranteed=True,
        ),
        "be": TenantSpec(
            name="be", share=1.0, capacity_bytes=capacity,
            interval=60.0, rpo=300.0,
        ),
    }
    partitions = {
        name: NvmPartition(
            name, spec.capacity_bytes, share=spec.share, guaranteed=spec.guaranteed
        )
        for name, spec in specs.items()
    }
    bus = WeightedFairBus(engine, contention, partitions)
    ctrl = AdmissionController(
        engine, bus, partitions, specs,
        max_running=max_running, max_queue_depth=max_queue_depth,
    )
    return engine, bus, partitions, ctrl


class TestAdmissionController:
    def test_capacity_reject(self):
        engine, bus, parts, ctrl = make_controller(capacity=MB(8))
        job = ctrl.submit("be", MB(16))
        assert job.decision == "reject"
        assert ctrl.rejected == 1
        assert parts["be"].reserve_failures == 1
        assert parts["be"].used_bytes == 0

    def test_queue_when_busy_then_dispatch(self):
        engine, bus, parts, ctrl = make_controller(max_running=1)
        first = ctrl.submit("be", MB(32))
        second = ctrl.submit("be", MB(8))
        assert first.decision == "admit"
        assert second.decision == "queue"
        assert ctrl.queued == 1
        engine.run()
        # the queued job dispatched once the slot freed, and completed
        assert second.finished_at is not None
        assert second.finished_at > first.finished_at

    def test_queue_full_reject_releases_reservation(self):
        engine, bus, parts, ctrl = make_controller(max_running=1, max_queue_depth=0)
        ctrl.submit("be", MB(32))
        used_after_first = parts["be"].used_bytes
        job = ctrl.submit("be", MB(8))
        assert job.decision == "reject"
        # the failed admission gave its capacity reservation back
        assert parts["be"].used_bytes == used_after_first

    def test_guaranteed_preempts_best_effort_for_slot(self):
        engine, bus, parts, ctrl = make_controller(max_running=1)
        victim = ctrl.submit("be", MB(32))
        assert victim.decision == "admit"
        job = ctrl.submit("guar", MB(16))
        assert job.decision == "admit"
        assert ctrl.preemptions == 1
        assert victim.preemptions == 1
        engine.run()
        # both finished: the victim restarted after the preemption
        assert job.finished_at is not None
        assert victim.finished_at is not None
        assert job.finished_at < victim.finished_at

    def test_best_effort_never_preempts(self):
        engine, bus, parts, ctrl = make_controller(max_running=1)
        ctrl.submit("be", MB(32))
        second = ctrl.submit("be", MB(8))
        assert second.decision == "queue"
        assert ctrl.preemptions == 0

    def test_two_version_capacity_flip(self):
        engine, bus, parts, ctrl = make_controller(max_running=2, capacity=MB(64))
        ctrl.submit("be", MB(24))
        engine.run()
        assert parts["be"].used_bytes == MB(24)  # committed copy held
        ctrl.submit("be", MB(16))
        engine.run()
        # the newer commit superseded the old reservation
        assert parts["be"].used_bytes == MB(16)

    def test_slo_scoring_and_report(self):
        engine, bus, parts, ctrl = make_controller(max_running=4)
        ctrl.submit("guar", MB(16))
        ctrl.submit("be", MB(16))
        engine.run()
        ctrl.finalize()
        rep = ctrl.report()
        assert set(rep) == {"be", "guar"}
        assert rep["guar"]["jobs_completed"] == 1
        assert rep["guar"]["interval_attainment"] == 1.0
        assert rep["guar"]["mean_latency_s"] > 0
        assert rep["guar"]["bytes_moved"] == pytest.approx(MB(16), rel=1e-6)

    def test_admission_and_preempt_trace_events(self):
        with BUS.capture() as ring:
            engine, bus, parts, ctrl = make_controller(max_running=1)
            ctrl.submit("be", MB(32))
            ctrl.submit("guar", MB(16))
            engine.run()
            ctrl.finalize()
        admissions = ring.of_kind("tenant.admission")
        assert [e.decision for e in admissions] == ["admit", "admit"]
        preempts = ring.of_kind("tenant.preempt")
        assert len(preempts) == 1
        assert preempts[0].tenant == "be"
        assert preempts[0].beneficiary == "guar"
        assert preempts[0].reason == "slot"
        slo = ring.of_kind("tenant.slo")
        assert {e.tenant for e in slo} == {"be", "guar"}

    def test_unknown_tenant_raises(self):
        engine, bus, parts, ctrl = make_controller()
        with pytest.raises(SimulationError):
            ctrl.submit("ghost", MB(1))


# ---------------------------------------------------------------------------
# The pinned scenario driver
# ---------------------------------------------------------------------------


class TestScenarioDriver:
    def test_deterministic(self):
        a = run_scenario(seed=3, duration=150.0)
        b = run_scenario(seed=3, duration=150.0)
        assert a == b

    def test_seed_changes_outcome(self):
        a = run_scenario(seed=3, duration=150.0)
        b = run_scenario(seed=4, duration=150.0)
        assert a != b

    def test_pinned_scenario_acceptance(self):
        """The bench/CI contract: the guaranteed tenant holds its
        interval and RPO targets while best-effort tenants are
        throttled, with queueing and preemption both exercised."""
        r = run_scenario()
        tenants = r["tenants"]
        guar = [t for t in tenants.values() if t["guaranteed"]]
        best = [t for t in tenants.values() if not t["guaranteed"]]
        assert guar and best
        for t in guar:
            assert t["interval_attainment"] >= 0.95
            assert t["rpo_attainment"] >= 0.95
            assert t["throttle_time_s"] == 0.0
        assert all(t["throttle_time_s"] > 0.0 for t in best)
        assert r["totals"]["queued"] > 0
        assert r["totals"]["preemptions"] > 0
        assert r["totals"]["rejected"] > 0

    def test_tenant_trace_events_emitted(self):
        with BUS.capture() as ring:
            run_scenario(seed=3, duration=150.0)
        kinds = {e.kind for e in ring.events}
        assert "tenant.admission" in kinds
        assert "tenant.throttle" in kinds
        assert "tenant.slo" in kinds
