"""Resources: FIFO resource, CPU cores, processor-sharing bandwidth."""

import math
import random
import signal
from contextlib import contextmanager

import pytest

from repro.errors import SimulationError, TransferCancelled
from repro.sim import BandwidthResource, CpuCores, Resource, UsageMeter, UtilizationTracker
from tests.conftest import run_proc


@contextmanager
def deadline(seconds: float):
    """Raise ``TimeoutError`` in the block if it runs longer than
    *seconds* (a guard for code that used to loop forever)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestResource:
    def test_grant_within_capacity(self, engine):
        res = Resource(engine, 2)
        order = []

        def user(i):
            yield res.request()
            order.append(("in", i, engine.now))
            yield engine.timeout(5.0)
            res.release()
            order.append(("out", i, engine.now))

        for i in range(3):
            engine.process(user(i))
        engine.run()
        # third user waits for a release at t=5
        assert ("in", 2, 5.0) in order
        assert engine.now == 10.0

    def test_release_idle_is_error(self, engine):
        res = Resource(engine, 1)
        with pytest.raises(SimulationError):
            res.release()

    def test_capacity_validation(self, engine):
        with pytest.raises(SimulationError):
            Resource(engine, 0)

    def test_use_helper(self, engine):
        res = Resource(engine, 1)

        def user():
            yield from res.use(2.0)
            return engine.now

        a = engine.process(user())
        b = engine.process(user())
        engine.run()
        assert a.value == 2.0
        assert b.value == 4.0

    def test_available_accounting(self, engine):
        res = Resource(engine, 3)
        res.request()
        engine.run()
        assert res.in_use == 1
        assert res.available == 2


class TestCpuCores:
    def test_busy_time_per_owner(self, engine):
        cpu = CpuCores(engine, 4)

        def w(owner, dur):
            yield from cpu.busy(owner, dur)

        engine.process(w("helper", 3.0))
        engine.process(w("app", 1.0))
        engine.run()
        assert cpu.busy_time("helper") == pytest.approx(3.0)
        assert cpu.busy_time("app") == pytest.approx(1.0)
        assert cpu.total_busy_time() == pytest.approx(4.0)

    def test_charge_without_queueing(self, engine):
        cpu = CpuCores(engine, 1)
        cpu.charge("helper", 0.5)
        cpu.charge("helper", 0.25)
        assert cpu.busy_time("helper") == pytest.approx(0.75)
        assert engine.now == 0.0  # no time passed

    def test_oversubscription_queues(self, engine):
        cpu = CpuCores(engine, 1)
        done = []

        def w(i):
            yield from cpu.busy(f"w{i}", 1.0)
            done.append(engine.now)

        for i in range(3):
            engine.process(w(i))
        engine.run()
        assert done == [1.0, 2.0, 3.0]


class TestBandwidthPS:
    def test_single_flow_full_rate(self, engine):
        bw = BandwidthResource(engine, 100.0)

        def p():
            yield bw.transfer(500.0)
            return engine.now

        assert run_proc(engine, p()) == pytest.approx(5.0)

    def test_equal_sharing_two_flows(self, engine):
        bw = BandwidthResource(engine, 100.0)
        ends = {}

        def p(name, nbytes):
            yield bw.transfer(nbytes, tag=name)
            ends[name] = engine.now

        engine.process(p("a", 500.0))
        engine.process(p("b", 500.0))
        engine.run()
        # both at 50 B/s -> 10 s each
        assert ends["a"] == pytest.approx(10.0)
        assert ends["b"] == pytest.approx(10.0)

    def test_late_joiner_slows_first(self, engine):
        bw = BandwidthResource(engine, 100.0)
        ends = {}

        def first():
            yield bw.transfer(1000.0, tag="first")
            ends["first"] = engine.now

        def second():
            yield engine.timeout(2.0)
            yield bw.transfer(400.0, tag="second")
            ends["second"] = engine.now

        engine.process(first())
        engine.process(second())
        engine.run()
        assert ends["second"] == pytest.approx(10.0)
        assert ends["first"] == pytest.approx(14.0)

    def test_per_flow_cap(self, engine):
        bw = BandwidthResource(engine, 100.0, per_flow_cap=25.0)

        def p():
            yield bw.transfer(100.0)
            return engine.now

        # alone, still capped at 25 B/s
        assert run_proc(engine, p()) == pytest.approx(4.0)

    def test_capacity_fn_interference(self, engine):
        # capacity shrinks to 50 with 2 flows
        bw = BandwidthResource(
            engine, 100.0, capacity_fn=lambda n: 100.0 if n <= 1 else 50.0
        )
        ends = {}

        def p(name):
            yield bw.transfer(250.0, tag=name)
            ends[name] = engine.now

        engine.process(p("a"))
        engine.process(p("b"))
        engine.run()
        # each runs at 25 B/s -> 10 s
        assert ends["a"] == pytest.approx(10.0)

    def test_zero_byte_transfer_completes_immediately(self, engine):
        bw = BandwidthResource(engine, 100.0)
        ev = bw.transfer(0.0)
        assert ev.triggered

    @pytest.mark.parametrize("capacity", [0.0, -1.0, float("nan")])
    def test_non_positive_capacity_rejected(self, engine, capacity):
        with pytest.raises(SimulationError, match="capacity must be positive"):
            BandwidthResource(engine, capacity)

    def test_negative_transfer_rejected(self, engine):
        bw = BandwidthResource(engine, 100.0)
        with pytest.raises(SimulationError):
            bw.transfer(-1.0)

    @pytest.mark.parametrize("nbytes", [float("nan"), float("inf")])
    def test_non_finite_transfer_rejected(self, engine, nbytes):
        bw = BandwidthResource(engine, 100.0)
        with pytest.raises(SimulationError):
            bw.transfer(nbytes)
        with pytest.raises(SimulationError):
            bw.transfer_many([(100.0, "r0:a"), (nbytes, "r0:b")])
        assert bw.active_flows == 0

    def test_nan_transfer_fails_its_process_instead_of_hanging_the_run(self, engine):
        bw = BandwidthResource(engine, 100.0)

        def p():
            yield bw.transfer(100.0)
            yield bw.transfer(float("nan"))

        proc = engine.process(p())
        with deadline(10.0):
            engine.run()
        assert engine.now == 1.0
        assert isinstance(proc.exception, SimulationError)

    def test_rejected_batch_strands_no_flow(self, engine):
        """A batch with a negative request is refused before any of its
        flows joins: nothing is left running without a wakeup, and the
        next flow completes exactly when it would on an idle resource."""
        bw = BandwidthResource(engine, 100.0)
        with pytest.raises(SimulationError):
            bw.transfer_many([(100.0, "r0:a"), (-1.0, "r0:b")])
        assert bw.active_flows == 0
        assert bw.total_bytes == 0.0
        done = []

        def p():
            yield engine.timeout(1.0)
            yield bw.transfer(250.0, tag="r0:c")
            done.append(engine.now)

        engine.process(p())
        engine.run()
        assert done == [3.5]
        assert bw.active_flows == 0
        assert bw.total_bytes == 250.0

    def test_unmetered_usage_read_raises(self, engine):
        bw = BandwidthResource(engine, 100.0, name="nvm0")
        bw.transfer(100.0, tag="r0:app")
        engine.run()
        assert bw.total_bytes == pytest.approx(100.0)
        for read in ("utilization", "utilization_by_kind", "bytes_by_tag"):
            with pytest.raises(SimulationError, match="nvm0 meters no usage"):
                getattr(bw, read)

    def test_meter_attaches_once_to_an_idle_resource(self, engine):
        bw = BandwidthResource(engine, 100.0)
        bw.transfer(100.0)
        with pytest.raises(SimulationError):
            UsageMeter(bw)  # a flow is already running unmetered
        engine.run()
        meter = UsageMeter(bw)
        assert bw.meter is meter
        with pytest.raises(SimulationError):
            UsageMeter(bw)

    def test_bytes_accounted_by_tag(self, engine):
        bw = BandwidthResource(engine, 100.0)
        UsageMeter(bw)

        def p():
            yield bw.transfer(300.0, tag="app")
            yield bw.transfer(200.0, tag="ckpt")

        run_proc(engine, p())
        assert bw.bytes_by_tag["app"] == pytest.approx(300.0)
        assert bw.bytes_by_tag["ckpt"] == pytest.approx(200.0)
        assert bw.total_bytes == pytest.approx(500.0)

    def test_cancel_tag_fails_event(self, engine):
        bw = BandwidthResource(engine, 100.0)
        outcome = []

        def p():
            try:
                yield bw.transfer(1000.0, tag="victim")
            except TransferCancelled:
                outcome.append("cancelled")

        engine.process(p())
        engine.run(until=1.0)
        assert bw.cancel_tag("victim") == 1
        engine.run()
        assert outcome == ["cancelled"]
        assert bw.active_flows == 0

    def test_cancel_matching_all(self, engine):
        bw = BandwidthResource(engine, 100.0)
        for tag in ("a", "b", "c"):
            bw.transfer(1e6, tag=tag)
        engine.run(until=0.5)
        assert bw.cancel_matching(None) == 3

    def test_utilization_series_records_rates(self, engine):
        bw = BandwidthResource(engine, 100.0)
        UsageMeter(bw)

        def p():
            yield bw.transfer(100.0)

        run_proc(engine, p())
        assert bw.utilization.peak() == pytest.approx(100.0)
        assert bw.utilization.value_at(2.0) == pytest.approx(0.0)

    def test_per_kind_tracking(self, engine):
        bw = BandwidthResource(engine, 100.0)
        UsageMeter(bw)

        def p():
            yield bw.transfer(100.0, tag="r0:app")

        run_proc(engine, p())
        assert "app" in bw.utilization_by_kind
        assert bw.utilization_by_kind["app"].peak() == pytest.approx(100.0)

    def test_float_dust_flows_complete(self, engine):
        """Flows left with sub-nanosecond remnants must complete, not
        spin (regression test for the livelock found in development)."""
        bw = BandwidthResource(engine, 1e9)
        done = []

        def p(nbytes, delay):
            if delay:
                yield engine.timeout(delay)
            yield bw.transfer(nbytes)
            done.append(engine.now)

        # staggered joins at awkward offsets produce float dust
        engine.process(p(1e8, 0.0))
        engine.process(p(1e8, 0.0333333333))
        engine.process(p(1e8, 0.0666666667))
        engine.run(until=100.0)
        assert len(done) == 3

    def test_conservation_of_bytes(self, engine):
        bw = BandwidthResource(engine, 77.7)

        def p(n):
            yield bw.transfer(n)

        total = 0.0
        for n in (10.0, 123.4, 999.9, 0.5):
            engine.process(p(n))
            total += n
        engine.run()
        assert bw.total_bytes == pytest.approx(total, rel=1e-9)


class TestUtilizationTracker:
    def test_integral_piecewise(self):
        t = UtilizationTracker()
        t.record(0.0, 10.0)
        t.record(5.0, 0.0)
        assert t.integral(0.0, 5.0) == pytest.approx(50.0)
        assert t.integral(0.0, 10.0) == pytest.approx(50.0)
        assert t.integral(2.0, 4.0) == pytest.approx(20.0)

    def test_value_at_before_first_sample(self):
        t = UtilizationTracker()
        t.record(5.0, 3.0)
        assert t.value_at(1.0) == 0.0
        assert t.value_at(5.0) == 3.0

    def test_windowed_series(self):
        t = UtilizationTracker()
        t.record(0.0, 4.0)
        t.record(2.0, 0.0)
        series = t.windowed_series(1.0, 4.0)
        assert [round(v) for _, v in series] == [4, 4, 0, 0]

    def test_peak_with_range(self):
        t = UtilizationTracker()
        t.record(0.0, 1.0)
        t.record(1.0, 9.0)
        t.record(2.0, 2.0)
        assert t.peak() == 9.0
        assert t.peak(t0=2.0) == 2.0

    def test_duplicate_values_collapse(self):
        t = UtilizationTracker()
        t.record(0.0, 5.0)
        t.record(1.0, 5.0)
        assert len(t.samples) == 1

    def test_window_validation(self):
        with pytest.raises(ValueError):
            UtilizationTracker().windowed_series(0.0, 1.0)

    @pytest.mark.parametrize("seed", range(60))
    def test_one_sweep_windows_equal_rescanned_integrals(self, seed):
        """``windowed_series`` walks the samples once; every entry must
        be, bit for bit, what integrating that window from scratch
        gives (``rescanned_integral``: the scan from the first sample
        that ``integral`` used to be)."""
        rng = random.Random(seed)
        tracker = UtilizationTracker()
        window = rng.choice((0.25, 0.5, 1.0, 0.3))
        at = rng.choice((0.0, 0.0, 2.75))  # first sample after some windows
        for _ in range(rng.randrange(0, 40)):  # seed 0 and others: empty
            # a third of the samples sit exactly on a window edge
            at = math.ceil(at / window) * window if rng.random() < 0.33 else at
            tracker.record(at, rng.choice((0.0, 1.0e9, 2.5e9, rng.random() * 3e9)))
            at += rng.choice((0.001, 0.1, window, 0.37, 1.9))
        t_start = rng.choice((0.0, 0.0, window, 0.4, 1.3))
        t_end = rng.choice((at + 1.0, at + 0.123, at * 0.5, 2.5, 0.1))  # rarely a multiple
        want = []
        t = t_start
        while t < t_end:
            hi = min(t + window, t_end)
            assert tracker.integral(t, hi) == rescanned_integral(tracker, t, hi)
            want.append((t, rescanned_integral(tracker, t, hi) / window))
            t += window
        assert tracker.windowed_series(window, t_end, t_start) == want

    def test_windows_before_the_first_sample_and_none_at_all(self):
        tracker = UtilizationTracker()
        assert tracker.windowed_series(1.0, 3.0) == [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        assert tracker.windowed_series(1.0, 0.0) == []
        tracker.record(10.0, 8.0)
        assert tracker.windowed_series(1.0, 3.0) == [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        assert tracker.windowed_series(4.0, 14.0, t_start=6.0) == [(6.0, 0.0), (10.0, 8.0)]


def rescanned_integral(tracker, t0, t1):
    if t1 <= t0 or not tracker.samples:
        return 0.0
    total = 0.0
    prev_t, prev_v = t0, tracker.value_at(t0)
    for t, v in tracker.samples:
        if t <= t0:
            continue
        if t >= t1:
            break
        total += prev_v * (t - prev_t)
        prev_t, prev_v = t, v
    total += prev_v * (t1 - prev_t)
    return total
