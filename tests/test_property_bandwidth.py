"""Property-based tests of the processor-sharing bandwidth resource:
byte conservation, completion-time sanity, and work-conservation
bounds under arbitrary flow mixes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import BandwidthResource, Engine, UsageMeter

flows = st.lists(
    st.tuples(
        st.floats(1.0, 1e6),  # nbytes
        st.floats(0.0, 5.0),  # start delay
    ),
    min_size=1,
    max_size=12,
)


@given(flows=flows, capacity=st.floats(10.0, 1e6))
@settings(max_examples=100, deadline=None)
def test_byte_conservation(flows, capacity):
    engine = Engine()
    bw = BandwidthResource(engine, capacity)

    def xfer(nbytes, delay):
        if delay:
            yield engine.timeout(delay)
        yield bw.transfer(nbytes)

    for nbytes, delay in flows:
        engine.process(xfer(nbytes, delay))
    engine.run()
    assert bw.total_bytes == pytest.approx(sum(n for n, _ in flows), rel=1e-6)
    assert bw.active_flows == 0


@given(flows=flows, capacity=st.floats(10.0, 1e6))
@settings(max_examples=100, deadline=None)
def test_all_flows_complete_within_serial_bound(flows, capacity):
    """Processor sharing is work-conserving: the makespan never exceeds
    (last arrival) + (total bytes / capacity)."""
    engine = Engine()
    bw = BandwidthResource(engine, capacity)
    ends = []

    def xfer(nbytes, delay):
        if delay:
            yield engine.timeout(delay)
        yield bw.transfer(nbytes)
        ends.append(engine.now)

    for nbytes, delay in flows:
        engine.process(xfer(nbytes, delay))
    engine.run()
    assert len(ends) == len(flows)
    bound = max(d for _, d in flows) + sum(n for n, _ in flows) / capacity
    assert max(ends) <= bound * (1 + 1e-9) + 1e-6


@given(flows=flows, capacity=st.floats(10.0, 1e6))
@settings(max_examples=100, deadline=None)
def test_each_flow_at_least_solo_duration(flows, capacity):
    """No flow can beat running alone at full capacity."""
    engine = Engine()
    bw = BandwidthResource(engine, capacity)
    spans = []

    def xfer(nbytes, delay):
        if delay:
            yield engine.timeout(delay)
        t0 = engine.now
        yield bw.transfer(nbytes)
        spans.append((nbytes, engine.now - t0))

    for nbytes, delay in flows:
        engine.process(xfer(nbytes, delay))
    engine.run()
    for nbytes, span in spans:
        assert span >= nbytes / capacity - 1e-9


@given(
    flows=flows,
    capacity=st.floats(100.0, 1e6),
    cap_fraction=st.floats(0.05, 1.0),
)
@settings(max_examples=80, deadline=None)
def test_per_flow_cap_respected(flows, capacity, cap_fraction):
    engine = Engine()
    cap = capacity * cap_fraction
    bw = BandwidthResource(engine, capacity, per_flow_cap=cap)
    spans = []

    def xfer(nbytes, delay):
        if delay:
            yield engine.timeout(delay)
        t0 = engine.now
        yield bw.transfer(nbytes)
        spans.append((nbytes, engine.now - t0))

    for nbytes, delay in flows:
        engine.process(xfer(nbytes, delay))
    engine.run()
    for nbytes, span in spans:
        assert span >= nbytes / cap - 1e-9


@given(flows=flows)
@settings(max_examples=60, deadline=None)
def test_utilization_never_exceeds_capacity(flows):
    engine = Engine()
    bw = BandwidthResource(engine, 1000.0)
    UsageMeter(bw)

    def xfer(nbytes, delay):
        if delay:
            yield engine.timeout(delay)
        yield bw.transfer(nbytes)

    for nbytes, delay in flows:
        engine.process(xfer(nbytes, delay))
    engine.run()
    assert bw.utilization.peak() <= 1000.0 * (1 + 1e-9)
