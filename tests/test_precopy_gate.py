"""The pre-copy gate: before the policy's ready time no chunk may be
pre-copied, so the pre-copy loop sleeps through that window and an
application write does not wake it.

The property pins the precondition the sleep relies on: no policy in
:data:`POLICIES` answers :data:`Decision.PRECOPY` before its own
``ready_time``.  The standalone runs pin the sleep itself: writes
behind the closed gate, and through the whole learning interval, queue
nothing, and the first pre-copy still starts exactly at the boundary.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.alloc import NVAllocator
from repro.config import PrecopyPolicy
from repro.core import PrecopyEngine, make_standalone_context
from repro.core.policy import _EPS, POLICIES, Decision, IntervalClock
from repro.core.prediction import PredictionTable
from repro.core.threshold import ThresholdEstimator
from repro.metrics.trace import BUS
from repro.units import MB


class FakeChunk:
    def __init__(self, cid):
        self.chunk_id = cid


#: (interval s, checkpoint MB) folded into the threshold estimator
observations = st.lists(
    st.tuples(st.floats(0.0, 200.0), st.floats(0.0, 4096.0)), max_size=4
)


@given(
    name=st.sampled_from(sorted(POLICIES)),
    with_threshold=st.booleans(),
    bandwidth_mb=st.floats(1.0, 10_000.0),
    seen=observations,
    history=st.lists(st.integers(0, 5), max_size=4),
    mods=st.integers(0, 6),
    interval_start=st.floats(0.0, 1e5),
    offset=st.one_of(
        st.floats(0.0, 400.0),
        # just before / at / after the boundary, where _EPS decides
        st.floats(-4 * _EPS, 4 * _EPS).map(lambda d: ("boundary", d)),
    ),
)
@settings(max_examples=300, deadline=None)
def test_no_policy_precopies_before_its_ready_time(
    name, with_threshold, bandwidth_mb, seen, history, mods, interval_start, offset
):
    threshold = None
    if with_threshold:
        threshold = ThresholdEstimator(MB(bandwidth_mb))
        for interval, mb in seen:
            threshold.observe_interval(interval, MB(mb))
    prediction = PredictionTable()
    chunk = FakeChunk(7)
    for count in history:
        prediction.begin_interval()
        for _ in range(count):
            prediction.observe(chunk)
        prediction.end_interval()
    prediction.begin_interval()
    for _ in range(mods):
        prediction.observe(chunk)
    policy = POLICIES[name](threshold=threshold, prediction=prediction)
    ready = policy.ready_time(interval_start)
    if isinstance(offset, tuple):
        if ready == float("inf"):
            return
        now = ready + offset[1]
    else:
        now = interval_start + offset
    # the engine's clocks never read before their interval's start
    assume(now >= interval_start)
    clock = IntervalClock(now=now, interval_start=interval_start)
    if clock.now + _EPS < ready:
        assert policy.decide(chunk, clock) is not Decision.PRECOPY


def _rig(mode):
    ctx = make_standalone_context(name="gate")
    alloc = NVAllocator("p0", ctx.nvmm, ctx.dram, phantom=True, clock=lambda: ctx.engine.now)
    chunks = [alloc.nvalloc(f"c{i}", MB(1)) for i in range(3)]
    engine = PrecopyEngine(
        ctx,
        chunks=alloc.persistent_chunks,
        policy=PrecopyPolicy(mode=mode),
        threshold=ThresholdEstimator(ctx.effective_nvm_bw_per_core()),
        prediction=PredictionTable() if mode == "dcpcp" else None,
    )
    return ctx, chunks, engine


def _writes_queue_nothing(ctx, chunks, until):
    """Write every chunk a few times between two stretches of the run
    and return how many entries the engine dispatched meanwhile."""
    before = ctx.engine.events_processed
    for _ in range(3):
        for chunk in chunks:
            chunk.touch()
        ctx.engine.run(until=ctx.engine.now + (until - ctx.engine.now) / 4)
    ctx.engine.run(until=until)
    return ctx.engine.events_processed - before


def _first_precopy(sink):
    return min(ev.t for ev in sink.of_kind("policy.decision") if ev.decision == "precopy")


@pytest.mark.parametrize("mode", ["dcpc", "dcpcp"])
def test_writes_behind_the_closed_gate_queue_nothing(mode):
    ctx, chunks, engine = _rig(mode)
    engine.threshold.observe_interval(10.0, MB(2))
    engine.begin_interval()
    t_ready = engine.threshold_time()
    assert 1.0 < t_ready < 10.0
    with BUS.capture() as sink:
        ctx.engine.process(engine.run())
        ctx.engine.run(until=0.5)  # the loop is asleep behind the gate
        assert _writes_queue_nothing(ctx, chunks, until=t_ready - 0.5) == 0
        assert engine.stats.copies == 0
        ctx.engine.run(until=20.0)
    assert engine.stats.copies == len(chunks)
    assert _first_precopy(sink) == t_ready


@pytest.mark.parametrize("mode", ["dcpc", "dcpcp"])
def test_writes_in_the_learning_interval_queue_nothing(mode):
    ctx, chunks, engine = _rig(mode)
    assert engine.threshold_time() == float("inf")
    with BUS.capture() as sink:
        ctx.engine.process(engine.run())
        ctx.engine.run(until=1.0)
        assert _writes_queue_nothing(ctx, chunks, until=16.0) == 0
        assert engine.stats.copies == 0
        # the interval turns (as CheckpointEngine._finish_interval does)
        engine.threshold.observe_interval(16.0, MB(2))
        engine.begin_interval()
        engine.resume()
        t_ready = engine.threshold_time()
        assert 16.0 < t_ready < 32.0
        ctx.engine.run(until=40.0)
    assert engine.stats.copies == len(chunks)
    assert _first_precopy(sink) == t_ready
