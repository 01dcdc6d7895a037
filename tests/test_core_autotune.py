"""Online autotuning: IntervalTuner estimate edges and the
OnlinePolicyTuner bandit.

The bandit tests drive the tuner with a stub engine and synthetic
stationary costs, so convergence is checked against a known-best arm:
after the forced first tour and epsilon decay, the tuner must settle
on (or within 10% of) the cheapest fixed policy.  The live test runs
a real autotuned cluster cell and asserts the switches surface both
in :class:`RunResult` and as ``autotune.switch`` trace events.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest

from repro.core.autotune import IntervalTuner, OnlinePolicyTuner
from repro.core.threshold import ThresholdEstimator
from repro.errors import ConfigError
from repro.metrics.trace import BUS, ChunkCopiedEvent, RingBufferSink

# ---------------------------------------------------------------------------
# IntervalTuner: estimate edges.
# ---------------------------------------------------------------------------


class TestIntervalTunerEstimates:
    def test_mtbf_is_prior_before_any_observation(self):
        tuner = IntervalTuner(30.0, prior_mtbf=3600.0, prior_weight=1.0)
        assert tuner.mtbf_estimate() == 3600.0

    def test_failure_free_progress_raises_the_estimate(self):
        tuner = IntervalTuner(30.0, prior_mtbf=3600.0)
        tuner.observe_progress(7200.0)
        assert tuner.mtbf_estimate() > 3600.0

    def test_single_failure_blends_prior_and_observation(self):
        tuner = IntervalTuner(30.0, prior_mtbf=3600.0, prior_weight=1.0)
        tuner.observe_failure(1800.0)
        # 1 pseudo-failure over 3600 s + 1 real failure over 1800 s
        assert tuner.mtbf_estimate() == pytest.approx((3600.0 + 1800.0) / 2)

    def test_many_failures_swamp_the_prior(self):
        tuner = IntervalTuner(30.0, prior_mtbf=3600.0, prior_weight=1.0)
        for i in range(1, 101):
            tuner.observe_failure(i * 100.0)
        # observed MTBF is 100 s; one 3600 s pseudo-failure over 101
        # failures pulls it up by only a third
        assert tuner.mtbf_estimate() == pytest.approx((3600.0 + 10000.0) / 101)
        assert tuner.mtbf_estimate() < 150.0

    def test_recommendation_is_initial_interval_before_any_cost(self):
        tuner = IntervalTuner(30.0)
        assert tuner.recommended_interval() == 30.0

    def test_recommendation_follows_youngs_formula(self):
        tuner = IntervalTuner(30.0, prior_mtbf=3600.0, smoothing=1.0)
        tuner.observe_checkpoint(2.0)
        expected = math.sqrt(2.0 * 2.0 * 3600.0)
        assert tuner.recommended_interval() == pytest.approx(expected)

    def test_recommendation_clamps_to_the_band(self):
        tuner = IntervalTuner(
            30.0, prior_mtbf=10.0, min_interval=25.0, max_interval=40.0,
            smoothing=1.0,
        )
        tuner.observe_checkpoint(0.001)
        # sqrt(2 * 0.001 * 10) ~ 0.14 s, far below the floor
        assert tuner.recommended_interval() == 25.0

    def test_checkpoint_cost_is_smoothed(self):
        tuner = IntervalTuner(30.0, smoothing=0.5)
        tuner.observe_checkpoint(4.0)
        tuner.observe_checkpoint(2.0)
        assert tuner.checkpoint_cost == pytest.approx(3.0)
        tuner.observe_checkpoint(0.0)  # ignored
        assert tuner.checkpoint_cost == pytest.approx(3.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"initial_interval": 0.0},
            {"initial_interval": 30.0, "smoothing": 0.0},
            {"initial_interval": 30.0, "min_interval": 50.0, "max_interval": 40.0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            IntervalTuner(**kwargs)


# ---------------------------------------------------------------------------
# OnlinePolicyTuner: the bandit, on a stub engine.
# ---------------------------------------------------------------------------

#: stationary synthetic per-interval blocking costs; dcpc is the
#: known-best arm the bandit must find
COSTS = {"none": 5.0, "cpc": 3.0, "dcpc": 1.0, "dcpcp": 2.0}


class StubEngine:
    """The minimal surface the tuner contract names: ``policy.mode``,
    ``set_policy`` and ``on_complete``."""

    tag = "r0"

    def __init__(self, mode: str = "none") -> None:
        self.policy = SimpleNamespace(mode=mode)
        self.on_complete = []
        self.set_calls = []

    def set_policy(self, mode: str) -> None:
        self.policy.mode = mode
        self.set_calls.append(mode)


def drive(tuner, engine, n, costs=COSTS):
    """Close *n* intervals through the engine's observer list, each
    costing whatever the currently-held arm costs."""
    for _ in range(n):
        stats = SimpleNamespace(duration=costs[tuner.current])
        for cb in list(engine.on_complete):
            cb(stats)


class TestOnlinePolicyTuner:
    def test_rejects_unknown_strategy_and_empty_arms(self):
        with pytest.raises(ConfigError):
            OnlinePolicyTuner(StubEngine(), strategy="thompson")
        with pytest.raises(ConfigError):
            OnlinePolicyTuner(StubEngine(), arms=())

    def test_forced_first_tour_pulls_every_arm_once(self):
        engine = StubEngine()
        tuner = OnlinePolicyTuner(engine, bandwidth=1.0).attach()
        drive(tuner, engine, len(tuner.arms))
        assert all(tuner.pulls[a] >= 1 for a in tuner.arms)
        tuner.detach()

    def test_epsilon_greedy_converges_to_best_arm(self):
        engine = StubEngine()
        tuner = OnlinePolicyTuner(engine, seed=1, bandwidth=1.0).attach()
        drive(tuner, engine, 60)
        tuner.detach()
        # acceptance bar: end within 10% of the best fixed policy
        assert COSTS[tuner.current] <= 1.1 * min(COSTS.values())
        assert tuner.mean_cost["dcpc"] == pytest.approx(1.0)
        # exploration decayed: most pulls landed on the winner
        assert tuner.pulls["dcpc"] > sum(
            n for a, n in tuner.pulls.items() if a != "dcpc"
        )

    def test_ucb_converges_to_best_arm(self):
        engine = StubEngine()
        tuner = OnlinePolicyTuner(
            engine, strategy="ucb", bandwidth=1.0
        ).attach()
        drive(tuner, engine, 60)
        tuner.detach()
        assert COSTS[tuner.current] <= 1.1 * min(COSTS.values())
        assert tuner.pulls["dcpc"] > max(
            n for a, n in tuner.pulls.items() if a != "dcpc"
        )

    def test_switch_hot_swaps_engine_and_records_transition(self):
        engine = StubEngine(mode="none")
        tuner = OnlinePolicyTuner(engine, seed=3, bandwidth=1.0).attach()
        drive(tuner, engine, 10)
        tuner.detach()
        assert tuner.switches, "forced tour alone guarantees switches"
        # every recorded switch was applied to the engine, in order
        assert [to for _, _, to in tuner.switches] == engine.set_calls
        assert engine.policy.mode == tuner.current

    def test_switches_emit_autotune_events_on_the_bus(self):
        engine = StubEngine(mode="none")
        tuner = OnlinePolicyTuner(engine, seed=3, bandwidth=1.0).attach()
        with BUS.capture(RingBufferSink()) as ring:
            drive(tuner, engine, 10)
        tuner.detach()
        events = ring.of_kind("autotune.switch")
        assert [(e.from_policy, e.to_policy) for e in events] == [
            (frm, to) for _, frm, to in tuner.switches
        ]
        assert all(e.reason == "bandit" and e.actor == "r0" for e in events)

    def test_precopy_traffic_is_metered_off_the_bus(self):
        engine = StubEngine(mode="dcpc")
        tuner = OnlinePolicyTuner(
            engine, arms=("dcpc",), bandwidth=2.0, waste_weight=0.5
        ).attach()
        try:
            copy = dict(t=1.0, chunk="heap-0", nbytes=8, start=0.5,
                        stream="local", phase="precopy")
            BUS.emit(ChunkCopiedEvent(actor="r0:precopy", **copy))
            BUS.emit(ChunkCopiedEvent(actor="r1:precopy", **copy))  # not ours
            stats = SimpleNamespace(duration=3.0)
            # 3.0 blocking + 0.5 * 8 bytes / 2.0 B/s of bus waste
            assert tuner.interval_cost(stats) == pytest.approx(3.0 + 2.0)
            tuner._on_interval_complete(stats)
            # the meter resets at the interval boundary
            assert tuner.interval_cost(stats) == pytest.approx(3.0)
        finally:
            tuner.detach()

    def test_nudge_walks_threshold_margin_without_switching(self):
        threshold = ThresholdEstimator(bandwidth_per_core=1.0, margin=1.25)
        engine = StubEngine(mode="dcpc")
        engine.threshold = threshold
        engine.decision_policy = SimpleNamespace(needs_threshold=True)
        tuner = OnlinePolicyTuner(
            engine, arms=("dcpc",), nudge_margin=True, margin_step=0.1,
            bandwidth=1.0,
        ).attach()
        with BUS.capture(RingBufferSink()) as ring:
            # equal-cost interval reads as "cheap": margin backs off
            tuner._on_interval_complete(SimpleNamespace(duration=2.0))
            assert threshold.margin == pytest.approx(1.15)
            # costlier-than-mean interval: start pre-copy earlier
            tuner._on_interval_complete(SimpleNamespace(duration=9.0))
            assert threshold.margin == pytest.approx(1.25)
        tuner.detach()
        assert tuner.nudges == 2
        assert not tuner.switches
        nudge_events = ring.of_kind("autotune.switch")
        assert all(e.reason == "nudge" for e in nudge_events)
        assert len(nudge_events) == 2

    def test_detach_is_idempotent_and_unhooks_the_engine(self):
        engine = StubEngine()
        tuner = OnlinePolicyTuner(engine, bandwidth=1.0).attach()
        assert engine.on_complete
        tuner.detach()
        tuner.detach()
        assert not engine.on_complete
        assert not BUS.active


# ---------------------------------------------------------------------------
# Live integration: an autotuned cluster run.
# ---------------------------------------------------------------------------


@pytest.mark.replay
def test_autotuned_cluster_run_switches_and_traces(assert_replay_matches):
    from repro.replay import capture_cell

    cap = capture_cell(
        {
            "app": "lammps",
            "nodes": 2,
            "ranks_per_node": 2,
            "iterations": 3,
            "local_interval": 20.0,
            "mode": "dcpcp",
            "autotune": True,
        }
    )
    result = cap.result
    assert result.autotune_switches > 0
    switch_events = [e for e in cap.events if e.kind == "autotune.switch"]
    assert len(switch_events) >= result.autotune_switches
    assert result.autotune_final_policy
    record = result.to_dict()
    assert record["autotune"]["switches"] == result.autotune_switches
    # the faithful replay oracle holds under hot-swapped policies too:
    # accounting is event-verbatim, so switching modes mid-run must not
    # open any live-vs-replay gap
    assert_replay_matches(cap)


#: one hard failure of a node (seeded), replaced and restarted mid-run
AUTOTUNE_HARD_FAILURE = [
    "--app", "lammps", "--nodes", "2", "--ranks-per-node", "2",
    "--iterations", "10", "--local-interval", "20", "--remote-interval", "40",
    "--autotune", "--mtbf-remote", "150", "--seed", "3",
]


def _tuners_on(engine):
    return [
        cb.__self__
        for cb in engine.on_complete
        if isinstance(getattr(cb, "__self__", None), OnlinePolicyTuner)
    ]


def _subscribed_tuners():
    return [
        sink._callback.__self__
        for sink in BUS._sinks
        if isinstance(getattr(getattr(sink, "_callback", None), "__self__", None),
                      OnlinePolicyTuner)
    ]


def test_hard_failure_retunes_the_replacement_and_lets_dead_tuners_go(monkeypatch):
    """After a hard failure every live rank has exactly one tuner on its
    live engine, no tuner of a dead rank stays attached or subscribed,
    and the final policy is the set of modes the live ranks run."""
    from repro.cluster import phases
    from repro.exec.cell import build_parser, run_experiment

    seen = []
    recover_hard = phases.recover_hard

    def observed(runner, node):
        dead = [state.checkpointer for state in node.ranks]
        rollback = yield from recover_hard(runner, node)
        live = [state.checkpointer for state in runner.cluster.all_ranks()]
        seen.append(
            (
                [_tuners_on(e) for e in live],
                [_tuners_on(e) for e in dead],
                [t.engine for t in _subscribed_tuners()],
                live,
            )
        )
        return rollback

    monkeypatch.setattr(phases, "recover_hard", observed)
    res = run_experiment(build_parser().parse_args(AUTOTUNE_HARD_FAILURE))
    assert res.hard_failures == 1
    ((live_tuners, dead_tuners, subscribed_engines, live),) = seen
    for engine, tuners in zip(live, live_tuners):
        assert [t.engine for t in tuners] == [engine]
    assert dead_tuners == [[], []]
    assert sorted(map(id, subscribed_engines)) == sorted(map(id, live))
    assert _subscribed_tuners() == []
    modes = {state.checkpointer.policy.mode for state in res.cluster.all_ranks()}
    assert res.autotune_final_policy == ",".join(sorted(modes))
