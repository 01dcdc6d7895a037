"""End-to-end resilience acceptance scenarios (ISSUE 3).

Scripted failure schedules drive a 4-node/2-rack cluster through
transient link flaps and mid-run hard buddy failures; the run must
complete with every retried transfer delivered or re-synced, a nonzero
degraded-mode span that ends before completion, restart-after-degraded
recovering from the *new* buddy, and bit-identical results under a
fixed seed.
"""

import pytest

from repro.apps import SyntheticModel
from repro.baselines import precopy_config
from repro.cluster import Cluster, ClusterRunner, FailureEvent, ScriptedInjector
from repro.config import ClusterConfig
from repro.metrics import timeline as tl
from repro.metrics.timeline import Timeline
from repro.metrics.trace import BUS
from repro.units import GB_per_sec


def tiny_app():
    return SyntheticModel(
        checkpoint_mb_per_rank=20,
        chunk_mb=5,
        iteration_compute_time=10.0,
        comm_mb_per_iteration=5,
    )


def build_cluster(seed=5):
    cluster = Cluster(
        ClusterConfig(nodes=4),
        nvm_write_bandwidth=GB_per_sec(2.0),
        seed=seed,
    )
    cluster.build(tiny_app(), precopy_config(10, 30), ranks_per_node=2)
    return cluster


def flap_then_buddy_death():
    """A transient link flap on node 1 in the middle of an active
    stream window (the helpers stream in the last ``stream_window``
    seconds before each 30 s round deadline, so [50, 60) is busy),
    then node 1 dies hard during a later compute phase."""
    return [
        FailureEvent(time=52.0, node=1, kind="transient", duration=6.0),
        FailureEvent(time=75.0, node=1, kind="hard"),
    ]


def run_scenario(events, iters=10, seed=5):
    """Returns ``(cluster, runner, result, timeline)``; the timeline
    observes the run from the trace bus like any other sink."""
    cluster = build_cluster(seed=seed)
    runner = ClusterRunner(cluster, injector=ScriptedInjector(events))
    with BUS.capture(Timeline()) as timeline:
        res = runner.run(iters)
    return cluster, runner, res, timeline


class TestTransientPlusHardFailure:
    @pytest.fixture(scope="class")
    def scenario(self):
        return run_scenario(flap_then_buddy_death())

    def test_run_completes(self, scenario):
        cluster, runner, res, timeline = scenario
        assert res.iterations == 10
        assert res.transient_failures == 1
        assert res.hard_failures == 1

    def test_transient_outage_recorded_and_retried(self, scenario):
        cluster, runner, res, timeline = scenario
        assert timeline.total(tl.OUTAGE, "n1") == pytest.approx(6.0)
        # in-flight transfers torn down by the flap were re-issued
        assert res.transfer_retries >= 1
        # and every retried transfer was eventually delivered
        assert res.transfers_abandoned == 0

    def test_degraded_span_ends_before_completion(self, scenario):
        cluster, runner, res, timeline = scenario
        assert res.degraded_entries >= 1
        assert res.degraded_time_total > 0
        spans = [p for p in timeline.phases if p.kind == tl.DEGRADED]
        assert spans
        assert all(p.end < res.total_time for p in spans)
        assert res.degraded_time_total < res.total_time

    def test_orphan_repaired_cross_rack_and_resynced(self, scenario):
        cluster, runner, res, timeline = scenario
        # node 0 (buddy was node 1) re-pairs to node 3: healthy, other rack
        assert res.buddy_repairs >= 1
        assert runner.directory.repairs[0][:2] == (0, 1)
        assert runner.directory.repairs[0][2] == 3
        assert cluster.nodes[0].helper.buddy_id == 3
        assert res.resyncs_completed >= 1
        assert res.resync_bytes > 0
        assert timeline.total(tl.RESYNC) > 0

    def test_protection_restored_at_end(self, scenario):
        cluster, runner, res, timeline = scenario
        # the re-paired helper holds committed copies on the new buddy
        helper = cluster.nodes[0].helper
        for target in helper.targets.values():
            assert target.committed_chunks()
        # heartbeats flowed and the monitors saw the buddy die
        assert res.heartbeats_sent > 0
        assert res.buddy_down_detections >= 1

    def test_failures_cost_time(self, scenario):
        cluster, runner, res, timeline = scenario
        clean_cluster = build_cluster()
        clean = ClusterRunner(clean_cluster).run(10)
        assert res.total_time > clean.total_time
        assert res.iterations_recomputed >= 1


class TestDeterminism:
    def test_identical_results_and_timelines(self):
        _, _, a, tla = run_scenario(flap_then_buddy_death())
        _, _, b, tlb = run_scenario(flap_then_buddy_death())
        da, db = a.to_dict(), b.to_dict()
        assert da == db
        assert tla.phases and tla.phases == tlb.phases

    def test_retry_jitter_follows_the_seed(self):
        from repro.resilience import RetryPolicy
        from repro.sim.rng import RngStreams

        p = RetryPolicy(jitter=0.25)
        a = [p.backoff_delay(k, RngStreams(5), "resilience.backoff.n0") for k in range(4)]
        b = [p.backoff_delay(k, RngStreams(6), "resilience.backoff.n0") for k in range(4)]
        assert a != b


class TestRestartAfterDegraded:
    def test_second_failure_recovers_from_new_buddy(self):
        # node 1 dies at 58 → node 0 re-pairs to node 3 and re-syncs;
        # node 0 dies at 130 → its replacement must restart from the
        # *new* buddy (node 3), not the long-dead original pairing
        events = [
            FailureEvent(time=58.0, node=1, kind="hard"),
            FailureEvent(time=130.0, node=0, kind="hard"),
        ]
        cluster, runner, res, _ = run_scenario(events, iters=12)
        assert res.iterations == 12
        assert res.hard_failures == 2
        assert cluster.nodes[0].helper.buddy_id == 3
        # the replacement's state came over the fabric from node 3
        assert cluster.fabric.total_bytes(":rfetch") > 0
        # re-sync restored two-level protection before/after the restart
        assert res.resyncs_completed >= 1
        for target in cluster.nodes[0].helper.targets.values():
            assert target.committed_chunks()

    def test_back_to_back_flaps_heal_without_state_loss(self):
        events = [
            FailureEvent(time=22.0, node=2, kind="transient", duration=4.0),
            FailureEvent(time=41.0, node=2, kind="transient", duration=6.0),
        ]
        cluster, runner, res, timeline = run_scenario(events, iters=8)
        assert res.iterations == 8
        assert res.transient_failures == 2
        assert res.hard_failures == 0
        assert res.iterations_recomputed == 0  # no rollback for flaps
        assert res.transfers_abandoned == 0
        assert timeline.total(tl.OUTAGE, "n2") == pytest.approx(10.0)
        # protection fully restored once the link healed
        for target in cluster.nodes[2].helper.targets.values():
            assert target.committed_chunks()


class TestResilienceGating:
    def test_no_injector_means_no_resilience_machinery(self):
        cluster = build_cluster()
        runner = ClusterRunner(cluster)
        res = runner.run(3)
        assert not runner.resilience_active
        assert runner.directory is None
        assert res.heartbeats_sent == 0
        assert res.degraded_entries == 0

    def test_clean_runs_unchanged_by_resilience_code(self):
        # a run without failures must be bit-identical to the same run
        # before the resilience layer existed: no heartbeat traffic, no
        # retry jitter, nothing
        a = ClusterRunner(build_cluster()).run(4)
        b = ClusterRunner(build_cluster()).run(4)
        assert a.total_time == b.total_time
        assert a.heartbeats_sent == b.heartbeats_sent == 0
