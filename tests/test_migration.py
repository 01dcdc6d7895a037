"""Elastic membership + live chunk migration (ISSUE 8).

Three cluster scenarios plus unit coverage of the planner:

1. the **elastic grow/shrink** scenario (the ``elastic-*`` cells of
   ``repro.exec.cell.SCENARIOS``, as the ``elastic`` bench block runs them):
   an early hard failure overloads a survivor, a spare *joins* and the
   planner offloads onto it in bounded batches, the
   replaced node *drains* and departs, and the newcomer's late death
   fails its source back to the pre-migration buddy **incrementally**
   (strictly fewer re-sync bytes than the full-resync baseline);
2. a **drain with evacuation**: the draining node's hosted copies
   migrate off live before it departs, firing every ``migrate.*``
   crash point along the way;
3. an **aborted evacuation**: the migration's source dies mid-batch —
   the epoch guard kills the stale task, ownership never flips, the
   drain stays incomplete (retired, not departed) and the old pairing
   goes on protecting the source.
"""

import pytest

from repro.apps import SyntheticModel
from repro.baselines import precopy_config
from repro.cluster import (
    Cluster,
    ClusterRunner,
    FailureEvent,
    MembershipEvent,
    ScriptedInjector,
    phases,
)
from repro.config import ClusterConfig
from repro.exec.cell import run_collected
from repro.faults.crashpoints import FaultInjector, all_points, install
from repro.metrics import timeline as tl
from repro.metrics.timeline import Timeline
from repro.metrics.trace import BUS
from repro.net.topology import Topology
from repro.resilience import BuddyDirectory, MigrationPlanner
from repro.tools.bench import elastic_config
from repro.units import GB_per_sec

pytestmark = pytest.mark.migration


# ---------------------------------------------------------------------------
# The elastic grow/shrink scenario (the tentpole's acceptance story).
# ---------------------------------------------------------------------------


def run_scenario(name):
    """One elastic ``--scenario`` cell's (cluster, runner, result)."""
    return run_collected(
        elastic_config(name), lambda res: (res.cluster, res.runner, res)
    )


def run_elastic():
    return run_scenario("elastic-migrate")


def run_full_resync_baseline():
    return run_scenario("elastic-full-resync")


class TestElasticScenario:
    @pytest.fixture(scope="class")
    def elastic_observed(self):
        with BUS.capture(Timeline()) as timeline:
            return run_elastic(), timeline

    @pytest.fixture(scope="class")
    def elastic(self, elastic_observed):
        return elastic_observed[0]

    @pytest.fixture(scope="class")
    def baseline(self):
        return run_full_resync_baseline()

    def test_membership_counters(self, elastic):
        cluster, runner, res = elastic
        assert res.elastic
        assert res.membership_joins == 1
        assert res.membership_drains == 1
        assert res.membership_departs == 1
        ctrl = runner.membership_controller
        assert ctrl.moves_failed == 0
        assert ctrl.plans_issued == ctrl.moves_completed == 1

    def test_join_offloads_overloaded_buddy_onto_newcomer(self, elastic_observed):
        (cluster, runner, res), timeline = elastic_observed
        # the early failure re-paired node 1 onto node 0 (two sources);
        # the join move rebalanced node 1's copies onto newcomer 4
        assert (1, 0, 4) in runner.directory.migrations
        assert res.migrations_completed == 1
        assert res.migrations_aborted == 0
        assert res.migration_bytes > 0
        # bounded batches: a 40 MB footprint through 8 MB batches
        assert res.migration_batches >= 5
        assert timeline.total(tl.MIGRATION) > 0

    def test_drained_node_departed(self, elastic):
        cluster, runner, res = elastic
        d = runner.directory
        assert not d.is_participant(2)
        assert d.orphans_of(2) == []

    def test_failover_after_migration_is_incremental(self, elastic, baseline):
        _, e_runner, e_res = elastic
        _, _, b_res = baseline
        # newcomer 4 died; its source (node 1) fell back to node 0,
        # whose copies were still current for every chunk that did not
        # re-commit since the cutover
        assert (1, 4, 0) in e_runner.directory.repairs
        assert e_res.resyncs_completed >= 2
        assert 0 < e_res.resync_bytes < b_res.resync_bytes

    def test_protection_restored_at_end(self, elastic):
        cluster, runner, res = elastic
        for node in cluster.active_nodes:
            helper = node.helper
            assert runner.directory.is_healthy(helper.buddy_id)
            for target in helper.targets.values():
                assert target.committed_chunks()

    def test_determinism(self):
        a = run_elastic()[2].to_dict()
        b = run_elastic()[2].to_dict()
        assert a == b
        assert "membership" in a


# ---------------------------------------------------------------------------
# Drain with live evacuation (and the migrate.* crash points).
# ---------------------------------------------------------------------------


def drain_app():
    return SyntheticModel(
        checkpoint_mb_per_rank=20,
        chunk_mb=5,
        iteration_compute_time=10.0,
        comm_mb_per_iteration=5,
    )


def build_drain_cluster(seed=7):
    cluster = Cluster(
        ClusterConfig(nodes=4),
        nvm_write_bandwidth=GB_per_sec(2.0),
        seed=seed,
    )
    cluster.build(drain_app(), precopy_config(10, 30), ranks_per_node=2)
    return cluster


class CountingInjector(FaultInjector):
    def __init__(self):
        self.hits = {}

    def on_fire(self, name, info):
        self.hits[name] = self.hits.get(name, 0) + 1


def run_drain_scenario(events=(), iters=12, seed=7):
    cluster = build_drain_cluster(seed=seed)
    runner = ClusterRunner(
        cluster,
        injector=ScriptedInjector(list(events)) if events else None,
        membership=[MembershipEvent(time=40.0, node=1, action="drain")],
    )
    return cluster, runner, runner.run(iters)


class TestDrainEvacuation:
    @pytest.fixture(scope="class")
    def scenario(self):
        counter = CountingInjector()
        with install(counter):
            cluster, runner, res = run_drain_scenario()
        return cluster, runner, res, counter

    def test_evacuation_then_depart(self, scenario):
        cluster, runner, res, _ = scenario
        # node 1 hosted node 0's copies; they evacuated to node 3
        # (healthy, cross-rack from 0) before node 1 departed
        assert (0, 1, 3) in runner.directory.migrations
        assert cluster.nodes[0].helper.buddy_id == 3
        assert res.migrations_completed == 1
        assert res.membership_departs == 1
        assert not runner.directory.is_participant(1)

    def test_ownership_flip_is_atomic_and_late(self, scenario):
        cluster, runner, res, _ = scenario
        # the new buddy holds committed copies of everything migrated
        helper = cluster.nodes[0].helper
        for target in helper.targets.values():
            assert target.committed_chunks()
        # ...and the cutover published the replication claims backing
        # later incremental retargets onto it
        assert helper._replicated.get(3)
        # no failover machinery ran: this was planned, not reactive
        assert res.buddy_repairs == 0
        assert res.resyncs_completed == 0

    def test_every_migrate_crash_point_fired(self, scenario):
        _, _, _, counter = scenario
        for cp in all_points("migrate"):
            assert counter.hits.get(cp.name, 0) >= 1, cp.name

    def test_migration_trace_events(self):
        with BUS.capture() as ring:
            run_drain_scenario()
        kinds = {e.kind for e in ring.events}
        assert {
            "membership.change",
            "migration.planned",
            "migration.batch",
            "migration.cutover",
        } <= kinds
        cutovers = ring.of_kind("migration.cutover")
        assert cutovers and cutovers[0].to_target == "n3"
        batches = ring.of_kind("migration.batch")
        assert all(b.nbytes <= 8 * 1024 * 1024 for b in batches)

    def test_determinism(self):
        a = run_drain_scenario()[2].to_dict()
        b = run_drain_scenario()[2].to_dict()
        assert a == b


class TestDestinationRebootMidBatch:
    """The new buddy reboots while a batch is staged on it: the batch's
    copies die with its unflushed writes, so neither its commit nor the
    cutover may count them."""

    @pytest.fixture(scope="class")
    def scenario(self):
        seen = {}
        handle_failure, recover_soft = phases.handle_failure, phases.recover_soft

        def observed(runner, ev, procs):
            (task,) = runner._migrations
            seen["task"] = task
            seen["staged"] = {
                (pid, t._mapped[name].chunk_id)
                for pid, t in task.targets.items()
                for name in t._staged
            }
            yield from handle_failure(runner, ev, procs)

        def rebooting(runner, node):
            task = seen["task"]
            seen["left"] = [dict(t._staged) for t in task.targets.values()]
            seen["batch"] = dict(task._batch_generation)
            yield from recover_soft(runner, node)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(phases, "handle_failure", observed)
            mp.setattr(phases, "recover_soft", rebooting)
            # 44 s: one of node 0's chunks is staged on node 3, uncommitted
            cluster, runner, res = run_drain_scenario(
                events=[FailureEvent(time=44.0, node=3, kind="soft")]
            )
        return cluster, runner, res, seen

    def test_the_lost_batch_is_dropped_and_never_claimed(self, scenario):
        cluster, runner, res, seen = scenario
        assert seen["task"].plan.to_buddy == 3
        assert seen["staged"], "no batch was staged on node 3 at the failure"
        assert not any(seen["left"]) and not seen["batch"]
        assert res.migrations_completed == 1
        assert not seen["staged"] & set(seen["task"]._sent_generation)
        assert cluster.nodes[0].helper.buddy_id == 3


class TestAbortedEvacuation:
    @pytest.fixture(scope="class")
    def scenario(self):
        # the migration source dies mid-evacuation: the rebuilt helper
        # bumps the pairing epoch and the stale task must abort without
        # ever flipping ownership
        return run_drain_scenario(
            events=[FailureEvent(time=45.0, node=0, kind="hard")]
        )

    def test_abort_leaves_pairing_untouched(self, scenario):
        cluster, runner, res = scenario
        assert res.migrations_aborted == 1
        assert res.migrations_completed == 0
        assert runner.directory.migrations == []
        assert runner.membership_controller.moves_failed == 1

    def test_drain_stays_incomplete(self, scenario):
        cluster, runner, res = scenario
        d = runner.directory
        # retired (no new pairings) but NOT departed: it still hosts
        # node 0's copies and abandoning them would drop protection
        assert d.is_retired(1)
        assert d.is_participant(1)
        assert res.membership_departs == 0

    def test_abort_leaves_no_replication_claims(self, scenario):
        cluster, runner, res = scenario
        # the staged copies died with the task's private targets; if
        # the per-chunk records leaked into the helper, a later
        # incremental retarget onto node 3 would skip re-sending chunks
        # it does not actually hold
        (task,) = runner._migrations
        assert task.aborted
        assert task.plan.to_buddy not in task.helper._replicated

    def test_source_recovers_under_old_pairing(self, scenario):
        cluster, runner, res = scenario
        assert cluster.nodes[0].helper.buddy_id == 1
        assert res.iterations == 12
        for target in cluster.nodes[0].helper.targets.values():
            assert target.committed_chunks()


# ---------------------------------------------------------------------------
# MigrationPlanner (pure directory logic).
# ---------------------------------------------------------------------------


class TestMigrationPlanner:
    def overloaded_directory(self):
        # striped racks: rack0={0,2,4}, rack1={1,3,5}; ring 0->1->2->3->0
        d = BuddyDirectory(Topology(6, 2), nodes=[0, 1, 2, 3])
        d.mark_failed(2)
        d.repair(1)  # 1's buddy died; lands on 0 -> load(0) == 2
        d.mark_recovered(2)
        return d

    def test_plan_join_offloads_most_loaded(self):
        d = self.overloaded_directory()
        d.admit(4)
        plans = MigrationPlanner(d).plan_join(4)
        assert [(p.node, p.from_buddy, p.to_buddy) for p in plans] == [(1, 0, 4)]
        assert plans[0].reason == "join"

    def test_plan_join_balanced_pool_moves_nothing(self):
        d = BuddyDirectory(Topology(6, 2), nodes=[0, 1, 2, 3])
        d.admit(4)
        assert MigrationPlanner(d).plan_join(4) == []

    def test_plan_join_respects_capacity_gate(self):
        d = self.overloaded_directory()
        d.admit(4)
        planner = MigrationPlanner(d, fits=lambda src, cand, pending: False)
        assert planner.plan_join(4) == []

    def test_plan_join_never_plans_a_source_twice(self):
        # a donor far above the newcomer must donate repeatedly; the
        # directory is not mutated until cutover, so the planner has to
        # exclude already-planned sources itself or it re-picks the
        # same one (duplicate plans -> doubled traffic, one always
        # aborts stale after the other's cutover)
        d = BuddyDirectory(Topology(8, 2), nodes=[0, 1, 2, 3, 4, 5])
        for n in [1, 2, 3, 4, 5]:
            d.rebind(n, 0)  # load(0) == 5
        d.admit(6)
        plans = MigrationPlanner(d).plan_join(6)
        sources = [p.node for p in plans]
        assert len(sources) == len(set(sources))
        # 5 vs 0 rebalances 5->4->3 donations: two distinct moves
        assert len(plans) == 2
        assert all(p.from_buddy == 0 and p.to_buddy == 6 for p in plans)

    def test_plan_drain_evacuates_every_orphan(self):
        d = BuddyDirectory(Topology(6, 2), nodes=[0, 1, 2, 3])
        d.retire(1)
        plans = MigrationPlanner(d).plan_drain(1)
        # node 0 streams to 1; best candidate is 3 (cross-rack, least
        # loaded after excluding the draining node)
        assert [(p.node, p.from_buddy, p.to_buddy) for p in plans] == [(0, 1, 3)]
        assert plans[0].reason == "drain"

    def test_plan_drain_skips_unplaceable_orphans(self):
        d = BuddyDirectory(Topology(6, 2), nodes=[0, 1, 2, 3])
        d.retire(1)
        planner = MigrationPlanner(d, fits=lambda src, cand, pending: False)
        assert planner.plan_drain(1) == []

    def test_capacity_gate_sees_in_flight_moves(self):
        # node 1 hosts two sources; a gate admitting one source per
        # candidate must spread the evacuation, not stack both moves on
        # the same best candidate (each gated as if it were alone)
        d = BuddyDirectory(Topology(6, 2), nodes=[0, 1, 2, 3])
        d.rebind(2, 1)  # 1 now hosts 0 (static) and 2
        d.retire(1)
        planner = MigrationPlanner(d, fits=lambda src, cand, pending: not pending)
        plans = planner.plan_drain(1)
        assert len(plans) == 2
        targets = [p.to_buddy for p in plans]
        assert len(targets) == len(set(targets))

    def test_planner_never_mutates_directory(self):
        d = self.overloaded_directory()
        d.admit(4)
        before = dict(d._buddy)
        MigrationPlanner(d).plan_join(4)
        MigrationPlanner(d).plan_drain(0)
        assert d._buddy == before
        assert d.migrations == []
