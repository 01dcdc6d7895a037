"""The PFS archive tier: change detection, traffic paths, periodic
rounds on a live cluster."""

import pytest

from repro.apps import SyntheticModel
from repro.baselines import PfsModel, precopy_config
from repro.cluster import Cluster, ClusterRunner
from repro.cluster.failures import FailureEvent, ScriptedInjector
from repro.config import ClusterConfig
from repro.core import ArchiveTier
from repro.units import GB_per_sec, MB


def build_world(remote_interval=30.0, nodes=2):
    cluster = Cluster(ClusterConfig(nodes=nodes), nvm_write_bandwidth=GB_per_sec(2.0), seed=3)
    app = SyntheticModel(checkpoint_mb_per_rank=40, chunk_mb=20,
                         iteration_compute_time=10.0)
    cluster.build(app, precopy_config(10.0, remote_interval), ranks_per_node=2)
    pfs = PfsModel(cluster.engine, aggregate_bandwidth=GB_per_sec(2.0))
    return cluster, pfs


class TestArchiveRounds:
    def test_archives_buddy_committed_data(self):
        cluster, pfs = build_world()
        tier = ArchiveTier(cluster.engine, cluster.helpers(), pfs, interval=35.0)
        runner = ClusterRunner(cluster, archive=tier)
        res = runner.run(5)
        assert tier.total_bytes > 0
        # everything buddy-committed by the first archive got covered
        assert pfs.total_bytes == tier.total_bytes
        assert any(s.ranks_covered == 4 for s in tier.history)

    def test_unchanged_versions_skipped(self):
        """A second archive round right after the first ships nothing."""
        cluster, pfs = build_world()
        runner = ClusterRunner(cluster)
        res = runner.run(4)  # rounds at t=30: buddy holds data
        tier = ArchiveTier(cluster.engine, cluster.helpers(), pfs, interval=1e9)
        p1 = cluster.engine.process(tier.archive_round())
        cluster.engine.run()
        first = p1.value.bytes_archived
        assert first > 0
        p2 = cluster.engine.process(tier.archive_round())
        cluster.engine.run()
        assert p2.value.bytes_archived == 0

    def test_rearchives_after_new_commits(self):
        cluster, pfs = build_world()
        runner = ClusterRunner(cluster)
        runner.run(4)
        tier = ArchiveTier(cluster.engine, cluster.helpers(), pfs, interval=1e9)
        p1 = cluster.engine.process(tier.archive_round())
        cluster.engine.run()
        # simulate the buddies committing fresh versions
        for helper in cluster.helpers():
            for target in helper.targets.values():
                for name in list(target.committed):
                    if target.committed[name] >= 0:
                        target.committed[name] = 1 - target.committed[name]
        p2 = cluster.engine.process(tier.archive_round())
        cluster.engine.run()
        assert p2.value.bytes_archived == p1.value.bytes_archived

    def test_archived_versions_query(self):
        cluster, pfs = build_world()
        runner = ClusterRunner(cluster)
        runner.run(4)
        tier = ArchiveTier(cluster.engine, cluster.helpers(), pfs, interval=1e9)
        proc = cluster.engine.process(tier.archive_round())
        cluster.engine.run()
        versions = tier.archived_versions("r0")
        assert versions and all(v >= 0 for v in versions.values())
        assert tier.archived_versions("ghost") == {}

    def test_interval_validation(self):
        cluster, pfs = build_world()
        with pytest.raises(ValueError):
            ArchiveTier(cluster.engine, cluster.helpers(), pfs, interval=0.0)

    def test_archive_traffic_off_the_compute_path(self):
        """Archive reads load the buddies' NVM buses, not the fabric
        egress of compute traffic; the PFS pipe carries the volume."""
        cluster, pfs = build_world()
        tier = ArchiveTier(cluster.engine, cluster.helpers(), pfs, interval=35.0)
        runner = ClusterRunner(cluster, archive=tier)
        runner.run(5)
        assert pfs.total_bytes > 0
        # no archive bytes on the inter-node fabric
        assert cluster.fabric.total_bytes(":archive") == 0.0


class TestArchiveAcrossHardFailure:
    def test_replaced_node_is_archived_again(self):
        """Node 0 fails hard at t=50: its helper leaves the archive's
        view and the replacement's joins it.  The replacement's fresh
        buddy targets count versions from 0 again, so once its first
        buddy commit has landed every round that archives anything
        covers all 8 ranks, the replaced ones included."""
        cluster, pfs = build_world(nodes=4)
        dead_helper = cluster.nodes[0].helper
        tier = ArchiveTier(cluster.engine, cluster.helpers(), pfs, interval=35.0)
        injector = ScriptedInjector([FailureEvent(time=50.0, node=0, kind="hard")])
        res = ClusterRunner(cluster, archive=tier, injector=injector).run(20)
        assert res.hard_failures == 1
        replacement = cluster.nodes[0].helper
        assert replacement is not dead_helper and replacement.history
        first_commit = replacement.history[0].end
        later = [s for s in tier.history if s.start > first_commit and s.chunks_archived]
        assert len(later) >= 2
        assert [s.ranks_covered for s in later] == [8] * len(later)
        assert tier.archived_versions("r0") == {
            name: v for name, v in replacement.targets["r0"].committed.items() if v >= 0
        }
