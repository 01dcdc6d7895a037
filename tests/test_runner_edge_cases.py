"""Runner and cluster edge cases: buddy loss, consecutive failures,
PFS-mode interplay, degenerate configurations."""

import pytest

from repro.apps import SyntheticModel
from repro.baselines import precopy_config
from repro.baselines.pfs import PfsModel
from repro.cluster import Cluster, ClusterRunner, phases
from repro.cluster.failures import FailureEvent, ScriptedInjector
from repro.config import (
    CheckpointConfig,
    ClusterConfig,
    FailureConfig,
    PrecopyPolicy,
)
from repro.core import CompressionModel
from repro.core.destination import PfsDestination
from repro.errors import ClusterError
from repro.units import GB_per_sec


def tiny_app(**kw):
    defaults = dict(checkpoint_mb_per_rank=20, chunk_mb=10,
                    iteration_compute_time=10.0, comm_mb_per_iteration=5)
    defaults.update(kw)
    return SyntheticModel(**defaults)


class TestBuddyLossRecovery:
    def test_hard_failure_resets_surviving_helpers_targets(self):
        """When a node dies, helpers that used it as their buddy lose
        their remote copies; the runner re-points them and re-queues
        everything."""
        fc = FailureConfig(mtbf_local=1e9, mtbf_remote=110.0, seed=13)
        cluster = Cluster(ClusterConfig(nodes=2), nvm_write_bandwidth=GB_per_sec(2.0), seed=13)
        cluster.build(tiny_app(), precopy_config(10, 30), ranks_per_node=2)
        runner = ClusterRunner(cluster, failure_config=fc, fail_until_iteration=3)
        res = runner.run(6)
        assert res.hard_failures >= 1
        assert res.iterations == 6
        # with 2 nodes each is the other's buddy: the survivor's helper
        # must now target the replacement context
        dead = next(n for n in cluster.nodes if n.incarnation > 0)
        survivor = next(n for n in cluster.nodes if n is not dead)
        assert survivor.helper is not None
        assert survivor.helper.buddy_ctx is dead.ctx

    def test_remote_protection_reestablished_after_buddy_loss(self):
        """After the replacement, later rounds repopulate the remote
        copies on the new hardware."""
        fc = FailureConfig(mtbf_local=1e9, mtbf_remote=110.0, seed=13)
        cluster = Cluster(ClusterConfig(nodes=2), nvm_write_bandwidth=GB_per_sec(2.0), seed=13)
        cluster.build(tiny_app(), precopy_config(10, 30), ranks_per_node=2)
        runner = ClusterRunner(cluster, failure_config=fc, fail_until_iteration=3)
        res = runner.run(8)
        # whichever nodes survived to the end, the rounds after the
        # last replacement must have repopulated the remote copies
        committed = [
            v
            for node in cluster.nodes
            if node.helper is not None
            for t in node.helper.targets.values()
            for v in t.committed.values()
        ]
        assert committed and all(v >= 0 for v in committed)


class TestReplacementNodeKeepsTheBuildRecipe:
    """A hard failure rebuilds the node through the same Cluster
    methods that built it, so whatever ``build()`` was given survives."""

    @pytest.mark.parametrize("recipe", ["compression", "pfs"])
    def test_hard_failure_rebuilds_node_like_build_did(self, recipe):
        cluster = Cluster(ClusterConfig(nodes=4), nvm_write_bandwidth=GB_per_sec(2.0), seed=5)
        compression = CompressionModel(phantom_ratio=0.5)
        build_kw = {
            "compression": dict(compression=compression),
            "pfs": dict(pfs=PfsModel(cluster.engine), with_remote=False),
        }[recipe]
        cluster.build(tiny_app(), precopy_config(10, 30), ranks_per_node=2, **build_kw)
        injector = ScriptedInjector([FailureEvent(time=45.0, node=0, kind="hard")])
        res = ClusterRunner(cluster, injector=injector).run(8)
        assert res.hard_failures == 1 and res.iterations == 8
        node = cluster.nodes[0]
        assert node.incarnation == 1
        if recipe == "compression":
            assert node.helper.copier.compression is compression
        else:
            assert all(
                isinstance(s.checkpointer.destination, PfsDestination)
                for s in cluster.all_ranks()
            )


def _machinery(runner, state) -> dict:
    """What runs for one rank: its pre-copy process and its node's
    helper rounds processes."""
    ck = state.checkpointer
    rounds = f"{runner.cluster.nodes[state.node_id].helper.owner}:rounds"
    return {
        "precopy": int(ck._precopy_proc is not None and ck._precopy_proc.alive),
        "rounds": sum(p.alive and p.name == rounds for p in runner._bg_procs),
    }


class TestReplacementNodeIsStartedLikeTheOriginal:
    """A hard failure's replacement node is started by the same runner
    code as the original: right after recovery each replacement rank
    runs exactly the machinery an untouched rank runs."""

    @pytest.fixture(scope="class")
    def after_recovery(self):
        cluster = Cluster(ClusterConfig(nodes=4), nvm_write_bandwidth=GB_per_sec(2.0), seed=5)
        cluster.build(tiny_app(), precopy_config(10, 30), ranks_per_node=2, n_nodes_used=3)
        runner = ClusterRunner(
            cluster,
            injector=ScriptedInjector([FailureEvent(time=45.0, node=0, kind="hard")]),
        )
        snapshots = []
        recover_hard = phases.recover_hard

        def observed(runner, node):
            rollback = yield from recover_hard(runner, node)
            snapshots.append(
                {state.rank: _machinery(runner, state) for state in cluster.all_ranks()}
            )
            return rollback

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(phases, "recover_hard", observed)
            res = runner.run(8)
        assert res.hard_failures == 1 and cluster.nodes[0].incarnation == 1
        (snapshot,) = snapshots
        return snapshot

    @pytest.mark.parametrize("part", ["precopy", "rounds"])
    def test_replacement_ranks_run_what_original_ranks_run(self, after_recovery, part):
        # r0 and r1 run on the replacement, r2-r5 on untouched nodes
        counts = {rank: m[part] for rank, m in after_recovery.items()}
        assert counts == dict.fromkeys([f"r{i}" for i in range(6)], 1)


class TestConsecutiveFailures:
    def test_back_to_back_failures_still_complete(self):
        fc = FailureConfig(mtbf_local=60.0, mtbf_remote=240.0, seed=9)
        cluster = Cluster(ClusterConfig(nodes=2), nvm_write_bandwidth=GB_per_sec(2.0), seed=9)
        cluster.build(tiny_app(), precopy_config(10, 30), ranks_per_node=2)
        runner = ClusterRunner(cluster, failure_config=fc, fail_until_iteration=4)
        res = runner.run(6)
        assert res.iterations == 6
        assert res.soft_failures + res.hard_failures >= 2

    def test_recompute_accounting_never_negative(self):
        fc = FailureConfig(mtbf_local=80.0, mtbf_remote=320.0, seed=9)
        cluster = Cluster(ClusterConfig(nodes=2), nvm_write_bandwidth=GB_per_sec(2.0), seed=9)
        cluster.build(tiny_app(), precopy_config(10, 30), ranks_per_node=2)
        runner = ClusterRunner(cluster, failure_config=fc, fail_until_iteration=4)
        res = runner.run(6)
        assert res.iterations_recomputed >= 0
        assert res.recovery_time >= 0


class TestDegenerateConfigs:
    def test_single_iteration(self):
        cluster = Cluster(ClusterConfig(nodes=2), seed=1)
        cluster.build(tiny_app(), precopy_config(10, 30), ranks_per_node=1)
        res = ClusterRunner(cluster).run(1)
        assert res.iterations == 1
        assert res.local_checkpoints == 2

    def test_zero_iterations(self):
        cluster = Cluster(ClusterConfig(nodes=2), seed=1)
        cluster.build(tiny_app(), precopy_config(10, 30), ranks_per_node=1)
        res = ClusterRunner(cluster).run(0)
        assert res.iterations == 0
        assert res.total_time == 0.0

    def test_run_before_build_rejected(self):
        cluster = Cluster(ClusterConfig(nodes=2), seed=1)
        with pytest.raises(ClusterError):
            ClusterRunner(cluster)

    def test_single_rank_cluster(self):
        cluster = Cluster(ClusterConfig(nodes=2), seed=1)
        cluster.build(tiny_app(), precopy_config(10, 30), ranks_per_node=1,
                      n_nodes_used=1, with_remote=False)
        res = ClusterRunner(cluster).run(2)
        assert res.n_ranks == 1
        assert res.iterations == 2

    def test_remote_interval_longer_than_run(self):
        """No remote round ever fires; the run still terminates."""
        cluster = Cluster(ClusterConfig(nodes=2), seed=1)
        cluster.build(tiny_app(), precopy_config(10, 1e6), ranks_per_node=2)
        res = ClusterRunner(cluster).run(2)
        assert res.remote_rounds == 0
        assert res.iterations == 2

    def test_no_communication_app(self):
        app = tiny_app(comm_mb_per_iteration=0)
        cluster = Cluster(ClusterConfig(nodes=2), seed=1)
        cluster.build(app, precopy_config(10, 30), ranks_per_node=2)
        res = ClusterRunner(cluster).run(2)
        assert res.fabric_app_bytes == 0.0

    def test_write_once_only_app(self):
        """Everything is written once: after the first checkpoint the
        coordinated steps are empty."""
        app = tiny_app(write_once_fraction=1.0)
        cluster = Cluster(ClusterConfig(nodes=2), seed=1)
        cluster.build(app, precopy_config(10, 30), ranks_per_node=2, with_remote=False)
        res = ClusterRunner(cluster).run(3)
        # only the first checkpoint carries data
        per_ckpt = res.accounting.total_nvm_bytes
        assert per_ckpt == cluster.checkpoint_bytes()


class TestSeedIsolation:
    def test_different_seeds_differ_under_failures(self):
        def run(seed):
            fc = FailureConfig(mtbf_local=100.0, mtbf_remote=400.0, seed=seed)
            cluster = Cluster(ClusterConfig(nodes=2), seed=seed)
            cluster.build(tiny_app(), precopy_config(10, 30), ranks_per_node=2)
            return ClusterRunner(cluster, failure_config=fc,
                                 fail_until_iteration=3).run(4)

        a = run(13)
        b = run(14)
        assert (a.total_time, a.soft_failures, a.hard_failures) != (
            b.total_time, b.soft_failures, b.hard_failures
        )
