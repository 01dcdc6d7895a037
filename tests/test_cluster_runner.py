"""End-to-end cluster runs: timing, accounting, failure recovery."""

import pytest

from repro.apps import SyntheticModel
from repro.baselines import async_noprecopy_config, precopy_config
from repro.cluster import Cluster, ClusterRunner
from repro.config import CheckpointConfig, ClusterConfig, FailureConfig, PrecopyPolicy
from repro.exec.cell import build_parser, run_experiment
from repro.units import GB_per_sec, MB


def small_app(**kw):
    defaults = dict(
        checkpoint_mb_per_rank=40,
        chunk_mb=10,
        iteration_compute_time=20.0,
        comm_mb_per_iteration=10,
    )
    defaults.update(kw)
    return SyntheticModel(**defaults)


def run_small(ckcfg, iters=3, nodes=2, ranks=2, app=None, failure=None, seed=1):
    cluster = Cluster(ClusterConfig(nodes=nodes), nvm_write_bandwidth=GB_per_sec(2.0), seed=seed)
    cluster.build(app or small_app(), ckcfg, ranks_per_node=ranks)
    return ClusterRunner(cluster, failure_config=failure).run(iters)


class TestBasicRuns:
    def test_total_time_exceeds_ideal(self):
        res = run_small(precopy_config(20, 60))
        assert res.iterations == 3
        assert res.total_time >= res.ideal_time
        assert res.ideal_time == pytest.approx(60.0)

    def test_local_checkpoints_counted(self):
        res = run_small(precopy_config(20, 60))
        assert res.local_checkpoints == 3 * res.n_ranks

    def test_no_precopy_slower_than_precopy(self):
        pre = run_small(precopy_config(20, 60), iters=4)
        nop = run_small(async_noprecopy_config(20, 60), iters=4)
        assert pre.total_time < nop.total_time
        assert pre.local_ckpt_time_avg < nop.local_ckpt_time_avg

    def test_dirty_tracking_reduces_coordinated_bytes(self):
        pre = run_small(precopy_config(20, 60), iters=4)
        nop = run_small(async_noprecopy_config(20, 60), iters=4)
        assert pre.accounting.coordinated_bytes < nop.accounting.coordinated_bytes
        # pre-copy + coordinated covers at least the dirty volume
        assert pre.accounting.total_nvm_bytes > 0

    def test_remote_rounds_happen(self):
        res = run_small(precopy_config(20, 45), iters=6)
        assert res.remote_rounds >= res.n_nodes  # at least 1 per helper

    def test_determinism(self):
        a = run_small(precopy_config(20, 60), seed=3)
        b = run_small(precopy_config(20, 60), seed=3)
        assert a.total_time == b.total_time
        assert a.accounting.total_nvm_bytes == b.accounting.total_nvm_bytes

    def test_ideal_run_without_checkpoints(self):
        cluster = Cluster(ClusterConfig(nodes=2), seed=1)
        app = small_app(comm_mb_per_iteration=0)
        cluster.build(app, precopy_config(20, 60), ranks_per_node=2, with_remote=False)
        res = ClusterRunner(cluster, local_checkpoints=False).run(3)
        assert res.total_time == pytest.approx(res.ideal_time, rel=0.01)

    def test_efficiency_metric(self):
        cluster = Cluster(ClusterConfig(nodes=2), seed=1)
        cluster.build(small_app(), precopy_config(20, 60), ranks_per_node=2, with_remote=False)
        ideal = ClusterRunner(cluster, local_checkpoints=False).run(3)
        actual = run_small(precopy_config(20, 60))
        eff = actual.efficiency_vs(ideal)
        assert 0.5 < eff <= 1.0


class TestFailureRuns:
    def test_soft_failure_recovers_and_completes(self):
        fc = FailureConfig(mtbf_local=150.0, mtbf_remote=1e9, seed=13)
        res = run_small(precopy_config(20, 60), iters=5, failure=fc)
        assert res.iterations == 5
        assert res.soft_failures >= 1
        assert res.hard_failures == 0
        assert res.recovery_time > 0

    def test_hard_failure_recovers_and_completes(self):
        fc = FailureConfig(mtbf_local=1e9, mtbf_remote=220.0, seed=13)
        res = run_small(precopy_config(20, 60), iters=5, failure=fc)
        assert res.iterations == 5
        assert res.hard_failures >= 1
        assert res.recovery_time > 0

    def test_failures_extend_runtime(self):
        clean = run_small(precopy_config(20, 60), iters=5)
        fc = FailureConfig(mtbf_local=150.0, mtbf_remote=600.0, seed=9)
        faulty = run_small(precopy_config(20, 60), iters=5, failure=fc)
        assert faulty.total_time > clean.total_time

    def test_hard_failure_recompute_rolls_back_to_remote(self):
        fc = FailureConfig(mtbf_local=1e9, mtbf_remote=220.0, seed=13)
        res = run_small(precopy_config(20, 60), iters=5, failure=fc)
        # some iterations were recomputed (rollback past local ckpts)
        assert res.iterations_recomputed >= 1

    def test_fail_until_iteration_guard(self):
        fc = FailureConfig(mtbf_local=30.0, mtbf_remote=1e9, seed=2)
        cluster = Cluster(ClusterConfig(nodes=2), nvm_write_bandwidth=GB_per_sec(2.0), seed=2)
        cluster.build(small_app(), precopy_config(20, 60), ranks_per_node=2)
        runner = ClusterRunner(cluster, failure_config=fc, fail_until_iteration=2)
        res = runner.run(4)
        assert res.iterations == 4  # completes despite tiny MTBF


class TestAccountingDetails:
    def test_fabric_traffic_split(self):
        res = run_small(precopy_config(20, 45), iters=6)
        assert res.fabric_app_bytes > 0
        assert res.fabric_ckpt_bytes > 0

    def test_helper_utilization_positive_with_remote(self):
        res = run_small(precopy_config(20, 45), iters=6)
        assert 0 < res.helper_utilization < 1

    def test_timeline_attached(self):
        from repro.metrics.timeline import LOCAL_CKPT, Timeline
        from repro.metrics.trace import BUS

        with BUS.capture(Timeline()) as timeline:
            res = run_small(precopy_config(20, 60))
        assert timeline.count(LOCAL_CKPT) == res.local_checkpoints

    def test_checkpoint_overhead_fraction(self):
        res = run_small(async_noprecopy_config(20, 60), iters=4)
        assert res.checkpoint_overhead_fraction > 0


class TestNodeCountIndependence:
    """Node pairs share no fabric bottleneck: a cell at twice the node
    count reads the same per-node times and twice the aggregate volumes.
    A change that adds fabric contention between pairs breaks this."""

    PER_NODE = [
        "total_time_s", "overhead_fraction", "ideal_time_s",
        "local.avg_blocking_s", "remote.helper_utilization",
    ]
    AGGREGATE = [
        "n_ranks", "local.checkpoints", "local.coordinated_gb", "local.precopy_gb",
        "local.fault_time_s", "remote.rounds", "remote.round_gb",
        "fabric.app_gb", "fabric.ckpt_gb",
    ]

    @staticmethod
    def record(nodes):
        args = build_parser().parse_args([
            "--app", "lammps", "--nodes", str(nodes), "--ranks-per-node", "2",
            "--iterations", "3",
        ])
        flat = {}
        for key, value in run_experiment(args).to_dict().items():
            if isinstance(value, dict):
                flat.update({f"{key}.{k}": v for k, v in value.items()})
            else:
                flat[key] = value
        return flat

    def test_per_node_times_equal_and_volumes_scale(self):
        two, four = self.record(2), self.record(4)
        for key in self.PER_NODE:
            assert four[key] == pytest.approx(two[key], rel=1e-9), key
        for key in self.AGGREGATE:
            assert two[key] > 0, key
            assert four[key] == pytest.approx(2 * two[key], rel=1e-9), key
