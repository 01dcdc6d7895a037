"""Cross-module integration tests: the paper's headline behaviours,
end-to-end, on small configurations."""

import numpy as np
import pytest

from repro.apps import LammpsModel, SyntheticModel
from repro.baselines import async_noprecopy_config, precopy_config
from repro.cluster import Cluster, ClusterRunner
from repro.config import ClusterConfig, FailureConfig, PrecopyPolicy
from repro.core import NVMCheckpoint
from repro.units import GB_per_sec, MB


class TestFunctionalLifecycle:
    """A small 'real application' driving the public API with real
    data through multiple checkpoint/crash/restart generations."""

    def test_three_generations(self, store):
        app = NVMCheckpoint("sim", store=store)
        state = app.nvalloc("state", MB(1))
        history = []
        rng = np.random.default_rng(0)
        for gen in range(3):
            data = rng.random(MB(1) // 8)
            state.write(0, data)
            app.nvchkptall()
            history.append(data)
            # post-checkpoint writes that must be lost
            state.write(0, np.zeros(100))
            app.crash()
            app, report = NVMCheckpoint.restart("sim", store)
            state = app.chunk("state")
            assert np.array_equal(state.view(np.float64), history[-1])

    def test_growing_checkpoint_with_nvrealloc(self, store):
        app = NVMCheckpoint("sim", store=store)
        c = app.nvalloc("grid", MB(1))
        c.write(0, np.ones(MB(1) // 8))
        app.nvchkptall()
        app.nvrealloc("grid", MB(2))
        c2 = app.chunk("grid")
        c2.write(MB(1), np.full(MB(1) // 8, 2.0))
        app.nvchkptall()
        app.crash()
        app2, _ = NVMCheckpoint.restart("sim", store)
        v = app2.chunk("grid").view(np.float64)
        assert v[0] == 1.0 and v[-1] == 2.0

    def test_checkpoint_cost_reflects_nvm_bandwidth(self, store):
        """NVM-as-memory still pays NVM write bandwidth: the virtual
        cost of a checkpoint matches Table-I arithmetic."""
        app = NVMCheckpoint("sim", store=store)
        app.nvalloc("x", MB(64))
        stats = app.nvchkptall()
        # 64 MB at the single-core NVM rate (512 MB/s) ~ 0.125 s
        assert 0.08 <= stats.duration <= 0.3


class TestPaperHeadlines:
    """The three §VI headline claims, at reduced scale (full scale runs
    live in benchmarks/)."""

    @pytest.fixture(scope="class")
    def arms(self):
        def run(cfg):
            cluster = Cluster(
                ClusterConfig(nodes=4), nvm_write_bandwidth=GB_per_sec(1.0), seed=1
            )
            app = LammpsModel(checkpoint_mb_per_rank=100.0)
            app.iteration_compute_time = 20.0
            cluster.build(app, cfg, ranks_per_node=6)
            return ClusterRunner(cluster).run(6)

        return run(precopy_config(20, 60)), run(async_noprecopy_config(20, 60))

    def test_precopy_cuts_execution_time(self, arms):
        pre, nop = arms
        assert pre.total_time < nop.total_time

    def test_precopy_cuts_coordinated_checkpoint_time(self, arms):
        pre, nop = arms
        assert pre.local_ckpt_time_avg < 0.6 * nop.local_ckpt_time_avg

    def test_precopy_cuts_peak_interconnect_usage(self, arms):
        pre, nop = arms
        assert pre.fabric_ckpt_peak_window_bytes < 0.8 * nop.fabric_ckpt_peak_window_bytes

    def test_helper_cpu_roughly_doubles(self, arms):
        pre, nop = arms
        ratio = pre.helper_utilization / nop.helper_utilization
        assert 1.3 <= ratio <= 3.5

    def test_remote_volume_only_modestly_higher(self, arms):
        pre, nop = arms
        pre_total = pre.accounting.remote_round_bytes + pre.accounting.remote_precopy_bytes
        nop_total = nop.accounting.remote_round_bytes + nop.accounting.remote_precopy_bytes
        assert pre_total <= 1.6 * nop_total


class TestGTCCheckpointShrinks:
    def test_write_once_chunks_leave_later_checkpoints(self):
        """Fig. 8: GTC's write-once large chunks are checkpointed once;
        dirty tracking shrinks later checkpoints vs the baseline."""
        from repro.apps import GTCModel

        def run(cfg):
            cluster = Cluster(
                ClusterConfig(nodes=2), nvm_write_bandwidth=GB_per_sec(1.0), seed=1
            )
            app = GTCModel(checkpoint_mb_per_rank=100.0, small_chunks=8)
            app.iteration_compute_time = 20.0
            cluster.build(app, cfg, ranks_per_node=4, with_remote=False)
            return ClusterRunner(cluster).run(4)

        pre = run(precopy_config(20, 60))
        nop = run(async_noprecopy_config(20, 60))
        # baseline re-copies everything every time; tracking skips the
        # write-once equilibrium chunk after iteration 0
        assert pre.accounting.total_nvm_bytes < nop.accounting.total_nvm_bytes


class TestFailureStory:
    def test_hard_failure_data_flow_end_to_end(self):
        """After a hard failure the replacement node's ranks recover
        exactly the remotely committed iteration."""
        fc = FailureConfig(mtbf_local=1e9, mtbf_remote=220.0, seed=13)
        cluster = Cluster(ClusterConfig(nodes=2), nvm_write_bandwidth=GB_per_sec(2.0), seed=13)
        app = SyntheticModel(
            checkpoint_mb_per_rank=40, chunk_mb=10, iteration_compute_time=20.0
        )
        cluster.build(app, precopy_config(20, 60), ranks_per_node=2)
        runner = ClusterRunner(cluster, failure_config=fc)
        res = runner.run(5)
        assert res.hard_failures >= 1
        assert res.iterations == 5
        # replacement hardware exists (incarnation bumped somewhere)
        assert any(n.incarnation > 0 for n in cluster.nodes)

    def test_mixed_failures_long_run(self):
        fc = FailureConfig(mtbf_local=200.0, mtbf_remote=800.0, seed=9)
        cluster = Cluster(ClusterConfig(nodes=2), nvm_write_bandwidth=GB_per_sec(2.0), seed=9)
        app = SyntheticModel(
            checkpoint_mb_per_rank=20, chunk_mb=10, iteration_compute_time=15.0
        )
        cluster.build(app, precopy_config(15, 45), ranks_per_node=2)
        res = ClusterRunner(cluster, failure_config=fc).run(8)
        assert res.iterations == 8
        assert res.soft_failures + res.hard_failures >= 1
        assert res.total_time > res.ideal_time
