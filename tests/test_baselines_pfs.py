"""The PFS baseline: shared-resource contention, cluster integration."""

import pytest

from repro.apps import SyntheticModel
from repro.baselines import PfsModel, async_noprecopy_config
from repro.cluster import Cluster, ClusterRunner
from repro.config import ClusterConfig
from repro.sim import Engine
from repro.units import GB_per_sec, MB
from tests.conftest import run_proc


class TestPfsModel:
    def test_write_timing_includes_metadata_latency(self):
        engine = Engine()
        pfs = PfsModel(engine, aggregate_bandwidth=MB(100), metadata_latency=0.01)

        def p():
            yield pfs.write(MB(100))
            return engine.now

        t = run_proc(engine, p())
        assert t == pytest.approx(1.01, rel=0.01)
        assert pfs.file_ops == 1

    def test_global_sharing_across_writers(self):
        """Two writers each writing 1 second of data take 2 seconds:
        the PFS pipe is shared, unlike per-node NVM."""
        engine = Engine()
        pfs = PfsModel(engine, aggregate_bandwidth=MB(100), metadata_latency=0.0)
        ends = []

        def p():
            yield pfs.write(MB(100), tag="w")
            ends.append(engine.now)

        engine.process(p())
        engine.process(p())
        engine.run()
        assert max(ends) == pytest.approx(2.0, rel=0.01)

    def test_total_bytes(self):
        engine = Engine()
        pfs = PfsModel(engine)

        def p():
            yield pfs.write(MB(7), tag="r0:pfsckpt")

        run_proc(engine, p())
        assert pfs.total_bytes == pytest.approx(MB(7))


class TestClusterIntegration:
    def _run(self, pfs_bw=None):
        cluster = Cluster(ClusterConfig(nodes=2), nvm_write_bandwidth=GB_per_sec(2.0), seed=4)
        app = SyntheticModel(checkpoint_mb_per_rank=100, chunk_mb=25,
                             iteration_compute_time=20.0)
        pfs = PfsModel(cluster.engine, aggregate_bandwidth=pfs_bw) if pfs_bw else None
        cluster.build(app, async_noprecopy_config(20, 1e6),
                      ranks_per_node=4, with_remote=False, pfs=pfs)
        res = ClusterRunner(cluster).run(3)
        return res, pfs, cluster

    def test_pfs_checkpoints_flow_through_pfs(self):
        res, pfs, cluster = self._run(pfs_bw=GB_per_sec(1.0))
        assert pfs is not None
        # 8 ranks x 100 MB x 3 checkpoints
        assert pfs.total_bytes == pytest.approx(8 * MB(100) * 3)
        # nothing staged into NVM shadow versions
        assert all(
            c.committed_version == -1
            for state in cluster.all_ranks()
            for c in state.allocator.persistent_chunks()
        )

    def test_slower_pfs_slower_run(self):
        fast, _, _ = self._run(pfs_bw=GB_per_sec(4.0))
        slow, _, _ = self._run(pfs_bw=GB_per_sec(0.5))
        assert slow.total_time > fast.total_time

    def test_pfs_slower_than_local_nvm(self):
        """The motivating comparison: a shared 1 GB/s PFS vs per-node
        2 GB/s NVM."""
        pfs_res, _, _ = self._run(pfs_bw=GB_per_sec(1.0))
        nvm_res, _, _ = self._run(pfs_bw=None)
        assert pfs_res.total_time > nvm_res.total_time
