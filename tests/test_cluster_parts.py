"""Cluster building blocks: barrier, failure injection, node/cluster
construction."""

import pytest

from repro.apps import SyntheticModel
from repro.cluster import Barrier, Cluster, FailureInjector
from repro.config import CheckpointConfig, ClusterConfig, FailureConfig
from repro.errors import ClusterError, SimulationError
from repro.sim import RngStreams


class TestBarrier:
    def test_releases_when_all_arrive(self, engine):
        b = Barrier(engine, 3)
        arrived = []

        def party(i, delay):
            yield engine.timeout(delay)
            yield b.wait()
            arrived.append((i, engine.now))

        for i, d in enumerate((1.0, 2.0, 3.0)):
            engine.process(party(i, d))
        engine.run()
        assert all(t == 3.0 for _, t in arrived)

    def test_cyclic_generations(self, engine):
        b = Barrier(engine, 2)
        log = []

        def party(i):
            for round_ in range(3):
                yield engine.timeout(1.0 + i * 0.1)
                yield b.wait()
                log.append(round_)

        engine.process(party(0))
        engine.process(party(1))
        engine.run()
        assert log == [0, 0, 1, 1, 2, 2]
        assert b.generation == 3

    def test_break_all_fails_waiters(self, engine):
        b = Barrier(engine, 2)
        outcome = []

        def party():
            try:
                yield b.wait()
            except SimulationError:
                outcome.append("broken")

        engine.process(party())
        engine.run()
        assert b.break_all() == 1
        engine.run()
        assert outcome == ["broken"]

    def test_reset_resizes(self, engine):
        b = Barrier(engine, 3)
        b.reset(parties=2)
        done = []

        def party():
            yield b.wait()
            done.append(True)

        engine.process(party())
        engine.process(party())
        engine.run()
        assert len(done) == 2

    def test_validation(self, engine):
        with pytest.raises(SimulationError):
            Barrier(engine, 0)
        with pytest.raises(SimulationError):
            Barrier(engine, 2).reset(parties=0)


class TestFailureInjector:
    def make(self, mtbf_l=100.0, mtbf_r=300.0, nodes=4, seed=1):
        return FailureInjector(
            FailureConfig(mtbf_local=mtbf_l, mtbf_remote=mtbf_r, seed=seed),
            nodes,
            RngStreams(seed),
        )

    def test_deterministic_given_seed(self):
        a = [self.make(seed=5).next_failure() for _ in range(1)]
        b = [self.make(seed=5).next_failure() for _ in range(1)]
        assert a == b

    def test_strictly_increasing_times(self):
        inj = self.make()
        times = [inj.next_failure().time for _ in range(50)]
        assert times == sorted(times)
        assert len(set(times)) == 50

    def test_peek_does_not_consume(self):
        inj = self.make()
        p = inj.peek()
        assert inj.next_failure() == p

    def test_soft_fraction_statistics(self):
        inj = self.make(mtbf_l=100.0, mtbf_r=300.0)
        kinds = [inj.next_failure().kind for _ in range(3000)]
        soft = kinds.count("soft") / len(kinds)
        assert soft == pytest.approx(0.75, abs=0.05)

    def test_mean_interarrival(self):
        inj = self.make(mtbf_l=100.0, mtbf_r=300.0, nodes=4)
        # lambda = 4*(1/100 + 1/300) per second -> mean gap 18.75 s
        times = [inj.next_failure().time for _ in range(4000)]
        gaps = [b - a for a, b in zip([0] + times, times)]
        mean = sum(gaps) / len(gaps)
        assert mean == pytest.approx(18.75, rel=0.1)

    def test_nodes_uniform(self):
        inj = self.make(nodes=4)
        nodes = [inj.next_failure().node for _ in range(4000)]
        for n in range(4):
            assert nodes.count(n) / len(nodes) == pytest.approx(0.25, abs=0.05)

    def test_schedule_until(self):
        inj = self.make()
        events = inj.schedule_until(100.0)
        assert all(e.time <= 100.0 for e in events)
        nxt = inj.next_failure()
        assert nxt.time > 100.0

    def test_expected_failures(self):
        inj = self.make(mtbf_l=100.0, mtbf_r=300.0, nodes=1)
        assert inj.expected_failures(300.0) == pytest.approx(4.0)


class TestClusterBuild:
    def test_build_distributes_ranks(self):
        cluster = Cluster(ClusterConfig(nodes=4))
        cluster.build(
            SyntheticModel(checkpoint_mb_per_rank=10),
            CheckpointConfig(),
            ranks_per_node=3,
        )
        assert cluster.n_ranks == 12
        assert all(len(n.ranks) == 3 for n in cluster.nodes)

    def test_default_reserves_helper_core(self):
        cluster = Cluster(ClusterConfig(nodes=2))
        cluster.build(SyntheticModel(checkpoint_mb_per_rank=10), CheckpointConfig())
        # 12 cores - 1 helper core
        assert all(len(n.ranks) == 11 for n in cluster.active_nodes)

    def test_helpers_wired_to_cross_rack_buddies(self):
        cluster = Cluster(ClusterConfig(nodes=4))
        cluster.build(
            SyntheticModel(checkpoint_mb_per_rank=10),
            CheckpointConfig(),
            ranks_per_node=2,
        )
        for node in cluster.nodes:
            assert node.helper is not None
            assert node.helper.buddy_id != node.node_id

    def test_no_remote_mode(self):
        cluster = Cluster(ClusterConfig(nodes=2))
        cluster.build(
            SyntheticModel(checkpoint_mb_per_rank=10),
            CheckpointConfig(),
            ranks_per_node=2,
            with_remote=False,
        )
        assert cluster.helpers() == []

    def test_double_build_rejected(self):
        cluster = Cluster(ClusterConfig(nodes=2))
        app = SyntheticModel(checkpoint_mb_per_rank=10)
        cluster.build(app, CheckpointConfig(), ranks_per_node=1)
        with pytest.raises(ClusterError):
            cluster.build(app, CheckpointConfig(), ranks_per_node=1)

    def test_too_many_nodes_rejected(self):
        cluster = Cluster(ClusterConfig(nodes=2))
        with pytest.raises(ClusterError):
            cluster.build(
                SyntheticModel(checkpoint_mb_per_rank=10),
                CheckpointConfig(),
                n_nodes_used=3,
            )

    def test_rank_names_and_lookup(self):
        cluster = Cluster(ClusterConfig(nodes=2))
        cluster.build(
            SyntheticModel(checkpoint_mb_per_rank=10),
            CheckpointConfig(),
            ranks_per_node=2,
        )
        node = cluster.node_of_rank("r0")
        assert node.node_id == 0
        node3 = cluster.node_of_rank("r3")
        assert node3.node_id == 1
        with pytest.raises(ClusterError):
            cluster.node_of_rank("r99")

    def test_checkpoint_bytes_aggregate(self):
        cluster = Cluster(ClusterConfig(nodes=2))
        app = SyntheticModel(checkpoint_mb_per_rank=10, chunk_mb=5)
        cluster.build(app, CheckpointConfig(), ranks_per_node=2)
        from repro.units import MB

        assert cluster.checkpoint_bytes() == 4 * MB(10)

    def test_node_replace_hardware(self):
        cluster = Cluster(ClusterConfig(nodes=2))
        cluster.build(
            SyntheticModel(checkpoint_mb_per_rank=10),
            CheckpointConfig(),
            ranks_per_node=1,
        )
        node = cluster.nodes[0]
        old_ctx = node.ctx
        node.replace_hardware()
        assert node.ctx is not old_ctx
        assert node.ranks == []
        assert node.incarnation == 1
