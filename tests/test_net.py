"""Network layer: topology/buddies, fabric contention, RDMA coupling."""

import pytest

from repro.config import InterconnectConfig
from repro.errors import ClusterError, SimulationError, TransferCancelled
from repro.net import Fabric, Topology, rdma_get, rdma_put
from repro.net.interconnect import RDMA_LATENCY
from repro.sim import BandwidthResource, Engine
from repro.units import MB
from tests.conftest import run_proc


class TestTopology:
    def test_striped_racks(self):
        t = Topology(8, 2)
        assert t.rack_of(0) == 0
        assert t.rack_of(1) == 1
        assert t.nodes_in_rack(0) == [0, 2, 4, 6]

    def test_buddy_is_cross_rack(self):
        t = Topology(8, 2)
        for n in range(8):
            b = t.buddy_of(n)
            assert b != n
            assert t.rack_of(b) != t.rack_of(n)

    def test_buddy_total_mapping(self):
        t = Topology(7, 3)
        buddies = t.buddies()
        assert len(buddies) == 7
        assert all(b != n for n, b in buddies.items())

    def test_single_rack_buddy(self):
        t = Topology(4, 1)
        assert t.buddy_of(0) == 1

    def test_single_node_has_no_buddy(self):
        with pytest.raises(ClusterError):
            Topology(1).buddy_of(0)

    def test_more_racks_than_nodes_clamped(self):
        t = Topology(2, 8)
        assert t.n_racks == 2

    def test_neighbors_ring(self):
        t = Topology(6, 2)
        assert t.neighbors(0, degree=2) == [1, 5]
        assert t.neighbors(3, degree=2) == [2, 4]

    def test_neighbors_single_node(self):
        assert Topology(1).neighbors(0) == []

    def test_bounds_checked(self):
        t = Topology(4)
        with pytest.raises(ClusterError):
            t.rack_of(4)
        with pytest.raises(ClusterError):
            t.buddy_of(-1)


class TestFabric:
    def test_transfer_timing(self, engine):
        fab = Fabric(engine, 2, InterconnectConfig())
        bw = fab.config.effective_bandwidth

        def p():
            yield fab.transfer(0, 1, bw)  # exactly 1 second of data
            return engine.now

        t = run_proc(engine, p())
        assert t == pytest.approx(1.0 + RDMA_LATENCY, rel=1e-6)

    def test_loopback_rejected(self, engine):
        fab = Fabric(engine, 2)
        with pytest.raises(ClusterError):
            fab.transfer(0, 0, 100)

    def test_egress_contention(self, engine):
        """Two transfers out of the same node share its egress link."""
        fab = Fabric(engine, 3)
        bw = fab.config.effective_bandwidth
        ends = []

        def p(dst):
            yield fab.transfer(0, dst, bw)
            ends.append(engine.now)

        engine.process(p(1))
        engine.process(p(2))
        engine.run()
        assert max(ends) == pytest.approx(2.0 + RDMA_LATENCY, rel=1e-3)

    def test_ingress_contention(self, engine):
        """Two senders into one node share its ingress link."""
        fab = Fabric(engine, 3)
        bw = fab.config.effective_bandwidth
        ends = []

        def p(src):
            yield fab.transfer(src, 0, bw)
            ends.append(engine.now)

        engine.process(p(1))
        engine.process(p(2))
        engine.run()
        assert max(ends) == pytest.approx(2.0 + RDMA_LATENCY, rel=1e-3)

    def test_disjoint_pairs_full_rate(self, engine):
        fab = Fabric(engine, 4)
        bw = fab.config.effective_bandwidth
        ends = []

        def p(src, dst):
            yield fab.transfer(src, dst, bw)
            ends.append(engine.now)

        engine.process(p(0, 1))
        engine.process(p(2, 3))
        engine.run()
        assert max(ends) == pytest.approx(1.0 + RDMA_LATENCY, rel=1e-3)

    def test_total_bytes_by_suffix(self, engine):
        fab = Fabric(engine, 2)

        def p():
            yield fab.transfer(0, 1, 100.0, tag="r0:app")
            yield fab.transfer(0, 1, 50.0, tag="r0:rckpt")

        run_proc(engine, p())
        assert fab.total_bytes(":app") == pytest.approx(100.0)
        assert fab.total_bytes() == pytest.approx(150.0)

    def test_windowed_usage_filtered_by_kind(self, engine):
        fab = Fabric(engine, 2)

        def p():
            yield fab.transfer(0, 1, MB(10), tag="r0:rckpt")

        run_proc(engine, p())
        t_end = engine.now + 1
        total = sum(v for _, v in fab.windowed_usage(0.5, t_end))
        ckpt = sum(v for _, v in fab.windowed_usage(0.5, t_end, kinds=["rckpt"]))
        app = sum(v for _, v in fab.windowed_usage(0.5, t_end, kinds=["app"]))
        assert ckpt == pytest.approx(total, rel=0.01)
        assert app == 0.0

    def test_peak_rate_aggregates_links(self, engine):
        fab = Fabric(engine, 4)
        bw = fab.config.effective_bandwidth

        def p(src, dst):
            yield fab.transfer(src, dst, bw / 2)

        engine.process(p(0, 1))
        engine.process(p(2, 3))
        engine.run()
        assert fab.peak_rate() == pytest.approx(2 * bw, rel=1e-3)

    def test_needs_a_node(self, engine):
        with pytest.raises(ClusterError):
            Fabric(engine, 0)

    def test_transfer_formats_nothing(self, engine):
        """A transfer's completion event names itself only when asked."""

        class Unformattable(float):
            def __format__(self, spec):
                raise AssertionError("a transfer formatted its byte count")

        fab = Fabric(engine, 2)
        done = fab.transfer(0, 1, Unformattable(100.0), tag="r0:app")
        engine.run()
        assert done.ok
        assert fab.total_bytes() == 100.0
        assert fab.total_bytes(":app") == 100.0
        assert fab.links[1].ingress.total_bytes == 100.0
        assert "xfer 0->1 100B" in repr(fab.transfer(0, 1, 100.0))

    def test_only_egress_links_are_metered(self, engine):
        fab = Fabric(engine, 2)
        fab.transfer(0, 1, MB(1), tag="r0:rckpt")
        engine.run()
        for lp in fab.links:
            assert lp.egress.meter is not None
            assert lp.ingress.meter is None
            with pytest.raises(SimulationError, match="meters no usage"):
                lp.ingress.utilization
        assert fab.egress_of(0).utilization.peak() > 0


class TestFabricDispatches:
    """Exact engine dispatches of fabric transfers on an idle 2-node
    fabric.  The link flows end into the transfer itself: the first to
    complete only counts down, while the second completion and every
    failure queue one call each."""

    @staticmethod
    def dispatches(*scripts) -> int:
        engine = Engine()
        fab = Fabric(engine, 2)
        for script in scripts:
            engine.process(script(engine, fab))
        engine.run()
        return engine.events_processed

    @staticmethod
    def sender(count: int):
        def script(engine, fab):
            for _ in range(count):
                try:
                    yield fab.transfer(0, 1, 1e9, tag="r0:rckpt")
                except TransferCancelled:
                    pass
        return script

    @staticmethod
    def outage(*nodes):
        def script(engine, fab):
            yield engine.timeout(1e-3)
            for node in nodes:
                fab.begin_outage(node)
        return script

    def test_one_transfer(self):
        # start, two link wakeups, the second completion's call, the
        # arrival, the transfer's delivery and the process's own
        assert self.dispatches(self.sender(1)) == 7

    def test_two_transfers_in_sequence(self):
        assert self.dispatches(self.sender(2)) == 12

    def test_transfer_cancelled_on_both_links(self):
        # two starts, the sleep, both failures' calls, the failing call,
        # two deliveries and the two now stale link wakeups
        assert self.dispatches(self.sender(1), self.outage(0, 1)) == 11

    def test_transfer_cancelled_on_one_link(self):
        # the link that is not cut completes later and queues nothing
        assert self.dispatches(self.sender(1), self.outage(0)) == 10


class TestMeteredRun:
    """After a whole remote-on cell, usage is metered exactly where the
    run's record reads it: the fabric's egress links."""

    def test_only_fabric_egress_carries_a_meter(self):
        from repro.exec.cell import build_parser, run_experiment
        from tests.golden.generate_fixtures import TRACE_CELLS

        args = build_parser().parse_args(TRACE_CELLS["dcpcp-remote-precopy"])
        result = run_experiment(args)
        cluster = result.cluster
        assert result.fabric_ckpt_bytes > 0
        for node in cluster.nodes:
            bus = node.ctx.nvm_bus
            assert bus.meter is None and bus.total_bytes > 0
            with pytest.raises(SimulationError, match="meters no usage"):
                bus.utilization
        for lp in cluster.fabric.links:
            assert lp.egress.meter is not None
            assert lp.ingress.meter is None
            with pytest.raises(SimulationError, match="meters no usage"):
                lp.ingress.utilization

    def test_the_record_folds_only_the_series_it_reads(self):
        from repro.exec.cell import build_parser, run_experiment
        from tests.golden.generate_fixtures import TRACE_CELLS

        args = build_parser().parse_args(TRACE_CELLS["dcpcp-remote-precopy"])
        cluster = run_experiment(args).cluster
        read = {"rckpt", "rprecopy", "rfetch", "resync"}  # the record's 1-s peak
        for lp in cluster.fabric.links:
            meter = lp.egress.meter
            kinds = list(meter._kind_counts)
            assert "app" in kinds
            folded = {k for k, t in zip(kinds, meter._series[1:]) if t is not None}
            assert folded == read.intersection(kinds)
            assert meter._series[0] is None  # the aggregate: nobody read it


class TestRdma:
    def test_put_charges_destination_nvm_bus(self, engine):
        fab = Fabric(engine, 2)
        slow_bus = BandwidthResource(engine, 1e6)  # 1 MB/s destination NVM

        def p():
            yield rdma_put(fab, 0, 1, 1e6, dst_nvm_bus=slow_bus)
            return engine.now

        # the NVM bus (1 s) dominates the fabric (<1 ms)
        t = run_proc(engine, p())
        assert t == pytest.approx(1.0, rel=0.01)
        assert slow_bus.total_bytes == pytest.approx(1e6)

    def test_put_without_bus_is_fabric_only(self, engine):
        fab = Fabric(engine, 2)

        def p():
            yield rdma_put(fab, 0, 1, MB(1))
            return engine.now

        t = run_proc(engine, p())
        assert t < 0.01

    def test_get_charges_source_bus(self, engine):
        fab = Fabric(engine, 2)
        src_bus = BandwidthResource(engine, 1e6)

        def p():
            yield rdma_get(fab, 1, 0, 1e6, src_nvm_bus=src_bus)
            return engine.now

        assert run_proc(engine, p()) == pytest.approx(1.0, rel=0.01)
