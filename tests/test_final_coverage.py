"""Final coverage block: event edge cases, communication contention,
CLI extension flags, and the faithful (unscaled) workload layouts."""

import numpy as np
import pytest

from repro.apps import CM1Model, GTCModel, RankBinding, SyntheticModel
from repro.alloc import NVAllocator
from repro.core import make_standalone_context
from repro.errors import SimulationError
from repro.net import Fabric
from repro.sim import Engine
from repro.exec.cell import build_parser, run_experiment
from repro.units import MB


class TestEventEdgeCases:
    def test_timeout_carries_value(self, engine):
        def p():
            return (yield engine.timeout(1.0, value="payload"))

        proc = engine.process(p())
        engine.run()
        assert proc.value == "payload"

    def test_any_of_with_pre_triggered_event(self, engine):
        ev = engine.event()
        ev.succeed("early")

        def p():
            return (yield engine.any_of([ev, engine.timeout(100.0)]))

        proc = engine.process(p())
        engine.run(until=1.0)
        assert proc.value == (0, "early")

    def test_callback_on_failed_event_delivers_failure(self, engine):
        ev = engine.event()
        seen = []
        ev.add_callback(lambda e: seen.append(e.ok))
        ev.fail(RuntimeError("x"))
        engine.run()
        assert seen == [False]
        assert isinstance(ev.exception, RuntimeError)

    def test_nested_process_chain(self, engine):
        """A 50-deep chain of processes each waiting on the next."""

        def leaf():
            yield engine.timeout(1.0)
            return 0

        def link(child_proc):
            value = yield child_proc
            return value + 1

        proc = engine.process(leaf())
        for _ in range(50):
            proc = engine.process(link(proc))
        engine.run()
        assert proc.value == 50
        assert engine.now == pytest.approx(1.0)

    def test_all_of_value_error_on_untriggered_value(self, engine):
        ev = engine.event()
        with pytest.raises(SimulationError):
            _ = ev.value


class TestCommunicationContention:
    def test_shared_link_stretches_iterations(self):
        """Two ranks on one node bursting through the same egress link
        take longer than one rank alone."""

        def run(n_ranks):
            ctx = make_standalone_context(name=f"cc{n_ranks}")
            fabric = Fabric(ctx.engine, 2)
            app = SyntheticModel(
                checkpoint_mb_per_rank=10, chunk_mb=10,
                iteration_compute_time=1.0,
                comm_mb_per_iteration=2000.0,  # heavy halo exchange
                comm_bursts=1,
            )
            procs = []
            for i in range(n_ranks):
                alloc = NVAllocator(f"r{i}", ctx.nvmm, ctx.dram, phantom=True)
                binding = RankBinding(
                    rank=f"r{i}", node_id=0, allocator=alloc,
                    engine=ctx.engine, fabric=fabric, neighbors=[1],
                )
                app.allocate(binding)
                procs.append(ctx.engine.process(app.compute_iteration(binding, 0)))
            ctx.engine.run()
            assert all(p.ok for p in procs)
            return ctx.engine.now

        assert run(2) > run(1) * 1.2

    def test_comm_bytes_tagged_app(self):
        ctx = make_standalone_context(name="cc")
        fabric = Fabric(ctx.engine, 2)
        app = SyntheticModel(checkpoint_mb_per_rank=10, chunk_mb=10,
                             iteration_compute_time=1.0,
                             comm_mb_per_iteration=64.0)
        alloc = NVAllocator("r0", ctx.nvmm, ctx.dram, phantom=True)
        binding = RankBinding(rank="r0", node_id=0, allocator=alloc,
                              engine=ctx.engine, fabric=fabric, neighbors=[1])
        app.allocate(binding)
        ctx.engine.process(app.compute_iteration(binding, 0))
        ctx.engine.run()
        assert fabric.total_bytes(":app") == pytest.approx(MB(64), rel=0.01)


class TestCliExtensionFlags:
    BASE = [
        "--app", "synthetic", "--nodes", "2", "--ranks-per-node", "2",
        "--iterations", "4", "--local-interval", "10",
        "--remote-interval", "30", "--checkpoint-mb", "40",
        "--chunk-mb", "10",
    ]

    def test_pfs_flag_disables_remote(self):
        args = build_parser().parse_args([*self.BASE, "--mode", "none",
                                          "--pfs-gbps", "0.5"])
        res = run_experiment(args)
        assert res.remote_rounds == 0
        assert res.iterations == 4

    def test_compress_flag_shrinks_fabric_ckpt_bytes(self):
        plain = run_experiment(build_parser().parse_args(self.BASE))
        squeezed = run_experiment(
            build_parser().parse_args([*self.BASE, "--compress-ratio", "0.5"])
        )
        assert squeezed.fabric_ckpt_bytes < plain.fabric_ckpt_bytes
        # protected volume is essentially unchanged — only the wire
        # format shrank (faster transfers can shift the last in-flight
        # chunk across a round boundary, hence the tolerance)
        plain_total = (
            plain.accounting.remote_round_bytes + plain.accounting.remote_precopy_bytes
        )
        squeezed_total = (
            squeezed.accounting.remote_round_bytes
            + squeezed.accounting.remote_precopy_bytes
        )
        assert squeezed_total == pytest.approx(plain_total, rel=0.15)


class TestFaithfulLayouts:
    """The unscaled (small_chunks=None) Table-IV layouts."""

    def test_gtc_faithful_small_bucket(self):
        specs = GTCModel(small_chunks=None).chunk_specs()
        smalls = [s for s in specs if s.name.startswith("diag_")]
        assert len(smalls) > 150  # hundreds of sub-MB diagnostics
        for s in smalls:
            assert 500 * 1024 <= s.nbytes <= MB(1)

    def test_cm1_faithful_small_bucket(self):
        specs = CM1Model(small_chunks=None).chunk_specs()
        smalls = [s for s in specs if s.name.startswith("diag_")]
        assert len(smalls) > 150
        for s in smalls:
            assert 500 * 1024 <= s.nbytes <= MB(1)

    def test_faithful_layout_runs_an_iteration(self):
        """A full faithful GTC rank (hundreds of chunks) still executes
        an iteration + checkpoint promptly."""
        from repro.config import PrecopyPolicy
        from repro.core import LocalCheckpointer

        ctx = make_standalone_context(name="faithful")
        app = GTCModel(small_chunks=None)
        alloc = NVAllocator("r0", ctx.nvmm, ctx.dram, phantom=True,
                            clock=lambda: ctx.engine.now)
        binding = RankBinding(rank="r0", node_id=0, allocator=alloc, engine=ctx.engine)
        app.allocate(binding)
        ck = LocalCheckpointer(ctx, alloc, PrecopyPolicy(mode="dcpcp"))
        ck.start_background()

        def drive():
            for it in range(2):
                yield from app.compute_iteration(binding, it)
                yield from ck.checkpoint(blocking=False)
            ck.stop_background()

        ctx.engine.process(drive())
        ctx.engine.run()
        assert ck.checkpoints_done == 2
        assert len(alloc.chunks()) > 150
