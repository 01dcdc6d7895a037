"""Per-core bandwidth contention (Figure 4 calibration)."""

import pytest

from repro.config import DRAM_CONFIG, PCM_CONFIG
from repro.memory import CoreContentionModel, make_device_bus
from repro.memory.bandwidth import SMALL_BLOCK_OVERHEAD
from repro.sim import Engine
from repro.units import MB
from tests.conftest import run_proc


@pytest.fixture
def model():
    return CoreContentionModel(PCM_CONFIG)


class TestContentionCurve:
    def test_single_core_cap(self, model):
        assert model.per_core_rate(1) == pytest.approx(model.single_core_cap)

    def test_monotone_decreasing(self, model):
        rates = [model.per_core_rate(n) for n in range(1, 13)]
        for a, b in zip(rates, rates[1:]):
            assert b <= a + 1e-9

    def test_fig4_drop_at_12_cores(self, model):
        """Fig. 4: per-core bandwidth drops ~67% from 1 to 12 procs."""
        drop = 1.0 - model.per_core_rate(12) / model.per_core_rate(1)
        assert 0.55 <= drop <= 0.80

    def test_aggregate_bounded_by_capacity(self, model):
        for n in range(1, 33):
            assert model.aggregate_rate(n) <= model.peak + 1e-6

    def test_aggregate_zero_without_flows(self, model):
        assert model.aggregate_rate(0) == 0.0

    def test_per_core_validates(self, model):
        with pytest.raises(ValueError):
            model.per_core_rate(0)

    def test_effective_capacity_shrinks(self, model):
        assert model.effective_capacity(12) < model.effective_capacity(1)

    def test_nvm_percore_a_few_hundred_mb(self, model):
        """§IV: 'effective per core bandwidth can be as low as
        400 MB/Sec in a 12 core/node configuration' — ours lands in the
        low hundreds of MB/s at full contention."""
        rate = model.per_core_rate(12)
        assert MB(100) <= rate <= MB(500)


class TestCopyTime:
    def test_copy_time_includes_fixed_overhead(self, model):
        t_small = model.copy_time(1)
        assert t_small >= SMALL_BLOCK_OVERHEAD

    def test_copy_time_zero_bytes(self, model):
        assert model.copy_time(0) == 0.0

    def test_copy_time_grows_with_contention(self, model):
        assert model.copy_time(MB(33), 12) > model.copy_time(MB(33), 1)

    def test_percore_curve_length_and_units(self, model):
        curve = model.percore_curve(12, MB(33))
        assert len(curve) == 12
        # achieved bandwidth never exceeds the single-core cap
        assert all(c <= model.single_core_cap * 1.01 for c in curve)


class TestDeviceBus:
    def test_bus_honors_contention_model(self):
        engine = Engine()
        model = CoreContentionModel(PCM_CONFIG)
        bus = make_device_bus(engine, model)

        def p():
            yield bus.transfer(MB(100))
            return engine.now

        t = run_proc(engine, p())
        expected = MB(100) / model.per_core_rate(1)
        assert t == pytest.approx(expected, rel=0.01)

    def test_bus_contention_with_12_writers(self):
        engine = Engine()
        model = CoreContentionModel(PCM_CONFIG)
        bus = make_device_bus(engine, model)
        ends = []

        def p():
            yield bus.transfer(MB(10))
            ends.append(engine.now)

        for _ in range(12):
            engine.process(p())
        engine.run()
        expected = MB(10) / model.per_core_rate(12)
        assert max(ends) == pytest.approx(expected, rel=0.02)

    def test_dram_bus_faster_than_pcm(self):
        e1, e2 = Engine(), Engine()
        dram_bus = make_device_bus(e1, CoreContentionModel(DRAM_CONFIG))
        pcm_bus = make_device_bus(e2, CoreContentionModel(PCM_CONFIG))

        def p(bus, eng):
            yield bus.transfer(MB(100))
            return eng.now

        assert run_proc(e1, p(dram_bus, e1)) < run_proc(e2, p(pcm_bus, e2))


class TestZeroFlowValidation:
    """n_flows <= 0 is a caller bug (tenant shares can drive a
    partition's flow count to zero); a silent full-peak answer there
    hid double-counting, so the model now refuses loudly."""

    def test_effective_capacity_rejects_zero_flows(self):
        model = CoreContentionModel(PCM_CONFIG)
        with pytest.raises(ValueError, match="n_flows"):
            model.effective_capacity(0)
        with pytest.raises(ValueError, match="n_flows"):
            model.effective_capacity(-3)

    def test_per_core_rate_rejects_zero_flows(self):
        model = CoreContentionModel(PCM_CONFIG)
        with pytest.raises(ValueError, match="n_flows"):
            model.per_core_rate(0)

    def test_copy_time_rejects_zero_flows(self):
        model = CoreContentionModel(PCM_CONFIG)
        with pytest.raises(ValueError, match="n_flows"):
            model.copy_time(MB(1), n_flows=0)

    def test_copy_time_validates_before_zero_byte_early_return(self):
        # the n_flows check must fire even when nbytes == 0 would
        # otherwise short-circuit to 0.0 and mask the caller bug
        model = CoreContentionModel(PCM_CONFIG)
        with pytest.raises(ValueError, match="n_flows"):
            model.copy_time(0, n_flows=0)

    def test_aggregate_rate_zero_flows_is_zero_not_error(self):
        # aggregate over zero writers is a well-defined 0.0 (an idle
        # bus), unlike the per-writer quantities above
        model = CoreContentionModel(PCM_CONFIG)
        assert model.aggregate_rate(0) == 0.0
