"""Configuration dataclasses: Table-I defaults, policy validation,
failure-rate arithmetic."""

import dataclasses

import pytest

from repro import config
from repro.alloc.chunk import FAULT_COST
from repro.config import (
    CheckpointConfig,
    ClusterConfig,
    DRAM_CONFIG,
    FailureConfig,
    InterconnectConfig,
    NodeConfig,
    PCM_CONFIG,
    PrecopyPolicy,
)
from repro.exec.cell import build_parser
from repro.memory.bandwidth import SINGLE_CORE_FRACTION
from repro.units import GB_per_sec


class TestTableOneDefaults:
    """The device defaults must encode Table I of the paper."""

    def test_pcm_write_bandwidth_2gb(self):
        assert PCM_CONFIG.write_bandwidth == pytest.approx(GB_per_sec(2.0))

    def test_dram_write_bandwidth_8gb(self):
        assert DRAM_CONFIG.write_bandwidth == pytest.approx(GB_per_sec(8.0))

    def test_pcm_page_write_1us(self):
        assert PCM_CONFIG.page_write_latency == pytest.approx(1e-6)

    def test_pcm_page_read_50ns(self):
        assert PCM_CONFIG.page_read_latency == pytest.approx(50e-9)

    def test_dram_latency_in_20_50ns_band(self):
        assert 20e-9 <= DRAM_CONFIG.page_write_latency <= 50e-9

    def test_write_latency_ratio_about_10x(self):
        # "write latencies are 10x higher"
        ratio = PCM_CONFIG.page_write_latency / DRAM_CONFIG.page_write_latency
        assert ratio >= 10

    def test_bandwidth_ratio_4x(self):
        # "overall bandwidth is 4x lower compared to DRAM"
        assert DRAM_CONFIG.write_bandwidth / PCM_CONFIG.write_bandwidth == pytest.approx(4.0)

    def test_endurance_1e8_vs_1e16(self):
        assert PCM_CONFIG.write_endurance == pytest.approx(1e8)
        assert DRAM_CONFIG.write_endurance == pytest.approx(1e16)

    def test_write_energy_40x(self):
        ratio = PCM_CONFIG.write_energy_per_bit / DRAM_CONFIG.write_energy_per_bit
        assert ratio == pytest.approx(40.0)

    def test_pcm_is_persistent_dram_is_not(self):
        assert PCM_CONFIG.persistent
        assert not DRAM_CONFIG.persistent

    def test_scaled_overrides_only_bandwidth(self):
        half = PCM_CONFIG.scaled(GB_per_sec(1.0))
        assert half.write_bandwidth == pytest.approx(GB_per_sec(1.0))
        assert half.page_write_latency == PCM_CONFIG.page_write_latency
        assert half.name == PCM_CONFIG.name


class TestPrecopyPolicy:
    def test_default_mode_is_dcpcp(self):
        assert PrecopyPolicy().mode == PrecopyPolicy.DCPCP

    @pytest.mark.parametrize("mode", ["none", "cpc", "dcpc", "dcpcp"])
    def test_all_modes_construct(self, mode):
        assert PrecopyPolicy(mode=mode).mode == mode

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            PrecopyPolicy(mode="bogus")

    def test_fault_cost_in_paper_band(self):
        # 6-12 usec per protection fault
        assert 6e-6 <= FAULT_COST <= 12e-6

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            PrecopyPolicy().mode = "cpc"  # type: ignore[misc]


class TestClusterConfig:
    def test_paper_testbed_defaults(self):
        cfg = ClusterConfig()
        assert cfg.nodes == 8
        assert cfg.node.cores == 12
        assert cfg.total_cores == 96

    def test_interconnect_40gbps(self):
        ic = InterconnectConfig()
        assert ic.link_bandwidth == pytest.approx(5e9)
        assert ic.effective_bandwidth < ic.link_bandwidth


class TestFailureConfig:
    def test_soft_fraction_from_rates(self):
        fc = FailureConfig(mtbf_local=100.0, mtbf_remote=300.0)
        # lambda_soft = 1/100, lambda_hard = 1/300 -> soft = 0.75
        assert fc.soft_fraction == pytest.approx(0.75)

    def test_from_rates_default_asciq_split(self):
        fc = FailureConfig.from_rates(lambda_total=0.01)
        assert fc.soft_fraction == pytest.approx(0.64)
        lam = 1.0 / fc.mtbf_local + 1.0 / fc.mtbf_remote
        assert lam == pytest.approx(0.01)

    def test_from_rates_validates_fraction(self):
        with pytest.raises(ValueError):
            FailureConfig.from_rates(0.01, soft_fraction=0.0)
        with pytest.raises(ValueError):
            FailureConfig.from_rates(0.01, soft_fraction=1.0)

    def test_from_rates_validates_rate(self):
        with pytest.raises(ValueError):
            FailureConfig.from_rates(0.0)


class TestBandwidthModelConfig:
    def test_single_core_fraction_reasonable(self):
        assert 0.0 < SINGLE_CORE_FRACTION <= 1.0

    def test_checkpoint_config_defaults(self):
        cc = CheckpointConfig()
        assert cc.local_interval == pytest.approx(40.0)
        assert cc.remote_interval > cc.local_interval


class TestSettableSurface:
    """No option, flag or config field arrives unnoticed: a change that
    adds or removes one edits these lists in its own diff."""

    CONFIG_FIELDS = [
        "CheckpointConfig.local_interval",
        "CheckpointConfig.precopy",
        "CheckpointConfig.remote_interval",
        "CheckpointConfig.remote_precopy",
        "ClusterConfig.node",
        "ClusterConfig.nodes",
        "DeviceConfig.capacity",
        "DeviceConfig.name",
        "DeviceConfig.page_read_latency",
        "DeviceConfig.page_write_latency",
        "DeviceConfig.persistent",
        "DeviceConfig.read_bandwidth",
        "DeviceConfig.write_bandwidth",
        "DeviceConfig.write_endurance",
        "DeviceConfig.write_energy_per_bit",
        "FailureConfig.mtbf_local",
        "FailureConfig.mtbf_remote",
        "FailureConfig.seed",
        "InterconnectConfig.efficiency",
        "InterconnectConfig.link_bandwidth",
        "NodeConfig.cores",
        "NodeConfig.dram",
        "NodeConfig.nvm",
        "PrecopyPolicy.codec",
        "PrecopyPolicy.copy_granularity",
        "PrecopyPolicy.granularity",
        "PrecopyPolicy.mode",
    ]

    CELL_OPTIONS = [
        "--app", "--archive", "--checkpoint-mb", "--chunk-mb", "--codec",
        "--comm-mb", "--compress-ratio", "--copy-granularity",
        "--granularity", "--help", "--hot-fraction", "--ideal",
        "--iterations", "--json", "--local-interval", "--mode",
        "--mtbf-local", "--mtbf-remote", "--no-remote",
        "--no-remote-precopy", "--nodes", "--nvm-capacity-gb", "--nvm-gbps",
        "--pfs-gbps", "--ranks-per-node", "--remote-interval", "--scenario",
        "--seed", "--small-chunks", "--timeline", "--trace",
        "--write-once-fraction", "-h",
    ]

    def test_config_fields_are_pinned(self):
        # the set `make loc` counts: every field of a dataclass that
        # repro.config itself defines
        fields = sorted(
            f"{cls.__name__}.{f.name}"
            for cls in vars(config).values()
            if isinstance(cls, type)
            and dataclasses.is_dataclass(cls)
            and cls.__module__ == config.__name__
            for f in dataclasses.fields(cls)
        )
        assert fields == self.CONFIG_FIELDS

    def test_cell_options_are_pinned(self):
        options = sorted(
            flag for action in build_parser()._actions for flag in action.option_strings
        )
        assert options == self.CELL_OPTIONS
