"""Hardware and experiment parameter sets.

The defaults encode the paper's assumptions:

* Table I   — PCM vs DRAM latency/bandwidth (5-year Numonyx projection);
* §VI       — 8 nodes x 12 x 2.8 GHz Xeon cores, 48 GB DRAM, 40 Gb/s IB,
              half of DRAM partitioned off as emulated NVM;
* §III/§VI  — failure-rate and checkpoint-interval choices (local
              interval 40 s, remote 47-180 s, Dong et al. MTBF ranges).

Everything is a frozen dataclass so that experiment sweeps construct
variants with :func:`dataclasses.replace` rather than mutating shared
state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ConfigError
from .units import (
    GB,
    GB_per_sec,
    Gbit_per_sec,
    PAGE_SIZE,
    nsec,
    usec,
)

__all__ = [
    "DeviceConfig",
    "DRAM_CONFIG",
    "PCM_CONFIG",
    "BandwidthModelConfig",
    "NodeConfig",
    "InterconnectConfig",
    "ClusterConfig",
    "PrecopyPolicy",
    "CheckpointConfig",
    "FailureConfig",
]


# ---------------------------------------------------------------------------
# Memory devices (Table I).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeviceConfig:
    """Performance/capacity parameters of a memory device.

    ``write_bandwidth`` is the *device* (die) bandwidth; the effective
    per-core bandwidth under contention is derived by
    :class:`repro.memory.bandwidth.CoreContentionModel`.
    """

    name: str
    capacity: int
    read_bandwidth: float  # bytes/s, device peak
    write_bandwidth: float  # bytes/s, device peak
    page_read_latency: float  # seconds, per-page
    page_write_latency: float  # seconds, per-page
    persistent: bool = False
    #: writes per cell before wear-out (1e8 PCM vs 1e16 DRAM).
    write_endurance: float = 1e16
    #: energy per written bit, joules (PCM ~40x DRAM per the paper).
    write_energy_per_bit: float = 1.0e-12
    page_size: int = PAGE_SIZE

    def scaled(self, write_bandwidth: float) -> "DeviceConfig":
        """A copy of this device with a different peak write bandwidth
        (used for NVM bandwidth sweeps in Figs. 7-9)."""
        return replace(self, write_bandwidth=write_bandwidth)


#: DRAM per Table I: ~8 GB/s write bandwidth, 20-50 ns page latencies.
DRAM_CONFIG = DeviceConfig(
    name="dram",
    capacity=GB(24),  # half of the 48 GB node (other half emulates NVM)
    read_bandwidth=GB_per_sec(8.0),
    write_bandwidth=GB_per_sec(8.0),
    page_read_latency=nsec(35.0),
    page_write_latency=nsec(35.0),
    persistent=False,
    write_endurance=1e16,
    write_energy_per_bit=1.0e-12,
)

#: PCM per Table I: ~2 GB/s write bandwidth, ~1 us page write, ~50 ns
#: page read, 1e8 endurance, 40x DRAM write energy.
PCM_CONFIG = DeviceConfig(
    name="pcm",
    capacity=GB(24),
    read_bandwidth=GB_per_sec(8.0),  # reads comparable to DRAM (Table I)
    write_bandwidth=GB_per_sec(2.0),
    page_read_latency=nsec(50.0),
    page_write_latency=usec(1.0),
    persistent=True,
    write_endurance=1e8,
    write_energy_per_bit=40.0e-12,
)


# ---------------------------------------------------------------------------
# Per-core bandwidth contention (Figure 4).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BandwidthModelConfig:
    """Calibration of the per-core effective-bandwidth contention curve.

    Figure 4 (LANL parallel memcpy) shows per-core copy bandwidth
    dropping ~67% from 1 to 12 concurrent processes even for 33 MB
    blocks.  We model the device bus as processor sharing with

    * a per-flow cap: one core drives at most ``single_core_fraction``
      of the device's peak bandwidth (a single thread cannot saturate a
      DDR bus);
    * an interference term shrinking usable capacity with concurrency:
      ``C_eff(n) = C / (1 + alpha * (n - 1))`` (bank conflicts, row
      misses).

    Per-core rate is ``min(single_core_fraction*C, C_eff(n)/n)``.  With
    the defaults (0.25, 0.01) the 1->12-process per-core drop is ~70%,
    matching Fig. 4's shape: flat up to ~4 writers, then ~1/n decay.
    """

    single_core_fraction: float = 0.25
    alpha: float = 0.01
    #: below this block size, per-transfer fixed overhead dominates.
    small_block_overhead: float = usec(10.0)


# ---------------------------------------------------------------------------
# Nodes and cluster (§VI methodology).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeConfig:
    """One compute node: cores + DRAM + node-local NVM."""

    cores: int = 12
    dram: DeviceConfig = DRAM_CONFIG
    nvm: DeviceConfig = PCM_CONFIG
    bandwidth_model: BandwidthModelConfig = BandwidthModelConfig()


@dataclass(frozen=True)
class InterconnectConfig:
    """Fabric parameters (40 Gb/s InfiniBand in the paper)."""

    link_bandwidth: float = Gbit_per_sec(40.0)
    rdma_latency: float = usec(2.0)
    #: usable fraction of line rate (protocol efficiency).
    efficiency: float = 0.9

    @property
    def effective_bandwidth(self) -> float:
        """Usable bytes/second on one link."""
        return self.link_bandwidth * self.efficiency


@dataclass(frozen=True)
class ClusterConfig:
    """The evaluation testbed: 8 nodes, 12 cores each, 40 Gb/s IB."""

    nodes: int = 8
    node: NodeConfig = NodeConfig()
    interconnect: InterconnectConfig = InterconnectConfig()

    @property
    def total_cores(self) -> int:
        return self.nodes * self.node.cores


# ---------------------------------------------------------------------------
# Checkpoint policies (§IV).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrecopyPolicy:
    """Which pre-copy variant the runtime runs.

    * ``NONE``  — blocking checkpoint only (the 'no pre-copy' baseline);
    * ``CPC``   — chunk pre-copy from the start of each interval;
    * ``DCPC``  — delayed chunk pre-copy (threshold ``T_p = I - D/BW``);
    * ``DCPCP`` — delayed pre-copy with the per-chunk prediction table.
    """

    NONE = "none"
    CPC = "cpc"
    DCPC = "dcpc"
    DCPCP = "dcpcp"

    mode: str = "dcpcp"
    #: dirty-tracking granularity: "chunk" (the paper's design) or
    #: "page" (the strawman §IV rejects: every written page faults,
    #: ~3 s of fault handling per GB of fully-rewritten data).
    granularity: str = "chunk"
    #: safety margin multiplier on the computed copy time T_c when
    #: deriving the threshold T_p (adapts for estimate error).
    threshold_margin: float = 1.25
    #: cost charged per protection fault (paper: 6-12 usec).
    fault_cost: float = usec(9.0)
    #: copy granularity: "chunk" copies whole dirty chunks (the
    #: pre-incremental behaviour, and the default); "page" copies only
    #: the coalesced dirty-page extents recorded since each version
    #: slot was last refreshed (the kernel nvdirty path, §V).
    copy_granularity: str = "chunk"
    #: payload representation on the wire: "raw" ships extent bytes
    #: verbatim (the golden baseline); "delta" XORs against the
    #: committed shadow version; "dedup" references a content-addressed
    #: block store; "auto" picks the cheapest per chunk per round and
    #: emits ``codec.decision`` trace events.
    codec: str = "raw"
    #: content block size for digesting/delta (bytes; power of two).
    codec_block: int = 4096

    def __post_init__(self) -> None:
        valid = {self.NONE, self.CPC, self.DCPC, self.DCPCP}
        if self.mode not in valid:
            raise ConfigError(
                f"unknown pre-copy mode {self.mode!r}; expected one of {sorted(valid)}"
            )
        if self.granularity not in ("chunk", "page"):
            raise ConfigError(f"unknown granularity {self.granularity!r}")
        if self.copy_granularity not in ("chunk", "page"):
            raise ConfigError(
                f"unknown copy granularity {self.copy_granularity!r}"
            )
        if self.codec not in ("raw", "delta", "dedup", "auto"):
            raise ConfigError(
                f"unknown codec {self.codec!r}; expected one of "
                "['auto', 'dedup', 'delta', 'raw']"
            )
        if self.codec_block <= 0 or self.codec_block & (self.codec_block - 1):
            raise ConfigError(
                f"codec_block must be a positive power of two, got {self.codec_block}"
            )

    @property
    def incremental(self) -> bool:
        """True when page-granular incremental copy is on."""
        return self.copy_granularity == "page"

    @property
    def codec_enabled(self) -> bool:
        """True when a non-raw payload codec is on the wire."""
        return self.codec != "raw"


@dataclass(frozen=True)
class CheckpointConfig:
    """Intervals, pre-copy and remote policy for a run.  Every run keeps
    two versions of each chunk (committed + in-progress)."""

    #: seconds between coordinated local checkpoints (paper uses 40 s).
    local_interval: float = 40.0
    #: seconds between remote checkpoints (paper sweeps 47-180 s).
    remote_interval: float = 120.0
    precopy: PrecopyPolicy = PrecopyPolicy()
    #: pre-copy for the *remote* stream too (the paper's remote design).
    remote_precopy: bool = True
    #: store/verify per-chunk checksums (optional feature, §V).
    checksums: bool = True


# ---------------------------------------------------------------------------
# Failure model (§III / §VI).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FailureConfig:
    """Exponential failure injection split into soft (local-recoverable)
    and hard (remote-recovery) failures.

    The ASCI-Q observation in the paper: ~64% of failures are soft.
    ``mtbf_local``/``mtbf_remote`` are per-*node* MTBFs in seconds.
    """

    mtbf_local: float = 3600.0
    mtbf_remote: float = 14400.0
    seed: int = 0x5EED

    @property
    def soft_fraction(self) -> float:
        """Fraction of failures that are soft, implied by the two rates."""
        lam_l = 1.0 / self.mtbf_local
        lam_r = 1.0 / self.mtbf_remote
        return lam_l / (lam_l + lam_r)

    @staticmethod
    def from_rates(
        lambda_total: float, soft_fraction: float = 0.64, seed: int = 0x5EED
    ) -> "FailureConfig":
        """Build from a total failure rate and a soft-failure share
        (defaults to the paper's 64% ASCI-Q soft-error fraction)."""
        if not 0.0 < soft_fraction < 1.0:
            raise ValueError("soft_fraction must be in (0, 1)")
        if lambda_total <= 0.0:
            raise ValueError("lambda_total must be positive")
        lam_l = lambda_total * soft_fraction
        lam_r = lambda_total * (1.0 - soft_fraction)
        return FailureConfig(
            mtbf_local=1.0 / lam_l, mtbf_remote=1.0 / lam_r, seed=seed
        )
