"""The node-local execution context the checkpoint runtime runs
against.

One :class:`NodeContext` models one compute node: its DES engine, its
DRAM and NVM devices, the processor-sharing NVM bus all cores contend
on, the CPU cores (helper-core accounting), and the NVM kernel
manager.  Cluster simulations build one per node; the synchronous
facade (:class:`repro.core.api.NVMCheckpoint`) builds a standalone one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..config import NodeConfig
from ..memory.bandwidth import CoreContentionModel, make_device_bus
from ..memory.device import MemoryDevice
from ..memory.nvmm import NVMKernelManager
from ..memory.persistence import PersistentStore
from ..sim.engine import Engine
from ..sim.resources import BandwidthResource, CpuCores

__all__ = ["NodeContext", "make_standalone_context"]


@dataclass
class NodeContext:
    """Everything node-local that checkpoint components need."""

    name: str
    engine: Engine
    config: NodeConfig
    dram: MemoryDevice
    nvm: MemoryDevice
    nvmm: NVMKernelManager
    #: processor-sharing bus in front of the NVM device; every
    #: DRAM->NVM copy flows through it.
    nvm_bus: BandwidthResource
    cpu: CpuCores
    contention: CoreContentionModel

    @property
    def now(self) -> float:
        return self.engine.now

    def copy_to_nvm(self, nbytes: int, tag: str):
        """Start a DRAM->NVM copy through the shared bus; returns the
        completion event.  Wear accounting happens when the caller
        stages the chunk."""
        return self.nvm_bus.transfer(nbytes, tag=tag)

    def effective_nvm_bw_per_core(self) -> float:
        """The paper's NVMBW_core for this node (used by the DCPC
        threshold): effective per-core NVM write bandwidth with every
        core writing at once."""
        return self.contention.per_core_rate(max(1, self.config.cores))


def make_standalone_context(
    config: Optional[NodeConfig] = None,
    store: Optional[PersistentStore] = None,
    engine: Optional[Engine] = None,
    name: str = "node0",
    nvm_write_bandwidth: Optional[float] = None,
) -> NodeContext:
    """A self-contained single-node context (own engine unless given).

    ``nvm_write_bandwidth`` overrides the NVM device's peak write
    bandwidth — the knob swept on the x-axis of Figs. 7-9.
    """
    cfg = config or NodeConfig()
    if nvm_write_bandwidth is not None:
        cfg = replace(cfg, nvm=cfg.nvm.scaled(nvm_write_bandwidth))
    eng = engine or Engine()
    dram = MemoryDevice(cfg.dram)
    nvm = MemoryDevice(cfg.nvm)
    nvmm = NVMKernelManager(device=nvm, store=store)
    bus = make_device_bus(eng, cfg.nvm, cfg.bandwidth_model, name=f"{name}.nvm-bus")
    cpu = CpuCores()
    contention = CoreContentionModel(cfg.nvm, cfg.bandwidth_model)
    return NodeContext(
        name=name,
        engine=eng,
        config=cfg,
        dram=dram,
        nvm=nvm,
        nvmm=nvmm,
        nvm_bus=bus,
        cpu=cpu,
        contention=contention,
    )
