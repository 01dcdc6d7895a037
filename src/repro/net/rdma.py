"""RDMA put/get over the fabric, with destination-NVM coupling.

The paper assumes future DMA between the NIC and NVM: a remote
checkpoint write lands directly in the buddy node's NVM, consuming
both fabric bandwidth and destination NVM-bus bandwidth.  We model the
pipeline by running both flows concurrently and completing when the
slower finishes — each resource sees the full load, and the transfer
rate is bounded by the bottleneck, which is how a pipelined RDMA-to-NVM
path behaves in steady state.
"""

from __future__ import annotations

from typing import Optional

from ..sim.events import Event
from ..sim.resources import BandwidthResource
from .interconnect import Fabric

__all__ = ["rdma_put", "rdma_get"]


def rdma_put(
    fabric: Fabric,
    src: int,
    dst: int,
    nbytes: float,
    tag: str = "",
    dst_nvm_bus: Optional[BandwidthResource] = None,
    dst_nvm_bytes: Optional[float] = None,
) -> Event:
    """One-sided write of *nbytes* from *src* node into *dst* node's
    NVM.  Returns an event firing when fabric **and** destination NVM
    flows both complete.

    *dst_nvm_bytes* decouples the NVM-side volume from the wire volume:
    a compressed send moves the wire bytes across the fabric but lands
    the full decompressed payload on the buddy's NVM bus."""
    net_ev = fabric.transfer(src, dst, nbytes, tag=tag)
    if dst_nvm_bus is None:
        return net_ev
    nvm_ev = dst_nvm_bus.transfer(
        nbytes if dst_nvm_bytes is None else dst_nvm_bytes, tag=tag
    )
    return fabric.engine.all_of([net_ev, nvm_ev])


def rdma_get(
    fabric: Fabric,
    src: int,
    dst: int,
    nbytes: float,
    tag: str = "",
    src_nvm_bus: Optional[BandwidthResource] = None,
) -> Event:
    """One-sided read: *dst* pulls *nbytes* out of *src* node's NVM
    (restart fetch path).  NVM reads are near-DRAM speed (Table I), so
    the source bus flow rarely dominates, but it is still charged."""
    net_ev = fabric.transfer(src, dst, nbytes, tag=tag)
    if src_nvm_bus is None:
        return net_ev
    return fabric.engine.all_of([net_ev, src_nvm_bus.transfer(nbytes, tag=tag)])

