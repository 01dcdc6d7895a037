"""Ramdisk (tmpfs/VFS) vs in-memory checkpoint path models (§IV).

The paper's motivation experiment replaces MADBench2's I/O calls
(open/read/write/seek) with allocation + memcpy and finds the ramdisk
path 46% slower at 300 MB/core, with 3x the kernel synchronization
calls and 31% more lock-wait time — because every VFS access pays
user/kernel transitions, serialization, and kernel metadata lock
contention, even though both paths store bytes in DRAM.

Both models price a checkpoint of ``nbytes`` per core with ``writers``
concurrent cores; they share the same DRAM copy cost (the data movement
is identical — the *path* differs).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import BandwidthModelConfig, DRAM_CONFIG, RamdiskConfig
from ..memory.bandwidth import CoreContentionModel
from ..units import GiB

__all__ = ["PathCosts", "RamdiskPathModel", "MemoryPathModel"]


@dataclass
class PathCosts:
    """Cost breakdown of one checkpoint through one path."""

    copy: float = 0.0
    serialization: float = 0.0
    syscalls: float = 0.0
    lock_wait: float = 0.0
    #: kernel synchronization call count (the paper's 3x metric)
    sync_calls: int = 0

    @property
    def total(self) -> float:
        return self.copy + self.serialization + self.syscalls + self.lock_wait


class MemoryPathModel:
    """Allocation + memcpy checkpointing (what NVM-as-memory enables)."""

    def __init__(self) -> None:
        self.contention = CoreContentionModel(DRAM_CONFIG, BandwidthModelConfig())
        self.config = RamdiskConfig()

    def checkpoint_costs(self, nbytes: int, writers: int = 1) -> PathCosts:
        costs = PathCosts()
        costs.copy = nbytes / self.contention.per_core_rate(max(1, writers))
        # minor faults / allocator locks: one sync per I/O-block worth
        n_blocks = max(1, nbytes // self.config.io_block_size)
        costs.sync_calls = n_blocks
        costs.lock_wait = nbytes * self.config.memory_path_per_byte
        return costs

    def checkpoint_time(self, nbytes: int, writers: int = 1) -> float:
        return self.checkpoint_costs(nbytes, writers).total


class RamdiskPathModel:
    """open/write/seek checkpointing onto tmpfs through the VFS."""

    def __init__(self) -> None:
        self.contention = CoreContentionModel(DRAM_CONFIG, BandwidthModelConfig())
        self.config = RamdiskConfig()

    def checkpoint_costs(self, nbytes: int, writers: int = 1) -> PathCosts:
        cfg = self.config
        costs = PathCosts()
        # identical data movement...
        costs.copy = nbytes / self.contention.per_core_rate(max(1, writers))
        # ...plus VFS serialization through the page cache
        costs.serialization = nbytes * cfg.serialization_per_byte
        # ...plus one user/kernel transition per write() block
        n_ios = max(1, nbytes // cfg.io_block_size)
        costs.syscalls = n_ios * cfg.syscall_latency
        # ...plus kernel metadata lock waits: 3 sync calls per I/O,
        # hold times growing with cached file size, contention growing
        # with concurrent writers
        costs.sync_calls = n_ios * cfg.sync_calls_per_io
        gb = nbytes / GiB
        contention = 1.0 + cfg.lock_contention_alpha * (max(1, writers) - 1)
        costs.lock_wait = cfg.lock_wait_quadratic * gb * gb * contention
        return costs

    def checkpoint_time(self, nbytes: int, writers: int = 1) -> float:
        return self.checkpoint_costs(nbytes, writers).total
