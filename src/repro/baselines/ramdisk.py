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

from ..config import BandwidthModelConfig, DRAM_CONFIG
from ..memory.bandwidth import CoreContentionModel
from ..units import GB, GiB, usec

__all__ = ["PathCosts", "RamdiskPathModel", "MemoryPathModel"]

# Calibrated against the paper's MADBench2 profiling (§IV): at
# 300 MB/core the ramdisk path is ~46% slower than the memcpy path,
# executes ~3x more kernel synchronization calls, spends ~31% more time
# waiting on kernel locks, and the gap *widens* with data size (lock
# hold times grow with the cached file size, hence the quadratic
# lock-wait term).

#: user->kernel transition per I/O syscall.
SYSCALL_LATENCY = usec(0.8)
#: write() granularity applications typically use on the I/O path.
IO_BLOCK_SIZE = 512 * 1024
#: VFS serialization (marshalling through the page cache): seconds per
#: byte of checkpoint data.
SERIALIZATION_PER_BYTE = 0.8 / GB(1)
#: kernel synchronization calls per I/O syscall on the VFS path (vs 1
#: per block on the memory path) — the paper's '3x'.
SYNC_CALLS_PER_IO = 3
#: memory-path kernel overhead (minor faults on allocation), seconds
#: per byte.
MEMORY_PATH_PER_BYTE = 0.25 / GB(1)
#: quadratic VFS lock-wait coefficient, seconds per GB^2 (kernel
#: metadata lock hold times grow with cached file size).
LOCK_WAIT_QUADRATIC = 0.92
#: lock-contention scaling with concurrent writers per node.
LOCK_CONTENTION_ALPHA = 0.02


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

    def checkpoint_costs(self, nbytes: int, writers: int = 1) -> PathCosts:
        costs = PathCosts()
        costs.copy = nbytes / self.contention.per_core_rate(max(1, writers))
        # minor faults / allocator locks: one sync per I/O-block worth
        n_blocks = max(1, nbytes // IO_BLOCK_SIZE)
        costs.sync_calls = n_blocks
        costs.lock_wait = nbytes * MEMORY_PATH_PER_BYTE
        return costs

    def checkpoint_time(self, nbytes: int, writers: int = 1) -> float:
        return self.checkpoint_costs(nbytes, writers).total


class RamdiskPathModel:
    """open/write/seek checkpointing onto tmpfs through the VFS."""

    def __init__(self) -> None:
        self.contention = CoreContentionModel(DRAM_CONFIG, BandwidthModelConfig())

    def checkpoint_costs(self, nbytes: int, writers: int = 1) -> PathCosts:
        costs = PathCosts()
        # identical data movement...
        costs.copy = nbytes / self.contention.per_core_rate(max(1, writers))
        # ...plus VFS serialization through the page cache
        costs.serialization = nbytes * SERIALIZATION_PER_BYTE
        # ...plus one user/kernel transition per write() block
        n_ios = max(1, nbytes // IO_BLOCK_SIZE)
        costs.syscalls = n_ios * SYSCALL_LATENCY
        # ...plus kernel metadata lock waits: 3 sync calls per I/O,
        # hold times growing with cached file size, contention growing
        # with concurrent writers
        costs.sync_calls = n_ios * SYNC_CALLS_PER_IO
        gb = nbytes / GiB
        contention = 1.0 + LOCK_CONTENTION_ALPHA * (max(1, writers) - 1)
        costs.lock_wait = LOCK_WAIT_QUADRATIC * gb * gb * contention
        return costs

    def checkpoint_time(self, nbytes: int, writers: int = 1) -> float:
        return self.checkpoint_costs(nbytes, writers).total
