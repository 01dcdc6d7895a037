"""MADBench2-style I/O kernel for the §IV motivation study.

MADBench2 is an out-of-core cosmology benchmark whose I/O phases write
and read large dense matrices.  The paper uses it to compare
checkpointing through a ramdisk filesystem against plain in-memory
copies: same bytes, same DRAM, different software path.  This model
replays that experiment: per core, ``phases`` write phases of
``data_mb`` each, through either path model, with all node cores
writing concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..baselines.ramdisk import MemoryPathModel, PathCosts, RamdiskPathModel
from ..units import MB

__all__ = ["MADBench", "MADBenchResult"]


@dataclass
class MADBenchResult:
    """One (data size, writers) comparison point."""

    data_mb: float
    writers: int
    memory: PathCosts
    ramdisk: PathCosts

    @property
    def slowdown(self) -> float:
        """How much slower the ramdisk path is (0.46 == 46%)."""
        return self.ramdisk.total / self.memory.total - 1.0

    @property
    def sync_call_ratio(self) -> float:
        return self.ramdisk.sync_calls / max(1, self.memory.sync_calls)

    @property
    def lock_wait_ratio(self) -> float:
        if self.memory.lock_wait <= 0:
            return float("inf")
        return self.ramdisk.lock_wait / self.memory.lock_wait


class MADBench:
    """The checkpoint-path comparison harness."""

    def __init__(self, phases: int = 1) -> None:
        self.memory_model = MemoryPathModel()
        self.ramdisk_model = RamdiskPathModel()
        self.phases = phases

    def run_point(self, data_mb: float, writers: int = 12) -> MADBenchResult:
        nbytes = MB(data_mb)
        mem = PathCosts()
        ram = PathCosts()
        for _ in range(self.phases):
            m = self.memory_model.checkpoint_costs(nbytes, writers)
            r = self.ramdisk_model.checkpoint_costs(nbytes, writers)
            mem.copy += m.copy
            mem.serialization += m.serialization
            mem.syscalls += m.syscalls
            mem.lock_wait += m.lock_wait
            mem.sync_calls += m.sync_calls
            ram.copy += r.copy
            ram.serialization += r.serialization
            ram.syscalls += r.syscalls
            ram.lock_wait += r.lock_wait
            ram.sync_calls += r.sync_calls
        return MADBenchResult(data_mb=data_mb, writers=writers, memory=mem, ramdisk=ram)

    def sweep(self, sizes_mb: List[float] | None = None, writers: int = 12) -> List[MADBenchResult]:
        """The paper's 50-300 MB/core sweep."""
        sizes = sizes_mb or [50, 100, 150, 200, 250, 300]
        return [self.run_point(s, writers) for s in sizes]
