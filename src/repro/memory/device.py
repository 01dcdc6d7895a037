"""Memory device models (DRAM and PCM) with Table-I timing and the
endurance/energy side effects the paper calls out (1e8 write cycles,
40x write energy/bit for PCM).

A :class:`MemoryDevice` is pure accounting + parameters: capacity
allocation, byte/page counters, wear and energy.  *Time* is charged
either analytically (:meth:`write_time` / :meth:`read_time`) or through
a processor-sharing bus created by
:func:`repro.memory.bandwidth.make_device_bus`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..config import DeviceConfig
from ..errors import OutOfMemory
from ..units import pages_of

__all__ = ["MemoryDevice", "WearStats"]


@dataclass
class WearStats:
    """Cumulative wear/energy counters for one device."""

    bytes_written: float = 0.0
    bytes_read: float = 0.0
    page_writes: int = 0
    page_reads: int = 0
    write_energy_joules: float = 0.0

    def merge(self, other: "WearStats") -> None:
        self.bytes_written += other.bytes_written
        self.bytes_read += other.bytes_read
        self.page_writes += other.page_writes
        self.page_reads += other.page_reads
        self.write_energy_joules += other.write_energy_joules


class MemoryDevice:
    """One physical memory device in a node.

    Tracks allocations (simple byte budget — placement is handled by the
    allocator above), read/write traffic, wear-levelled endurance
    estimates and write energy.
    """

    def __init__(self, config: DeviceConfig) -> None:
        self.config = config
        self.allocated = 0
        self.wear = WearStats()
        #: allocation high-water mark, for capacity reports.
        self.peak_allocated = 0
        self._owners: Dict[str, int] = {}

    # -- capacity ---------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self.config.capacity

    @property
    def free(self) -> int:
        return self.config.capacity - self.allocated

    def allocate(self, nbytes: int, owner: str = "") -> None:
        """Reserve *nbytes*; raises :class:`OutOfMemory` when the device
        is exhausted (the paper's 'local NVM space is a constraint'
        path)."""
        if nbytes < 0:
            raise ValueError("cannot allocate a negative size")
        if self.allocated + nbytes > self.config.capacity:
            raise OutOfMemory(
                f"{self.config.name}: need {nbytes} bytes, only {self.free} free "
                f"of {self.config.capacity}"
            )
        self.allocated += nbytes
        if self.allocated > self.peak_allocated:
            self.peak_allocated = self.allocated
        if owner:
            self._owners[owner] = self._owners.get(owner, 0) + nbytes

    def release(self, nbytes: int, owner: str = "") -> None:
        if nbytes < 0:
            raise ValueError("cannot release a negative size")
        if nbytes > self.allocated:
            raise ValueError(
                f"{self.config.name}: releasing {nbytes} bytes but only "
                f"{self.allocated} allocated"
            )
        self.allocated -= nbytes
        if owner and owner in self._owners:
            self._owners[owner] -= nbytes
            if self._owners[owner] <= 0:
                del self._owners[owner]

    def allocated_by(self, owner: str) -> int:
        return self._owners.get(owner, 0)

    # -- timing (analytic; used outside the DES and for latency floors) ----

    def write_time(self, nbytes: int) -> float:
        """Seconds to write *nbytes* at device peak bandwidth, with the
        per-page latency floor (1 us/page PCM writes dominate for small
        transfers)."""
        bw = self.config.write_bandwidth
        latency_floor = pages_of(nbytes, self.config.page_size) * self.config.page_write_latency
        return max(nbytes / bw, latency_floor) if nbytes > 0 else 0.0

    def read_time(self, nbytes: int) -> float:
        bw = self.config.read_bandwidth
        latency_floor = pages_of(nbytes, self.config.page_size) * self.config.page_read_latency
        return max(nbytes / bw, latency_floor) if nbytes > 0 else 0.0

    # -- traffic accounting -------------------------------------------------

    def record_write(self, nbytes: int) -> None:
        """Account a write's wear and energy (call once per completed
        copy into this device).  Runs once per staged half-chunk, so it
        reads ``wear`` and ``config`` once and takes the page count
        inline (``pages_of``)."""
        wear, config = self.wear, self.config
        wear.bytes_written += nbytes
        if nbytes > 0:
            wear.page_writes += -(-nbytes // config.page_size)
        wear.write_energy_joules += nbytes * 8 * config.write_energy_per_bit

    def record_read(self, nbytes: int) -> None:
        self.wear.bytes_read += nbytes
        self.wear.page_reads += pages_of(nbytes, self.config.page_size)

    # -- endurance ----------------------------------------------------------

    def endurance_fraction_used(self) -> float:
        """Fraction of total device write endurance consumed, assuming
        ideal wear leveling (writes spread over all cells).  PCM's 1e8
        cycles make this non-negligible for checkpoint workloads; DRAM's
        1e16 makes it ~0."""
        total_cell_writes = self.config.write_endurance * self.config.capacity
        if total_cell_writes <= 0:
            return 0.0
        return self.wear.bytes_written / total_cell_writes

    def estimated_lifetime_seconds(self, elapsed: float) -> float:
        """Extrapolated device lifetime given the write traffic so far
        over *elapsed* simulated seconds (inf if no writes)."""
        used = self.endurance_fraction_used()
        if used <= 0.0 or elapsed <= 0.0:
            return float("inf")
        return elapsed / used
