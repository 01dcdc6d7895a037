"""Background checksum scrubbing (extension of the §V checksum
feature).

The paper computes per-chunk checksums at commit and verifies them at
restart.  With PCM's limited write endurance (1e8 cycles) and the long
residence times of checkpoint data, silent corruption discovered only
*at restart* is the worst possible moment — so this extension adds a
**scrubber** that sweeps committed chunks during idle time, verifies
their stored checksums against the NVM contents, and repairs corrupted
chunks from the buddy copy before they are ever needed.

``Scrubber.scan`` is the synchronous sweep; ``Scrubber.run`` is a DES
process performing periodic sweeps at a paced read rate (NVM reads are
near-DRAM speed, Table I, so scrubbing is cheap but still charged).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..alloc.nvmalloc import NVAllocator
from ..errors import NoCheckpointAvailable, TransferCancelled, TransferFailed
from ..net.interconnect import Fabric
from .context import NodeContext
from .remote import RemoteTarget, buddy_get

__all__ = ["Scrubber", "ScrubReport"]


@dataclass
class ScrubReport:
    """Outcome of one scrub sweep."""

    start: float = 0.0
    end: float = 0.0
    chunks_scanned: int = 0
    bytes_scanned: int = 0
    corrupted: List[str] = field(default_factory=list)
    repaired: List[str] = field(default_factory=list)
    unrepairable: List[str] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def clean(self) -> bool:
        return not self.corrupted


class Scrubber:
    """Sweeps an allocator's committed chunks, verifying and repairing."""

    def __init__(
        self,
        ctx: NodeContext,
        allocator: NVAllocator,
        *,
        fabric: Optional[Fabric] = None,
        node_id: Optional[int] = None,
        remote_target: Optional[RemoteTarget] = None,
        remote_node: Optional[int] = None,
        interval: float = 300.0,
        resilience=None,
    ) -> None:
        self.ctx = ctx
        self.allocator = allocator
        self.fabric = fabric
        self.node_id = node_id
        self.remote_target = remote_target
        self.remote_node = remote_node
        self.interval = interval
        #: optional ResilientTransport: repair fetches retry through
        #: transient outages instead of failing on the first cancel
        self.resilience = resilience
        self.reports: List[ScrubReport] = []
        self._stop = False

    # ------------------------------------------------------------------
    # One sweep.
    # ------------------------------------------------------------------

    def scan(self, repair: bool = True):
        """Generator process: verify every committed chunk, repairing
        corrupted ones from the buddy when possible.  Returns a
        :class:`ScrubReport`."""
        engine = self.ctx.engine
        report = ScrubReport(start=engine.now)
        for chunk in self.allocator.persistent_chunks():
            if chunk.committed_version < 0:
                continue
            # the verification read flows through the NVM bus (reads
            # are near-DRAM speed but not free)
            yield self.ctx.nvm_bus.transfer(chunk.nbytes, tag=f"{self.allocator.pid}:scrub")
            report.chunks_scanned += 1
            report.bytes_scanned += chunk.nbytes
            if chunk.verify_checksum():
                continue
            report.corrupted.append(chunk.name)
            if not repair:
                continue
            fixed = yield from self._repair(chunk)
            if fixed:
                report.repaired.append(chunk.name)
            else:
                report.unrepairable.append(chunk.name)
        report.end = engine.now
        self.reports.append(report)
        return report

    def _repair(self, chunk):
        """Fetch the buddy's committed copy, restore it into the local
        in-progress version and re-commit.  Returns True on success."""
        if (
            self.remote_target is None
            or self.fabric is None
            or self.node_id is None
            or self.remote_node is None
        ):
            return False
        if self.remote_target.committed.get(chunk.name, -1) < 0:
            return False
        # do not replace a corrupted local copy with a corrupted buddy
        # copy: verify the buddy's stored checksum first
        if not self.remote_target.verify(chunk.name):
            return False
        tag = f"{self.allocator.pid}:scrub-repair"
        try:
            yield from buddy_get(
                self.fabric, self.remote_target, self.remote_node, self.node_id, chunk.nbytes,
                tag=tag, transport=self.resilience,
            )
        except (TransferCancelled, TransferFailed):
            # buddy unreachable (outage / dead node): leave the chunk
            # for a later sweep rather than raising out of the scan
            return False
        payload = self.remote_target.fetch(chunk.name)
        if not chunk.phantom:
            assert chunk.dram is not None
            # restore the buddy's payload into DRAM, then re-persist
            chunk.dram[:] = payload
        chunk.stage_to_nvm()
        self.ctx.nvmm.cache_flush()
        chunk.commit(with_checksum=True)
        self.allocator._persist_metadata()
        self.ctx.nvmm.cache_flush()
        return True

    def scan_sync(self, repair: bool = True) -> ScrubReport:
        """Run one sweep to completion on this context's own engine."""
        proc = self.ctx.engine.process(self.scan(repair=repair), name="scrub")
        self.ctx.engine.run()
        return proc.value

    # ------------------------------------------------------------------
    # Periodic background scrubbing.
    # ------------------------------------------------------------------

    def stop(self) -> None:
        self._stop = True

    def run(self, repair: bool = True):
        """Generator process: sweep every ``interval`` seconds until
        :meth:`stop`."""
        engine = self.ctx.engine
        while not self._stop:
            yield engine.timeout(self.interval)
            if self._stop:
                break
            yield from self.scan(repair=repair)
        return self.reports

    # ------------------------------------------------------------------
    # Aggregates.
    # ------------------------------------------------------------------

    @property
    def total_corruption_found(self) -> int:
        return sum(len(r.corrupted) for r in self.reports)

    @property
    def total_repaired(self) -> int:
        return sum(len(r.repaired) for r in self.reports)
