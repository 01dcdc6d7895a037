"""The third checkpoint level: periodic PFS archival.

§II describes the full multilevel hierarchy: "from local scratch
memory, to storage resources ... at remote neighbors ... and finally
to the PFS".  The paper's evaluation stops at the buddy level; this
extension adds the last hop — a per-cluster archiver that periodically
drains every rank's *remotely committed* checkpoint to the parallel
file system, protecting against failures that exceed the buddy
scheme's coverage (rack loss, correlated multi-node failures).

The archiver reads from the buddy copies (not the compute nodes), so
archival traffic loads the buddies' NVM read path and the shared PFS
pipe, never the application's critical path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..baselines.pfs import PfsModel
from ..errors import TransferCancelled
from ..sim.engine import Engine
from .remote import RemoteHelper, RemoteTarget

__all__ = ["ArchiveTier", "ArchiveStats"]


@dataclass
class ArchiveStats:
    """One archival round."""

    start: float = 0.0
    end: float = 0.0
    bytes_archived: int = 0
    chunks_archived: int = 0
    ranks_covered: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class ArchiveTier:
    """Periodic buddy-to-PFS archival for a whole cluster."""

    def __init__(
        self,
        engine: Engine,
        helpers: List[RemoteHelper],
        pfs: PfsModel,
        interval: float = 600.0,
    ) -> None:
        if interval <= 0:
            raise ValueError("archive interval must be positive")
        self.engine = engine
        #: the helpers whose buddy copies are archived; a cluster run
        #: swaps a failed node's helper for its replacement's
        self.helpers = helpers
        self.pfs = pfs
        self.interval = interval
        self.history: List[ArchiveStats] = []
        #: rank -> (the buddy target archived from, its version per
        #: chunk archived).  Version numbers belong to one target: a new
        #: one (re-pairing, replaced hardware) counts from 0 again, so
        #: its record starts empty
        self._archived: Dict[str, Tuple[RemoteTarget, Dict[str, int]]] = {}
        self._stop = False

    def stop(self) -> None:
        self._stop = True

    # ------------------------------------------------------------------
    # One archival round.
    # ------------------------------------------------------------------

    def archive_round(self):
        """Generator process: ship every buddy-committed chunk version
        that changed since the last round to the PFS."""
        stats = ArchiveStats(start=self.engine.now)
        for helper in self.helpers:
            for pid, target in sorted(helper.targets.items()):
                record = self._archived.get(pid)
                if record is None or record[0] is not target:
                    record = self._archived[pid] = (target, {})
                seen = record[1]
                covered = False
                for name in target.committed_chunks():
                    version = target.committed[name]
                    if seen.get(name) == version:
                        continue  # unchanged since the last archive
                    nbytes = target.sizes[name]
                    try:
                        # read from the buddy NVM (fast reads: 1/4 of
                        # the write-rate bus charge) and push through
                        # the shared PFS pipe
                        yield target.dst_ctx.nvm_bus.transfer(
                            nbytes / 4, tag=f"{pid}:archive-read"
                        )
                        yield self.pfs.write(nbytes, tag=f"{pid}:archive")
                    except TransferCancelled:
                        continue  # a failure tore it down; next round
                    seen[name] = version
                    stats.bytes_archived += nbytes
                    stats.chunks_archived += 1
                    covered = True
                if covered:
                    stats.ranks_covered += 1
        stats.end = self.engine.now
        self.history.append(stats)
        return stats

    def run(self):
        """Generator process: archive every ``interval`` seconds."""
        while not self._stop:
            yield self.engine.timeout(self.interval)
            if self._stop:
                break
            yield from self.archive_round()
        return self.history

    # ------------------------------------------------------------------
    # Accounting.
    # ------------------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        return sum(s.bytes_archived for s in self.history)

    def archived_versions(self, pid: str) -> Dict[str, int]:
        """What the PFS holds for *pid* (chunk -> buddy version)."""
        return dict(self._archived.get(pid, (None, {}))[1])
