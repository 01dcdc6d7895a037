"""Reference oracle: the pre-copy engine's chunk selection as a linear
scan — the code ``PrecopyEngine`` ran before it got a ready index,
kept here (and only here) so the index can be checked against it.

Every wake-up walks all dirty candidates, builds a clock and asks the
policy about each one, and keeps the largest eligible chunk; ties go
to the chunk that entered the candidate dict first.  A candidate that
went clean leaves the dict only at the next scan that sees it clean,
so one re-dirtied before that scan keeps its place — the index has to
reproduce that too.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.alloc.chunk import Chunk, ChunkState
from repro.core.policy import Decision, IntervalClock
from repro.core.precopy import PrecopyEngine


class LinearScanOracle:
    """Shadows one :class:`PrecopyEngine`: same chunks, same dirty
    events, the engine's own policy and interval — only the selection
    is the old scan.  Call :meth:`next_eligible` whenever the engine
    selects (the scan is also what drops clean candidates)."""

    def __init__(self, engine: PrecopyEngine) -> None:
        self.engine = engine
        self._dirty: Dict[int, Chunk] = {}
        self._wired: set[int] = set()
        #: policy consultations, for the "81 per pre-copy" comparison
        self.decides = 0

    def wire(self, chunks: Iterable[Chunk]) -> None:
        for chunk in chunks:
            if chunk.chunk_id in self._wired:
                continue
            chunk.on_dirty.append(self._on_dirty)
            self._wired.add(chunk.chunk_id)
            if chunk.persistent and chunk.dirty_local:
                self._dirty[chunk.chunk_id] = chunk

    def drop(self, chunk: Chunk) -> None:
        """What the scan never had: a deleted chunk leaves."""
        self._wired.discard(chunk.chunk_id)
        chunk.on_dirty.remove(self._on_dirty)
        self._dirty.pop(chunk.chunk_id, None)

    def _on_dirty(self, chunk: Chunk, now: float) -> None:
        if chunk.persistent:
            self._dirty[chunk.chunk_id] = chunk

    def _eligible(self, chunk: Chunk, now: float) -> bool:
        engine = self.engine
        if not chunk.persistent or not chunk.dirty_local:
            return False
        if chunk.get_state(engine.stream) is not ChunkState.IDLE:
            return False
        clock = IntervalClock(now=now, interval_start=engine.interval_start)
        self.decides += 1
        return engine.decision_policy.decide(chunk, clock) is Decision.PRECOPY

    def next_eligible(self, now: float) -> Optional[Chunk]:
        best: Optional[Chunk] = None
        stale = []
        for cid, chunk in self._dirty.items():
            if not chunk.dirty_local:
                stale.append(cid)
                continue
            if self._eligible(chunk, now) and (best is None or chunk.nbytes > best.nbytes):
                best = chunk
        for cid in stale:
            del self._dirty[cid]
        return best
