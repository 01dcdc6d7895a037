"""Phase timelines: who did what when (compute / local checkpoint /
remote checkpoint / pre-copy / restart), reproducing the timing
diagrams of Figures 1 and 5 as data.

A :class:`Timeline` is a trace sink: attach it around a run
(``with BUS.capture(Timeline()) as tl:``) or feed it the events of a
captured trace (``for e in events: tl.handle(e)``) — both give the same
phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .trace import ChunkCopiedEvent, PhaseEvent, TraceEvent, TraceSink

__all__ = ["Phase", "Timeline"]

#: canonical phase names (the paper's C/L/R plus ours)
COMPUTE = "compute"
LOCAL_CKPT = "local_ckpt"
REMOTE_CKPT = "remote_ckpt"
PRECOPY = "precopy"
REMOTE_PRECOPY = "remote_precopy"
RESTART = "restart"
BLOCKED = "blocked"
#: resilience layer: no healthy remote target (local-only operation)
DEGRADED = "degraded"
#: resilience layer: paced re-send of committed chunks to a new buddy
RESYNC = "resync"
#: transient link flap window on a node's checkpoint path
OUTAGE = "outage"


@dataclass(frozen=True)
class Phase:
    """One closed interval of activity by one actor."""

    actor: str
    kind: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Timeline(TraceSink):
    """Append-only phase log with per-actor/per-kind aggregation."""

    def __init__(self) -> None:
        self.phases: List[Phase] = []

    # -- recording ------------------------------------------------------------

    def handle(self, event: TraceEvent) -> None:
        """``phase`` events are the spans; pre-copy spans are the
        ``chunk.copied`` spans of the pre-copy phase (local stream ->
        ``precopy``, remote stream -> ``remote_precopy``)."""
        if isinstance(event, PhaseEvent):
            self.record(event.actor, event.phase, event.start, event.end)
        elif isinstance(event, ChunkCopiedEvent) and event.phase == "precopy":
            kind = REMOTE_PRECOPY if event.stream == "remote" else PRECOPY
            self.record(event.actor, kind, event.start, event.t)

    def record(self, actor: str, kind: str, start: float, end: float) -> None:
        if end < start:
            raise ValueError(f"phase ends before it starts: {start} > {end}")
        self.phases.append(Phase(actor, kind, start, end))

    # -- aggregation --------------------------------------------------------------

    def total(self, kind: str, actor: Optional[str] = None) -> float:
        """Total time spent in *kind* (optionally for one actor)."""
        return sum(
            p.duration
            for p in self.phases
            if p.kind == kind and (actor is None or p.actor == actor)
        )

    def count(self, kind: str, actor: Optional[str] = None) -> int:
        return sum(
            1 for p in self.phases if p.kind == kind and (actor is None or p.actor == actor)
        )

    def actors(self) -> List[str]:
        return sorted({p.actor for p in self.phases})

    def kinds(self) -> List[str]:
        return sorted({p.kind for p in self.phases})

    def for_actor(self, actor: str) -> List[Phase]:
        return sorted((p for p in self.phases if p.actor == actor), key=lambda p: p.start)

    def span(self) -> Tuple[float, float]:
        if not self.phases:
            return (0.0, 0.0)
        return (min(p.start for p in self.phases), max(p.end for p in self.phases))

    def overlap(self, kind_a: str, kind_b: str) -> float:
        """Total time during which a *kind_a* phase (any actor) overlaps
        a *kind_b* phase — quantifies how much checkpointing was hidden
        under compute (the whole point of Figure 5)."""
        a = sorted(
            ((p.start, p.end) for p in self.phases if p.kind == kind_a), key=lambda t: t[0]
        )
        b = sorted(
            ((p.start, p.end) for p in self.phases if p.kind == kind_b), key=lambda t: t[0]
        )
        total = 0.0
        i = j = 0
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if hi > lo:
                total += hi - lo
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        return total

    # -- rendering --------------------------------------------------------------------

    _GLYPHS = {
        COMPUTE: "C",
        LOCAL_CKPT: "L",
        REMOTE_CKPT: "R",
        PRECOPY: "p",
        REMOTE_PRECOPY: "r",
        RESTART: "X",
        BLOCKED: ".",
        DEGRADED: "D",
        RESYNC: "s",
        OUTAGE: "o",
    }

    def ascii_art(self, width: int = 100, actors: Optional[List[str]] = None) -> str:
        """The Figure-5 diagram as ASCII: one row per actor, one glyph
        per time bucket (C=compute, L=local ckpt, R=remote ckpt,
        p/r=local/remote pre-copy, X=restart)."""
        t0, t1 = self.span()
        if t1 <= t0:
            return "(empty timeline)"
        scale = width / (t1 - t0)
        rows = []
        for actor in actors or self.actors():
            row = [" "] * width
            for p in self.for_actor(actor):
                g = self._GLYPHS.get(p.kind, p.kind[:1])
                lo = int((p.start - t0) * scale)
                hi = max(lo + 1, int((p.end - t0) * scale))
                for k in range(lo, min(hi, width)):
                    row[k] = g
            rows.append(f"{actor:>12} |{''.join(row)}|")
        legend = "  ".join(f"{g}={k}" for k, g in self._GLYPHS.items())
        return "\n".join(rows) + f"\n{'':>12}  [{t0:.1f}s .. {t1:.1f}s]  {legend}"
