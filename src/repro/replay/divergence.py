"""The differential oracle: faithful replay accounting and its
comparison against a live run.

``accounting_from_events`` rebuilds a
:class:`~repro.core.copystep.CopyAccounting` from the event stream by
feeding each ``chunk.copied`` / ``commit`` event to the writer the live
run called where it built that event — so for a same-config replay it
must equal the live run's accounting exactly, integer for integer.  Any
divergence means the emit → serialize → read → reconstruct pipeline
lost or invented data, which is precisely what the differential tests
exist to catch.

``compare_to_run`` is that assertion's engine, and doubles as a
reusable test fixture (see ``assert_replay_matches`` in the test
suite's conftest).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List

from ..core.copystep import COUNTERS, PAYLOAD_ONLY, CopyAccounting
from ..metrics.trace import ChunkCopiedEvent, CommitEvent, TraceEvent

__all__ = [
    "Divergence",
    "DivergenceReport",
    "accounting_from_events",
    "compare_to_run",
]


def accounting_from_events(events: List[TraceEvent]) -> CopyAccounting:
    """One linear pass; no model, no interpretation."""
    acc = CopyAccounting()
    for ev in events:
        if isinstance(ev, ChunkCopiedEvent):
            acc.copied(
                actor=ev.actor,
                stream=ev.stream,
                phase=ev.phase,
                start=ev.start,
                nbytes=ev.nbytes,
                logical_bytes=ev.logical_bytes,
                bytes_saved=ev.bytes_saved,
            )
        elif isinstance(ev, CommitEvent):
            acc.committed(
                t=ev.t,
                actor=ev.actor,
                chunks_committed=ev.chunks_committed,
                bytes_committed=ev.bytes_committed,
                flush_cost=ev.flush_cost,
            )
    return acc


# ---------------------------------------------------------------------------
# Divergence reporting.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Divergence:
    """One metric where replay and live disagree."""

    metric: str
    live: Any
    replayed: Any

    def __str__(self) -> str:
        return f"{self.metric}: live={self.live!r} replayed={self.replayed!r}"


@dataclass
class DivergenceReport:
    """Outcome of one differential comparison."""

    divergences: List[Divergence] = field(default_factory=list)
    #: metrics that were compared (divergent or not)
    compared: List[str] = field(default_factory=list)

    @property
    def matches(self) -> bool:
        return not self.divergences

    def describe(self) -> str:
        if self.matches:
            return (
                f"replay matches live run on all "
                f"{len(self.compared)} compared metrics"
            )
        lines = [
            f"replay DIVERGES from live run on "
            f"{len(self.divergences)}/{len(self.compared)} metrics:"
        ]
        lines.extend(f"  - {d}" for d in self.divergences)
        return "\n".join(lines)


def compare_to_run(acc: CopyAccounting, result) -> DivergenceReport:
    """Differential oracle: replay accounting vs a live run's
    (``result.accounting``), counter by counter plus the canonical
    commit ordering.  The counters no event carries are skipped."""
    live = result.accounting
    report = DivergenceReport()

    def check(metric: str, live_value: Any, replayed: Any) -> None:
        report.compared.append(metric)
        if replayed != live_value:
            report.divergences.append(
                Divergence(metric=metric, live=live_value, replayed=replayed)
            )

    for name in COUNTERS:
        if name not in PAYLOAD_ONLY:
            check(name, getattr(live, name), getattr(acc, name))
    check("commit_ordering", live.commit_ordering(), acc.commit_ordering())
    return report
