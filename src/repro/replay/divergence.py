"""The differential oracle: faithful replay accounting and its
comparison against a live run.

``accounting_from_events`` derives byte accounting *verbatim* from the
event stream — every counted byte is a byte some emitter counted into
its own stats at the same program point — so for a same-config replay
it must equal the live :class:`~repro.cluster.runner.RunResult`
exactly, integer for integer.  Any divergence means the
emit → serialize → read → reconstruct pipeline lost or invented data,
which is precisely what the differential tests exist to catch.

``compare_to_run`` is that assertion's engine, and doubles as a
reusable test fixture (see ``assert_replay_matches`` in the test
suite's conftest).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..metrics.trace import ChunkCopiedEvent, CommitEvent, TraceEvent

__all__ = [
    "CommitRecord",
    "ReplayAccounting",
    "Divergence",
    "DivergenceReport",
    "accounting_from_events",
    "compare_to_run",
    "live_commit_ordering",
]

#: commit tuples are compared on rounded time so a Jsonl float
#: round-trip (exact in CPython, but not guaranteed by the format)
#: can never produce a spurious ordering divergence
_T_DIGITS = 9


@dataclass(frozen=True)
class CommitRecord:
    """One commit point, as replay sees it."""

    t: float
    actor: str
    chunks_committed: int
    bytes_committed: int
    flush_cost: float

    @property
    def key(self) -> Tuple[float, str, int, int]:
        return (round(self.t, _T_DIGITS), self.actor, self.chunks_committed,
                self.bytes_committed)


@dataclass
class ReplayAccounting:
    """Byte/commit accounting derived verbatim from a trace."""

    #: local coordinated-step bytes (== RunResult.coordinated_bytes)
    bytes_copied: int = 0
    #: local background pre-copy bytes (== local_precopy_bytes)
    precopy_bytes: int = 0
    #: coordinated bytes incremental extents did NOT move
    bytes_saved: int = 0
    chunks_copied: int = 0
    precopy_copies: int = 0
    #: remote coordinated-round bytes (== remote_round_bytes)
    remote_round_bytes: int = 0
    #: remote streaming pre-copy bytes (== remote_precopy_bytes)
    remote_stream_bytes: int = 0
    #: bytes the payload codec kept off the wire, any stream
    #: (``logical_bytes - nbytes`` summed over codec-planned copies;
    #: raw copies carry ``logical_bytes == nbytes``, so a raw run
    #: accumulates exactly 0 and the metric is always comparable)
    codec_saved_bytes: int = 0
    commits: List[CommitRecord] = field(default_factory=list)
    #: summed coordinated-step spans (first copy start -> commit);
    #: informational — times are not part of the byte oracle
    blocking_s: float = 0.0

    @property
    def total_nvm_bytes(self) -> int:
        return self.bytes_copied + self.precopy_bytes

    def commit_ordering(self) -> List[Tuple[float, str, int, int]]:
        """Canonical commit order: (t, actor, chunks, bytes) sorted."""
        return sorted(c.key for c in self.commits)


def accounting_from_events(events: List[TraceEvent]) -> ReplayAccounting:
    """One linear pass; no model, no interpretation."""
    acc = ReplayAccounting()
    coord_begin: Dict[str, float] = {}
    for ev in events:
        if isinstance(ev, ChunkCopiedEvent):
            if ev.codec != "raw":
                # codec-planned copy: nbytes is the wire volume, the
                # logical (pre-codec) bytes ride in logical_bytes.
                # Auto rounds won by raw are tagged "raw" with
                # logical == wire, so skipping them changes nothing.
                acc.codec_saved_bytes += ev.logical_bytes - ev.nbytes
            if ev.stream == "remote":
                if ev.phase == "precopy":
                    acc.remote_stream_bytes += ev.nbytes
                else:
                    acc.remote_round_bytes += ev.nbytes
            elif ev.phase == "precopy":
                acc.precopy_bytes += ev.nbytes
                acc.precopy_copies += 1
            else:
                acc.bytes_copied += ev.nbytes
                acc.bytes_saved += ev.bytes_saved
                acc.chunks_copied += 1
                begin = coord_begin.get(ev.actor)
                if begin is None or ev.start < begin:
                    coord_begin[ev.actor] = ev.start
        elif isinstance(ev, CommitEvent):
            acc.commits.append(
                CommitRecord(
                    t=ev.t,
                    actor=ev.actor,
                    chunks_committed=ev.chunks_committed,
                    bytes_committed=ev.bytes_committed,
                    flush_cost=ev.flush_cost,
                )
            )
            begin = coord_begin.pop(ev.actor, None)
            acc.blocking_s += (ev.t - begin) if begin is not None else ev.flush_cost
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


def live_commit_ordering(cluster) -> List[Tuple[float, str, int, int]]:
    """The live run's canonical commit order, rebuilt from per-rank
    :class:`~repro.core.engine.CheckpointStats` history (the same
    values the engine put into its ``commit`` events)."""
    recs = []
    for state in cluster.all_ranks():
        ck = state.checkpointer
        two_version = bool(getattr(ck.destination, "two_version", False))
        for s in ck.history:
            committed = (
                s.chunks_copied + s.chunks_skipped if two_version else s.chunks_copied
            )
            recs.append(
                (round(s.end, _T_DIGITS), str(ck.rank), committed, s.bytes_copied)
            )
    return sorted(recs)


def compare_to_run(
    acc: ReplayAccounting, result, *, cluster: Optional[Any] = None
) -> DivergenceReport:
    """Differential oracle: replay accounting vs a live run.

    Byte counters come from the :class:`RunResult`; per-rank
    ``bytes_saved`` and the commit ordering need the live cluster
    (``run_experiment`` attaches it as ``result.cluster``)."""
    report = DivergenceReport()

    def check(metric: str, live: Any, replayed: Any) -> None:
        report.compared.append(metric)
        if replayed != live:
            report.divergences.append(
                Divergence(metric=metric, live=live, replayed=replayed)
            )

    check("coordinated_bytes", result.coordinated_bytes, acc.bytes_copied)
    check("local_precopy_bytes", result.local_precopy_bytes, acc.precopy_bytes)
    check("total_nvm_bytes", result.total_nvm_bytes, acc.total_nvm_bytes)
    check("remote_round_bytes", result.remote_round_bytes, acc.remote_round_bytes)
    check(
        "remote_precopy_bytes", result.remote_precopy_bytes, acc.remote_stream_bytes
    )
    check("local_checkpoints", result.local_checkpoints, len(acc.commits))
    if getattr(result, "codec", False):
        live_codec_saved = max(
            0, result.codec_logical_bytes - result.codec_wire_bytes
        )
        check("codec_saved_bytes", live_codec_saved, acc.codec_saved_bytes)
    if cluster is None:
        cluster = getattr(result, "cluster", None)
    if cluster is not None:
        live_saved = sum(
            state.checkpointer.total_bytes_saved for state in cluster.all_ranks()
        )
        check("bytes_saved", live_saved, acc.bytes_saved)
        live_chunks = sum(
            s.chunks_copied
            for state in cluster.all_ranks()
            for s in state.checkpointer.history
        )
        check("chunks_copied", live_chunks, acc.chunks_copied)
        check(
            "commit_ordering", live_commit_ordering(cluster), acc.commit_ordering()
        )
    return report
