"""Structured trace bus: typed checkpoint-pipeline events, pluggable sinks.

Every layer of the checkpoint pipeline — the engine's chunk walk, the
policy's per-chunk decisions, commits, the resilience layer's retries
and failovers — emits a typed event to a process-global
:class:`TraceBus`.  Sinks subscribe to the bus:

* :class:`RingBufferSink` — bounded in-memory tail for tests/debugging;
* :class:`JsonlSink` — newline-delimited JSON stream (``bench --trace``);
* :class:`CounterSink` — event/decision counters (bench baseline record);
* :class:`~repro.metrics.timeline.Timeline` — the Fig. 1/5 phase log,
  built from ``phase`` and ``chunk.copied`` events.

Emission with zero sinks attached is a single truthiness check, so the
simulation hot path pays nothing when tracing is off.  The bus is
per-process: a sink attached here sees the cells this process runs.
Cells that ``run_grid`` sends to the worker pool are captured in the
worker that runs them (:mod:`repro.exec.pool`), which ships
their finished Jsonl lines back — ``run_grid(trace=...)`` is the way to
trace a parallel grid.

Every event field is a scalar (``str``/``int``/``float``/``bool``), so
a record is one flat dict built from the per-class field table
:data:`_FIELDS`, and a line (:meth:`TraceEvent.to_line`) is the same
dict built with its keys already sorted, through a shared encoder that
skips the sort; :func:`encode_line` writes any other record.  On a
2-CPU Xeon under CPython 3.11, over one captured cell's event mix,
building an event costs ~0.8 us, its record ~1.3 us and its line ~8 us.
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    IO,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from ..errors import ConfigError

__all__ = [
    "TRACE_VERSION",
    "TraceEvent",
    "PolicyDecisionEvent",
    "ChunkCopiedEvent",
    "CodecDecisionEvent",
    "CommitEvent",
    "RetryEvent",
    "FailoverEvent",
    "ResyncAbortedEvent",
    "PhaseEvent",
    "emit_phase",
    "TraceSink",
    "RingBufferSink",
    "JsonlSink",
    "CounterSink",
    "CallbackSink",
    "TraceBus",
    "BUS",
    "encode_line",
    "event_from_record",
    "read_trace",
]

#: schema version of the Jsonl wire format.  Bump when an event gains,
#: loses or renames a field; register an upgrader in
#: :data:`_UPGRADERS` when the bump changes an existing record.
#: Version 2 added the elastic-membership kinds (``membership.change``,
#: ``migration.*``, ``resync.aborted``); every version-1 kind is
#: unchanged, so the 1->2 step needs no upgrader.
#: Version 3 added the payload-codec layer: ``chunk.copied`` gained
#: ``codec`` (representation that crossed the wire) and
#: ``logical_bytes`` (pre-encoding size), plus the new
#: ``codec.decision`` kind.  The 2->3 upgrader stamps old copies as
#: ``codec="raw"`` with ``logical_bytes=nbytes``.
#: Version 4 added the per-rank tenant label: ``chunk.copied`` and
#: ``commit`` gained ``tenant`` (empty for untenanted runs).  Old
#: records parse unchanged (the field defaults to ``""``), so the 3->4
#: step needs no upgrader.
#: Version 5 added the ``phase`` kind (closed per-actor phase spans:
#: compute, local/remote checkpoint, restart, degraded, re-sync,
#: migration, outage); every version-4 kind is unchanged, so the 4->5
#: step needs no upgrader.
#: Versions 4 and 5 also carried four ``tenant.*`` kinds written only by
#: a standalone QoS scenario simulator that no cell ran; they are gone
#: and the reader rejects them as unknown kinds.  The version stays 5
#: because no record a run writes changed: every other kind and field
#: is as before, and the header line (part of each pinned trace digest)
#: is byte-identical.
#: Versions 1 to 5 also carried the policy tuner's switch kind, written
#: only by a per-rank bandit that hot-swapped the pre-copy mode between
#: intervals; the tuner is gone and the reader rejects its kind as
#: unknown.  No pinned trace carries it, so the version stays 5 too.
#: Versions 2 to 5 also carried five live-migration kinds
#: (``membership.change`` and ``migration.planned``/``batch``/
#: ``cutover``/``aborted``), written only by runs with a join/drain
#: schedule; live migration is gone and the reader rejects them as
#: unknown.  No pinned trace carries them, so the version stays 5.
#: No run sets a tenant label any more, so every ``chunk.copied`` and
#: ``commit`` record carries ``tenant=""``.  The field stays in the
#: schema until the next version bump (v6) drops it from both kinds;
#: until then no record byte changes.
TRACE_VERSION = 5


# ---------------------------------------------------------------------------
# Events: slotted dataclasses, every field a JSON scalar (str/int/float/bool).
#
# Immutability is a contract, not enforced: nothing assigns to an event
# after it is built.  Every sink on the bus, a ring buffer and the replay
# engine's TraceSource share the one object, so a mutation would change
# what a later consumer replays.  The classes are not frozen because a
# frozen dataclass builds through object.__setattr__ per field, over 3x
# the cost of a slotted one.  Being unfrozen eq dataclasses, events are
# also unhashable: never use one as a dict key or set member.
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class TraceEvent:
    """Base event: simulated timestamp plus the emitting actor."""

    t: float
    actor: str

    @property
    def kind(self) -> str:
        """Stable wire name, e.g. ``policy.decision``."""
        return _KINDS[type(self)]

    def to_record(self) -> Dict[str, Any]:
        cls = type(self)
        rec: Dict[str, Any] = {"kind": _KINDS[cls]}
        for name in _FIELDS[cls]:
            rec[name] = getattr(self, name)
        return rec

    def to_line(self) -> str:
        """This event's Jsonl line: byte for byte
        ``encode_line(self.to_record())``, from a record built with its
        keys already sorted, so the encoder skips the sort."""
        cls = type(self)
        rec = _LINE_RECORDS[cls].copy()
        for name in _FIELDS[cls]:
            rec[name] = getattr(self, name)
        return _ENCODE_IN_ORDER(rec) + "\n"


@dataclass(slots=True)
class PolicyDecisionEvent(TraceEvent):
    """One ``CheckpointPolicy.decide`` outcome for one chunk."""

    chunk: str
    decision: str  # Decision.value: precopy | copy_at_checkpoint | skip
    policy: str  # policy registry name: none | cpc | dcpc | dcpcp


@dataclass(slots=True)
class ChunkCopiedEvent(TraceEvent):
    """One chunk's data landed at a destination (t is the span end)."""

    chunk: str
    nbytes: int
    start: float  # span begin (t is the end)
    stream: str  # local | remote
    phase: str  # coordinated | precopy
    destination: str = ""
    #: pages moved by this copy (page-granular mode counts only the
    #: stale extents; chunk-granular mode counts the whole chunk)
    pages: int = 0
    #: chunk bytes NOT moved thanks to incremental extents (0 for
    #: whole-chunk copies)
    bytes_saved: int = 0
    #: payload representation that crossed the wire (raw | delta | dedup;
    #: "raw" for every copy made with the codec layer off)
    codec: str = "raw"
    #: pre-encoding size of the moved extents; ``nbytes`` is the wire
    #: size, so ``logical_bytes - nbytes`` is the codec's saving
    logical_bytes: int = 0
    #: always "" (no run sets a tenant label); dropped at trace v6
    tenant: str = ""


@dataclass(slots=True)
class CodecDecisionEvent(TraceEvent):
    """The per-chunk codec policy weighed the candidate representations
    and picked one (emitted only by the ``auto`` codec, which is the
    only codec that *has* alternatives to weigh)."""

    chunk: str
    #: winning representation: full | delta | dedup
    chosen: str
    #: candidate wire costs in bytes (what each representation would
    #: have moved for this chunk's dirty extents)
    raw_bytes: int
    delta_bytes: int
    dedup_bytes: int
    #: compressibility probe result (zlib ratio; -1.0 when unmeasured,
    #: e.g. phantom chunks with no readable content)
    entropy: float = -1.0
    #: dirty density: dirty bytes / chunk bytes
    density: float = 0.0


@dataclass(slots=True)
class CommitEvent(TraceEvent):
    """A commit point: staged versions flipped and metadata persisted."""

    chunks_committed: int
    bytes_committed: int
    flush_cost: float
    destination: str = ""
    #: always "" (no run sets a tenant label); dropped at trace v6
    tenant: str = ""


@dataclass(slots=True)
class RetryEvent(TraceEvent):
    """The resilience transport re-attempting a failed transfer."""

    target: str
    attempt: int
    delay: float
    reason: str = ""


@dataclass(slots=True)
class FailoverEvent(TraceEvent):
    """A buddy/destination switch (orphan re-pair, degraded entry...)."""

    from_target: str
    to_target: str
    reason: str = ""


@dataclass(slots=True)
class ResyncAbortedEvent(TraceEvent):
    """A :class:`~repro.resilience.resync.ResyncTask` gave up on a failed
    send: the node stays unprotected (degraded) until the next repair
    attempt.  *failures* is the failed sends before the abort — one,
    since the transport's :class:`~repro.errors.TransferFailed` is
    final."""

    failures: int
    bytes_sent: int = 0
    chunks_sent: int = 0


@dataclass(slots=True)
class PhaseEvent(TraceEvent):
    """One closed interval of activity by one actor (a Fig. 1/5 bar):
    *phase* is a :mod:`repro.metrics.timeline` phase name, *t* the time
    of emission — the span's end, except for a scheduled outage, whose
    end is known when it begins."""

    phase: str
    start: float
    end: float


_KINDS: Dict[type, str] = {
    PolicyDecisionEvent: "policy.decision",
    ChunkCopiedEvent: "chunk.copied",
    CodecDecisionEvent: "codec.decision",
    CommitEvent: "commit",
    RetryEvent: "retry",
    FailoverEvent: "failover",
    ResyncAbortedEvent: "resync.aborted",
    PhaseEvent: "phase",
}

#: kind -> event class (the reader's inverse of :data:`_KINDS`)
_CLASSES: Dict[str, type] = {kind: cls for cls, kind in _KINDS.items()}

#: event class -> its field names in declaration order: the schema both
#: directions share (:meth:`TraceEvent.to_record` and
#: :meth:`TraceEvent.to_line` write exactly these,
#: :func:`event_from_record` accepts exactly these).  Values go into the
#: record un-copied, which is sound because every field is a scalar.
_FIELDS: Dict[type, Tuple[str, ...]] = {
    cls: tuple(f.name for f in fields(cls)) for cls in _KINDS
}

#: event class -> the record :meth:`TraceEvent.to_line` fills: its
#: ``kind`` set and every field of :data:`_FIELDS` keyed in sorted order,
#: so a line needs no sort to come out as ``sort_keys=True`` writes it
_LINE_RECORDS: Dict[type, Dict[str, Any]] = {
    cls: {**dict.fromkeys(sorted(("kind",) + names)), "kind": _KINDS[cls]}
    for cls, names in _FIELDS.items()
}

# records are flat scalars (see :data:`_FIELDS`) and headers plain
# config trees, so there is no container cycle for the encoder to check
_ENCODE = json.JSONEncoder(sort_keys=True, check_circular=False).encode
_ENCODE_IN_ORDER = json.JSONEncoder(check_circular=False).encode


def encode_line(record: Dict[str, Any]) -> str:
    """One Jsonl line (newline included) for a header or event record:
    byte for byte ``json.dumps(record, sort_keys=True) + "\\n"``, minus
    the encoder object ``json.dumps`` builds per call."""
    return _ENCODE(record) + "\n"


# ---------------------------------------------------------------------------
# Reading traces back (the replay engine's input path).
# ---------------------------------------------------------------------------

#: header-record wire name (never an event kind)
_HEADER_KIND = "trace.header"

def _upgrade_2_to_3(record: Dict[str, Any]) -> Dict[str, Any]:
    """Version-2 copies predate the codec layer: every byte that moved
    was a raw byte, so wire size and logical size coincide."""
    if record.get("kind") == "chunk.copied":
        record = dict(record)
        record.setdefault("codec", "raw")
        record.setdefault("logical_bytes", record.get("nbytes", 0))
    return record


#: oldest version the reader walks forward from
_OLDEST_VERSION = 1
#: version -> record upgrader to the *next* version, for the steps that
#: change a record.  Old traces walk every version from theirs up to
#: :data:`TRACE_VERSION`; a step not listed only added kinds or
#: defaulted fields, so its records are already valid one version on.
_UPGRADERS: Dict[int, Callable[[Dict[str, Any]], Dict[str, Any]]] = {
    2: _upgrade_2_to_3,
}


def event_from_record(record: Dict[str, Any]) -> TraceEvent:
    """Rebuild the typed event from one Jsonl record.

    Unknown kinds, unknown fields and missing required fields raise
    :class:`ConfigError` — a trace that does not round-trip losslessly
    must never be silently replayed.
    """
    rec = dict(record)
    kind = rec.pop("kind", None)
    cls = _CLASSES.get(kind)
    if cls is None:
        raise ConfigError(
            f"unknown trace event kind {kind!r}; known kinds: "
            f"{', '.join(sorted(_CLASSES))}"
        )
    unknown = rec.keys() - _FIELDS[cls]
    if unknown:
        raise ConfigError(
            f"trace record of kind {kind!r} carries unknown fields "
            f"{sorted(unknown)} (schema drift? re-capture the trace or "
            f"register an upgrader)"
        )
    try:
        return cls(**rec)
    except TypeError:
        # every key is a known field, so only a missing one is left
        missing = [
            f.name for f in fields(cls) if f.default is MISSING and f.name not in rec
        ]
        raise ConfigError(
            f"trace record of kind {kind!r} lacks required fields {missing}"
        ) from None


def read_trace(
    target: str | IO[str],
) -> Tuple[Dict[str, Any], List[TraceEvent]]:
    """Load a Jsonl trace written by :class:`JsonlSink`.

    Returns ``(meta, events)`` where *meta* is the header's metadata
    dict (the capturing run's resolved config, if the writer recorded
    one).  The first line must be a ``trace.header`` record whose
    ``trace_version`` matches :data:`TRACE_VERSION` after any
    registered upgraders run; anything else raises a clear
    :class:`ConfigError` rather than replaying garbage.
    """
    if isinstance(target, str):
        with open(target, "r", encoding="utf-8") as fh:
            return read_trace(fh)
    first = target.readline()
    if not first.strip():
        raise ConfigError("empty trace stream (no trace.header line)")
    try:
        header = json.loads(first)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"trace header is not valid JSON: {exc}") from None
    if not isinstance(header, dict) or header.get("kind") != _HEADER_KIND:
        raise ConfigError(
            "trace stream has no trace.header first line; this trace "
            "predates the versioned schema — re-capture it (bench "
            "--trace / experiment --trace write the header)"
        )
    version = header.get("trace_version")
    # type() not isinstance(): JSON `true` is an int to isinstance
    if not (type(version) is int and _OLDEST_VERSION <= version <= TRACE_VERSION):
        raise ConfigError(
            f"trace_version {version!r} is not "
            f"supported (reader speaks {TRACE_VERSION} and no upgrade "
            f"path is registered)"
        )
    upgraders = [
        _UPGRADERS[v] for v in range(version, TRACE_VERSION) if v in _UPGRADERS
    ]
    meta = header.get("meta") or {}
    events: List[TraceEvent] = []
    for lineno, line in enumerate(target, start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"trace line {lineno} is not valid JSON ({exc}); a torn "
                f"last line means the capturing run was killed mid-write"
            ) from None
        if not isinstance(rec, dict):
            raise ConfigError(f"trace line {lineno} is not a JSON object")
        for upgrade in upgraders:
            rec = upgrade(rec)
        try:
            events.append(event_from_record(rec))
        except ConfigError as exc:
            raise ConfigError(f"trace line {lineno}: {exc}") from None
    return meta, events


# ---------------------------------------------------------------------------
# Sinks.
# ---------------------------------------------------------------------------


class TraceSink:
    """Receives every event emitted while attached to the bus."""

    def handle(self, event: TraceEvent) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release resources; detaching does not call this."""


class RingBufferSink(TraceSink):
    """Keeps the last *capacity* events in memory (``capacity=None``
    keeps everything — replay captures must never truncate)."""

    def __init__(self, capacity: Optional[int] = 4096) -> None:
        self.events: Deque[TraceEvent] = deque(maxlen=capacity)

    def handle(self, event: TraceEvent) -> None:
        self.events.append(event)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]


class JsonlSink(TraceSink):
    """Streams each event as one JSON line to a file or file object.

    The first line written is always a ``trace.header`` record carrying
    :data:`TRACE_VERSION` and the optional *meta* dict (conventionally
    the capturing run's resolved config), so :func:`read_trace` can
    reject schema-mismatched streams instead of replaying garbage.
    """

    def __init__(
        self, target: str | IO[str], *, meta: Optional[Dict[str, Any]] = None
    ) -> None:
        if isinstance(target, str):
            self._fh: IO[str] = open(target, "w")
            self._owns = True
        else:
            self._fh = target
            self._owns = False
        header = {
            "kind": _HEADER_KIND,
            "trace_version": TRACE_VERSION,
            "meta": meta or {},
        }
        self._fh.write(encode_line(header))

    def handle(self, event: TraceEvent) -> None:
        self._fh.write(event.to_line())

    def close(self) -> None:
        self._fh.flush()
        if self._owns:
            self._fh.close()


class CounterSink(TraceSink):
    """Counts events by kind; policy decisions also by decision value."""

    def __init__(self) -> None:
        self.by_kind: Dict[str, int] = {}
        self.decisions: Dict[str, int] = {}

    def handle(self, event: TraceEvent) -> None:
        kind = event.kind
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        if isinstance(event, PolicyDecisionEvent):
            self.decisions[event.decision] = self.decisions.get(event.decision, 0) + 1


class CallbackSink(TraceSink):
    """Feeds matching events to a callback — the bus's *subscriber*
    form, used by online consumers (e.g. ``examples/dedup_demo.py``)
    that want live statistics, not storage.  ``kinds=None`` receives every
    event; otherwise only the listed wire names."""

    def __init__(
        self,
        callback: Callable[[TraceEvent], None],
        kinds: Optional[Iterable[str]] = None,
    ) -> None:
        self._callback = callback
        self._kinds = frozenset(kinds) if kinds is not None else None

    def handle(self, event: TraceEvent) -> None:
        if self._kinds is None or event.kind in self._kinds:
            self._callback(event)


# ---------------------------------------------------------------------------
# The bus.
# ---------------------------------------------------------------------------


class TraceBus:
    """Fan-out of trace events to the attached sinks.

    ``emit`` is called from simulation hot paths, so the no-sink case
    must stay one attribute load and one truthiness test.
    """

    def __init__(self) -> None:
        self._sinks: List[TraceSink] = []

    @property
    def active(self) -> bool:
        """True when at least one sink is attached — lets emitters skip
        building event objects entirely."""
        return bool(self._sinks)

    def emit(self, event: TraceEvent) -> None:
        if not self._sinks:
            return
        for sink in self._sinks:
            sink.handle(event)

    def attach(self, sink: TraceSink) -> TraceSink:
        self._sinks.append(sink)
        return sink

    def detach(self, sink: TraceSink) -> None:
        if sink in self._sinks:
            self._sinks.remove(sink)

    @contextmanager
    def capture(self, sink: Optional[TraceSink] = None) -> Iterator[TraceSink]:
        """Attach *sink* (default: a fresh ring buffer) for the scope of
        a ``with`` block."""
        s = sink if sink is not None else RingBufferSink()
        self.attach(s)
        try:
            yield s
        finally:
            self.detach(s)


#: the process-global bus every pipeline layer emits to
BUS = TraceBus()


def emit_phase(
    actor: str, phase: str, start: float, end: float, *, t: Optional[float] = None
) -> None:
    """Publish one closed phase span (nothing is built with no sink
    attached).  *t* is the emission time when it is not the span end."""
    if BUS.active:
        BUS.emit(
            PhaseEvent(
                t=end if t is None else t,
                actor=str(actor),
                phase=phase,
                start=start,
                end=end,
            )
        )
