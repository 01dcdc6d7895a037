"""One chunk copy: plan -> move -> land (§IV/§V).

The paper's data path has exactly one operation — copy a dirty chunk's
bytes to a version slot, stage it, commit later.  Four sites run it
(the coordinated step, the local pre-copy engine, the remote stream,
the remote round) and the re-sync runs its whole-chunk form.  What
*one copy* means is decided here, once:

* :meth:`CopyStep.plan` turns ``(chunk, destination)`` into a
  :class:`CopyPlan` through an ordered stage list — pending extents
  (page-granular mode), the payload representation (raw | delta |
  dedup-ref), then the optional wire entropy stage (a
  :class:`~repro.core.compression.CompressionModel`);
* the *move* is the caller's: ``dest.write`` on a local
  backend, :meth:`repro.core.remote.RemoteHelper.put` across the fabric;
* :meth:`CopyStep.land` stages the bytes at the destination, counts the
  copy into the stream's :class:`CopyAccounting`, publishes the block
  digests and emits the one ``chunk.copied`` trace event.

:class:`CopyAccounting` is the one account of where checkpoint bytes
went (§III; the "total data copied" series of Figs. 7/8).  Its two
writers take the fields of the ``chunk.copied`` and ``commit`` events:
the live run calls them where it builds those events, sink or no sink,
and :func:`repro.replay.divergence.accounting_from_events` calls them
once per event of a trace.

Sites keep only what is theirs: scheduling, chunk-state transitions,
crash-point positions, torn-copy detection, pacing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from ..alloc.chunk import Chunk
from ..config import PrecopyPolicy
from ..errors import ConfigError
from ..metrics.trace import BUS, ChunkCopiedEvent, CodecDecisionEvent, PolicyDecisionEvent
from ..units import pages_of
from .codec import EntropyProbe, Payload, RawCodec, current_digests, resolve_codec
from .context import NodeContext
from .destination import Destination

__all__ = [
    "CopyStep", "CopyPlan", "CopyAccounting", "CommitRecord", "COUNTERS", "PAYLOAD_ONLY",
]

_RAW = RawCodec()

#: commit tuples are compared on rounded time so a Jsonl float
#: round-trip (exact in CPython, but not guaranteed by the format)
#: can never produce a spurious ordering divergence
_T_DIGITS = 9


class CommitRecord(NamedTuple):
    """One commit point: the values of its ``commit`` event."""

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
class CopyAccounting:
    """Where a stream's checkpoint bytes went: a rank's local stream
    (its coordinated step and pre-copy engine), a helper's remote
    stream, a whole run (:meth:`total`) or a replayed trace."""

    #: local coordinated-step bytes and copies
    coordinated_bytes: int = 0
    coordinated_copies: int = 0
    #: coordinated chunk bytes incremental extents did NOT move
    bytes_saved: int = 0
    #: local background pre-copy bytes and copies
    local_precopy_bytes: int = 0
    precopy_copies: int = 0
    #: remote coordinated-round and streaming pre-copy bytes
    remote_round_bytes: int = 0
    remote_precopy_bytes: int = 0
    #: pre-codec and wire bytes over every copy (a raw copy adds the
    #: same to both, so the codec saving is always ``logical - wire``)
    codec_logical_bytes: int = 0
    codec_wire_bytes: int = 0
    #: delta payloads' changed bytes and dedup blocks (:data:`PAYLOAD_ONLY`)
    codec_delta_bytes: int = 0
    codec_blocks_new: int = 0
    codec_blocks_ref: int = 0
    commits: List[CommitRecord] = field(default_factory=list)
    #: summed coordinated-step spans (first copy start -> commit)
    blocking_s: float = 0.0
    #: actor -> start of its open coordinated step
    _open: Dict[str, float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def copied(
        self, actor: str, stream: str, phase: str, start: float, nbytes: int,
        logical_bytes: int, bytes_saved: int,
        delta_bytes: int = 0, blocks_new: int = 0, blocks_ref: int = 0,
    ) -> None:
        """Count one copy (the fields of its ``chunk.copied`` event;
        the last three only the live payload knows).  The live run
        passes them by position: it calls this once per copy."""
        self.codec_logical_bytes += logical_bytes
        self.codec_wire_bytes += nbytes
        self.codec_delta_bytes += delta_bytes
        self.codec_blocks_new += blocks_new
        self.codec_blocks_ref += blocks_ref
        if stream == "remote":
            if phase == "precopy":
                self.remote_precopy_bytes += nbytes
            else:
                self.remote_round_bytes += nbytes
        elif phase == "precopy":
            self.local_precopy_bytes += nbytes
            self.precopy_copies += 1
        else:
            self.coordinated_bytes += nbytes
            self.bytes_saved += bytes_saved
            self.coordinated_copies += 1
            begin = self._open.get(actor)
            if begin is None or start < begin:
                self._open[actor] = start

    def committed(
        self, *, t: float, actor: str, chunks_committed: int, bytes_committed: int,
        flush_cost: float,
    ) -> None:
        """Count one commit point (the fields of its ``commit`` event)."""
        self.commits.append(
            CommitRecord(t, actor, chunks_committed, bytes_committed, flush_cost)
        )
        begin = self._open.pop(actor, None)
        self.blocking_s += (t - begin) if begin is not None else flush_cost

    @property
    def total_nvm_bytes(self) -> int:
        """All local checkpoint traffic to NVM, redundant pre-copies
        included."""
        return self.coordinated_bytes + self.local_precopy_bytes

    @property
    def codec_saved_bytes(self) -> int:
        """Bytes the payload codec kept off the wire (on top of the
        incremental-extent savings counted in ``bytes_saved``)."""
        return max(0, self.codec_logical_bytes - self.codec_wire_bytes)

    def commit_ordering(self) -> List[Tuple[float, str, int, int]]:
        """Canonical commit order: (t, actor, chunks, bytes) sorted."""
        return sorted(c.key for c in self.commits)

    @classmethod
    def total(cls, parts: Iterable["CopyAccounting"]) -> "CopyAccounting":
        """The sum of several streams' accountings."""
        out = cls()
        for part in parts:
            for name in COUNTERS:
                setattr(out, name, getattr(out, name) + getattr(part, name))
            out.commits.extend(part.commits)
            out.blocking_s += part.blocking_s
        return out


#: the integer counters of :class:`CopyAccounting`, in field order
COUNTERS = tuple(f.name for f in fields(CopyAccounting) if type(f.default) is int)
#: counters no trace event carries: a replayed accounting leaves them
#: at 0, so a comparison against a live run skips them
PAYLOAD_ONLY = ("codec_delta_bytes", "codec_blocks_new", "codec_blocks_ref")


@dataclass(slots=True)
class CopyPlan:
    """What one copy of *chunk* to *dest* moves: ``chunk.nbytes`` ->
    ``logical_bytes`` (stale extents) -> ``nbytes`` (payload
    representation) -> ``fabric_bytes`` (wire entropy stage)."""

    chunk: Chunk
    dest: Optional[Destination]
    #: stale byte runs to move (``None`` = the whole chunk)
    extents: Optional[List[Tuple[int, int]]]
    payload: Payload
    #: bytes that cross the fabric; differs from :attr:`nbytes` only
    #: under the wire entropy stage
    fabric_bytes: int
    #: bytes landing on the receiver's NVM bus (``None`` = the fabric
    #: bytes): a compressed send lands decompressed
    nvm_bytes: Optional[int] = None
    #: wire-stage CPU seconds, charged by the transport when it sends
    sender_cpu: float = 0.0
    receiver_cpu: float = 0.0

    @property
    def logical_bytes(self) -> int:
        return self.payload.logical_bytes

    @property
    def nbytes(self) -> int:
        """Bytes this copy is accounted as moving — what the backend's
        transport is charged and what ``chunk.copied`` reports."""
        return self.payload.wire_bytes

    @property
    def bytes_saved(self) -> int:
        """Chunk bytes incremental extents did not move."""
        return self.chunk.nbytes - self.payload.logical_bytes


class CopyStep:
    """The copy step of one stream: a rank's local stream (shared by
    its coordinated step and its pre-copy engine) or a node helper's
    remote stream."""

    def __init__(
        self,
        ctx: NodeContext,
        policy: PrecopyPolicy,
        *,
        actor: str,
        stream: str = "local",
        compression=None,
    ) -> None:
        self.ctx = ctx
        #: who plans: stamped on ``codec.decision`` events and, unless a
        #: site overrides it, on ``chunk.copied``
        self.actor = actor
        self.stream = stream
        #: wire entropy stage (``None`` = off)
        self.compression = compression
        codec_on = policy.codec_enabled
        # a codec *and* a compression model both want to own the wire
        # volume; that used to resolve silently in favour of compression
        if compression is not None and codec_on:
            raise ConfigError(
                f"codec {policy.codec!r} cannot be combined with a "
                "compression model on the remote stream: both define the wire "
                "volume; set precopy.codec='raw' or drop the compression model"
            )
        #: payload codec (``None`` on the raw default path: no content
        #: models, no block store, no per-write overhead)
        self.codec = resolve_codec(policy.codec) if codec_on else None
        self.probe = EntropyProbe() if codec_on else None
        #: page-granular extents; *auto*-disabled under compression
        #: (whole-chunk wire volume is the compressor's business), with
        #: the drop visible to replay/what-if as a policy decision
        self.incremental = policy.incremental and compression is None
        if compression is not None and policy.incremental and BUS.active:
            BUS.emit(
                PolicyDecisionEvent(
                    t=ctx.engine.now,
                    actor=actor,
                    chunk="*",
                    decision="incremental_disabled",
                    policy="compression",
                )
            )
        #: every copy this stream lands, and (on a rank's local stream)
        #: every commit of its coordinated step
        self.accounting = CopyAccounting()
        #: chunk size -> the raw whole-chunk payload.  It depends on the
        #: size alone and nothing on the raw path writes to a payload,
        #: so every whole copy of a size shares one
        self._raw_whole: Dict[int, Payload] = {}

    # ------------------------------------------------------------------
    # plan
    # ------------------------------------------------------------------

    def plan(self, chunk: Chunk, dest: Destination) -> CopyPlan:
        """Plan one copy of *chunk* to *dest* through every stage.
        Emits ``codec.decision`` when the auto codec weighed
        alternatives."""
        # page-granular mode: ask the destination which stale extents
        # its next version slot needs, move only those
        extents = dest.pending_extents(chunk) if self.incremental else None
        if self.codec is None:
            payload = self._raw_payload(chunk, extents)
        else:
            # digest state lives with the destination, so a failover's
            # fresh buddy store honestly forgets what the old one held
            slot, base_slot = dest.codec_slots(chunk)
            payload = self.codec.plan(
                chunk,
                extents,
                store=dest.block_store,
                slot=slot,
                base_slot=base_slot,
                probe=self.probe,
            )
            payload.slot = slot
            if payload.candidates is not None and BUS.active:
                BUS.emit(
                    CodecDecisionEvent(
                        t=self.ctx.engine.now,
                        actor=self.actor,
                        chunk=chunk.name,
                        chosen=payload.codec,
                        raw_bytes=payload.candidates.get("raw", 0),
                        delta_bytes=payload.candidates.get("delta", 0),
                        dedup_bytes=payload.candidates.get("dedup", 0),
                        entropy=payload.entropy,
                        density=payload.density,
                    )
                )
        return self._wire_stage(chunk, dest, extents, payload)

    def plan_whole(self, chunk: Chunk) -> CopyPlan:
        """Plan a raw whole-chunk send to a buddy that holds nothing to
        delta or dedup against (the re-sync); the receiver
        stages it itself."""
        return self._wire_stage(chunk, None, None, self._raw_payload(chunk, None))

    def _raw_payload(self, chunk: Chunk, extents) -> Payload:
        """The raw codec's payload for *extents* of *chunk* (``None`` =
        the whole chunk)."""
        if extents is not None:
            return _RAW.plan(chunk, extents, store=None, slot=-1)
        payload = self._raw_whole.get(chunk.nbytes)
        if payload is None:
            payload = self._raw_whole[chunk.nbytes] = _RAW.plan(
                chunk, None, store=None, slot=-1
            )
        return payload

    def _wire_stage(self, chunk, dest, extents, payload: Payload) -> CopyPlan:
        plan = CopyPlan(chunk, dest, extents, payload, payload.wire_bytes)
        model = self.compression
        if model is not None:
            # sender compresses, buddy decompresses; the decompressed
            # payload is what lands in the buddy's NVM, so the NVM bus
            # still carries the full size.  Compressed once per plan,
            # not per retry: the sender keeps the buffer across re-issues
            plan.fabric_bytes = model.wire_bytes(chunk)
            plan.nvm_bytes = chunk.nbytes
            plan.sender_cpu = model.compress_cost(chunk.nbytes)
            plan.receiver_cpu = model.decompress_cost(chunk.nbytes)
        return plan

    # ------------------------------------------------------------------
    # land
    # ------------------------------------------------------------------

    def land(
        self,
        plan: CopyPlan,
        *,
        start: float,
        phase: str,
        actor: Optional[str] = None,
        destination: Optional[str] = None,
        torn: bool = False,
    ) -> None:
        """The bytes of *plan* moved: stage them, count them, publish
        the digests, emit ``chunk.copied`` (span *start* .. now).

        A *torn* copy (the application wrote during the transfer) is
        accounted and reported — the bytes did move, and replay must
        see every byte the stats saw — but neither staged nor
        published: its digests describe content that never landed."""
        chunk, dest, payload = plan.chunk, plan.dest, plan.payload
        if not torn:
            dest.stage(chunk, plan.extents)
            store = dest.block_store
            if store is not None and payload.block_index is not None:
                # coverage and digests are re-derived from what the
                # stage actually wrote: writes that raced the transfer
                # land in the staged version too, and the index must
                # describe what the destination really holds
                idx = dest.staged_blocks(chunk, payload)
                if len(idx):
                    store.stage(
                        chunk.name,
                        payload.slot,
                        idx,
                        current_digests(chunk, idx, store.block),
                    )
        if actor is None:
            actor = self.actor
        nbytes = plan.nbytes
        logical = plan.logical_bytes
        saved = plan.bytes_saved
        self.accounting.copied(
            actor, self.stream, phase, start, nbytes, logical, saved,
            payload.changed_bytes if payload.kind == "delta" else 0,
            payload.blocks_new, payload.blocks_ref,
        )
        if BUS.active:
            if plan.extents is None:
                pages = pages_of(chunk.nbytes)
            else:
                pages = sum(pages_of(n) for _, n in plan.extents)
            BUS.emit(
                ChunkCopiedEvent(
                    t=self.ctx.engine.now,
                    actor=actor,
                    chunk=chunk.name,
                    nbytes=nbytes,
                    start=start,
                    stream=self.stream,
                    phase=phase,
                    destination=dest.name if destination is None else destination,
                    pages=pages,
                    bytes_saved=saved,
                    codec=payload.codec,
                    logical_bytes=logical,
                )
            )
