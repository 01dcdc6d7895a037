"""One chunk copy: plan -> move -> land (§IV/§V).

The paper's data path has exactly one operation — copy a dirty chunk's
bytes to a version slot, stage it, commit later.  Four sites run it
(the coordinated step, the local pre-copy engine, the remote stream,
the remote round) and two resilience tasks run its whole-chunk form
(re-sync, migration).  What *one copy* means is decided here, once:

* :meth:`CopyStep.plan` turns ``(chunk, destination)`` into a
  :class:`CopyPlan` through an ordered stage list — pending extents
  (page-granular mode), the payload representation (raw | delta |
  dedup-ref), then the optional wire entropy stage (a
  :class:`~repro.core.compression.CompressionModel`);
* the *move* is the caller's: ``dest.write`` on a local
  backend, :meth:`repro.core.remote.RemoteHelper.put` across the fabric;
* :meth:`CopyStep.land` stages the bytes at the destination, keeps the
  one codec accounting record, publishes the block digests and emits
  the one ``chunk.copied`` trace event.

Sites keep only what is theirs: scheduling, chunk-state transitions,
crash-point positions, torn-copy detection, pacing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..alloc.chunk import Chunk
from ..config import PrecopyPolicy
from ..errors import ConfigError
from ..metrics.trace import BUS, ChunkCopiedEvent, CodecDecisionEvent, PolicyDecisionEvent
from ..units import pages_of
from .codec import EntropyProbe, Payload, RawCodec, current_digests, resolve_codec
from .context import NodeContext
from .destination import Destination

__all__ = ["CopyStep", "CopyPlan", "CodecCounters"]

_RAW = RawCodec()


@dataclass
class CodecCounters:
    """Payload accounting of one copy stream (aggregated into
    ``RunResult`` when a codec is configured)."""

    logical_bytes: int = 0
    wire_bytes: int = 0
    delta_bytes: int = 0
    blocks_new: int = 0
    blocks_ref: int = 0

    def add(self, payload: Payload) -> None:
        self.logical_bytes += payload.logical_bytes
        self.wire_bytes += payload.wire_bytes
        if payload.kind == "delta":
            self.delta_bytes += payload.changed_bytes
        self.blocks_new += payload.blocks_new
        self.blocks_ref += payload.blocks_ref

    @property
    def saved_bytes(self) -> int:
        """Bytes the payload codec kept off the wire (on top of the
        incremental-extent savings counted in ``bytes_saved``)."""
        return max(0, self.logical_bytes - self.wire_bytes)


@dataclass
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
        self.counters = CodecCounters()

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
            payload = _RAW.plan(chunk, extents, store=None, slot=-1)
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
        delta or dedup against (re-sync, migration); the receiver
        stages it itself."""
        return self._wire_stage(
            chunk, None, None, _RAW.plan(chunk, None, store=None, slot=-1)
        )

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
        """The bytes of *plan* moved: stage them, account, publish the
        digests, emit ``chunk.copied`` (span *start* .. now).

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
        self.counters.add(payload)
        if BUS.active:
            if plan.extents is None:
                pages = pages_of(chunk.nbytes)
            else:
                pages = sum(pages_of(n) for _, n in plan.extents)
            BUS.emit(
                ChunkCopiedEvent(
                    t=self.ctx.engine.now,
                    actor=self.actor if actor is None else actor,
                    chunk=chunk.name,
                    nbytes=plan.nbytes,
                    start=start,
                    stream=self.stream,
                    phase=phase,
                    destination=dest.name if destination is None else destination,
                    pages=pages,
                    bytes_saved=plan.bytes_saved,
                    codec=payload.codec,
                    logical_bytes=plan.logical_bytes,
                )
            )
