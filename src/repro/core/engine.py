"""The unified checkpoint engine (§IV/§V): one dirty-chunk walk, one
cache-flush/commit ordering, one stats struct — for every mode and
every backend.

:class:`CheckpointEngine` composes the two strategy axes of the
pipeline:

* a :class:`~repro.core.policy.CheckpointPolicy` deciding *when* each
  dirty chunk moves (naive / CPC / DCPC / DCPCP — resolved from the
  :class:`~repro.config.PrecopyPolicy` config's mode via the policy
  registry);
* a :class:`~repro.core.destination.Destination` deciding *where* and
  *how* the bytes land (NVM shadow arena, PFS, ramdisk, remote buddy).

The coordinated step (``nvchkptall``) is the paper's sequence: pause
pre-copy, copy every still-dirty chunk, flush, commit staged versions,
persist metadata, flush again (commit point).  ``LocalCheckpointer`` is
this class under its public name; ``TransparentCheckpointer``,
``NVMCheckpoint`` and the baselines are thin facades over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from ..alloc.chunk import Chunk, ChunkState
from ..alloc.nvmalloc import NVAllocator
from ..config import PrecopyPolicy as PrecopyConfig
from ..errors import CheckpointError
from ..faults.crashpoints import ARMED, fire
from ..metrics import timeline as tl
from ..metrics.trace import BUS, CommitEvent, PolicyDecisionEvent, emit_phase
from .context import NodeContext
from .copystep import CopyStep
from .destination import Destination, NVMArenaDestination
from .policy import policy_class, resolve_policy
from .precopy import PrecopyEngine
from .prediction import PredictionTable
from .threshold import ThresholdEstimator

__all__ = ["CheckpointEngine", "CheckpointStats", "LocalCheckpointer"]


def _protect_per_page(chunk: Chunk) -> None:
    chunk.page_granular_protection = True


def _drop_local_map(chunk: Chunk) -> None:
    chunk.drop_stale_map("local")


@dataclass
class CheckpointStats:
    """Result of one coordinated local checkpoint."""

    start: float = 0.0
    end: float = 0.0
    bytes_copied: int = 0
    chunks_copied: int = 0
    chunks_skipped: int = 0
    flush_cost: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class CheckpointEngine:
    """Per-rank coordinated checkpoint coordinator over one policy and
    one destination."""

    def __init__(
        self,
        ctx: NodeContext,
        allocator: NVAllocator,
        policy: Optional[PrecopyConfig] = None,
        *,
        destination: Optional[Destination] = None,
        with_checksums: bool = True,
        tag: Optional[str] = None,
    ) -> None:
        self.ctx = ctx
        self.allocator = allocator
        self.policy = policy or PrecopyConfig()
        self.destination = destination or NVMArenaDestination(ctx, allocator)
        self.with_checksums = with_checksums
        self.rank = allocator.pid
        self.tag = tag or self.rank
        self.last_checkpoint_end = ctx.engine.now
        self.checkpoints_done = 0
        self.history: List[CheckpointStats] = []
        #: observers called with each completed CheckpointStats (the
        #: remote helper hooks its per-rank pre-copy rhythm here)
        self.on_complete: List = []

        #: the copy step of this rank's local stream, shared with the
        #: background pre-copy engine: one plan/land path, one
        #: accounting record (``copier.accounting``)
        self.copier = CopyStep(ctx, self.policy, actor=str(self.rank))
        #: payload codec (None on the raw default path)
        self.codec = self.copier.codec
        if self.codec is not None:
            self.destination.ensure_block_store(self.policy.codec_block)

        self.threshold: Optional[ThresholdEstimator] = None
        self.prediction: Optional[PredictionTable] = None
        self.precopy: Optional[PrecopyEngine] = None
        policy_cls = policy_class(self.policy.mode)
        if policy_cls.needs_threshold:
            self.threshold = ThresholdEstimator(
                bandwidth_per_core=ctx.effective_nvm_bw_per_core(),
                margin=self.policy.threshold_margin,
                clock=lambda: ctx.engine.now,
                actor=str(self.rank),
            )
        if policy_cls.needs_prediction:
            self.prediction = PredictionTable()
        #: the scheduling strategy — one registry lookup, shared with
        #: the background pre-copy engine so both walk one decision path
        self.decision_policy = resolve_policy(
            self.policy.mode, threshold=self.threshold, prediction=self.prediction
        )
        if self.decision_policy.precopies:
            # pre-copies always land in the rank's NVM shadow arena (the
            # pre-copy engine's default), whatever backend the
            # coordinated step writes to
            dest = self.destination
            self.precopy = PrecopyEngine(
                ctx,
                chunks=allocator.persistent_chunks,
                policy=self.policy,
                tag=f"{self.tag}:precopy",
                threshold=self.threshold,
                prediction=self.prediction,
                decision_policy=self.decision_policy,
                copier=self.copier,
                destination=dest if isinstance(dest, NVMArenaDestination) else None,
            )
            # a deleted chunk must leave the schedule with its regions
            allocator.on_delete.append(self.precopy.drop_chunk)
        self._precopy_proc = None
        # both apply to every chunk of the rank, whether it was
        # allocated before this engine or after it
        if self.policy.granularity == "page":
            allocator.for_each_chunk(_protect_per_page)
        if not self.copier.incremental:
            # whole-chunk copies never read page extents: the write
            # barrier keeps no local page runs
            allocator.for_each_chunk(_drop_local_map)

    # ------------------------------------------------------------------
    # Background engine lifecycle.
    # ------------------------------------------------------------------

    @property
    def tracks_dirty(self) -> bool:
        """With pre-copy off, the baseline copies everything each time."""
        return self.decision_policy.precopies

    def start_background(self) -> None:
        """Spawn the pre-copy engine as a DES process (no-op for the
        no-pre-copy baseline)."""
        if self.precopy is not None and self._precopy_proc is None:
            self.precopy.wire_chunks()
            self._precopy_proc = self.ctx.engine.process(
                self.precopy.run(), name=f"{self.tag}:precopy"
            )

    def stop_background(self) -> None:
        if self.precopy is not None:
            self.precopy.stop()
            self._precopy_proc = None

    # ------------------------------------------------------------------
    # The coordinated checkpoint step (nvchkptall).
    # ------------------------------------------------------------------

    def _chunks_to_copy(self, chunks: List[Chunk]) -> List[Chunk]:
        """The chunks of *chunks* the coordinated step copies."""
        if self.tracks_dirty:
            return [c for c in chunks if c.dirty_local]
        return chunks

    def checkpoint(
        self, only: Optional[Iterable[Chunk]] = None, *, blocking: bool = True
    ):
        """One coordinated local checkpoint (``nvchkptall``).

        With ``blocking=True`` (the default) the checkpoint runs to
        completion on this context's own engine and the
        :class:`CheckpointStats` is returned — the synchronous facade
        path, valid only from *outside* the simulation.  With
        ``blocking=False`` the call returns the checkpoint *generator*
        for DES embedding (``yield from ck.checkpoint(blocking=False)``
        inside a simulated process, or ``engine.process(...)``).

        ``only`` restricts the chunk set (``nvchkptid``); the commit
        still covers only what was staged.
        """
        if blocking:
            proc = self.ctx.engine.process(
                self._checkpoint_proc(only), name=f"{self.tag}:ckpt"
            )
            self.ctx.engine.run()
            return proc.value
        return self._checkpoint_proc(only)

    def _trace_decisions(self, all_persistent: List[Chunk], to_copy: List[Chunk]) -> None:
        now = self.ctx.engine.now
        copying = {c.chunk_id for c in to_copy}
        pname = self.decision_policy.name
        actor = str(self.rank)
        for chunk in all_persistent:
            BUS.emit(
                PolicyDecisionEvent(
                    t=now,
                    actor=actor,
                    chunk=chunk.name,
                    decision=(
                        "copy_at_checkpoint" if chunk.chunk_id in copying else "skip"
                    ),
                    policy=pname,
                )
            )

    def _after_flip(self, chunk: Chunk) -> None:
        """``batch_commit``'s per-chunk hook, passed only when armed."""
        if ARMED:
            fire("local.commit.after_flip", chunk=chunk, rank=self.rank)

    def _checkpoint_proc(self, only: Optional[Iterable[Chunk]] = None):
        """The checkpoint generator body behind :meth:`checkpoint`."""
        engine = self.ctx.engine
        dest = self.destination
        stats = CheckpointStats(start=engine.now)
        if self.precopy is not None:
            self.precopy.pause()
            yield from self.precopy.drain()
        # the phase span opens once the drain is over (stats.start
        # counts the drain as blocking time, the Fig. 5 bar does not)
        step_begin = engine.now
        try:
            if ARMED:
                fire(
                    "local.begin",
                    allocator=self.allocator,
                    store=self.ctx.nvmm.store,
                    rank=self.rank,
                )
            all_persistent = (
                list(only) if only is not None else self.allocator.persistent_chunks()
            )
            to_copy = self._chunks_to_copy(all_persistent)
            stats.chunks_skipped = len(all_persistent) - len(to_copy)
            if BUS.active:
                self._trace_decisions(all_persistent, to_copy)
            # the same for every chunk of the step
            tag = f"{self.tag}:lckpt"
            tracks_dirty = self.tracks_dirty
            copier = self.copier
            idle, checkpointing = ChunkState.IDLE, ChunkState.CHECKPOINTING
            for chunk in to_copy:
                if chunk.state_local is not idle:
                    raise CheckpointError(
                        f"chunk {chunk.name!r} busy ({chunk.state_local}) during coordinated step"
                    )
                if ARMED:
                    fire("local.copy.before", chunk=chunk, rank=self.rank)
                chunk.state_local = checkpointing
                copy_start = engine.now
                plan = copier.plan(chunk, dest)
                nbytes = plan.nbytes
                try:
                    yield dest.write(chunk, nbytes, tag=tag)
                finally:
                    chunk.state_local = idle
                if ARMED:
                    fire("local.copy.after", chunk=chunk, rank=self.rank)
                copier.land(plan, start=copy_start, phase="coordinated")
                if dest.two_version:
                    if ARMED:
                        fire("local.stage.after", chunk=chunk, rank=self.rank)
                stats.bytes_copied += nbytes
                stats.chunks_copied += 1
                if tracks_dirty:
                    chunk.mark_precopied("local")
                else:
                    chunk.mark_clean("local")
            # -- commit: flush data, flip versions, persist metadata,
            # flush.  The commit covers every chunk with staged data —
            # the ones this step copied AND the ones the pre-copy
            # engine staged during the interval ('All chunks are marked
            # as committed after the library ensures that data is
            # flushed to NVM', §V).
            if ARMED:
                fire("local.commit.before_data_flush", rank=self.rank)
            flush_cost = dest.flush()
            yield engine.timeout(flush_cost)
            if ARMED:
                fire("local.commit.after_data_flush", rank=self.rank)
            if dest.two_version:
                dest.commit(
                    all_persistent,
                    with_checksum=self.with_checksums,
                    on_commit=self._after_flip if ARMED else None,
                )
            if self.codec is not None and dest.block_store is not None:
                # the digest index commits with the data it describes:
                # after the version flip, before the metadata flush
                # (codec.store.commit.* crash points fire inside)
                dest.block_store.commit()
            dest.persist_metadata()
            if ARMED:
                fire("local.commit.before_meta_flush", rank=self.rank)
            flush_cost2 = dest.flush()
            yield engine.timeout(flush_cost2)
            stats.flush_cost = flush_cost + flush_cost2
            if ARMED:
                fire(
                    "local.commit.done",
                    allocator=self.allocator,
                    store=self.ctx.nvmm.store,
                    rank=self.rank,
                )
            committed = len(all_persistent) if dest.two_version else stats.chunks_copied
            self.copier.accounting.committed(
                t=engine.now,
                actor=str(self.rank),
                chunks_committed=committed,
                bytes_committed=stats.bytes_copied,
                flush_cost=stats.flush_cost,
            )
            if BUS.active:
                BUS.emit(
                    CommitEvent(
                        t=engine.now,
                        actor=str(self.rank),
                        chunks_committed=committed,
                        bytes_committed=stats.bytes_copied,
                        flush_cost=stats.flush_cost,
                        destination=dest.name,
                    )
                )
        finally:
            emit_phase(self.rank, tl.LOCAL_CKPT, step_begin, engine.now)
        stats.end = engine.now
        self._finish_interval(stats)
        return stats

    # ------------------------------------------------------------------
    # Interval bookkeeping.
    # ------------------------------------------------------------------

    def _finish_interval(self, stats: CheckpointStats) -> None:
        # the pre-copy window closes when the *next coordinated step
        # begins*, so the threshold interval is compute-only time
        # (ckpt-end to next ckpt-start), not end-to-end
        interval = stats.start - self.last_checkpoint_end
        if self.threshold is not None:
            self.threshold.observe_interval(interval, self.allocator.checkpoint_bytes)
        if self.prediction is not None:
            self.prediction.end_interval()
        self.last_checkpoint_end = stats.end
        self.checkpoints_done += 1
        self.history.append(stats)
        if self.precopy is not None:
            self.precopy.begin_interval()
            self.precopy.resume()
        for fn in self.on_complete:
            fn(stats)

    # ------------------------------------------------------------------
    # Accounting.
    # ------------------------------------------------------------------

    @property
    def total_coordinated_bytes(self) -> int:
        return self.copier.accounting.coordinated_bytes

    @property
    def total_precopy_bytes(self) -> int:
        return self.copier.accounting.local_precopy_bytes

    @property
    def total_bytes_to_nvm(self) -> int:
        """All checkpoint traffic to NVM, incl. redundant pre-copies —
        the 'total data copied' series of Figs. 7/8."""
        return self.copier.accounting.total_nvm_bytes

    @property
    def total_checkpoint_time(self) -> float:
        """T_lcl: summed coordinated (blocking) checkpoint time."""
        return sum(s.duration for s in self.history)

    def fault_overhead(self) -> float:
        """Total protection-fault cost incurred by the application due
        to chunk protection (charged by the app model to compute)."""
        faults = sum(c.fault_count for c in self.allocator.chunks())
        return faults * self.policy.fault_cost


#: the per-rank local checkpointer under its public name
LocalCheckpointer = CheckpointEngine
