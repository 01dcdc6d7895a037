"""The background chunk pre-copy engine (CPC / DCPC / DCPCP, §IV).

One engine instance serves one rank's local stream (DRAM->NVM through
the node's NVM bus).  It runs as a DES process that continuously:

1. finds a dirty, *eligible* chunk — eligibility depends on the policy
   (CPC: any dirty chunk; DCPC: only after the learned threshold
   ``T_p`` within the interval; DCPCP: additionally only once the
   prediction table expects no further modifications);
2. plans and moves it through the rank's copy step
   (:mod:`repro.core.copystep`; bus contention is charged by the
   destination);
3. marks the chunk pre-copied: clean for this stream + write-protected,
   so the next application write faults and re-dirties it.

A copy that races with an application write is *stale*: the chunk
stays dirty and the moved bytes count as redundant work (the extra
data volume visible in Fig. 7's right axis).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from ..alloc.chunk import Chunk, ChunkState
from ..config import PrecopyPolicy
from ..errors import SimulationError, TransferCancelled
from ..faults.crashpoints import fire
from ..metrics.trace import BUS, PolicyDecisionEvent
from ..sim.events import Event
from .context import NodeContext
from .copystep import CopyStep
from .destination import Destination, NVMArenaDestination
from .policy import CheckpointPolicy, Decision, IntervalClock, resolve_policy
from .prediction import PredictionTable
from .threshold import ThresholdEstimator

__all__ = ["PrecopyEngine", "PrecopyStats"]


@dataclass
class PrecopyStats:
    """Work accounting for one pre-copy engine."""

    bytes_copied: int = 0
    copies: int = 0
    stale_copies: int = 0  # overwritten mid-copy
    redundant_copies: int = 0  # re-dirtied after a completed pre-copy
    faults_induced: int = 0

    @property
    def wasted_bytes_estimate(self) -> int:
        total = self.stale_copies + self.redundant_copies
        if self.copies == 0:
            return 0
        return int(self.bytes_copied * total / self.copies)


class PrecopyEngine:
    """Background pre-copy worker for one rank's local stream."""

    stream = "local"

    def __init__(
        self,
        ctx: NodeContext,
        chunks: Callable[[], Iterable[Chunk]],
        policy: PrecopyPolicy,
        *,
        tag: str = "precopy",
        threshold: Optional[ThresholdEstimator] = None,
        prediction: Optional[PredictionTable] = None,
        decision_policy: Optional[CheckpointPolicy] = None,
        copier: Optional[CopyStep] = None,
        destination: Optional[Destination] = None,
        tenant: str = "",
    ) -> None:
        self.ctx = ctx
        self._chunks = chunks
        self.policy = policy
        self.tag = tag
        self.tenant = tenant
        #: the owning checkpoint engine's copy step (one codec, one
        #: accounting record per rank); a standalone engine gets its own
        self.copier = copier or CopyStep(ctx, policy, actor=tag)
        #: where pre-copies land: the rank's NVM shadow arena
        self.destination = destination or NVMArenaDestination(ctx)
        if self.copier.codec is not None:
            self.destination.ensure_block_store(policy.codec_block)
        self.threshold = threshold
        self.prediction = prediction
        if policy.mode == PrecopyPolicy.DCPC and threshold is None:
            raise SimulationError("DCPC requires a ThresholdEstimator")
        if policy.mode == PrecopyPolicy.DCPCP and prediction is None:
            raise SimulationError("DCPCP requires a PredictionTable")
        # DCPCP may run without a threshold (prediction-only gating).

        #: the scheduling strategy; shared with the owning checkpoint
        #: engine when one drives this pre-copy stream
        self.decision_policy = decision_policy or resolve_policy(
            policy.mode, threshold=threshold, prediction=prediction
        )

        self.stats = PrecopyStats()
        self.interval_start = ctx.engine.now
        self._running = False
        self._paused = False
        self._stop_requested = False
        self._wake: Optional[Event] = None
        self._resume: Optional[Event] = None
        #: chunks pre-copied this interval and not re-dirtied yet
        self._pending_clean: Dict[int, Chunk] = {}
        self._wired: set[int] = set()
        #: dirty-candidate index so eligibility scans touch only dirty
        #: chunks, not the whole chunk table (stale entries are dropped
        #: lazily — e.g. chunks cleaned by the coordinated step)
        self._dirty: Dict[int, Chunk] = {}
        self._inflight_chunk: Optional[Chunk] = None
        self._inflight_done: Optional[Event] = None

    # ------------------------------------------------------------------
    # Wiring into chunk dirty events.
    # ------------------------------------------------------------------

    def wire_chunks(self) -> None:
        """Attach dirty observers to every current chunk (idempotent;
        call again after new allocations)."""
        for chunk in self._chunks():
            if chunk.chunk_id in self._wired:
                continue
            chunk.on_dirty.append(self._on_dirty)
            self._wired.add(chunk.chunk_id)
            if chunk.persistent and chunk.dirty_local:
                self._dirty[chunk.chunk_id] = chunk

    def _on_dirty(self, chunk: Chunk, now: float) -> None:
        if chunk.persistent:
            self._dirty[chunk.chunk_id] = chunk
        if self.prediction is not None:
            self.prediction.observe(chunk)
        pending = self._pending_clean.pop(chunk.chunk_id, None)
        if pending is not None:
            # a completed pre-copy turned out redundant
            self.stats.redundant_copies += 1
            self.stats.faults_induced += 1
            if self.prediction is not None:
                self.prediction.record_outcome(chunk, was_redundant=True)
        self._kick()

    def _kick(self) -> None:
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()
            self._wake = None

    def adopt_policy(
        self,
        policy: PrecopyPolicy,
        decision_policy: CheckpointPolicy,
        *,
        threshold: Optional[ThresholdEstimator] = None,
        prediction: Optional[PredictionTable] = None,
    ) -> None:
        """Swap the scheduling strategy mid-run (the checkpoint
        engine's hot policy switch).  The copy mechanism — copy step,
        destination, incremental extents — is untouched; only the
        when-does-a-chunk-move question changes.  Call between
        intervals (while no copy is in flight for a conflicting
        strategy); the wake kick re-evaluates eligibility immediately.
        """
        self.policy = policy
        self.decision_policy = decision_policy
        self.threshold = threshold
        self.prediction = prediction
        self._kick()

    # ------------------------------------------------------------------
    # Interval lifecycle (driven by the checkpoint coordinator).
    # ------------------------------------------------------------------

    def begin_interval(self) -> None:
        """New compute interval starts now: reset prediction walk,
        settle prediction outcomes for still-clean pre-copies."""
        self.interval_start = self.ctx.engine.now
        for chunk in self._pending_clean.values():
            if self.prediction is not None:
                self.prediction.record_outcome(chunk, was_redundant=False)
        self._pending_clean.clear()
        if self.prediction is not None:
            self.prediction.begin_interval()
        for chunk in self._chunks():
            chunk.begin_interval()
        self._kick()

    def pause(self) -> None:
        """Suspend background copying (entered for the coordinated
        checkpoint so pre-copy does not compete for the bus)."""
        self._paused = True

    def resume(self) -> None:
        self._paused = False
        if self._resume is not None and not self._resume.triggered:
            self._resume.succeed()
            self._resume = None
        self._kick()

    def drain(self):
        """Generator: wait for the in-flight copy (if any) to finish.
        Call after :meth:`pause` so a coordinated step never races a
        background copy of the same chunk."""
        if self._inflight_done is not None:
            yield self._inflight_done

    def stop(self) -> None:
        self._stop_requested = True
        self._kick()
        if self._resume is not None and not self._resume.triggered:
            self._resume.succeed()
            self._resume = None

    # ------------------------------------------------------------------
    # Eligibility.
    # ------------------------------------------------------------------

    def threshold_time(self) -> float:
        """Absolute time at which delayed pre-copy may start this
        interval.  CPC starts immediately; DCPC/DCPCP never pre-copy
        during the learning interval ('our method waits for the first
        checkpoint step to complete', §IV) — hence +inf until the
        estimator has one observation.  A DCPCP engine without a
        threshold estimator is prediction-gated only."""
        return self.decision_policy.ready_time(self.interval_start)

    def _eligible(self, chunk: Chunk, now: float) -> bool:
        # mechanism checks stay here; the scheduling question is the
        # policy strategy's
        if not chunk.persistent or not chunk.dirty_local:
            return False
        if chunk.get_state(self.stream) is not ChunkState.IDLE:
            return False
        clock = IntervalClock(now=now, interval_start=self.interval_start)
        return self.decision_policy.decide(chunk, clock) is Decision.PRECOPY

    def _next_eligible(self, now: float) -> Optional[Chunk]:
        # largest dirty chunk first: big chunks benefit most from being
        # out of the coordinated step (Table IV analysis)
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

    # ------------------------------------------------------------------
    # Main loop (DES process body).
    # ------------------------------------------------------------------

    def run(self):
        """Generator process: run until :meth:`stop`."""
        if self._running:
            raise SimulationError("pre-copy engine already running")
        self._running = True
        engine = self.ctx.engine
        self.wire_chunks()
        try:
            while not self._stop_requested:
                if self._paused:
                    self._resume = engine.event("precopy.resume")
                    yield self._resume
                    continue
                now = engine.now
                chunk = self._next_eligible(now)
                if chunk is None:
                    # sleep until a dirty event, or until the threshold
                    # boundary if one is pending
                    self._wake = engine.event("precopy.wake")
                    t_thresh = self.threshold_time()
                    waits: List[Event] = [self._wake]
                    if (
                        now < t_thresh < float("inf")
                        and any(c.dirty_local for c in self._dirty.values())
                    ):
                        waits.append(engine.timeout(t_thresh - now))
                    yield engine.any_of(waits)
                    self._wake = None
                    continue
                yield from self._copy_one(chunk)
        finally:
            self._running = False
        return self.stats

    def _copy_one(self, chunk: Chunk):
        fire("precopy.copy.before", chunk=chunk, stream=self.stream)
        copy_start = self.ctx.engine.now
        if BUS.active:
            BUS.emit(
                PolicyDecisionEvent(
                    t=copy_start,
                    actor=self.tag,
                    chunk=chunk.name,
                    decision=Decision.PRECOPY.value,
                    policy=self.decision_policy.name,
                )
            )
        mods_before = chunk.total_mods
        # page-granular mode: the plan moves only the extents stale for
        # the in-progress slot (a post-pre-copy re-copy moves just the
        # re-dirtied pages, not the whole chunk)
        plan = self.copier.plan(chunk, self.destination)
        chunk.set_state(self.stream, ChunkState.PRECOPYING)
        self._inflight_chunk = chunk
        self._inflight_done = self.ctx.engine.event("precopy.inflight")
        cancelled = False
        try:
            yield self.destination.write_payload(chunk, plan.payload, tag=self.tag)
        except TransferCancelled:
            # a failure tore the flow down; the chunk stays dirty and
            # the engine moves on (it may retry after recovery)
            cancelled = True
        finally:
            chunk.set_state(self.stream, ChunkState.IDLE)
            self._inflight_chunk = None
            self._inflight_done.succeed()
            self._inflight_done = None
        if cancelled:
            self.stats.stale_copies += 1
            return
        fire("precopy.copy.after", chunk=chunk, stream=self.stream)
        self.stats.copies += 1
        self.stats.bytes_copied += plan.nbytes
        # torn copy: application wrote during the transfer (the stale
        # bits were never cleared, so a retry re-copies)
        torn = chunk.total_mods != mods_before
        self.copier.land(
            plan,
            start=copy_start,
            phase="precopy",
            tenant=self.tenant,
            actor=self.tag,
            # the local pre-copy stream has never stamped the backend
            # on its events; keep the trace stable
            destination="",
            torn=torn,
        )
        if torn:
            self.stats.stale_copies += 1
            if self.prediction is not None:
                self.prediction.record_outcome(chunk, was_redundant=True)
            return
        chunk.mark_precopied(self.stream)
        self._pending_clean[chunk.chunk_id] = chunk
        fire("precopy.finalize.after", chunk=chunk, stream=self.stream)
