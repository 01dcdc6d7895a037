"""The background chunk pre-copy engine (CPC / DCPC / DCPCP, §IV).

One engine instance serves one rank's local stream (DRAM->NVM through
the node's NVM bus).  It runs as a DES process that continuously:

1. finds a dirty, *eligible* chunk — eligibility depends on the policy
   (CPC: any dirty chunk; DCPC: only after the learned threshold
   ``T_p`` within the interval; DCPCP: additionally only once the
   prediction table expects no further modifications) — through a
   size-ordered :class:`ReadyIndex` kept up to date by the chunks' own
   dirty / clean events, so a wake-up costs what it picks, not the
   number of dirty chunks.  Before ``T_p`` the loop sleeps until the
   boundary (through the whole learning interval: until the interval
   turns), and writes do not wake it — the policy would refuse every
   chunk; past the gate a write wakes it;
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

import itertools
from bisect import bisect_left, insort
from dataclasses import dataclass
from math import inf
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..alloc.chunk import Chunk, ChunkState
from ..config import PrecopyPolicy
from ..errors import SimulationError, TransferCancelled
from ..faults.crashpoints import ARMED, fire
from ..metrics.trace import BUS, PolicyDecisionEvent
from ..sim.events import Event, Wake
from .context import NodeContext
from .copystep import CopyStep
from .destination import Destination, NVMArenaDestination
from .policy import _EPS, CheckpointPolicy, Decision, IntervalClock, resolve_policy
from .prediction import PredictionTable
from .threshold import ThresholdEstimator

__all__ = ["PrecopyEngine", "PrecopyStats", "ReadyIndex"]


@dataclass
class PrecopyStats:
    """Work accounting for one pre-copy engine."""

    bytes_copied: int = 0
    copies: int = 0
    stale_copies: int = 0  # overwritten mid-copy
    redundant_copies: int = 0  # re-dirtied after a completed pre-copy
    faults_induced: int = 0


class ReadyIndex:
    """The dirty chunks of one stream, largest first.

    Every member has a *position*: the order in which chunks entered
    the index, which breaks ties between chunks of equal size.  A
    chunk keeps its position for as long as it stays a member — being
    written again, parked or resized does not move it; leaving and
    re-entering does.

    Members are either *listed* (iteration yields them, largest
    ``nbytes`` first, ties by position) or *parked*: withheld by the
    policy, skipped by iteration until :meth:`add` (the chunk was
    written again) or :meth:`rearm` (the interval turned)
    lists them again.  Every operation touches one entry.
    """

    def __init__(self) -> None:
        #: chunk id -> (-nbytes, position, chunk), one per member
        self._entries: Dict[int, Tuple[int, int, Chunk]] = {}
        #: the listed entries, sorted (positions are unique, so the
        #: comparison never reaches the chunk)
        self._listed: List[Tuple[int, int, Chunk]] = []
        self._parked: set[int] = set()
        self._positions = itertools.count()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Chunk]:
        """Listed members, largest first.  Do not mutate while
        iterating; collect and apply afterwards."""
        return (entry[2] for entry in self._listed)

    def _unlist(self, entry: Tuple[int, int, Chunk]) -> None:
        del self._listed[bisect_left(self._listed, entry)]

    def add(self, chunk: Chunk) -> None:
        """*chunk* is dirty: enter it (at the back of its size class),
        or — already a member — list it again if parked and re-sort it
        if its size changed."""
        cid = chunk.chunk_id
        old = self._entries.get(cid)
        if old is None:
            entry = (-chunk.nbytes, next(self._positions), chunk)
        else:
            entry = (-chunk.nbytes, old[1], chunk)
            if cid in self._parked:
                self._parked.discard(cid)
            elif entry == old:
                return
            else:
                self._unlist(old)
        self._entries[cid] = entry
        insort(self._listed, entry)

    def discard(self, chunk: Chunk) -> None:
        """*chunk* is clean or gone: forget it and its position."""
        cid = chunk.chunk_id
        entry = self._entries.get(cid)
        if entry is None or entry[2] is not chunk:
            # not a member (a successor allocated under the same id is
            # not the chunk that went away)
            return
        del self._entries[cid]
        if cid in self._parked:
            self._parked.discard(cid)
        else:
            self._unlist(entry)

    def park(self, chunk: Chunk) -> None:
        """Withhold a listed member until it is written again or
        :meth:`rearm` is called."""
        self._unlist(self._entries[chunk.chunk_id])
        self._parked.add(chunk.chunk_id)

    def rearm(self) -> None:
        """List every parked member again, positions kept."""
        for cid in self._parked:
            insort(self._listed, self._entries[cid])
        self._parked.clear()


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
    ) -> None:
        self.ctx = ctx
        self._chunks = chunks
        self.policy = policy
        self.tag = tag
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
        self._paused = False
        #: :meth:`stop` calls so far; a run ends when the count moves
        #: past what it was when that run was spawned
        self._stops = 0
        #: the stop count the looping run was spawned at (None: idle),
        #: and the event a successor waits on for that run to wind down
        self._active: Optional[int] = None
        self._idle: Optional[Event] = None
        self._wake: Optional[Wake] = None
        #: the gate the loop last went to sleep behind: a write before
        #: it cannot change the loop's answer, so it does not wake it
        self._gate = -inf
        self._resume: Optional[Event] = None
        #: chunks pre-copied this interval and not re-dirtied yet
        self._pending_clean: Dict[int, Chunk] = {}
        self._wired: set[int] = set()
        #: the dirty chunks of this stream, largest first.  A write
        #: enters a chunk; a chunk that went clean leaves at the next
        #: wake-up that still finds it clean (``_settling``), so one
        #: re-dirtied in between keeps its tie-break position
        self._index = ReadyIndex()
        #: chunks whose dirty bit was cleared since the last wake-up
        self._settling: List[Chunk] = []
        self._inflight_chunk: Optional[Chunk] = None
        #: made by :meth:`drain` only when it has to wait for the copy
        self._inflight_done: Optional[Event] = None

    # ------------------------------------------------------------------
    # Wiring into chunk dirty events.
    # ------------------------------------------------------------------

    def wire_chunks(self) -> None:
        """Attach dirty/clean observers to every current chunk
        (idempotent; :meth:`begin_interval` repeats it, so a chunk
        allocated mid-run is picked up at the next interval)."""
        for chunk in self._chunks():
            self._wire(chunk)

    def _wire(self, chunk: Chunk) -> None:
        if chunk.chunk_id in self._wired:
            return
        chunk.on_dirty.append(self._on_dirty)
        chunk.on_clean.append(self._on_clean)
        self._wired.add(chunk.chunk_id)
        if chunk.persistent and chunk.dirty_local:
            self._index.add(chunk)

    def drop_chunk(self, chunk: Chunk) -> None:
        """*chunk* was deleted: unhook it and never schedule it again
        (its NVM regions are unmapped — a copy would land nowhere)."""
        if chunk.chunk_id not in self._wired:
            return
        self._wired.discard(chunk.chunk_id)
        chunk.on_dirty.remove(self._on_dirty)
        chunk.on_clean.remove(self._on_clean)
        self._index.discard(chunk)
        self._pending_clean.pop(chunk.chunk_id, None)

    def _on_clean(self, chunk: Chunk, stream: str) -> None:
        if stream == self.stream:
            self._settling.append(chunk)

    def _on_dirty(self, chunk: Chunk, now: float) -> None:
        if chunk.persistent:
            self._index.add(chunk)
        if self.prediction is not None:
            self.prediction.observe(chunk)
        pending = self._pending_clean.pop(chunk.chunk_id, None)
        if pending is not None:
            # a completed pre-copy turned out redundant
            self.stats.redundant_copies += 1
            self.stats.faults_induced += 1
            if self.prediction is not None:
                self.prediction.record_outcome(chunk, was_redundant=True)
        if self.ctx.engine.now + _EPS >= self._gate:
            self._kick()

    def _kick(self) -> None:
        # a kick of a sleep that already ended queues nothing
        if self._wake is not None:
            self._wake.kick()

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
            self._wire(chunk)
        # the write counts the policy withheld chunks on start over
        self._index.rearm()
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
        if self._inflight_chunk is not None:
            if self._inflight_done is None:
                self._inflight_done = self.ctx.engine.event("precopy.inflight")
            yield self._inflight_done

    def stop(self) -> None:
        """End the current run (spawned or already looping).  A later
        :meth:`run` is a fresh start."""
        self._stops += 1
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

    def _next_eligible(self, now: float, t_ready: float) -> Optional[Chunk]:
        """The chunk to pre-copy at this wake-up: the largest eligible
        one (big chunks benefit most from being out of the coordinated
        step, Table IV analysis), ties in the order the chunks entered
        the index.  *t_ready* is the policy's gate for this interval,
        evaluated once by the caller."""
        index = self._index
        # chunks cleaned since the last wake-up leave now, unless they
        # were written again in between
        for chunk in self._settling:
            if not chunk.dirty_local:
                index.discard(chunk)
        self._settling.clear()
        if not index:
            return None
        clock = IntervalClock(now=now, interval_start=self.interval_start)
        if not clock.reached(t_ready):
            return None
        best: Optional[Chunk] = None
        stale: List[Chunk] = []
        withheld: List[Chunk] = []
        for chunk in index:
            # mechanism checks stay here; the scheduling question is
            # the policy strategy's
            if not chunk.dirty_local:
                # cleaned behind the observers' back
                stale.append(chunk)
                continue
            if chunk.get_state(self.stream) is not ChunkState.IDLE:
                # busy on this stream: transient, ask again next time
                continue
            if self.decision_policy.decide(chunk, clock) is Decision.PRECOPY:
                best = chunk
                break
            withheld.append(chunk)
        for chunk in stale:
            index.discard(chunk)
        for chunk in withheld:
            index.park(chunk)
        return best

    # ------------------------------------------------------------------
    # Main loop (DES process body).
    # ------------------------------------------------------------------

    def run(self):
        """Generator process: run until the next :meth:`stop`.  Stops
        issued before this call do not count — a stopped engine can be
        run again — but one issued between this call and the process's
        first step does."""
        return self._run(self._stops)

    def _run(self, stops_at_spawn: int):
        engine = self.ctx.engine
        while self._active is not None:
            if self._active == self._stops:
                raise SimulationError("pre-copy engine already running")
            # the predecessor was stopped but has not wound down yet
            # (it may be finishing a copy): one loop at a time
            if self._idle is None:
                self._idle = engine.event("precopy.idle")
            yield self._idle
        self._active = stops_at_spawn
        self.wire_chunks()
        try:
            while self._stops == stops_at_spawn:
                if self._paused:
                    self._resume = engine.event("precopy.resume")
                    yield self._resume
                    continue
                now = engine.now
                t_ready = self.threshold_time()
                chunk = self._next_eligible(now, t_ready)
                if chunk is None:
                    # sleep until the gate opens (no deadline in the
                    # learning interval) or, past it, until a write
                    self._gate = t_ready
                    pending = now < t_ready < inf
                    self._wake = engine.wake(t_ready - now if pending else None)
                    yield self._wake
                    self._wake = None
                    continue
                yield from self._copy_one(chunk)
        finally:
            self._active = None
            if self._idle is not None:
                self._idle.succeed()
                self._idle = None
        return self.stats

    def _copy_one(self, chunk: Chunk):
        if ARMED:
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
        nbytes = plan.nbytes
        chunk.set_state(self.stream, ChunkState.PRECOPYING)
        self._inflight_chunk = chunk
        cancelled = False
        try:
            yield self.destination.write(chunk, nbytes, tag=self.tag)
        except TransferCancelled:
            # a failure tore the flow down; the chunk stays dirty and
            # the engine moves on (it may retry after recovery)
            cancelled = True
        finally:
            chunk.set_state(self.stream, ChunkState.IDLE)
            self._inflight_chunk = None
            done = self._inflight_done
            if done is not None:
                self._inflight_done = None
                done.succeed()
        if cancelled:
            self.stats.stale_copies += 1
            return
        if ARMED:
            fire("precopy.copy.after", chunk=chunk, stream=self.stream)
        self.stats.copies += 1
        self.stats.bytes_copied += nbytes
        # torn copy: application wrote during the transfer (the stale
        # bits were never cleared, so a retry re-copies)
        torn = chunk.total_mods != mods_before
        self.copier.land(
            plan,
            start=copy_start,
            phase="precopy",
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
        if ARMED:
            fire("precopy.finalize.after", chunk=chunk, stream=self.stream)
