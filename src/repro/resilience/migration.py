"""Planned live migration of remote checkpoint copies (elastic buddies).

Failover re-pairing (:mod:`repro.resilience.resync`) is reactive: the
old buddy is *gone*, so everything is re-sent.  Planned membership
changes — a node joining the buddy pool, a node draining for
decommission — migrate copies **live**: the old pairing keeps
protecting the source while its chunks move, Megaphone-style, in
**bounded batches** that interleave with the ongoing pre-copy stream
under the shared bandwidth model.  Buddy ownership switches atomically
only after the final batch commit, and the switch is *incremental*: the
task's per-chunk replication records — kept private until cutover, so
an aborted move never claims copies it discarded — prove which chunks
the new buddy already holds, and only chunks re-committed during the
migration are re-queued.

Two pieces:

* :class:`MigrationPlanner` — derives per-node moves from the live
  :class:`~repro.resilience.directory.BuddyDirectory` (join -> offload
  sources from the most-loaded buddies onto the newcomer; drain ->
  evacuate every orphan of the draining node);
* :class:`MigrationTask` — the epoch-guarded DES process executing one
  plan: stage bounded batches on the new buddy, commit each batch
  (crash points in the ``migrate`` layer), then cut ownership over via
  ``helper.retarget(..., staged=...)``.  On abort the pairing is
  untouched (the old buddy still protects the source); failover-driven
  callers fall back to a full :class:`~repro.resilience.resync.ResyncTask`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.remote import RemoteTarget
from ..errors import TransferCancelled, TransferFailed
from ..faults.crashpoints import ARMED, fire
from ..metrics import timeline as tl
from ..metrics.trace import (
    BUS,
    MigrationAbortEvent,
    MigrationBatchEvent,
    MigrationCutoverEvent,
    MigrationPlannedEvent,
    emit_phase,
)

__all__ = ["BATCH_BYTES", "MigrationPlan", "MigrationPlanner", "MigrationTask"]

#: plan reasons
REASON_JOIN = "join"
REASON_DRAIN = "drain"
REASON_FAILOVER = "failover"


@dataclass
class MigrationPlan:
    """Move one source node's remote copies between buddies."""

    node: int
    from_buddy: int
    to_buddy: int
    reason: str  # "join" | "drain" | "failover"
    #: filled in by the executor from the helper's live chunk state
    chunks: int = 0
    nbytes: int = 0


class MigrationPlanner:
    """Derives per-node migration plans from the live directory.

    The planner only *chooses* moves; it does not mutate the directory —
    pairings change at cutover, when the
    :class:`MigrationTask` actually owns the copies on the new buddy.
    """

    def __init__(
        self,
        directory,
        *,
        fits: Optional[Callable[[int, int, Sequence[int]], bool]] = None,
    ) -> None:
        self.directory = directory
        #: optional capacity gate ``fits(source, candidate, pending)``.
        #: Like the :meth:`BuddyDirectory.repair` predicate, but with a
        #: third argument: the source nodes this *sweep* already planned
        #: onto the candidate — their copies are in flight, so the gate
        #: must hold for the combined footprint, not each move alone.
        self.fits = fits

    def _fits(self, source: int, candidate: int, pending: Sequence[int] = ()) -> bool:
        return self.fits is None or self.fits(source, candidate, tuple(pending))

    def plan_join(self, newcomer: int) -> List[MigrationPlan]:
        """A node joined the buddy pool: offload sources from the
        most-loaded buddies onto it until the load spread is within one
        (moving another source would just shift the imbalance).
        Deterministic: most-loaded buddy first, then lowest source id,
        cross-rack sources preferred."""
        d = self.directory
        topo = d.topology
        plans: List[MigrationPlan] = []
        load: Dict[int, int] = {n: d._load(n) for n in d.nodes}
        #: sources already planned this sweep — the directory is not
        #: mutated until cutover, so without this a donor asked to
        #: donate twice would offer the same source again
        planned: Set[int] = set()
        while True:
            donors = [
                n
                for n in d.nodes
                if n != newcomer
                and d.is_healthy(n)
                and load.get(n, 0) >= load.get(newcomer, 0) + 2
            ]
            if not donors:
                break
            donors.sort(key=lambda n: (-load.get(n, 0), n))
            moved = False
            for donor in donors:
                sources = [
                    s
                    for s in d.orphans_of(donor)
                    if s != newcomer
                    and s not in planned
                    and d.is_healthy(s)
                    and self._fits(s, newcomer, tuple(planned))
                ]
                # prefer a source in a different rack from the newcomer
                # (keep the cross-rack placement rule), then lowest id
                sources.sort(
                    key=lambda s: (
                        0 if topo.rack_of(s) != topo.rack_of(newcomer) else 1,
                        s,
                    )
                )
                if not sources:
                    continue
                src = sources[0]
                plans.append(
                    MigrationPlan(
                        node=src,
                        from_buddy=donor,
                        to_buddy=newcomer,
                        reason=REASON_JOIN,
                    )
                )
                planned.add(src)
                load[donor] = load.get(donor, 0) - 1
                load[newcomer] = load.get(newcomer, 0) + 1
                moved = True
                break
            if not moved:
                break
        return plans

    def plan_drain(self, node: int) -> List[MigrationPlan]:
        """A node is draining: evacuate every orphan it hosts onto the
        best healthy candidate (the directory's usual repair ordering;
        the draining node is already retired, so it never self-selects).
        Orphans with no viable candidate are skipped — the drain stays
        incomplete and the caller must not depart the node."""
        d = self.directory
        plans: List[MigrationPlan] = []
        #: candidate -> sources this sweep already planned onto it, so
        #: the capacity gate sees the combined in-flight footprint
        planned_onto: Dict[int, List[int]] = {}
        for src in d.orphans_of(node):
            cands = [
                c
                for c in d.candidates_for(src)
                if c != node and self._fits(src, c, planned_onto.get(c, ()))
            ]
            if not cands:
                continue
            planned_onto.setdefault(cands[0], []).append(src)
            plans.append(
                MigrationPlan(
                    node=src,
                    from_buddy=node,
                    to_buddy=cands[0],
                    reason=REASON_DRAIN,
                )
            )
        return plans


#: max bytes staged per migration batch (Megaphone-style bound: small
#: batches cap the latency a migration can add at once)
BATCH_BYTES = 8 * 1024 * 1024


class MigrationTask:
    """One live migration of a source node's remote copies.

    Epoch-guarded like :class:`~repro.resilience.resync.ResyncTask`: any
    helper retarget (a concurrent failover, or another migration's
    cutover) makes this task stale and it aborts without touching the
    pairing.  The old buddy keeps receiving the normal stream/rounds
    throughout — protection never lapses during a planned move.
    """

    def __init__(
        self,
        helper,
        plan: MigrationPlan,
        to_ctx,
        *,
        batch_bytes: int = BATCH_BYTES,
        pace_fraction: float = 0.5,
        on_cutover: Optional[Callable[["MigrationTask"], None]] = None,
        on_abort: Optional[Callable[["MigrationTask"], None]] = None,
    ) -> None:
        self.helper = helper
        self.plan = plan
        self.to_ctx = to_ctx
        self.batch_bytes = batch_bytes
        self.pace_fraction = pace_fraction
        self.on_cutover = on_cutover
        self.on_abort = on_abort
        #: pairing generation this task belongs to
        self.epoch = helper.epoch
        #: staging targets on the new buddy — adopted wholesale by the
        #: helper's retarget at cutover
        self.targets: Dict[str, RemoteTarget] = helper.new_targets(to_ctx)
        #: (pid, chunk_id) -> commit generation sent, recorded when its
        #: batch commits but handed to the helper only at cutover: until
        #: then the copies live on this task's private targets, which an
        #: abort discards — claiming them early would let a later
        #: incremental retarget skip re-sending chunks the buddy does
        #: not actually hold
        self._sent_generation: Dict[Tuple[str, int], int] = {}
        #: the same, for the current batch: staged, not yet committed
        self._batch_generation: Dict[Tuple[str, int], int] = {}
        self.bytes_sent = 0
        self.chunks_sent = 0
        self.batches = 0
        self.completed = False
        self.aborted = False
        self.abort_reason = ""
        self.start: Optional[float] = None
        self.end: Optional[float] = None

    def _stale(self) -> bool:
        return self.helper.epoch != self.epoch or self.helper._stop

    def _abort(self, reason: str) -> None:
        self.aborted = True
        self.abort_reason = reason
        if BUS.active:
            BUS.emit(
                MigrationAbortEvent(
                    t=self.helper.ctx.engine.now,
                    actor=self.helper.owner,
                    reason=reason,
                    batches=self.batches,
                    nbytes=self.bytes_sent,
                )
            )
        if self.on_abort is not None:
            self.on_abort(self)

    def drop_uncommitted(self) -> None:
        """The new buddy rebooted: the current batch's staged copies
        died with its unflushed writes.  Neither commit nor claim them;
        the cutover re-queues those chunks like any it lacks."""
        for target in self.targets.values():
            target.discard_staged()
        self._batch_generation.clear()

    def run(self):
        """Generator process: batch, stage, commit, cut over."""
        helper = self.helper
        engine = helper.ctx.engine
        self.start = engine.now
        # snapshot the work list: every committed chunk (later commits
        # bump generations and are swept up by the cutover's
        # enqueue_unreplicated + the normal stream)
        work = [
            (alloc.pid, chunk)
            for alloc in helper.ranks
            for chunk in alloc.persistent_chunks()
            if chunk.committed_version >= 0
        ]
        self.plan.chunks = len(work)
        self.plan.nbytes = sum(c.nbytes for _, c in work)
        if BUS.active:
            BUS.emit(
                MigrationPlannedEvent(
                    t=engine.now,
                    actor=helper.owner,
                    node=self.plan.node,
                    from_target=f"n{self.plan.from_buddy}",
                    to_target=f"n{self.plan.to_buddy}",
                    reason=self.plan.reason,
                    chunks=self.plan.chunks,
                    nbytes=self.plan.nbytes,
                )
            )
        i = 0
        try:
            while i < len(work):
                if self._stale():
                    self._abort("stale")
                    return self
                # carve the next bounded batch
                batch = []
                batch_nbytes = 0
                while i < len(work):
                    pid, chunk = work[i]
                    if batch and batch_nbytes + chunk.nbytes > self.batch_bytes:
                        break
                    batch.append((pid, chunk))
                    batch_nbytes += chunk.nbytes
                    i += 1
                t_batch = engine.now
                for pid, chunk in batch:
                    t0 = engine.now
                    copy = helper.copier.plan_whole(chunk)
                    helper._charge_cpu(chunk.nbytes, streamed=True)
                    if ARMED:
                        fire(
                            "migrate.batch.before_send",
                            chunk=chunk,
                            pid=pid,
                            plan=self.plan,
                        )
                    try:
                        # the helper's transport, pointed at the *new*
                        # buddy (its default is the old one)
                        yield from helper.put(
                            copy, f"{pid}:migrate", self.plan.to_buddy, self.to_ctx
                        )
                    except (TransferCancelled, TransferFailed):
                        # a failed send is final (any transport has
                        # already retried it): the move is off
                        self._abort("stale" if self._stale() else "transfer-failed")
                        return self
                    if self._stale():
                        # retargeted while in flight: payload landed on
                        # a pairing that no longer exists
                        self._abort("stale")
                        return self
                    self.targets[pid].stage(chunk)
                    key = (pid, chunk.chunk_id)
                    self._batch_generation[key] = helper.generation(pid, chunk)
                    if ARMED:
                        fire(
                            "migrate.batch.after_stage",
                            chunk=chunk,
                            pid=pid,
                            target=self.targets[pid],
                        )
                    self.bytes_sent += chunk.nbytes
                    self.chunks_sent += 1
                    # pace *under* the pre-copy stream: migration gets a
                    # fraction of the helper's rate
                    rate = helper.pace_rate * self.pace_fraction
                    if rate > 0 and rate != float("inf"):
                        target_duration = chunk.nbytes / rate
                        elapsed = engine.now - t0
                        if elapsed < target_duration:
                            yield engine.timeout(target_duration - elapsed)
                # bounded-batch commit: the new buddy's copies become
                # durable *now*, while the old pairing still owns
                for target in self.targets.values():
                    if target._staged:
                        cost = target.commit()
                        if cost > 0:
                            yield engine.timeout(cost)
                self._sent_generation.update(self._batch_generation)
                self._batch_generation.clear()
                if ARMED:
                    fire("migrate.batch.commit", plan=self.plan, seq=self.batches)
                if BUS.active:
                    BUS.emit(
                        MigrationBatchEvent(
                            t=engine.now,
                            actor=helper.owner,
                            seq=self.batches,
                            chunks=len(batch),
                            nbytes=batch_nbytes,
                            start=t_batch,
                        )
                    )
                self.batches += 1
            if self._stale():
                self._abort("stale")
                return self
            # atomic cutover: ownership flips only after every batch
            # committed.  The retarget adopts the staging targets —
            # replacing any records from an older pairing with this
            # buddy, whose copies this cutover supersedes — and
            # re-queues just the chunks committed since their
            # migration send.
            if ARMED:
                fire("migrate.cutover.before", plan=self.plan)
            helper.retarget(
                self.plan.to_buddy,
                self.to_ctx,
                reason=f"migrated ({self.plan.reason})",
                staged=(self.targets, self._sent_generation),
            )
            self.completed = True
            if ARMED:
                fire("migrate.cutover.done", plan=self.plan)
            if BUS.active:
                BUS.emit(
                    MigrationCutoverEvent(
                        t=engine.now,
                        actor=helper.owner,
                        from_target=f"n{self.plan.from_buddy}",
                        to_target=f"n{self.plan.to_buddy}",
                        batches=self.batches,
                        nbytes=self.bytes_sent,
                    )
                )
            if self.on_cutover is not None:
                self.on_cutover(self)
        finally:
            self.end = engine.now
            if self.end > self.start:
                emit_phase(helper.owner, tl.MIGRATION, self.start, self.end)
        return self
