"""Background re-sync of committed chunks to a (new) buddy.

After an orphan is re-paired by the
:class:`~repro.resilience.directory.BuddyDirectory`, every committed
chunk the new buddy does not provably hold at its latest commit
generation must be re-sent before the node is protected again (all of
them, unless the buddy was streamed to before on the same hardware;
see :meth:`~repro.core.remote.RemoteHelper.retarget`).  The
:class:`ResyncTask` DES process drains the helper's (re-)filled stream
queue at the helper's paced rate (same pacing as the remote pre-copy
stream, so the re-sync does not flood the fabric), staging each chunk
on the new target and committing everything at the end — one atomic
buddy-side version flip, exactly like a coordinated round.

The helper's normal rounds are paused for the duration (the round and
the re-sync would race on the same queue); they resume when the task
finishes or aborts.  Chunks committed locally *during* the re-sync are
queued by the usual notify hooks and get drained too.

A send goes through the helper's transport, whose attempt loop is the
only retry layer: a send that still fails is final, so the task aborts
on it, puts the chunk back on the queue and escalates through
``on_abort`` — the node stays unprotected until a later repair.

A task is generation-guarded: if the helper is retargeted again
mid-re-sync (the new buddy also died), the stale task stops silently
and leaves control to the task spawned for the newer pairing.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import TransferCancelled, TransferFailed
from ..metrics import timeline as tl
from ..metrics.trace import BUS, ResyncAbortedEvent, emit_phase

__all__ = ["ResyncTask"]


class ResyncTask:
    """One paced re-sync of a helper's committed chunks."""

    def __init__(
        self,
        helper,
        *,
        on_abort: Optional[Callable[["ResyncTask"], None]] = None,
    ) -> None:
        self.helper = helper
        #: fired only when a send fails (not when a newer retarget
        #: makes the task stale) — the node is still unprotected and
        #: callers must escalate, e.g. keep it in degraded mode
        self.on_abort = on_abort
        self.bytes_sent = 0
        self.chunks_sent = 0
        self.completed = False
        self.aborted = False
        #: the abort was a failed send (vs. staleness)
        self.send_failed = False
        self.start = None
        self.end = None
        #: pairing generation this task belongs to
        self.epoch = helper.epoch

    def _stale(self) -> bool:
        return self.helper.epoch != self.epoch

    def run(self):
        """Generator process: drain, stage, commit, hand back."""
        helper = self.helper
        engine = helper.ctx.engine
        helper.pause_rounds()
        self.start = engine.now
        try:
            while not helper._stop and not self._stale():
                item = helper._pop()
                if item is None:
                    break
                pid, chunk = item
                t0 = engine.now
                plan = helper.copier.plan_whole(chunk)
                helper._charge_cpu(chunk.nbytes, streamed=True)
                try:
                    yield from helper.put(plan, f"{pid}:resync")
                except (TransferCancelled, TransferFailed):
                    helper._queue.setdefault((pid, chunk.chunk_id), chunk)
                    if helper._stop or self._stale():
                        # the pairing moved on while the send was out:
                        # the newer task (or none) owns the queue
                        break
                    self.aborted = True
                    self.send_failed = True
                    if BUS.active:
                        BUS.emit(
                            ResyncAbortedEvent(
                                t=engine.now,
                                actor=helper.owner,
                                failures=1,
                                bytes_sent=self.bytes_sent,
                                chunks_sent=self.chunks_sent,
                            )
                        )
                    if self.on_abort is not None:
                        self.on_abort(self)
                    return self
                if self._stale():
                    # retargeted while this chunk was in flight: the
                    # payload went to the *old* ctx; the new task owns
                    # the queue now
                    break
                helper.targets[pid].stage(chunk)
                helper.mark_staged(pid, chunk)
                chunk.dirty_remote = False
                self.bytes_sent += chunk.nbytes
                self.chunks_sent += 1
                # pace like the stream: never faster than pace_rate
                target_duration = chunk.nbytes / helper.pace_rate
                elapsed = engine.now - t0
                if elapsed < target_duration:
                    yield engine.timeout(target_duration - elapsed)
            if helper._stop or self._stale():
                self.aborted = True
                return self
            # buddy-side commit: one atomic version flip per rank
            for pid, target in helper.targets.items():
                if target._staged:
                    cost = helper.commit_target(pid)
                    if cost > 0:
                        yield engine.timeout(cost)
            self.completed = True
        finally:
            self.end = engine.now
            if self.end > self.start:
                emit_phase(helper.owner, tl.RESYNC, self.start, self.end)
            # only the task owning the current pairing unpauses
            if not self._stale():
                helper.resume_rounds()
        return self

    @property
    def duration(self) -> float:
        if self.start is None or self.end is None:
            return 0.0
        return self.end - self.start
