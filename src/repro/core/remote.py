"""Remote (buddy-node) checkpointing: the per-node asynchronous helper
process with chunk-granular remote pre-copy (§IV/§V).

Design, following the paper:

* one **helper process per physical node** owns all remote-checkpoint
  work for the node's ranks, reading their chunk state through the
  shared-NVM interface; the per-NVM-page ``nvdirty`` bits the kernel
  patch adds (so it never takes protection faults) are each chunk's
  ``remote`` :class:`~repro.memory.page.StalePageMap`, which
  :meth:`RemoteTarget.stage` reads for the pages to send;
* with **remote pre-copy**, the helper continuously *streams* chunks
  whose local checkpoint version changed since they were last sent —
  a coalescing work queue fed by local-checkpoint commits, drained at a
  **paced** rate of roughly one full checkpoint per remote interval.
  Reading committed NVM versions means streamed data is always
  consistent (no torn copies), re-commits of a still-queued chunk
  coalesce into one send, and pacing spreads the transfers across the
  whole timeline — the flat pre-copy profile and ~46% lower peak
  interconnect usage of Fig. 10;
* the coordinated **remote round** (every ``remote_interval``) drains
  whatever is still queued and commits the buddy-side versions — only
  the leftovers move at round time;
* the **asynchronous no-pre-copy baseline** skips the stream and pushes
  every rank's whole checkpoint at each round: still overlapped with
  compute, but the burst contends with application communication (the
  communication noise Fig. 9 quantifies);
* the buddy keeps **two versions** per chunk with its own committed
  pointers, so a crash mid-round never corrupts the recovery copy;
* helper CPU is charged per byte (plus dirty-tracking overhead on the
  streamed path), reproducing Table V's utilization numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..alloc.chunk import Chunk
from ..alloc.nvmalloc import NVAllocator
from ..config import CheckpointConfig
from ..errors import CheckpointError, TransferCancelled, TransferFailed
from ..faults.crashpoints import ARMED, fire
from ..metrics import timeline as tl
from ..metrics.trace import BUS, FailoverEvent, emit_phase
from ..net.interconnect import Fabric
from ..net.rdma import rdma_get, rdma_put
from ..sim.events import Wake
from ..units import usec
from .codec import Payload, blocks_of_extents
from .context import NodeContext
from .copystep import CopyPlan, CopyStep
from .destination import Destination, _validate_extents

__all__ = ["RemoteTarget", "RemoteHelper", "RemoteCheckpointStats", "buddy_get"]

#: helper CPU seconds per byte moved (RDMA descriptor setup, chunk
#: metadata handling); calibrated so a ~40 MB/s no-pre-copy stream
#: costs ~13% of a core (Table V).
HELPER_CPU_PER_BYTE = 3.5e-9
#: extra helper CPU per *streamed* byte: nvdirty queries, queue and
#: version bookkeeping.  Together with the stream's slightly larger
#: volume this doubles helper utilization (Table V's ~2x).
TRACKING_CPU_PER_BYTE = 3.0e-9
#: fixed helper cost per chunk transfer.
PER_CHUNK_CPU = usec(20.0)
#: stream pacing headroom: the stream aims to move `pace_factor` full
#: checkpoints per remote interval, so it finishes slightly early and
#: the round only carries stragglers.
PACE_FACTOR = 1.3


@dataclass
class RemoteCheckpointStats:
    """One coordinated remote round."""

    start: float = 0.0
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class RemoteTarget(Destination):
    """One source rank's remote chunk copies, living on the buddy
    node's NVM with independent two-version commit state — the buddy
    :class:`~repro.core.destination.Destination` (multilevel
    checkpointing = a local destination + this one)."""

    name = "buddy"
    two_version = True
    #: remote regions per chunk: the committed and the in-progress copy
    n_versions = 2

    def __init__(self, src_pid: str, dst_ctx: NodeContext) -> None:
        self.src_pid = src_pid
        self.dst_ctx = dst_ctx
        self.pid = f"rmt:{src_pid}"
        #: chunk name -> committed version index (-1 = none)
        self.committed: Dict[str, int] = {}
        #: chunk name -> size, for restart sizing
        self.sizes: Dict[str, int] = {}
        self._staged: Dict[str, int] = {}
        #: chunk name -> payload crc32 of the *committed* copy (None for
        #: phantom chunks — their zeros are not a real payload).  Lets
        #: :meth:`verify` detect a corrupted buddy copy before trusting it.
        self.checksums: Dict[str, Optional[int]] = {}
        self._staged_crc: Dict[str, Optional[int]] = {}
        #: the byte runs the most recent :meth:`stage` actually wrote
        #: (``None`` = whole chunk).  Staging re-reads the stale map, so
        #: raced writes land too; the codec publish path derives the
        #: digest coverage from this, not from its pre-transfer plan.
        self.last_staged_runs: Optional[List[Tuple[int, int]]] = None
        #: chunk name -> the chunk object the regions last mirrored
        #: (:meth:`ensure_chunk`)
        self._mapped: Dict[str, Chunk] = {}

    def codec_slots(self, chunk: Chunk) -> Tuple[int, int]:
        """(in-progress slot, committed base slot) for codec planning."""
        self.ensure_chunk(chunk)
        return self._inprogress(chunk.name), self.committed.get(chunk.name, -1)

    def write(self, chunk: Chunk, nbytes: int, *, tag: str = ""):
        """Land *nbytes* on the buddy's NVM bus — the receiving half of
        a put.  The helper moves bytes through :meth:`RemoteHelper.put`
        instead, which crosses the fabric and ends on this same bus."""
        return self.dst_ctx.copy_to_nvm(nbytes, tag=tag)

    def pending_extents(self, chunk: Chunk) -> List[Tuple[int, int]]:
        # ensure_chunk creates the buddy regions *and* the chunk's
        # remote stale map before the slot is consulted
        self.ensure_chunk(chunk)
        return chunk.copy_extents("remote", slot=self._inprogress(chunk.name))

    def staged_blocks(self, chunk: Chunk, payload: Payload):
        # staging re-reads the stale map, so raced writes land too:
        # derive coverage from the runs the last stage actually wrote
        return blocks_of_extents(
            self.last_staged_runs, self.block_store.block, chunk.nbytes
        )

    def flush(self) -> float:
        return self.dst_ctx.nvmm.cache_flush()

    def read(self, chunk_name: str):
        return self.fetch(chunk_name)

    def capacity(self) -> float:
        return float(self.dst_ctx.nvm.free)

    # -- region plumbing ------------------------------------------------------

    def _region_name(self, chunk_name: str, version: int) -> str:
        return f"{chunk_name}#v{version}"

    def ensure_chunk(self, chunk: Chunk) -> None:
        """Create (or grow) the remote regions mirroring *chunk*.

        Every plan and stage asks, so once the regions mirror a chunk
        *object* at its size this returns at once.  The check is on the
        object, not the name: after a hard failure ``populate``
        re-creates chunks under the same names, and each new object
        needs its own remote stale map."""
        if self._mapped.get(chunk.name) is chunk and self.sizes[chunk.name] == chunk.nbytes:
            return
        nvmm = self.dst_ctx.nvmm
        for v in range(self.n_versions):
            rname = self._region_name(chunk.name, v)
            region = nvmm.find(self.pid, rname)
            if region is None:
                nvmm.nvmmap(self.pid, rname, chunk.nbytes, phantom=chunk.phantom)
            elif region.nbytes != chunk.nbytes:
                nvmm.nvmrealloc(self.pid, rname, chunk.nbytes)
        chunk.ensure_remote_slots(self.n_versions)
        if chunk.name not in self.committed:
            # first contact with this target (fresh pairing or a
            # post-failover replacement): its regions hold nothing, so
            # any remote stale-map state from an earlier buddy is void
            chunk.mark_all_stale("remote")
            self.committed[chunk.name] = -1
        self.sizes[chunk.name] = chunk.nbytes
        self._mapped[chunk.name] = chunk

    def _inprogress(self, chunk_name: str) -> int:
        cur = self.committed.get(chunk_name, -1)
        return 1 - cur if cur >= 0 else 0

    def stage(self, chunk: Chunk, extents: Optional[List[Tuple[int, int]]] = None) -> int:
        """Write the chunk's current payload into the in-progress
        remote version (data plane of one RDMA put).

        With *extents* (page-granular mode) the definitive run list is
        re-read from the chunk's remote stale map at stage time: writes
        that raced the fabric transfer must land too, or the staged
        version would not match the DRAM state its checksum records.
        """
        if extents is not None:
            _validate_extents(chunk, extents)
        self.ensure_chunk(chunk)
        v = self._inprogress(chunk.name)
        region = self.dst_ctx.nvmm.region(self.pid, self._region_name(chunk.name, v))
        if extents is None:
            if chunk.phantom:
                region.write_phantom(0, chunk.nbytes)
            else:
                assert chunk.dram is not None
                region.write(0, chunk.dram)
            moved = chunk.nbytes
            chunk.mark_extents_copied("remote", None, slot=v)
            self.last_staged_runs = None
        else:
            runs = chunk.copy_extents("remote", slot=v)
            moved = 0
            for off, n in runs:
                if chunk.phantom:
                    region.write_phantom(off, n)
                else:
                    assert chunk.dram is not None
                    region.write(off, chunk.dram[off : off + n])
                moved += n
            chunk.mark_extents_copied("remote", runs, slot=v)
            self.last_staged_runs = runs
        chunk.bytes_copied_remote += moved
        self._staged[chunk.name] = v
        self._staged_crc[chunk.name] = (
            None if chunk.phantom else chunk.payload_checksum()
        )
        return moved

    def commit(
        self,
        chunks: Iterable[Chunk] = (),
        *,
        on_commit: Optional[Callable[[Chunk], None]] = None,
    ) -> float:
        """Commit everything staged since the last commit (whatever
        *chunks* names): flush the buddy store, flip the committed
        pointers, persist them.  Returns the cost of the barriers it
        bundles, for the caller to charge."""
        cost = self.dst_ctx.nvmm.cache_flush()
        if ARMED:
            fire("remote.commit.before_flip", target=self, pid=self.src_pid)
        for name, v in self._staged.items():
            self.committed[name] = v
            self.checksums[name] = self._staged_crc.get(name)
        self._staged.clear()
        self._staged_crc.clear()
        if self.block_store is not None:
            # the digest index commits with the versions it describes:
            # after the pointer flip, before the metadata flush
            self.block_store.commit()
        if ARMED:
            fire("remote.commit.before_meta", target=self, pid=self.src_pid)
        self.dst_ctx.nvmm.store.put_meta(
            f"remote/proc:{self.src_pid}",
            {
                "committed": dict(self.committed),
                "sizes": dict(self.sizes),
                "checksums": dict(self.checksums),
            },
        )
        cost += self.dst_ctx.nvmm.cache_flush()
        if ARMED:
            fire(
                "remote.commit.done",
                target=self,
                pid=self.src_pid,
                store=self.dst_ctx.nvmm.store,
            )
        return cost

    def discard_staged(self) -> None:
        """The buddy rebooted (a soft failure): every copy staged since
        the last commit died with its unflushed writes.  Forget them, so
        no later commit flips a pointer onto a lost slot, and mark their
        chunks' remote maps stale so a re-send copies them whole."""
        for name in self._staged:
            chunk = self._mapped.get(name)
            if chunk is not None:
                chunk.mark_all_stale("remote")
        self._staged.clear()
        self._staged_crc.clear()
        if self.block_store is not None:
            self.block_store.abort()

    # -- restart fetch ----------------------------------------------------------

    def committed_chunks(self) -> List[str]:
        return sorted(n for n, v in self.committed.items() if v >= 0)

    def fetch(self, chunk_name: str, offset: int = 0, nbytes: Optional[int] = None):
        """The committed remote payload of *chunk_name* (numpy uint8,
        zeros for phantom regions).  *offset*/*nbytes* select a byte
        range for extent-granular restart fetches (default: all)."""
        v = self.committed.get(chunk_name, -1)
        if v < 0:
            raise CheckpointError(
                f"no committed remote version of chunk {chunk_name!r} for {self.src_pid!r}"
            )
        region = self.dst_ctx.nvmm.region(self.pid, self._region_name(chunk_name, v))
        if nbytes is None:
            nbytes = region.nbytes - offset
        return region.read(offset, nbytes)

    @classmethod
    def reattach(cls, src_pid: str, dst_ctx: NodeContext) -> "RemoteTarget":
        """Rebuild a target from the buddy's persisted metadata (used
        when the *source* node died and restart must fetch)."""
        target = cls(src_pid, dst_ctx)
        meta = dst_ctx.nvmm.store.get_meta(f"remote/proc:{src_pid}", None)
        if meta is None:
            raise CheckpointError(f"buddy holds no remote checkpoint for {src_pid!r}")
        target.committed = {k: int(v) for k, v in meta["committed"].items()}
        target.sizes = {k: int(v) for k, v in meta["sizes"].items()}
        target.checksums = {
            k: (None if v is None else int(v))
            for k, v in meta.get("checksums", {}).items()
        }
        dst_ctx.nvmm.load_process(target.pid)
        return target


def buddy_get(
    fabric: Fabric,
    target: RemoteTarget,
    buddy_id: int,
    node_id: int,
    nbytes: int,
    *,
    tag: str,
    transport=None,
):
    """Generator (``yield from`` it): node *node_id* reads *nbytes* of
    *target*'s copies back from buddy *buddy_id* — the restart fetch —
    through *transport* (a retrying
    :class:`~repro.resilience.retry.ResilientTransport`) when one is
    attached, one-shot :func:`~repro.net.rdma.rdma_get` otherwise."""
    route = dict(tag=tag, src_nvm_bus=target.dst_ctx.nvm_bus)
    if transport is None:
        yield rdma_get(fabric, buddy_id, node_id, nbytes, **route)
    else:
        yield from transport.get(fabric, buddy_id, node_id, nbytes, **route)


def _drop_remote_map(chunk: Chunk) -> None:
    chunk.drop_stale_map("remote")


class RemoteHelper:
    """The per-node asynchronous remote-checkpoint process."""

    def __init__(
        self,
        node_id: int,
        ctx: NodeContext,
        fabric: Fabric,
        buddy_id: int,
        buddy_ctx: NodeContext,
        ranks: List[NVAllocator],
        config: Optional[CheckpointConfig] = None,
        *,
        compression=None,
        resilience=None,
    ) -> None:
        self.node_id = node_id
        self.ctx = ctx
        self.fabric = fabric
        self.buddy_id = buddy_id
        self.buddy_ctx = buddy_ctx
        self.ranks = ranks
        self.config = config or CheckpointConfig()
        #: optional ResilientTransport: sends go through retry/backoff
        #: instead of one-shot RDMA (duck-typed to avoid an import
        #: cycle with repro.resilience)
        self.resilience = resilience
        self.owner = f"n{node_id}:helper"
        #: the copy step of this node's remote stream, shared by the
        #: stream, the round and re-sync.  *compression* (an
        #: optional CompressionModel: payloads are compressed before
        #: crossing the fabric, mcrengine-style volume/CPU trade) is its
        #: wire stage; combining it with a payload codec is a ConfigError
        self.copier = CopyStep(
            ctx,
            self.config.precopy,
            actor=self.owner,
            stream="remote",
            compression=compression,
        )
        if not self.copier.incremental:
            # whole-chunk remote copies never read page extents: the
            # ranks' chunks, present and future, keep no remote map
            for alloc in ranks:
                alloc.for_each_chunk(_drop_remote_map)
        #: payload codec on the fabric path (None on the raw default)
        self.codec = self.copier.codec
        #: rank pid -> its buddy-side Destination on the current buddy.
        #: :meth:`retarget` is the only code that swaps it
        self.targets: Dict[str, RemoteTarget] = {}
        self._point_at(buddy_ctx)
        self.history: List[RemoteCheckpointStats] = []
        self._stop = False
        self._paused = False
        #: pairing generation: bumped by :meth:`retarget` so in-flight
        #: re-sync tasks for the old buddy can detect they are stale
        self.epoch = 0
        #: coalescing stream queue: (pid, chunk_id) -> Chunk, FIFO
        self._queue: Dict[Tuple[str, int], Chunk] = {}
        self._wake: Optional[Wake] = None
        # -- replication bookkeeping (what survives a failure) --
        #: (pid, chunk_id) -> commit generation; bumped every time a
        #: local commit (re-)queues the chunk, so the buddy's copy is
        #: provably current iff its recorded generation matches.
        self._dirty_epoch: Dict[Tuple[str, int], int] = {}
        #: (pid, chunk_id) -> generation the current buddy durably holds
        #: (committed); :meth:`retarget` clears it
        self._replicated: Dict[Tuple[str, int], int] = {}
        #: (pid, chunk_id) -> generation staged on the current buddy and
        #: not yet committed there; :meth:`commit_target` moves it into
        #: ``_replicated``, a reboot of the buddy drops it
        self._pending: Dict[Tuple[str, int], int] = {}

    # ------------------------------------------------------------------
    # Stream queue (fed by local checkpoint commits).
    # ------------------------------------------------------------------

    @property
    def stream_window(self) -> float:
        """How long before each round the stream is active.

        The §IV delayed pre-copy for the remote stream: streaming is
        *delayed* within the remote interval so that only the last
        committed wave is sent (intermediate commits coalesce away in
        the queue, keeping total volume near one checkpoint per round).
        The window is one local-checkpoint interval — the period of the
        final wave — capped by the remote interval itself."""
        return min(self.config.remote_interval * 0.9, self.config.local_interval)

    @property
    def pace_rate(self) -> float:
        """Target stream rate: one node checkpoint (+headroom) spread
        across the stream window, which is what flattens the Fig.-10
        profile relative to the no-pre-copy burst."""
        node_bytes = sum(a.checkpoint_bytes for a in self.ranks)
        if node_bytes <= 0 or self.stream_window <= 0:
            return float("inf")
        return PACE_FACTOR * node_bytes / self.stream_window

    def notify_local_checkpoint(self, pid: str) -> None:
        """A rank's local checkpoint committed: bump the commit
        generation of every chunk whose committed version changed since
        it was last sent to the buddy (the nvdirty query) and, with the
        remote pre-copy stream on, queue it.  Re-commits of a queued
        chunk coalesce.  The generation moves without the stream too:
        rounds re-send every chunk, but a failure's dirty-state reset
        asks :meth:`holds_current` what the buddy lacks."""
        stream = self.config.remote_precopy
        for alloc in self.ranks:
            if alloc.pid != pid:
                continue
            for chunk in alloc.persistent_chunks():
                if chunk.dirty_remote and chunk.committed_version >= 0:
                    key = (pid, chunk.chunk_id)
                    if stream:
                        self._queue.setdefault(key, chunk)
                    # a fresh commit changed the content to send, even
                    # if the chunk was already queued (coalesced)
                    self._dirty_epoch[key] = self._dirty_epoch.get(key, 0) + 1
            break
        if stream:
            self._kick()

    def enqueue_unreplicated(self) -> None:
        """Queue the committed chunks the *current* buddy does not hold
        at their latest commit generation: all of them on a new buddy,
        those committed since the buddy last committed them otherwise."""
        for alloc in self.ranks:
            for chunk in alloc.persistent_chunks():
                if chunk.committed_version < 0:
                    continue
                if self.holds_current(alloc.pid, chunk):
                    continue
                chunk.dirty_remote = True
                chunk.mark_all_stale("remote")
                self._queue.setdefault((alloc.pid, chunk.chunk_id), chunk)
        self._kick()

    def mark_staged(self, pid: str, chunk: Chunk) -> None:
        """Note that the current buddy just staged this chunk at its
        current commit generation (call right after a successful
        stage).  It counts as held once :meth:`commit_target` commits
        it: a staged copy dies with the buddy's unflushed writes."""
        key = (pid, chunk.chunk_id)
        self._pending[key] = self._dirty_epoch.get(key, 0)

    def commit_target(self, pid: str) -> float:
        """Commit *pid*'s target on the current buddy and count what it
        staged as held.  Returns the commit's cost, for the caller to
        charge."""
        cost = self.targets[pid].commit()
        for key in [k for k in self._pending if k[0] == pid]:
            self._replicated[key] = self._pending.pop(key)
        return cost

    def drop_uncommitted(self, buddy_id: int) -> None:
        """Node *buddy_id* rebooted: if it is the current buddy, discard
        what this helper staged on it since its last commit."""
        if buddy_id != self.buddy_id:
            return
        self._pending.clear()
        for target in self.targets.values():
            target.discard_staged()

    def holds_current(self, pid: str, chunk: Chunk) -> bool:
        """Does the current buddy provably hold this chunk, committed,
        at its latest commit generation?  After any failure, the chunks
        it does hold stay clean."""
        key = (pid, chunk.chunk_id)
        return self._replicated.get(key) == self._dirty_epoch.get(key, 0)

    def _kick(self) -> None:
        # a kick of a sleep that already ended queues nothing
        if self._wake is not None:
            self._wake.kick()

    def _pop(self) -> Optional[Tuple[str, Chunk]]:
        """Next queued chunk (FIFO), skipping entries that went clean."""
        while self._queue:
            key, chunk = next(iter(self._queue.items()))
            del self._queue[key]
            if chunk.dirty_remote:
                return key[0], chunk
        return None

    @property
    def queued_bytes(self) -> int:
        return sum(c.nbytes for c in self._queue.values() if c.dirty_remote)

    # ------------------------------------------------------------------
    # Transfers.
    # ------------------------------------------------------------------

    def _charge_cpu(self, nbytes: int, streamed: bool) -> None:
        cost = nbytes * HELPER_CPU_PER_BYTE + PER_CHUNK_CPU
        if streamed:
            cost += nbytes * TRACKING_CPU_PER_BYTE
        self.ctx.cpu.charge(self.owner, cost)

    def put(self, plan: CopyPlan, tag: str):
        """The one fabric transport: move *plan*'s bytes to the current
        buddy, through the resilient transport when one is attached
        (plain one-shot RDMA otherwise).  Compressed sends ride the same
        retry/backoff path as raw ones — the wire bytes cross
        the fabric while the full payload lands on the buddy's NVM bus
        — so a link flap retries instead of hard-failing the caller."""
        if plan.sender_cpu or plan.receiver_cpu:
            self.ctx.cpu.charge(self.owner, plan.sender_cpu)
            self.buddy_ctx.cpu.charge(f"{self.owner}:rx", plan.receiver_cpu)
        route = dict(
            tag=tag, dst_nvm_bus=self.buddy_ctx.nvm_bus, dst_nvm_bytes=plan.nvm_bytes
        )
        if self.resilience is None:
            yield rdma_put(
                self.fabric, self.node_id, self.buddy_id, plan.fabric_bytes, **route
            )
        else:
            yield from self.resilience.put(
                self.fabric, self.node_id, self.buddy_id, plan.fabric_bytes, **route
            )

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def pause_rounds(self) -> None:
        """Suspend streaming and coordinated rounds (degraded mode, or
        a re-sync owning the queue).  Local checkpoints keep committing;
        their chunks keep queueing for whoever drains next."""
        self._paused = True
        self._kick()

    def resume_rounds(self) -> None:
        self._paused = False
        self._kick()

    def _point_at(self, buddy_ctx: NodeContext) -> None:
        """Fresh (empty) buddy-side targets for this node's ranks on
        *buddy_ctx*; with a codec, each starts an empty digest index."""
        self.targets = {a.pid: RemoteTarget(a.pid, buddy_ctx) for a in self.ranks}
        if self.codec is not None:
            for target in self.targets.values():
                target.ensure_block_store()

    def retarget(
        self,
        new_buddy_id: int,
        new_buddy_ctx: NodeContext,
        *,
        reason: str = "buddy replaced",
    ) -> None:
        """Re-point this helper at a new buddy node — the one place a
        helper's pairing changes.

        A re-pair follows a failure: the new buddy holds none of this
        node's copies, so every claim about what the buddy holds is
        void, every committed chunk is re-queued, and a
        :class:`~repro.resilience.resync.ResyncTask` (or the next
        rounds) rebuilds protection from scratch."""
        old_buddy = self.buddy_id
        self._replicated.clear()
        self._pending.clear()
        self.epoch += 1
        self.buddy_id = new_buddy_id
        self.buddy_ctx = new_buddy_ctx
        self._point_at(new_buddy_ctx)
        if BUS.active:
            BUS.emit(
                FailoverEvent(
                    t=self.ctx.engine.now,
                    actor=self.owner,
                    from_target=f"n{old_buddy}",
                    to_target=f"n{new_buddy_id}",
                    reason=reason,
                )
            )
        self.enqueue_unreplicated()

    def stop(self) -> None:
        self._stop = True
        self._kick()

    def run(self):
        """Generator process: stream between rounds, then drain+commit
        at each remote interval, until :meth:`stop`.

        The first interval is the **learning phase** (§IV): the helper
        has not yet observed a checkpoint round, so the stream stays
        idle and the first round moves everything at once — the early
        usage spike visible in Fig. 10."""
        engine = self.ctx.engine
        interval = self.config.remote_interval
        while not self._stop:
            # rounds anchor to absolute multiples of the interval so a
            # long round does not drift the schedule into the local
            # checkpoint rhythm
            deadline = (int(engine.now / interval + 1e-9) + 1) * interval
            if self._paused:
                # degraded / re-syncing: sleep out the interval; queued
                # chunks wait for the re-sync or the next healthy round
                if deadline > engine.now:
                    yield engine.timeout(deadline - engine.now)
                continue
            if self.config.remote_precopy and self.history:
                yield from self._stream_until(deadline)
            elif deadline > engine.now:
                yield engine.timeout(deadline - engine.now)
            if self._stop:
                break
            if self._paused:
                continue
            yield from self.remote_checkpoint()
        return self.history

    # ------------------------------------------------------------------
    # The continuous stream (remote pre-copy).
    # ------------------------------------------------------------------

    def _stream_until(self, deadline: float):
        engine = self.ctx.engine
        # delayed start: idle through the intermediate local intervals
        # (their commits coalesce in the queue), stream the final wave
        start = deadline - self.stream_window
        if engine.now < start:
            yield engine.timeout(start - engine.now)
        while not self._stop and not self._paused and engine.now < deadline - 1e-9:
            item = self._pop()
            if item is None:
                self._wake = engine.wake(deadline - engine.now)
                yield self._wake
                self._wake = None
                continue
            pid, chunk = item
            t0 = engine.now
            plan = self.copier.plan(chunk, self.targets[pid])
            self._charge_cpu(plan.nbytes, streamed=True)
            if ARMED:
                fire("remote.stream.before_send", chunk=chunk, pid=pid)
            epoch = self.epoch
            try:
                yield from self.put(plan, f"{pid}:rprecopy")
            except (TransferCancelled, TransferFailed):
                # failure tore the flow down (or retries ran out);
                # requeue so the chunk is retried or swept up later
                self._queue.setdefault((pid, chunk.chunk_id), chunk)
                continue
            if self.epoch != epoch:
                # re-paired mid-send: the bytes went to the old buddy,
                # and the retarget re-queued what the new one lacks
                continue
            self.copier.land(plan, start=t0, phase="precopy")
            self.mark_staged(pid, chunk)
            if ARMED:
                fire(
                    "remote.stream.after_stage",
                    chunk=chunk,
                    pid=pid,
                    target=self.targets[pid],
                )
            chunk.dirty_remote = False
            # pacing: never run faster than pace_rate on average
            target_duration = plan.nbytes / self.pace_rate
            elapsed = engine.now - t0
            if elapsed < target_duration and engine.now < deadline:
                yield engine.timeout(min(target_duration - elapsed, deadline - engine.now))

    # ------------------------------------------------------------------
    # One coordinated remote round.
    # ------------------------------------------------------------------

    def _chunks_for_round(self, alloc: NVAllocator) -> List[Chunk]:
        chunks = alloc.persistent_chunks()
        if self.config.remote_precopy:
            # only what is committed locally but not yet streamed: the
            # helper reads NVM versions, so chunks dirtied by *not yet
            # locally committed* writes have nothing new to send
            return [
                c
                for c in chunks
                if (alloc.pid, c.chunk_id) in self._queue and c.dirty_remote
            ]
        return list(chunks)

    def remote_checkpoint(self):
        """Move every rank's remaining dirty chunks to the buddy and
        commit.  Returns :class:`RemoteCheckpointStats`."""
        engine = self.ctx.engine
        stats = RemoteCheckpointStats(start=engine.now)
        try:
            if ARMED:
                fire("remote.round.begin", node=self.node_id)
            for alloc in self.ranks:
                target = self.targets[alloc.pid]
                chunks = self._chunks_for_round(alloc)
                aborted = False
                for chunk in chunks:
                    plan = self.copier.plan(chunk, target)
                    self._charge_cpu(plan.nbytes, streamed=False)
                    if ARMED:
                        fire("remote.round.before_send", chunk=chunk, pid=alloc.pid)
                    t0 = engine.now
                    epoch = self.epoch
                    try:
                        yield from self.put(plan, f"{alloc.pid}:rckpt")
                    except (TransferCancelled, TransferFailed):
                        # a failure interrupted the round (or retries
                        # ran out): abandon it; the previous committed
                        # remote version stands
                        aborted = True
                        break
                    if self.epoch != epoch:
                        # re-paired mid-send: this round was the old
                        # buddy's; the new pairing starts its own
                        aborted = True
                        break
                    self.copier.land(plan, start=t0, phase="coordinated")
                    self.mark_staged(alloc.pid, chunk)
                    if ARMED:
                        fire(
                            "remote.round.after_stage",
                            chunk=chunk,
                            pid=alloc.pid,
                            target=target,
                        )
                    chunk.dirty_remote = False
                    self._queue.pop((alloc.pid, chunk.chunk_id), None)
                if aborted:
                    break
                flush_cost = self.commit_target(alloc.pid)
                yield engine.timeout(flush_cost)
        finally:
            emit_phase(self.owner, tl.REMOTE_CKPT, stats.start, engine.now)
        stats.end = engine.now
        self.history.append(stats)
        return stats

    # ------------------------------------------------------------------
    # Accounting.
    # ------------------------------------------------------------------

    def helper_utilization(self, elapsed: float) -> float:
        """Fraction of the dedicated helper core used (Table V)."""
        if elapsed <= 0:
            return 0.0
        return self.ctx.cpu.busy_time(self.owner) / elapsed
