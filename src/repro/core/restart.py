"""Restart/recovery (§V restart component).

Two paths, matching the failure model of §III:

* **local restart** (soft failure — process/OS crash, node survives):
  rebuild the process from its node-local NVM metadata, verify each
  committed chunk's checksum, and load the data back into fresh DRAM
  working copies.  Chunks that fail verification (or never committed
  locally) are fetched from the buddy's remote copy.
* **remote restart** (hard failure — node unusable, local NVM
  inaccessible): rebuild the whole process on a replacement node
  entirely from the buddy's committed remote versions via RDMA reads.

Timing: NVM reads are near-DRAM speed (Table I) but still flow through
the node's NVM bus; remote fetches ride the fabric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .._numpy import np
from ..alloc.nvmalloc import NVAllocator
from ..errors import (
    AllReplicasLost,
    ChecksumMismatch,
    NoCheckpointAvailable,
    TransferFailed,
)
from ..faults.crashpoints import ARMED, fire
from ..metrics import timeline as tl
from ..metrics.trace import emit_phase
from ..net.interconnect import Fabric
from .codec import BlockStore, block_digests
from .context import NodeContext
from .remote import RemoteTarget, buddy_get

__all__ = ["RestartManager", "RestartReport"]


@dataclass
class RestartReport:
    """What one restart did."""

    pid: str
    start: float = 0.0
    end: float = 0.0
    chunks_local: int = 0
    #: of chunks_local, how many stayed NVM-resident (lazy restart)
    chunks_lazy: int = 0
    chunks_remote: int = 0
    bytes_local: int = 0
    bytes_remote: int = 0
    #: bytes read for checksum verification of local committed
    #: versions (both eager and lazy paths pay this read)
    bytes_verified: int = 0
    #: content blocks checked against a codec block store's digest map
    #: (0 when no store was provided — the raw path)
    blocks_verified: int = 0
    #: of blocks_verified, how many did not match (each one also lands
    #: the chunk in corrupted_chunks or aborts the fetch)
    digest_failures: int = 0
    corrupted_chunks: List[str] = field(default_factory=list)
    allocator: Optional[NVAllocator] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class RestartManager:
    """Rebuilds processes after failures."""

    def __init__(
        self,
        ctx: NodeContext,
        *,
        fabric: Optional[Fabric] = None,
        node_id: Optional[int] = None,
        resilience=None,
    ) -> None:
        self.ctx = ctx
        self.fabric = fabric
        self.node_id = node_id
        #: optional ResilientTransport: remote fetches retry/back off
        #: instead of failing on the first cancelled flow
        self.resilience = resilience

    def _check_digests(
        self,
        store: Optional[BlockStore],
        name: str,
        slot: int,
        data,
        report: RestartReport,
    ) -> bool:
        """Decode-on-read verification: compare the blake2b block
        digests of *data* (a chunk's bytes from offset 0) against the
        store's committed digest map for ``(name, slot)``.  Blocks the
        map never recorded (digest 0) are skipped; absent maps verify
        trivially."""
        if store is None or slot < 0:
            return True
        expect = store.slot_digests(name, slot)
        if expect is None:
            return True
        got = block_digests(data, store.block)
        hi = min(len(expect), len(got))
        if hi <= 0:
            return True
        exp = expect[:hi]
        got = got[:hi]
        known = exp != 0
        report.blocks_verified += int(known.sum())
        failed = int((got[known] != exp[known]).sum())
        report.digest_failures += failed
        return failed == 0

    # ------------------------------------------------------------------
    # Soft failure: restart from local NVM, remote as fallback.
    # ------------------------------------------------------------------

    def restart_process(
        self,
        pid: str,
        *,
        remote_target: Optional[RemoteTarget] = None,
        remote_node: Optional[int] = None,
        clock=None,
        lazy: bool = False,
        block_store: Optional[BlockStore] = None,
    ):
        """Generator process: local restart of *pid*.

        Chunks whose committed local version verifies are read back
        from node NVM; the rest fall back to the buddy (requires
        ``remote_target`` + ``remote_node`` + a fabric).  Returns a
        :class:`RestartReport` with the rebuilt allocator attached.

        With *block_store* (a checkpoint made through the payload codec
        layer), the store's staged state is first discarded and its
        refcount index rebuilt from the durable slot maps, then every
        real chunk's committed bytes are additionally verified against
        the committed digest map — a digest mismatch falls back to the
        buddy exactly like a checksum mismatch.

        With ``lazy=True`` (the §IV shadow-buffer read path / §VIII
        recovery optimization), verified chunks are *not* copied back:
        they stay NVM-resident, the application reads them in place at
        near-DRAM speed, and each chunk migrates to DRAM on its first
        write.  Restart time then covers only verification, and the
        copy cost is spread over the first compute interval.
        """
        engine = self.ctx.engine
        report = RestartReport(pid=pid, start=engine.now)
        try:
            alloc = NVAllocator.restart(
                pid,
                self.ctx.nvmm,
                self.ctx.dram,
                clock=clock or (lambda: engine.now),
                load_data=False,
            )
            if ARMED:
                fire(
                    "restart.begin",
                    pid=pid,
                    allocator=alloc,
                    store=self.ctx.nvmm.store,
                )
            if block_store is not None:
                # a crash may have left a torn index (codec.store.
                # commit.mid): the slot maps are the durable truth
                block_store.rebuild()
            for chunk in alloc.persistent_chunks():
                ok = chunk.committed_version >= 0 and chunk.verify_checksum()
                if ok and block_store is not None and not chunk.phantom:
                    ok = self._check_digests(
                        block_store,
                        chunk.name,
                        chunk.committed_version,
                        chunk.committed_region().read(0, chunk.nbytes),
                        report,
                    )
                if ok:
                    # the checksum verification reads the committed
                    # version once on either path; NVM reads run ~4x
                    # the write rate (Table I), charged on the bus
                    yield self.ctx.nvm_bus.transfer(
                        chunk.nbytes / 4, tag=f"{pid}:restart-verify"
                    )
                    report.bytes_verified += chunk.nbytes
                    if lazy:
                        chunk.restore_lazy()
                        # NVM-resident too: protected, so the first
                        # write faults and migrates the data to DRAM
                        chunk.protected = True
                        report.chunks_lazy += 1
                    else:
                        yield self.ctx.nvm_bus.transfer(
                            chunk.nbytes, tag=f"{pid}:restart"
                        )
                        chunk.restore_from_committed()
                        # DRAM now equals the committed version: clean
                        # for the local stream, protected so the next
                        # write faults; the remote copy may be stale,
                        # so leave the remote bit dirty
                        chunk.mark_clean("local")
                        chunk.protected = True
                        report.bytes_local += chunk.nbytes
                    report.chunks_local += 1
                    if ARMED:
                        fire("restart.chunk.verified", chunk=chunk, pid=pid)
                    continue
                if chunk.committed_version >= 0:
                    report.corrupted_chunks.append(chunk.name)
                yield from self._fetch_remote(chunk, pid, remote_target, remote_node, report)
            report.allocator = alloc
            if ARMED:
                fire("restart.done", pid=pid, allocator=alloc)
        finally:
            emit_phase(pid, tl.RESTART, report.start, engine.now)
        report.end = engine.now
        return report

    def _fetch_remote(self, chunk, pid, remote_target, remote_node, report):
        if remote_target is None or self.fabric is None or remote_node is None or self.node_id is None:
            raise AllReplicasLost(
                f"chunk {chunk.name!r} of {pid!r} has no usable local version and "
                "no remote target was provided",
                pid=pid,
                chunk=chunk.name,
                tried=("local",),
            )
        if chunk.name not in remote_target.committed or remote_target.committed[chunk.name] < 0:
            raise AllReplicasLost(
                f"chunk {chunk.name!r} of {pid!r} is not committed on the buddy either",
                pid=pid,
                chunk=chunk.name,
                tried=("local", "buddy"),
            )
        if ARMED:
            fire("restart.fetch_remote", chunk=chunk, pid=pid)
        if not chunk.phantom and (chunk.dram is None or len(chunk.dram) != chunk.nbytes):
            chunk.dram = np.zeros(chunk.nbytes, dtype=np.uint8)
        n = chunk.nbytes
        try:
            yield from buddy_get(
                self.fabric, remote_target, remote_node, self.node_id, n,
                tag=f"{pid}:rfetch", transport=self.resilience,
            )
        except TransferFailed as exc:
            raise AllReplicasLost(
                f"chunk {chunk.name!r} of {pid!r}: local copy unusable and the "
                f"buddy fetch gave up after {exc.attempts} attempts",
                pid=pid,
                chunk=chunk.name,
                tried=("local", "buddy"),
            ) from exc
        payload = remote_target.fetch(chunk.name, 0, n)
        if not chunk.phantom:
            # decode-on-read: a codec-era buddy copy carries a digest
            # map; the fetched bytes must prove their identity before
            # they are trusted as recovery state
            if not self._check_digests(
                remote_target.block_store,
                chunk.name,
                remote_target.committed.get(chunk.name, -1),
                payload,
                report,
            ):
                raise ChecksumMismatch(
                    f"chunk {chunk.name!r} of {pid!r}: buddy fetch range "
                    f"[0, {n}) failed block-digest verification",
                    chunk_id=chunk.chunk_id,
                )
            chunk.dram[:n] = payload
        # the recovered data is not yet persisted locally: dirty it so
        # the next local checkpoint re-establishes the local copy
        chunk.dirty_local = True
        chunk.dirty_remote = False
        report.chunks_remote += 1
        report.bytes_remote += chunk.nbytes

    def restart_process_sync(self, pid: str, **kwargs) -> RestartReport:
        """Run :meth:`restart_process` on this context's own engine."""
        proc = self.ctx.engine.process(self.restart_process(pid, **kwargs), name=f"{pid}:restart")
        self.ctx.engine.run()
        return proc.value

    # ------------------------------------------------------------------
    # Hard failure: rebuild on a replacement node from the buddy only.
    # ------------------------------------------------------------------

    def restart_from_remote(
        self,
        pid: str,
        remote_target: RemoteTarget,
        remote_node: int,
        *,
        phantom: bool = False,
        clock=None,
    ):
        """Generator process: rebuild *pid* on this (replacement) node
        purely from the buddy's committed copies.  Returns a
        :class:`RestartReport`; every chunk counts as remote."""
        engine = self.ctx.engine
        report = RestartReport(pid=pid, start=engine.now)
        if self.fabric is None or self.node_id is None:
            raise NoCheckpointAvailable("remote restart requires a fabric and node id")
        try:
            names = remote_target.committed_chunks()
            if not names:
                raise AllReplicasLost(
                    f"buddy holds no committed chunks for {pid!r}",
                    pid=pid,
                    tried=("buddy",),
                )
            alloc = NVAllocator(
                pid,
                self.ctx.nvmm,
                self.ctx.dram,
                phantom=phantom,
                clock=clock or (lambda: engine.now),
            )
            if ARMED:
                fire(
                    "restart.begin",
                    pid=pid,
                    allocator=alloc,
                    store=self.ctx.nvmm.store,
                )
            for name in names:
                size = remote_target.sizes[name]
                chunk = alloc.nvalloc(name, size, pflag=True)
                if ARMED:
                    fire("restart.fetch_remote", chunk=chunk, pid=pid)
                try:
                    yield from buddy_get(
                        self.fabric, remote_target, remote_node, self.node_id, size,
                        tag=f"{pid}:rfetch", transport=self.resilience,
                    )
                except TransferFailed as exc:
                    raise AllReplicasLost(
                        f"chunk {name!r} of {pid!r}: node is dead and the buddy "
                        f"fetch gave up after {exc.attempts} attempts",
                        pid=pid,
                        chunk=name,
                        tried=("buddy",),
                    ) from exc
                payload = remote_target.fetch(name, 0, size)
                if not chunk.phantom:
                    chunk.write(0, payload)
                else:
                    chunk.touch(size, offset=0)
                report.chunks_remote += 1
                report.bytes_remote += size
            report.allocator = alloc
            if ARMED:
                fire("restart.done", pid=pid, allocator=alloc)
        finally:
            emit_phase(pid, tl.RESTART, report.start, engine.now)
        report.end = engine.now
        return report
