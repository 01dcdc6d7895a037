"""Checkpoint destination backends: where checkpoint bytes land.

A :class:`Destination` answers the mechanism half of the pipeline the
policies (:mod:`repro.core.policy`) schedule: how a chunk's payload
moves (``write``), how staged data becomes the recoverable version
(``stage`` / ``commit``), what ordering barriers cost (``flush``), how
committed payloads come back at restart (``read``), and how much room
is left (``capacity``).  One :class:`~repro.core.engine.CheckpointEngine`
drives any destination through the same walk/flush/commit sequence:

* :class:`NVMArenaDestination` — the paper's two-version NVM shadow
  arena (the default);
* :class:`PfsDestination` — the parallel-file-system baseline (shared
  global I/O resource, no shadow versions);
* :class:`~repro.core.remote.RemoteTarget` — the buddy node's remote
  arena (``name = "buddy"``, defined next to the helper that streams
  to it); local+remote multilevel checkpointing is the *composition*
  of two destinations, not a special-cased helper.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Tuple

from .._numpy import np
from ..alloc.chunk import Chunk, batch_commit
from ..alloc.nvmalloc import NVAllocator
from ..errors import CheckpointError
from .codec import DEFAULT_BLOCK, BlockStore, Payload
from .context import NodeContext

__all__ = [
    "Destination",
    "NVMArenaDestination",
    "PfsDestination",
]


def _validate_extents(chunk: Chunk, extents: List[Tuple[int, int]]) -> None:
    """Shared range-stage contract: every backend's :meth:`~Destination.stage`
    rejects out-of-range, overlapping or unsorted extents with the
    *same* error, so callers can switch destinations without
    re-learning edge behaviour."""
    prev_end = 0
    for off, n in extents:
        if n < 0 or off < 0 or off + n > chunk.nbytes:
            raise CheckpointError(
                f"extent [{off}, {off + n}) outside chunk "
                f"{chunk.name!r} ({chunk.nbytes} bytes)"
            )
        if off < prev_end:
            raise CheckpointError(
                f"overlapping or unsorted extent at offset {off} "
                f"in chunk {chunk.name!r}"
            )
        prev_end = off + n


class Destination:
    """Backend protocol for one checkpoint target.

    ``write`` returns a DES completion event (the data plane);
    ``stage``/``commit``/``persist_metadata`` are control-plane state
    flips (instantaneous — their cost is the ``flush`` barriers the
    engine charges around them).
    """

    #: short backend name, used in trace events and stats
    name: str = ""
    #: whether this backend keeps two shadow versions needing an
    #: explicit stage+commit flip (False for flat baselines)
    two_version: bool = True
    #: content-addressed digest index, attached when a payload codec is
    #: configured (``None`` on the raw path — zero overhead)
    block_store: Optional[BlockStore] = None

    def write(self, chunk: Chunk, nbytes: int, *, tag: str = ""):
        """The data plane: charge *nbytes* of *chunk* — the planned
        payload's wire bytes; what lands is staged in full through
        :meth:`stage` — on this backend's transport.  Returns the
        completion event to ``yield`` on."""
        raise NotImplementedError

    def ensure_block_store(self, block: int = DEFAULT_BLOCK) -> BlockStore:
        """Attach (idempotently) the content-addressed block store a
        payload codec plans against."""
        if self.block_store is None or self.block_store.block != block:
            self.block_store = BlockStore(block=block)
        return self.block_store

    def codec_slots(self, chunk: Chunk) -> Tuple[int, int]:
        """``(write_slot, delta_base_slot)`` for this backend's digest
        maps.  Flat single-version backends overwrite slot 0 and delta
        against the previous checkpoint's content in that same slot."""
        return (0, 0)

    def pending_extents(self, chunk: Chunk) -> List[Tuple[int, int]]:
        """The coalesced stale extents an incremental copy of *chunk*
        to this destination must move (for the version slot this
        backend writes next)."""
        return chunk.copy_extents("local")

    def stage(self, chunk: Chunk, extents: Optional[List[Tuple[int, int]]] = None) -> None:
        """Record the just-written payload as this chunk's in-progress
        version.  With *extents*, only those byte runs are staged
        (page-granular mode).  Flat single-version backends have no
        stage step; they only record the copy against the stale map."""
        if extents is not None:
            _validate_extents(chunk, extents)
            chunk.mark_extents_copied("local", extents)

    def staged_blocks(self, chunk: Chunk, payload: Payload) -> np.ndarray:
        """Indices of the content blocks the last :meth:`stage` of
        *chunk* wrote — the coverage the digest index must describe."""
        return payload.block_index

    def flush(self) -> float:
        """Issue a persistence barrier; returns its simulated cost."""
        return 0.0

    def commit(
        self,
        chunks: Iterable[Chunk],
        *,
        with_checksum: bool = True,
        on_commit: Optional[Callable[[Chunk], None]] = None,
    ) -> float:
        """Flip every staged chunk's committed pointer (no-op for
        single-version backends).  Returns the simulated cost of any
        barriers the backend *bundles into* its commit (0.0 for
        backends whose barriers the engine charges via :meth:`flush`)."""
        return 0.0

    def persist_metadata(self) -> None:
        """Write the recovery metadata (chunk table, committed map)."""

    def read(self, chunk_name: str) -> np.ndarray:
        """The committed payload of *chunk_name* (restart path)."""
        raise NotImplementedError

    def capacity(self) -> float:
        """Bytes still available at this destination (``inf`` when the
        backend does not model capacity)."""
        return float("inf")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class NVMArenaDestination(Destination):
    """The local NVM shadow arena: DRAM→NVM through the node's shared
    NVM bus, two-version commit, allocator metadata persistence."""

    name = "nvm"
    two_version = True

    def __init__(self, ctx: NodeContext, allocator: Optional[NVAllocator] = None) -> None:
        self.ctx = ctx
        #: only metadata persistence and restart reads need it; a bare
        #: pre-copy stream writes and stages without one
        self.allocator = allocator

    def write(self, chunk: Chunk, nbytes: int, *, tag: str = ""):
        # NodeContext.copy_to_nvm without its call: one per chunk copy
        return self.ctx.nvm_bus.transfer(nbytes, tag=tag)

    def codec_slots(self, chunk: Chunk) -> Tuple[int, int]:
        return (chunk.inprogress_index(), chunk.committed_version)

    def stage(self, chunk: Chunk, extents: Optional[List[Tuple[int, int]]] = None) -> None:
        if extents is not None:
            _validate_extents(chunk, extents)
        chunk.stage_to_nvm(extents)

    def flush(self) -> float:
        return self.ctx.nvmm.cache_flush()

    def commit(
        self,
        chunks: Iterable[Chunk],
        *,
        with_checksum: bool = True,
        on_commit: Optional[Callable[[Chunk], None]] = None,
    ) -> float:
        batch_commit(chunks, with_checksum=with_checksum, on_commit=on_commit)
        return 0.0

    def persist_metadata(self) -> None:
        self.allocator._persist_metadata()

    def read(self, chunk_name: str) -> np.ndarray:
        chunk = self.allocator.chunk(chunk_name)
        region = chunk.committed_region()
        return region.read(0, chunk.nbytes)

    def capacity(self) -> float:
        return float(self.ctx.nvm.free)


class PfsDestination(Destination):
    """The PFS baseline: every rank's coordinated step funnels through
    one globally shared I/O resource; no shadow versions on the node
    (the engine still runs its flush barriers — metadata and caches are
    persisted locally even when the data goes to the PFS)."""

    name = "pfs"
    two_version = False

    def __init__(self, pfs, rank: str, ctx: NodeContext, allocator: NVAllocator) -> None:
        self.pfs = pfs
        self.rank = rank
        self.ctx = ctx
        self.allocator = allocator

    def write(self, chunk: Chunk, nbytes: int, *, tag: str = ""):
        # the PFS resource's accounting keys off the rank tag, not the
        # engine's step tag
        return self.pfs.write(nbytes, tag=f"{self.rank}:pfsckpt")

    def flush(self) -> float:
        return self.ctx.nvmm.cache_flush()

    def persist_metadata(self) -> None:
        self.allocator._persist_metadata()

    def read(self, chunk_name: str) -> np.ndarray:
        raise CheckpointError(
            f"PFS baseline does not model restart reads (chunk {chunk_name!r})"
        )
