"""Chunks: the unit of allocation, dirt tracking, pre-copy and
checkpointing.

A chunk (§V) is one application data structure allocated through the
NVM interface.  It owns:

* a **DRAM working copy** the application computes on (real numpy
  buffer, or *phantom* — size-only — for cluster-scale simulations);
* **two NVM shadow versions** (committed / in-progress) so a crash
  mid-checkpoint always leaves a consistent version;
* **dirty bits** — one for the local checkpoint stream and one for the
  remote stream (§V: 'each chunk structure has two dirty bit flags');
* **stale page runs** per version slot for each stream that copies
  page extents (:class:`~repro.memory.page.StalePageMap`); every write
  and touch is range-checked before it marks them, and a stream that
  copies whole chunks keeps none (:meth:`Chunk.drop_stale_map`);
* chunk-level **write protection** state: after a pre-copy all pages
  are protected; the first write takes one fault, unprotects the whole
  chunk and marks it dirty (this is what makes chunk-granular tracking
  cheap relative to page-granular);
* a modification counter + last-touch time feeding the DCPCP
  prediction table;
* a **checksum** over each committed version (§V restart component;
  always on, so restart can tell a bit-rotted version from a good one).
"""

from __future__ import annotations

import itertools
import zlib
from enum import Enum
from typing import Any, Callable, Iterable, List, Optional

from .._numpy import np
from ..errors import CheckpointError
from ..faults.crashpoints import ARMED, fire
from ..memory.nvmm import NvmRegion
from ..memory.page import StalePageMap
from ..units import pages_of, usec

__all__ = ["FAULT_COST", "Chunk", "ChunkState", "batch_commit"]

#: compute time one protection fault costs the application (the paper
#: measures 6-12 usec per fault)
FAULT_COST = usec(9.0)


class ChunkState(Enum):
    """Lifecycle of the in-progress version during a checkpoint."""

    IDLE = "idle"
    PRECOPYING = "precopying"
    CHECKPOINTING = "checkpointing"


class Chunk:
    """One checkpointable data structure.

    Callers never construct chunks directly — use
    :class:`repro.alloc.nvmalloc.NVAllocator`.

    Slotted: every rank builds one per checkpoint variable and every
    copy and commit reads it.  CPython 3.11 shares instance-dict keys
    only up to 29 attributes; past that an instance dict takes 1,584
    bytes instead of 296, and construction 2.2x as long.  A new
    attribute needs a slot here.
    """

    __slots__ = (
        "chunk_id", "name", "nbytes", "persistent", "phantom", "dram",
        "versions", "committed_version", "checksums", "_clock",
        "dirty_local", "dirty_remote", "protected", "state_local",
        "state_remote", "fault_count", "mods_this_interval", "total_mods",
        "last_modified", "staged_pending", "bytes_copied_local",
        "bytes_copied_remote", "on_dirty", "on_clean",
        "page_granular_protection", "nvm_resident",
        "migration_bytes_pending", "on_migrate", "_stale", "_whole_streams",
        "incarnation", "_content", "content_novelty",
    )

    #: global monotonic incarnation source: a fresh value per chunk
    #: construction and per event that breaks the id->content mapping
    #: (restore, lazy-restart migration, resize), so caches keyed by
    #: ``(chunk_id, incarnation, ...)`` can never serve stale data
    #: across a free/realloc or restart.
    _incarnations = itertools.count()

    def __init__(
        self,
        chunk_id: int,
        name: str,
        nbytes: int,
        *,
        persistent: bool = True,
        phantom: bool = False,
        dram_buffer: Optional[np.ndarray] = None,
        nvm_versions: Optional[List[NvmRegion]] = None,
        clock: Callable[[], float] = lambda: 0.0,
    ) -> None:
        self.chunk_id = chunk_id
        self.name = name
        self.nbytes = nbytes
        self.persistent = persistent
        self.phantom = phantom
        #: DRAM working copy (flat uint8); None iff phantom.
        self.dram = dram_buffer
        #: NVM shadow regions: committed + in-progress (none if not persistent).
        self.versions: List[NvmRegion] = nvm_versions or []
        #: index of the last fully committed version, or -1 if none.
        self.committed_version = -1
        #: checksum of each version's committed payload (None until set).
        self.checksums: List[Optional[int]] = [None] * max(1, len(self.versions))
        self._clock = clock

        # -- dirt / protection state -------------------------------------
        self.dirty_local = True  # fresh chunks must enter the first ckpt
        self.dirty_remote = True
        self.protected = False
        #: per-stream copy state: the local stream (shadow buffering /
        #: local pre-copy) and the remote stream (helper) may operate
        #: on the same chunk concurrently — they read the same DRAM
        #: copy but write different destinations.
        self.state_local = ChunkState.IDLE
        self.state_remote = ChunkState.IDLE
        #: total protection faults taken against this chunk.
        self.fault_count = 0
        #: modifications in the current checkpoint interval.
        self.mods_this_interval = 0
        #: total modifications over the chunk's lifetime.
        self.total_mods = 1  # the initializing write
        self.last_modified = clock()
        #: staged into the in-progress NVM version but not yet
        #: committed (set by stage_to_nvm, cleared by commit) — the
        #: coordinated step commits every such chunk, including ones
        #: the pre-copy engine staged during the interval.
        self.staged_pending = False
        #: bytes copied to NVM on behalf of this chunk (incl. repeats).
        self.bytes_copied_local = 0
        self.bytes_copied_remote = 0
        #: observers called as fn(chunk, time) on every dirtying write.
        self.on_dirty: List[Callable[["Chunk", float], None]] = []
        #: observers called as fn(chunk, stream) whenever a stream's
        #: dirty bit is cleared (:meth:`mark_clean`).
        self.on_clean: List[Callable[["Chunk", str], None]] = []
        #: protection granularity: chunk-level (the paper's design —
        #: one fault unprotects the whole chunk) vs page-level (the
        #: strawman §IV argues against: every protected page written
        #: faults separately, '6-12 usec ... and 3 sec for 1 GB').
        self.page_granular_protection = False
        #: lazy-restart state (§IV shadow buffering read path: 'the
        #: application can directly access write protected NVM, and an
        #: attempt to modify the data would move the data back to
        #: DRAM').  While resident, reads serve from the committed NVM
        #: version; the first write migrates the payload to DRAM.
        self.nvm_resident = False
        #: bytes migrated NVM->DRAM since the last take (cost hook;
        #: :meth:`take_migration_bytes` reads and resets it).
        self.migration_bytes_pending = 0
        #: observers called as fn(chunk, nbytes) on each migration.
        self.on_migrate: List[Callable[["Chunk", int], None]] = []
        #: per-stream stale pages for page-granular incremental copy.
        #: One :class:`StalePageMap` per stream that copies page
        #: extents; the local map keeps one list of stale page runs per
        #: NVM shadow version slot (under double-buffering the
        #: in-progress slot was last refreshed two checkpoints ago, so
        #: "dirty since last checkpoint" is the wrong predicate) — a
        #: few integers per slot however large the chunk.  The remote
        #: map is created lazily when a buddy target first adopts the
        #: chunk.  A stream's owner drops its map when the stream copies
        #: whole chunks (:meth:`drop_stale_map`).
        self._stale = {"local": StalePageMap(nbytes, max(1, len(self.versions)))}
        #: streams whose owner dropped their stale map (:meth:`drop_stale_map`)
        self._whole_streams: frozenset = frozenset()
        #: content-identity generation (see ``_incarnations``).
        self.incarnation = next(Chunk._incarnations)
        #: optional :class:`repro.core.codec.ContentModel` — attached
        #: lazily by the codec layer for phantom chunks; ``None`` keeps
        #: the raw path's write barrier at a single attribute check.
        self._content = None
        # ``content_novelty`` stays unset until the application model
        # sets it from the chunk's write pattern; the codec reads it
        # with a default

    # ------------------------------------------------------------------
    # Application write barrier.
    # ------------------------------------------------------------------

    def write(self, offset: int, data: Any) -> int:
        """Application store into the DRAM working copy.

        This is the explicit stand-in for a hardware store: it applies
        the bytes, and performs the protection-fault bookkeeping the
        kernel would do (one fault per protected chunk, then the whole
        chunk is unprotected and marked dirty).
        Returns the number of *faults* taken (0 or 1) so callers can
        charge the fault cost.
        """
        payload = np.ascontiguousarray(np.asarray(data)).view(np.uint8).reshape(-1)
        if self.phantom:
            raise CheckpointError(f"chunk {self.name!r} is phantom; use touch()")
        self._check_range("write", offset, len(payload))
        if self.nvm_resident:
            self._migrate_to_dram()  # copy-on-write allocates DRAM
        if self.dram is None:
            raise CheckpointError(f"chunk {self.name!r} has no DRAM buffer")
        faults = self._dirtying_access(len(payload))
        self._mark_stale(offset, len(payload))
        self.dram[offset : offset + len(payload)] = payload
        return faults

    def touch(self, nbytes: Optional[int] = None, offset: int = 0) -> int:
        """Phantom-mode modification: account a write of *nbytes* at
        *offset* (default: the whole chunk) without a payload.  The
        range must lie inside the chunk, as for :meth:`write`."""
        n = nbytes if nbytes is not None else self.nbytes
        self._check_range("touch", offset, n)
        if self.nvm_resident:
            self._migrate_to_dram()
        self._mark_stale(offset, n)
        return self._dirtying_access(n)

    def _check_range(self, what: str, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.nbytes:
            raise CheckpointError(
                f"chunk {self.name!r}: {what} [{offset}, {offset + nbytes}) "
                f"outside {self.nbytes} bytes"
            )

    def _dirtying_access(self, nbytes: Optional[int] = None) -> int:
        faults = 0
        if self.protected:
            if self.page_granular_protection:
                # page-level protection: every written page faults
                faults = max(1, pages_of(nbytes if nbytes is not None else self.nbytes))
            else:
                # chunk-level protection: one fault unprotects everything
                faults = 1
            self.protected = False
            self.fault_count += faults
        now = self._clock()
        self.dirty_local = True
        self.dirty_remote = True
        self.mods_this_interval += 1
        self.total_mods += 1
        self.last_modified = now
        for fn in self.on_dirty:
            fn(self, now)
        return faults

    # ------------------------------------------------------------------
    # Reads.
    # ------------------------------------------------------------------

    def view(self, dtype: Any = "uint8", shape: Optional[tuple] = None) -> np.ndarray:
        """A *read-only* typed view of the working copy.  (All writes
        must flow through :meth:`write` so dirt tracking stays sound.)
        NVM-resident chunks return a read-only copy of the committed
        NVM contents."""
        if self.phantom:
            raise CheckpointError(f"chunk {self.name!r} is phantom; no data to view")
        if self.nvm_resident:
            v = self.committed_region().read(0, self.nbytes).view(dtype)
        else:
            if self.dram is None:
                raise CheckpointError(f"chunk {self.name!r} has no DRAM buffer")
            v = self.dram.view(dtype)
        if shape is not None:
            v = v.reshape(shape)
        v.flags.writeable = False
        return v

    # ------------------------------------------------------------------
    # Version management (used by the checkpoint runtime).
    # ------------------------------------------------------------------

    @property
    def n_versions(self) -> int:
        return len(self.versions)

    def inprogress_index(self) -> int:
        """The version slot the next checkpoint writes into."""
        return 1 - self.committed_version if self.committed_version >= 0 else 0

    def inprogress_region(self) -> NvmRegion:
        if not self.versions:
            raise CheckpointError(f"chunk {self.name!r} has no NVM shadow regions")
        return self.versions[self.inprogress_index()]

    def committed_region(self) -> NvmRegion:
        if self.committed_version < 0:
            raise CheckpointError(f"chunk {self.name!r} has no committed version")
        return self.versions[self.committed_version]

    # ------------------------------------------------------------------
    # Page-granular staleness tracking (incremental copy support).
    # ------------------------------------------------------------------

    def _mark_stale(self, offset: int, nbytes: int) -> None:
        """Record a range-checked DRAM write against every stream's
        stale maps."""
        if nbytes == 0:
            return
        for pmap in self._stale.values():
            pmap.mark(offset, nbytes)
        if self._content is not None:
            self._content.record_write(offset, nbytes)

    def _stale_map(self, stream: str) -> StalePageMap:
        try:
            return self._stale[stream]
        except KeyError:
            raise ValueError(f"chunk {self.name!r} has no {stream!r} stale map")

    def drop_stale_map(self, stream: str) -> None:
        """*stream* copies this chunk whole and never reads its page
        extents: drop the stream's stale map and build none later, so
        the write barrier marks no runs for it and a full copy clears
        none.  Reading the stream's extents afterwards raises."""
        self._stale.pop(stream, None)
        self._whole_streams = self._whole_streams | {stream}

    def ensure_remote_slots(self, n_slots: int) -> None:
        """Create/grow the remote-stream stale map (one run list per
        buddy version slot).  New slots start fully stale.  No-op once
        the remote stream's map was dropped."""
        if "remote" in self._whole_streams:
            return
        pmap = self._stale.get("remote")
        if pmap is None:
            self._stale["remote"] = StalePageMap(self.nbytes, n_slots)
        else:
            pmap.ensure_slots(n_slots)

    def mark_all_stale(self, stream: Optional[str] = None) -> None:
        """Force full re-copy on the next incremental pass (restart,
        failover, reallocation — whenever region contents are suspect)."""
        for name, pmap in self._stale.items():
            if stream is None or name == stream:
                pmap.mark_all()

    def resize_stale_maps(self, nbytes: int) -> None:
        """Reallocation hook: every slot of every stream goes fully
        stale at the new size (old region tails are garbage)."""
        for pmap in self._stale.values():
            pmap.resize(nbytes)
        # the old buffer's content identity is gone with its tail
        self.incarnation = next(Chunk._incarnations)
        self._content = None

    def copy_extents(
        self, stream: str = "local", slot: Optional[int] = None
    ) -> List[tuple]:
        """Coalesced ``(offset, nbytes)`` runs an incremental copy must
        move to bring *slot*'s region content up to the DRAM state.
        For the local stream the slot defaults to the in-progress
        version (the one the next checkpoint writes)."""
        pmap = self._stale_map(stream)
        if slot is None:
            slot = self.inprogress_index() if stream == "local" else 0
        pmap.ensure_slots(slot + 1)
        return pmap.extents(slot)

    def mark_extents_copied(
        self,
        stream: str,
        extents: Optional[List[tuple]],
        slot: Optional[int] = None,
    ) -> None:
        """Clear stale bits after a successful copy of *extents* into
        *slot* (``None`` extents = a full-chunk copy refreshed it all).
        Cleared only per-slot and only for the runs actually written,
        so writes racing the copy keep their bits.  A full copy on a
        stream without a map has nothing to clear."""
        if extents is None and stream in self._whole_streams:
            return
        pmap = self._stale_map(stream)
        if slot is None:
            slot = self.inprogress_index() if stream == "local" else 0
        pmap.ensure_slots(slot + 1)
        if extents is None:
            pmap.clear_all(slot)
        else:
            pmap.clear_extents(slot, extents)

    def stage_to_nvm(self, extents: Optional[List[tuple]] = None) -> int:
        """Copy the working copy into the in-progress NVM version (the
        actual data movement of shadow buffering).  Returns bytes moved.
        Timing is charged by the caller through the device bus.

        With *extents* (page-granular mode) only those byte runs are
        written; the slot's stale bits for exactly those runs clear
        only after every write succeeded, so a crash mid-stage leaves
        the bits set and the next attempt re-copies.
        """
        if self.nvm_resident:
            # an NVM-resident (lazily restored) chunk is clean by
            # definition; staging it means someone wants a fresh
            # version anyway — materialize the working copy first.
            # Migration marks everything stale, invalidating any extent
            # list computed beforehand — fall back to a full stage.
            self._migrate_to_dram()
            extents = None
        region = self.inprogress_region()
        slot = self.inprogress_index()
        if extents is None:
            # two half-writes with a crash point between them: a crash at
            # the midpoint leaves a *torn* in-progress version, which the
            # two-version protocol must never expose (the committed version
            # is untouched until the post-flush pointer flip)
            half = self.nbytes // 2
            if self.phantom:
                moved = region.write_phantom(0, half)
                if ARMED:
                    fire("chunk.stage.mid", chunk=self)
                moved += region.write_phantom(half, self.nbytes - half)
            else:
                assert self.dram is not None
                region.write(0, self.dram[:half])
                if ARMED:
                    fire("chunk.stage.mid", chunk=self)
                region.write(half, self.dram[half:])
                moved = self.nbytes
            if "local" not in self._whole_streams:
                self.mark_extents_copied("local", None, slot=slot)
        else:
            moved = self._stage_extents(region, extents)
            self.mark_extents_copied("local", extents, slot=slot)
        self.staged_pending = True
        self.bytes_copied_local += moved
        return moved

    def _stage_extents(self, region: NvmRegion, extents: List[tuple]) -> int:
        """Write *extents* into *region*, firing the torn-write crash
        point once at the cumulative byte midpoint (the extent
        straddling it splits into two writes, preserving the same
        crash semantics as the whole-chunk path)."""
        total = sum(n for _, n in extents)
        half = total // 2
        moved = 0
        done = 0
        fired = total == 0
        if not fired and half == 0:
            if ARMED:
                fire("chunk.stage.mid", chunk=self)
            fired = True
        for off, n in extents:
            pieces = [(off, n)]
            if not fired and done < half < done + n:
                cut = half - done
                pieces = [(off, cut), (off + cut, n - cut)]
            for p_off, p_n in pieces:
                if not fired and done == half:
                    if ARMED:
                        fire("chunk.stage.mid", chunk=self)
                    fired = True
                if self.phantom:
                    moved += region.write_phantom(p_off, p_n)
                else:
                    assert self.dram is not None
                    region.write(p_off, self.dram[p_off : p_off + p_n])
                    moved += p_n
                done += p_n
        if not fired:
            if ARMED:
                fire("chunk.stage.mid", chunk=self)
        return moved

    def payload_checksum(self) -> int:
        """CRC32 of the DRAM working copy, computed directly over the
        numpy view (the uint8 buffer satisfies the buffer protocol, so
        no intermediate ``tobytes`` copy is made)."""
        if self.phantom or self.dram is None:
            return 0  # phantom payloads are all-zero
        return zlib.crc32(self.dram)

    def verify_checksum(self) -> bool:
        """Restart-time integrity check of the committed version."""
        if self.committed_version < 0:
            return False
        stored = self.checksums[self.committed_version]
        if stored is None:
            return True  # the metadata record carries no checksum for this slot
        if self.phantom:
            return stored == 0
        data = np.ascontiguousarray(self.committed_region().read(0, self.nbytes))
        return zlib.crc32(data) == stored

    def restore_from_committed(self) -> int:
        """Load the committed NVM version back into the DRAM working
        copy (restart).  Returns bytes read."""
        region = self.committed_region()
        if not self.phantom:
            data = region.read(0, self.nbytes)
            if self.dram is None or len(self.dram) != self.nbytes:
                self.dram = np.zeros(self.nbytes, dtype=np.uint8)
            self.dram[:] = data
        self.nvm_resident = False
        # the DRAM copy was just replaced wholesale; every version
        # slot's incremental state is suspect until re-copied
        self.mark_all_stale()
        self.incarnation = next(Chunk._incarnations)
        return self.nbytes

    def restore_lazy(self) -> None:
        """Lazy restart: leave the data in NVM.  Reads serve from the
        committed version (write-protected NVM, near-DRAM read speed);
        the first write migrates the chunk back to DRAM (§IV)."""
        if self.committed_version < 0:
            raise CheckpointError(
                f"chunk {self.name!r} has no committed version to restore lazily"
            )
        self.nvm_resident = True
        self.protected = True
        self.mark_clean("local")

    def _migrate_to_dram(self) -> None:
        """Copy-on-write: move the committed payload back to DRAM."""
        if not self.phantom:
            data = self.committed_region().read(0, self.nbytes)
            if self.dram is None or len(self.dram) != self.nbytes:
                self.dram = np.zeros(self.nbytes, dtype=np.uint8)
            self.dram[:] = data
        self.nvm_resident = False
        self.mark_all_stale()
        self.incarnation = next(Chunk._incarnations)
        self.migration_bytes_pending += self.nbytes
        for fn in self.on_migrate:
            fn(self, self.nbytes)

    def take_migration_bytes(self) -> int:
        """Return and reset the NVM->DRAM migration byte count (the
        caller charges the copy time)."""
        out, self.migration_bytes_pending = self.migration_bytes_pending, 0
        return out

    # ------------------------------------------------------------------
    # Interval bookkeeping (driven by the checkpoint coordinator).
    # ------------------------------------------------------------------

    def get_state(self, stream: str) -> ChunkState:
        return self.state_local if stream == "local" else self.state_remote

    def set_state(self, stream: str, state: ChunkState) -> None:
        if stream == "local":
            self.state_local = state
        else:
            self.state_remote = state

    def begin_interval(self) -> None:
        """Reset per-interval counters at the start of a compute phase."""
        self.mods_this_interval = 0

    def mark_clean(self, stream: str = "local") -> None:
        """Clear *stream*'s dirty bit and tell the ``on_clean``
        observers — the counterpart of the write barrier's ``on_dirty``
        (the pre-copy engine's ready index drops the chunk on it)."""
        if stream == "local":
            self.dirty_local = False
        elif stream == "remote":
            self.dirty_remote = False
        else:
            raise ValueError(f"unknown stream {stream!r}")
        for fn in self.on_clean:
            fn(self, stream)

    def mark_precopied(self, stream: str = "local") -> None:
        """Record a completed pre-copy: the chunk is clean for *stream*
        and write-protected so the next write faults."""
        self.mark_clean(stream)
        self.protected = True


def batch_commit(
    chunks: Iterable["Chunk"],
    on_commit: Optional[Callable[["Chunk"], None]] = None,
) -> List["Chunk"]:
    """Commit every chunk in *chunks* with staged data, in one pass.

    This is the coordinated step's commit hot path: for large rank
    counts the per-chunk ``tobytes`` copy the naive loop paid per
    checksum dominated profile time, so checksums are computed directly
    over each chunk's numpy working-copy view (zero-copy buffer
    protocol) before any version pointer flips.  Phantom chunks short
    out to the constant all-zero checksum.  ``on_commit`` is invoked
    per committed chunk (the crash-point hook), after that chunk's
    flip.  Returns the chunks committed.
    """
    staged = [c for c in chunks if c.staged_pending]
    # checksum phase first: pure reads over the DRAM views, no metadata
    # mutated yet, so a crash here is indistinguishable from one before
    # the commit loop
    checksums = [c.payload_checksum() for c in staged]
    for chunk, checksum in zip(staged, checksums):
        idx = chunk.inprogress_index()
        chunk.checksums[idx] = checksum
        chunk.committed_version = idx
        chunk.staged_pending = False
        if on_commit is not None:
            on_commit(chunk)
    return staged
