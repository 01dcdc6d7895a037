"""The Table-III user allocation API: ``genid``, ``nvalloc``,
``nv2dalloc``, ``nvattach``, ``nvrealloc``, ``nvdelete``.

An :class:`NVAllocator` is bound to one process.  Every persistent
variable becomes a :class:`~repro.alloc.chunk.Chunk` with a DRAM
working copy (allocated through the jemalloc-style arena) and one or
two NVM shadow versions (allocated through the NVM kernel manager).
Per-process chunk metadata — ids, sizes, committed-version pointers,
checksums — lives in a dedicated metadata region of the persistent
store ("not directly accessible by the application", §V) and is what
restart rebuilds the process from.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Union

from .._numpy import np
from ..errors import AllocationError, DuplicateChunkId, UnknownChunkId
from ..memory.device import MemoryDevice
from ..memory.nvmm import NVMKernelManager, NvmRegion
from .arena import Allocation, Arena
from .chunk import Chunk

__all__ = ["genid", "NVAllocator"]

ChunkKey = Union[int, str]


#: name -> id memo of :func:`genid`: every rank of every cell declares
#: the same names (bounded: cleared when full)
_IDS: Dict[str, int] = {}
_IDS_MAX = 4096


def genid(varname: str) -> int:
    """Stable 48-bit id from a variable name (Table III ``genid``)."""
    cid = _IDS.get(varname)
    if cid is None:
        if len(_IDS) >= _IDS_MAX:
            _IDS.clear()
        digest = hashlib.blake2b(varname.encode(), digest_size=6).digest()
        cid = _IDS[varname] = int.from_bytes(digest, "little")
    return cid


class NVAllocator:
    """Per-process NVM allocation + chunk registry."""

    _META_PREFIX = "alloc/proc:"

    def __init__(
        self,
        pid: str,
        nvmm: NVMKernelManager,
        dram: MemoryDevice,
        *,
        phantom: bool = False,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.pid = pid
        self.nvmm = nvmm
        self.dram = dram
        self.phantom = phantom
        self.clock: Callable[[], float] = clock or (lambda: 0.0)
        self.arena = Arena(dram, owner=f"{pid}/heap")
        self._chunks: Dict[int, Chunk] = {}
        self._by_name: Dict[str, int] = {}
        self._allocations: Dict[int, Optional[Allocation]] = {}
        #: :meth:`persistent_chunks` in id order, until a chunk is
        #: registered or deleted (a coordinated step reads it twice)
        self._persistent: Optional[List[Chunk]] = None
        #: observers called as fn(chunk) when a chunk is allocated or
        #: rebuilt (a page-granular checkpoint engine protects it per
        #: page; a chunk-granular stream drops its stale map)
        self.on_register: List[Callable[[Chunk], None]] = []
        #: observers called as fn(chunk) after :meth:`nvdelete` dropped
        #: a chunk (the checkpoint engine unschedules it)
        self.on_delete: List[Callable[[Chunk], None]] = []

    # ------------------------------------------------------------------
    # Lookup.
    # ------------------------------------------------------------------

    def chunk(self, key: ChunkKey) -> Chunk:
        """Look up a chunk by name or id."""
        if isinstance(key, str):
            cid = self._by_name.get(key)
            if cid is None:
                raise UnknownChunkId(f"no chunk named {key!r} in process {self.pid!r}")
            return self._chunks[cid]
        chunk = self._chunks.get(key)
        if chunk is None:
            raise UnknownChunkId(f"no chunk with id {key} in process {self.pid!r}")
        return chunk

    def has_chunk(self, key: ChunkKey) -> bool:
        if isinstance(key, str):
            return key in self._by_name
        return key in self._chunks

    def chunks(self) -> List[Chunk]:
        """All chunks, ordered by id (deterministic iteration)."""
        return [self._chunks[cid] for cid in sorted(self._chunks)]

    def persistent_chunks(self) -> List[Chunk]:
        """The persistent chunks, ordered by id (a fresh list)."""
        if self._persistent is None:
            self._persistent = [c for c in self.chunks() if c.persistent]
        return list(self._persistent)

    def for_each_chunk(self, fn: Callable[[Chunk], None]) -> None:
        """Call *fn* on every chunk now and, through ``on_register``,
        on every chunk allocated or rebuilt later."""
        for chunk in self.chunks():
            fn(chunk)
        self.on_register.append(fn)

    @property
    def checkpoint_bytes(self) -> int:
        """Total checkpoint data size D of this process."""
        return sum(c.nbytes for c in self.persistent_chunks())

    # ------------------------------------------------------------------
    # Allocation (Table III).
    # ------------------------------------------------------------------

    def nvalloc(self, name: str, nbytes: int, pflag: bool = True) -> Chunk:
        """Allocate a checkpointable variable.

        If process metadata already records a committed persistent
        chunk under *name* and ``pflag`` is set, the chunk is
        re-created and its committed NVM data loaded back into the DRAM
        working copy — this is the paper's restart path ("applications
        use the same 'nvmalloc' interface ... to read back data").
        """
        if nbytes <= 0:
            raise AllocationError(f"chunk size must be positive, got {nbytes}")
        if name in self._by_name:
            raise DuplicateChunkId(f"chunk {name!r} already allocated in {self.pid!r}")
        cid = genid(name)
        if cid in self._chunks:
            raise DuplicateChunkId(
                f"id collision: {name!r} hashes to {cid}, already used by "
                f"{self._chunks[cid].name!r}"
            )
        persisted = self._persisted_record(name)
        if persisted is not None and pflag:
            chunk = self._rebuild_chunk(name, persisted)
            if chunk.nbytes != nbytes:
                raise AllocationError(
                    f"chunk {name!r}: persisted size {chunk.nbytes} != requested {nbytes}; "
                    "use nvrealloc after restart to resize"
                )
            chunk.restore_from_committed()
            self._register(chunk)
            return chunk
        chunk = self._fresh_chunk(name, cid, nbytes, pflag)
        self._register(chunk)
        self._persist_record(chunk)
        return chunk

    def nv2dalloc(self, name: str, dim1: int, dim2: int, dtype="float64") -> Chunk:
        """2-D (Fortran wrapper) allocation: a chunk sized for a
        ``dim1 x dim2`` array of *dtype*."""
        itemsize = np.dtype(dtype).itemsize
        return self.nvalloc(name, dim1 * dim2 * itemsize, pflag=True)

    def nvattach(self, name: str, src: np.ndarray) -> Chunk:
        """Create a shadow NVM chunk for an *existing* DRAM array
        (§V: for applications whose checkpoint size is not statically
        known).  The chunk's working copy is initialized from *src*."""
        flat = np.ascontiguousarray(src).view(np.uint8).reshape(-1)
        chunk = self.nvalloc(name, flat.nbytes, pflag=True)
        if not chunk.phantom:
            chunk.write(0, flat)
        else:
            chunk.touch()
        return chunk

    def nvrealloc(self, key: ChunkKey, nbytes: int) -> Chunk:
        """Grow/shrink a chunk, preserving the common data prefix."""
        if nbytes <= 0:
            raise AllocationError(f"chunk size must be positive, got {nbytes}")
        chunk = self.chunk(key)
        old_bytes = chunk.nbytes
        if nbytes == old_bytes:
            return chunk
        # DRAM side
        if not chunk.phantom:
            new_buf = np.zeros(nbytes, dtype=np.uint8)
            keep = min(old_bytes, nbytes)
            assert chunk.dram is not None
            new_buf[:keep] = chunk.dram[:keep]
            chunk.dram = new_buf
        old_alloc = self._allocations.get(chunk.chunk_id)
        if old_alloc is not None:
            self.arena.free(old_alloc)
        self._allocations[chunk.chunk_id] = self.arena.alloc(nbytes)
        # NVM side
        for i in range(chunk.n_versions):
            self.nvmm.nvmrealloc(self.pid, self._region_name(chunk.name, i), nbytes)
        chunk.nbytes = nbytes
        # every version slot's region tail is garbage after the
        # realloc: all incremental state goes fully stale at the new
        # size, forcing full re-copies
        chunk.resize_stale_maps(nbytes)
        chunk.touch() if chunk.phantom else chunk._dirtying_access()
        self._persist_record(chunk)
        return chunk

    def nvdelete(self, key: ChunkKey) -> None:
        """Drop a chunk: DRAM buffer, NVM versions and metadata."""
        chunk = self.chunk(key)
        for i in range(chunk.n_versions):
            self.nvmm.nvmunmap(self.pid, self._region_name(chunk.name, i))
        alloc = self._allocations.pop(chunk.chunk_id, None)
        if alloc is not None:
            self.arena.free(alloc)
        del self._chunks[chunk.chunk_id]
        del self._by_name[chunk.name]
        self._persistent = None
        self.nvmm.store.delete_meta_entry(self._meta_key(), "chunks", chunk.name)
        for fn in self.on_delete:
            fn(chunk)

    # ------------------------------------------------------------------
    # Construction helpers.
    # ------------------------------------------------------------------

    def _region_name(self, name: str, version: int) -> str:
        return f"{name}#v{version}"

    def _fresh_chunk(self, name: str, cid: int, nbytes: int, pflag: bool) -> Chunk:
        n_versions = 2 if pflag else 0
        versions: List[NvmRegion] = [
            self.nvmm.nvmmap(self.pid, self._region_name(name, i), nbytes, phantom=self.phantom)
            for i in range(n_versions)
        ]
        dram_buf = None if self.phantom else np.zeros(nbytes, dtype=np.uint8)
        self._allocations[cid] = self.arena.alloc(nbytes)
        return Chunk(
            chunk_id=cid,
            name=name,
            nbytes=nbytes,
            persistent=pflag,
            phantom=self.phantom,
            dram_buffer=dram_buf,
            nvm_versions=versions,
            clock=self.clock,
        )

    def _rebuild_chunk(self, name: str, record: dict) -> Chunk:
        """Reconstruct a chunk (and its NVM mappings) from persisted
        metadata after a crash."""
        regions = self.nvmm.load_process(self.pid)
        versions = []
        for i in range(int(record["n_versions"])):
            rname = self._region_name(name, i)
            if rname not in regions:
                raise UnknownChunkId(
                    f"restart: metadata for chunk {name!r} references missing region {rname!r}"
                )
            versions.append(regions[rname])
        phantom = bool(record.get("phantom", self.phantom))
        dram_buf = None if phantom else np.zeros(int(record["size"]), dtype=np.uint8)
        self._allocations[int(record["id"])] = self.arena.alloc(int(record["size"]))
        chunk = Chunk(
            chunk_id=int(record["id"]),
            name=name,
            nbytes=int(record["size"]),
            persistent=bool(record["persistent"]),
            phantom=phantom,
            dram_buffer=dram_buf,
            nvm_versions=versions,
            clock=self.clock,
        )
        chunk.committed_version = int(record["committed"])
        chunk.checksums = [
            (int(c) if c is not None else None) for c in record.get("checksums", [])
        ] or [None] * max(1, len(versions))
        return chunk

    def _register(self, chunk: Chunk) -> None:
        self._chunks[chunk.chunk_id] = chunk
        self._by_name[chunk.name] = chunk.chunk_id
        self._persistent = None
        for fn in self.on_register:
            fn(chunk)

    # ------------------------------------------------------------------
    # Metadata persistence.
    # ------------------------------------------------------------------

    def _meta_key(self) -> str:
        return f"{self._META_PREFIX}{self.pid}"

    def _persisted_record(self, name: str) -> Optional[dict]:
        meta = self.nvmm.store.get_meta(self._meta_key())
        return None if meta is None else meta["chunks"].get(name)

    @staticmethod
    def _record(c: Chunk) -> dict:
        return {
            "id": c.chunk_id,
            "size": c.nbytes,
            "persistent": c.persistent,
            "phantom": c.phantom,
            "n_versions": c.n_versions,
            "committed": c.committed_version,
            # the store copies what it is handed: no list() of its own
            "checksums": c.checksums,
        }

    def _persist_metadata(self) -> None:
        """Write the whole chunk table to the persistent metadata
        region — the commit protocol's step, where every chunk's
        version pointer may have moved.  Durable only after the next
        store flush (data-flush is ordered before metadata-flush)."""
        # non-persistent (pflag=False) chunks have no NVM footprint and
        # die with the process, so only persistent chunks are recorded
        record = self._record
        meta = {"chunks": {c.name: record(c) for c in self.persistent_chunks()}}
        self.nvmm.store.put_meta(self._meta_key(), meta)

    def _persist_record(self, chunk: Chunk) -> None:
        """Write *chunk*'s own record of the chunk table: what an
        allocation or a resize changes.  Same durability rule."""
        if chunk.persistent:
            self.nvmm.store.put_meta_entry(
                self._meta_key(), "chunks", chunk.name, self._record(chunk)
            )

    # ------------------------------------------------------------------
    # Restart.
    # ------------------------------------------------------------------

    @classmethod
    def restart(
        cls,
        pid: str,
        nvmm: NVMKernelManager,
        dram: MemoryDevice,
        *,
        clock: Optional[Callable[[], float]] = None,
        load_data: bool = True,
    ) -> "NVAllocator":
        """Rebuild a process's allocator and every persisted chunk from
        the NVM metadata (the eager restart path used by the restart
        component).  With ``load_data`` the committed NVM contents are
        copied back into fresh DRAM working buffers."""
        meta = nvmm.store.get_meta(f"{cls._META_PREFIX}{pid}", None)
        if meta is None:
            raise UnknownChunkId(f"no persisted allocator metadata for process {pid!r}")
        any_phantom = any(rec.get("phantom") for rec in meta["chunks"].values())
        alloc = cls(pid, nvmm, dram, phantom=any_phantom, clock=clock)
        for name, record in sorted(meta["chunks"].items()):
            chunk = alloc._rebuild_chunk(name, record)
            if load_data and chunk.committed_version >= 0:
                chunk.restore_from_committed()
            alloc._register(chunk)
        return alloc
