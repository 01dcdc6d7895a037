"""The synchronous Table-III facade: :class:`NVMCheckpoint`.

This is the entry point a downstream application uses directly (see
``examples/quickstart.py``): allocate persistent variables, compute on
them, call ``nvchkptall()``, crash, restart.  Everything runs on a
private single-node context whose virtual clock prices each operation
with the paper's device model — ``elapsed`` tells you what the
operation *would* cost on the modeled hardware.

Methods mirror Table III:

========================  ====================================================
``genid(varname)``        stable id from a variable name
``nvalloc(name, size)``   allocate an NVM-shadowed chunk (``pflg`` supported)
``nv2dalloc(d1, d2)``     2-D convenience wrapper
``nvattach(key, arr)``    shadow an existing DRAM array (re-attach by key)
``nvrealloc(key, size)``  grow/shrink
``nvdelete(key)``         drop chunk + metadata
``nvchkptall()``          coordinated local checkpoint of all chunks
``nvchkptid(key)``        checkpoint one chunk
========================  ====================================================

Every ``key`` is a :data:`ChunkKey` — either the integer chunk id
(``genid``) or the variable name — resolved through one shared
``_resolve_key`` helper, so all Table-III methods share a uniform
:class:`KeyError` on unknown keys.  The unified ``checkpoint()`` verb
(``checkpoint(key=None, *, blocking=True)``) backs both checkpoint
entries.
"""

from __future__ import annotations

from typing import Optional, Union

from .._numpy import np
from ..alloc.chunk import Chunk
from ..alloc.nvmalloc import NVAllocator, genid
from ..config import CheckpointConfig, NodeConfig
from ..errors import UnknownChunkId
from ..memory.persistence import PersistentStore
from .context import NodeContext, make_standalone_context
from .engine import CheckpointStats, LocalCheckpointer
from .restart import RestartManager, RestartReport

__all__ = ["NVMCheckpoint"]

ChunkKey = Union[int, str]


class NVMCheckpoint:
    """Application-facing NVM checkpoint handle for one process."""

    def __init__(
        self,
        pid: str = "proc0",
        *,
        store: Optional[PersistentStore] = None,
        node_config: Optional[NodeConfig] = None,
        checkpoint_config: Optional[CheckpointConfig] = None,
        phantom: bool = False,
        ctx: Optional[NodeContext] = None,
    ) -> None:
        self.pid = pid
        self.config = checkpoint_config or CheckpointConfig()
        self.ctx = ctx or make_standalone_context(config=node_config, store=store, name=f"{pid}-node")
        self.allocator = NVAllocator(
            pid,
            self.ctx.nvmm,
            self.ctx.dram,
            phantom=phantom,
            clock=lambda: self.ctx.engine.now,
        )
        self.checkpointer = LocalCheckpointer(
            self.ctx, self.allocator, self.config.precopy
        )

    # ------------------------------------------------------------------
    # Key resolution: every Table-III method that names an existing
    # chunk funnels through here, so ``int | str`` keys behave the same
    # everywhere and unknown keys fail with one uniform KeyError.
    # ------------------------------------------------------------------

    def _resolve_key(self, key: ChunkKey) -> Chunk:
        """Resolve an ``int`` chunk id or ``str`` variable name to its
        :class:`Chunk`, raising a uniform :class:`KeyError`
        (:class:`~repro.errors.UnknownChunkId`) when absent."""
        if not isinstance(key, (int, str)) or isinstance(key, bool):
            raise TypeError(
                f"chunk key must be an int id or str name, got {type(key).__name__}"
            )
        try:
            return self.allocator.chunk(key)
        except UnknownChunkId:
            raise UnknownChunkId(
                f"no chunk with key {key!r} in process {self.pid!r} "
                "(pass the genid() integer or the variable name)"
            ) from None

    # ------------------------------------------------------------------
    # Table III: allocation.
    # ------------------------------------------------------------------

    @staticmethod
    def genid(varname: str) -> int:
        return genid(varname)

    def nvalloc(self, name: str, nbytes: int, pflag: bool = True) -> Chunk:
        return self.allocator.nvalloc(name, nbytes, pflag=pflag)

    def nv2dalloc(self, name: str, dim1: int, dim2: int, dtype="float64") -> Chunk:
        return self.allocator.nv2dalloc(name, dim1, dim2, dtype=dtype)

    def nvattach(self, key: ChunkKey, src: np.ndarray) -> Chunk:
        """Shadow an existing DRAM array under *key*.

        A ``str`` key that is not yet allocated creates the chunk (the
        §V path for dynamically-sized checkpoints).  A key naming an
        existing chunk *re-attaches*: the chunk is resized to fit and
        its working copy overwritten from *src* — the restart-time
        idiom for rebinding live arrays.  An ``int`` key must already
        exist (ids cannot allocate; they are one-way hashes of names).
        """
        if self.allocator.has_chunk(key):
            chunk = self._resolve_key(key)
            flat = np.ascontiguousarray(src).view(np.uint8).reshape(-1)
            if chunk.nbytes != flat.nbytes:
                chunk = self.allocator.nvrealloc(chunk.chunk_id, flat.nbytes)
            if chunk.phantom:
                chunk.touch()
            else:
                chunk.write(0, flat)
            return chunk
        if isinstance(key, int):
            # creating by id alone is impossible — surface the same
            # uniform KeyError as every other unknown-key lookup
            self._resolve_key(key)
        return self.allocator.nvattach(key, src)

    def nvrealloc(self, key: ChunkKey, nbytes: int) -> Chunk:
        return self.allocator.nvrealloc(self._resolve_key(key).chunk_id, nbytes)

    def nvdelete(self, key: ChunkKey) -> None:
        self.allocator.nvdelete(self._resolve_key(key).chunk_id)

    def chunk(self, key: ChunkKey) -> Chunk:
        return self._resolve_key(key)

    # ------------------------------------------------------------------
    # Table III: checkpoint.
    # ------------------------------------------------------------------

    def checkpoint(self, key: Optional[ChunkKey] = None, *, blocking: bool = True):
        """The unified checkpoint verb.

        ``checkpoint()`` is a coordinated local checkpoint of every
        persistent chunk (``nvchkptall``); ``checkpoint(key)`` limits
        it to one chunk (``nvchkptid``).  ``blocking=True`` (default)
        returns the completed :class:`CheckpointStats`;
        ``blocking=False`` returns the DES generator for advanced
        embedding in an external simulation loop.
        """
        only = None if key is None else [self._resolve_key(key)]
        return self.checkpointer.checkpoint(only, blocking=blocking)

    def nvchkptall(self) -> CheckpointStats:
        """Coordinated local checkpoint of every persistent chunk."""
        return self.checkpoint()

    # ------------------------------------------------------------------
    # Background pre-copy (the paper's CPC/DCPC/DCPCP) for direct
    # library use: compute phases advance the virtual clock so the
    # pre-copy engine can overlap with them.
    # ------------------------------------------------------------------

    def start_background(self) -> None:
        """Start the pre-copy engine (no-op for ``mode='none'``)."""
        self.checkpointer.start_background()

    def stop_background(self) -> None:
        self.checkpointer.stop_background()

    def advance(self, seconds: float) -> float:
        """Advance the virtual clock by *seconds* of compute time,
        letting background machinery (pre-copy) run during it.  Call
        between your writes to model the compute phase; returns the
        new virtual time."""
        if seconds < 0:
            raise ValueError("cannot advance backwards")
        self.ctx.engine.run(until=self.ctx.engine.now + seconds)
        return self.ctx.engine.now

    def nvchkptid(self, key: ChunkKey) -> CheckpointStats:
        """Checkpoint a single chunk/variable."""
        return self.checkpoint(key)

    # ------------------------------------------------------------------
    # Crash / restart.
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Simulate process death: volatile state (DRAM working copies,
        mapped-region objects, unflushed store writes) is lost; NVM
        committed state survives in the store."""
        self.ctx.nvmm.store.crash()
        self.ctx.nvmm.crash_process(self.pid)
        self.allocator = None  # type: ignore[assignment]
        self.checkpointer = None  # type: ignore[assignment]

    @classmethod
    def restart(
        cls,
        pid: str,
        store: PersistentStore,
        *,
        node_config: Optional[NodeConfig] = None,
        checkpoint_config: Optional[CheckpointConfig] = None,
        ctx: Optional[NodeContext] = None,
        lazy: bool = False,
    ) -> tuple["NVMCheckpoint", RestartReport]:
        """Rebuild a process from a store that survived a crash.

        Returns the new handle plus the :class:`RestartReport`
        (chunk counts, bytes, virtual restart time).  ``lazy=True``
        leaves verified chunks NVM-resident (§IV read path): restart
        is near-instant and each chunk migrates to DRAM on first write.
        """
        handle = cls.__new__(cls)
        handle.pid = pid
        handle.config = checkpoint_config or CheckpointConfig()
        handle.ctx = ctx or make_standalone_context(
            config=node_config, store=store, name=f"{pid}-node"
        )
        manager = RestartManager(handle.ctx)
        report = manager.restart_process_sync(pid, lazy=lazy)
        assert report.allocator is not None
        handle.allocator = report.allocator
        handle.checkpointer = LocalCheckpointer(
            handle.ctx, handle.allocator, handle.config.precopy
        )
        return handle, report

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Virtual clock of the private context (seconds)."""
        return self.ctx.engine.now

    @property
    def checkpoint_bytes(self) -> int:
        return self.allocator.checkpoint_bytes

    def stats_summary(self) -> dict:
        ck = self.checkpointer
        return {
            "checkpoints": ck.checkpoints_done,
            "coordinated_bytes": ck.total_coordinated_bytes,
            "precopy_bytes": ck.total_precopy_bytes,
            "total_bytes_to_nvm": ck.total_bytes_to_nvm,
            "total_checkpoint_time": ck.total_checkpoint_time,
            "nvm_bytes_written": self.ctx.nvm.wear.bytes_written,
            "nvm_endurance_used": self.ctx.nvm.endurance_fraction_used(),
        }
