"""Named crash points and the hook-firing machinery.

The commit-critical layers (local checkpoint, pre-copy, remote helper,
restart, chunk staging, store flush, migration, codec block store) call
:func:`fire` at every persistence-ordering point, naming the point.
Every call site sits under a guard on :data:`ARMED`, the list of
installed injectors::

    if ARMED:
        fire("local.copy.before", chunk=chunk, rank=self.rank)

so an unarmed run pays one list truthiness test per point and never
builds the keyword dict.  Inside a ``with install(plan):`` block every
hit is routed to the installed injectors, which may count it, record
oracle state, corrupt durable bytes, or raise
:class:`~repro.errors.CrashInjected` to simulate a power loss at
exactly that point.  ``ARMED`` is one list mutated in place and read
live at each site, so an injector installed mid-run sees the very next
hit.

The registry is *central* and *closed*: every point a layer may fire is
declared here, so the crash-point matrix test can enumerate the full
set and firing an undeclared name is an error (it would silently
escape the matrix otherwise).  Because unarmed runs never reach
:func:`fire`, ``tests/test_crashpoint_sites.py`` checks statically that
every call site names a registered point as a string literal and sits
under the guard.

This module must stay dependency-free within ``repro`` (errors only):
it is imported by the memory substrate and the allocator, the lowest
layers of the stack.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from ..errors import FaultInjectionError

__all__ = [
    "CrashPoint",
    "FaultInjector",
    "register",
    "all_points",
    "point",
    "fire",
    "install",
    "ARMED",
    "LAYER_LOCAL",
    "LAYER_PRECOPY",
    "LAYER_REMOTE",
    "LAYER_RESTART",
    "LAYER_CHUNK",
    "LAYER_STORE",
    "LAYER_MIGRATE",
    "LAYER_CODEC",
    "BITROT_CAPABLE",
]

LAYER_LOCAL = "local"
LAYER_PRECOPY = "precopy"
LAYER_REMOTE = "remote"
LAYER_RESTART = "restart"
LAYER_CHUNK = "chunk"
LAYER_STORE = "store"
LAYER_MIGRATE = "migrate"
LAYER_CODEC = "codec"


@dataclass(frozen=True)
class CrashPoint:
    """One named persistence-ordering point in the commit path."""

    name: str
    layer: str
    doc: str
    #: fires once per chunk (vs once per step/round) — the matrix test
    #: uses this to pick a hit index that lands after the first commit.
    per_chunk: bool = False


#: name -> CrashPoint; insertion order defines the canonical matrix order.
REGISTRY: Dict[str, CrashPoint] = {}


def register(name: str, layer: str, doc: str, *, per_chunk: bool = False) -> CrashPoint:
    """Declare a crash point.  Duplicate declarations are an error."""
    if name in REGISTRY:
        raise FaultInjectionError(f"crash point {name!r} already registered")
    cp = CrashPoint(name=name, layer=layer, doc=doc, per_chunk=per_chunk)
    REGISTRY[name] = cp
    return cp


def point(name: str) -> CrashPoint:
    cp = REGISTRY.get(name)
    if cp is None:
        raise FaultInjectionError(f"unknown crash point {name!r}")
    return cp


def all_points(layer: Optional[str] = None) -> List[CrashPoint]:
    """Every registered crash point, optionally filtered by layer."""
    return [cp for cp in REGISTRY.values() if layer is None or cp.layer == layer]


# ---------------------------------------------------------------------------
# The canonical crash-point set.
# ---------------------------------------------------------------------------

# -- coordinated local checkpoint (core/engine.py) ---------------------------
register("local.begin", LAYER_LOCAL,
         "coordinated step entered; pre-copy paused and drained")
register("local.copy.before", LAYER_LOCAL,
         "before a chunk's DRAM->NVM bus copy", per_chunk=True)
register("local.copy.after", LAYER_LOCAL,
         "bus copy done, chunk not yet staged into the in-progress version",
         per_chunk=True)
register("local.stage.after", LAYER_LOCAL,
         "in-progress NVM version fully written, nothing committed",
         per_chunk=True)
register("local.commit.before_data_flush", LAYER_LOCAL,
         "all chunks staged; cache flush not yet issued")
register("local.commit.after_data_flush", LAYER_LOCAL,
         "staged data durable; version pointers not yet flipped")
register("local.commit.after_flip", LAYER_LOCAL,
         "a chunk's committed-version pointer flipped in memory only",
         per_chunk=True)
register("local.commit.before_meta_flush", LAYER_LOCAL,
         "chunk metadata written to the store working set, not yet durable")
register("local.commit.done", LAYER_LOCAL,
         "commit point passed: data + metadata durable")

# -- chunk staging (alloc/chunk.py) -----------------------------------------
register("chunk.stage.mid", LAYER_CHUNK,
         "half the payload written to the in-progress version (torn write)",
         per_chunk=True)

# -- persistent store (memory/persistence.py) -------------------------------
register("store.flush.mid", LAYER_STORE,
         "flush made one more region durable; others still pending",
         per_chunk=True)
register("store.flush.before_meta", LAYER_STORE,
         "all dirty regions durable; metadata snapshot still pending")

# -- background pre-copy (core/precopy.py) ----------------------------------
register("precopy.copy.before", LAYER_PRECOPY,
         "pre-copy engine about to move a dirty chunk", per_chunk=True)
register("precopy.copy.after", LAYER_PRECOPY,
         "pre-copy transfer finished; staleness not yet checked", per_chunk=True)
register("precopy.finalize.after", LAYER_PRECOPY,
         "chunk staged + marked clean for the stream, still uncommitted",
         per_chunk=True)

# -- remote (buddy) checkpointing (core/remote.py) --------------------------
register("remote.stream.before_send", LAYER_REMOTE,
         "streamed chunk about to cross the fabric", per_chunk=True)
register("remote.stream.after_stage", LAYER_REMOTE,
         "streamed chunk staged on the buddy, buddy commit pending",
         per_chunk=True)
register("remote.round.begin", LAYER_REMOTE,
         "coordinated remote round entered")
register("remote.round.before_send", LAYER_REMOTE,
         "round chunk about to cross the fabric", per_chunk=True)
register("remote.round.after_stage", LAYER_REMOTE,
         "round chunk staged on the buddy, buddy commit pending",
         per_chunk=True)
register("remote.commit.before_flip", LAYER_REMOTE,
         "buddy store flushed; buddy committed pointers not yet flipped")
register("remote.commit.before_meta", LAYER_REMOTE,
         "buddy pointers flipped in memory; buddy metadata not yet durable")
register("remote.commit.done", LAYER_REMOTE,
         "buddy commit point passed")

# -- live migration (resilience/migration.py) -------------------------------
# These fire inside cluster runs (the standalone CrashConsistencyHarness
# has no membership layer), so faults/harness.py excludes the migrate
# layer from matrix_points(); tests/test_migration.py covers them with a
# cluster-level matrix instead.
register("migrate.batch.before_send", LAYER_MIGRATE,
         "migration chunk about to cross the fabric to the new buddy",
         per_chunk=True)
register("migrate.batch.after_stage", LAYER_MIGRATE,
         "migration chunk staged on the new buddy, batch commit pending",
         per_chunk=True)
register("migrate.batch.commit", LAYER_MIGRATE,
         "one bounded batch committed on the new buddy (old pairing still owns)")
register("migrate.cutover.before", LAYER_MIGRATE,
         "all batches committed; buddy ownership not yet switched")
register("migrate.cutover.done", LAYER_MIGRATE,
         "ownership switched atomically to the new buddy")

# -- payload codec block store (core/codec.py) ------------------------------
# These fire only when a non-raw codec is configured (the standalone
# CrashConsistencyHarness runs the raw golden pipeline), so
# faults/harness.py excludes the codec layer from matrix_points();
# tests/test_codec.py covers them with a codec-enabled crash matrix.
register("codec.store.commit.before", LAYER_CODEC,
         "block-store commit entered; no digest map or refcount touched")
register("codec.store.commit.mid", LAYER_CODEC,
         "slot digest maps updated; refcount index not yet swapped (torn)")
register("codec.store.commit.done", LAYER_CODEC,
         "block-store commit point passed: maps + refcount index consistent")

# -- restart/recovery (core/restart.py) -------------------------------------
register("restart.begin", LAYER_RESTART,
         "recovery started: metadata loaded, nothing restored yet")
register("restart.chunk.verified", LAYER_RESTART,
         "a chunk's committed version verified and restored", per_chunk=True)
register("restart.fetch_remote", LAYER_RESTART,
         "local version unusable; buddy fetch about to start", per_chunk=True)
register("restart.done", LAYER_RESTART,
         "recovery finished; process state rebuilt")

#: points whose fire() info carries ``allocator`` + ``store``, i.e. where a
#: bit-rot fault can locate a committed region to corrupt.
BITROT_CAPABLE = ("local.begin", "local.commit.done", "restart.begin")


# ---------------------------------------------------------------------------
# Injector installation and firing.
# ---------------------------------------------------------------------------


class FaultInjector:
    """Base class for anything that observes crash-point hits.

    Subclasses override :meth:`on_fire`; raising from it unwinds the
    firing layer exactly like a crash at that point.  Passive observers
    (oracle recorders, coverage counters) simply record and return.
    """

    def on_fire(self, name: str, info: Dict[str, Any]) -> None:  # pragma: no cover
        raise NotImplementedError


#: the installed injectors, outermost first.  One list for the life of
#: the process, mutated in place by :func:`install`: call sites import
#: it once and test it live (``if ARMED: fire(...)``).
ARMED: List[FaultInjector] = []


@contextmanager
def install(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Route crash-point hits to *injector* for the dynamic extent of
    the block.  Injectors stack: all installed injectors see every hit,
    outermost first."""
    ARMED.append(injector)
    try:
        yield injector
    finally:
        ARMED.remove(injector)


def fire(name: str, **info: Any) -> None:
    """Fire the crash point *name* with contextual *info*.

    With no injector installed this returns at once, without checking
    *name*; instrumented layers do not even call it then, they test
    :data:`ARMED` first.  With injectors installed, an unregistered
    *name* raises :class:`~repro.errors.FaultInjectionError`, and
    otherwise every installed injector's ``on_fire`` runs in install
    order (a snapshot of :data:`ARMED`, so an injector that installs or
    removes another does not skip or repeat one).  Names are checked
    statically by ``tests/test_crashpoint_sites.py``.
    """
    if not ARMED:
        return
    if name not in REGISTRY:
        raise FaultInjectionError(f"fired unregistered crash point {name!r}")
    for injector in list(ARMED):
        injector.on_fire(name, info)
