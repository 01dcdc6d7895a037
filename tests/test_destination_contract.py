"""Destination backend conformance suite.

Every checkpoint backend — the NVM shadow arena, the PFS baseline, the
remote buddy target — implements the
:class:`~repro.core.destination.Destination` protocol and is driven by
the same :class:`~repro.core.engine.CheckpointEngine` walk.  This suite
runs each backend through the shared contract:

* protocol surface (name, two_version, capacity);
* a full coordinated checkpoint through the engine completes with
  consistent stats;
* committed payloads round-trip through ``read`` (two-version
  backends) or fail loudly (backends that do not model restart);
* write/commit atomicity under the crash-point harness: a crash before
  the commit flip leaves the *old* committed version readable, a crash
  after the flip the *new* one — never a torn state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.alloc import NVAllocator
from repro.baselines.pfs import PfsModel
from repro.config import PrecopyPolicy
from repro.core import make_standalone_context
from repro.core.destination import (
    Destination,
    NVMArenaDestination,
    PfsDestination,
)
from repro.core.engine import CheckpointEngine
from repro.core.remote import RemoteTarget
from repro.errors import CheckpointError, CrashInjected
from repro.faults.crashpoints import FaultInjector, install
from repro.sim.resources import UsageMeter

CHUNK_BYTES = 4096


class _Rig:
    """One backend under test: a standalone context, a real-payload
    allocator, and the destination wired to them."""

    def __init__(self, name: str):
        self.ctx = make_standalone_context(name=f"dst-{name}")
        self.alloc = NVAllocator(
            "p0",
            self.ctx.nvmm,
            self.ctx.dram,
            phantom=False,
            clock=lambda: self.ctx.engine.now,
        )
        self.pfs = None
        self.buddy_ctx = None
        if name == "nvm":
            self.dest: Destination = NVMArenaDestination(self.ctx, self.alloc)
        elif name == "pfs":
            self.pfs = PfsModel(self.ctx.engine)
            self.dest = PfsDestination(self.pfs, "r0", self.ctx, self.alloc)
        elif name == "buddy":
            self.buddy_ctx = make_standalone_context(
                engine=self.ctx.engine, name=f"dst-{name}-buddy"
            )
            self.dest = RemoteTarget("p0", self.buddy_ctx)
        else:  # pragma: no cover - test bug
            raise ValueError(name)

    def engine_for(
        self, mode: str = "none", granularity: str = "chunk", codec: str = "raw"
    ) -> CheckpointEngine:
        return CheckpointEngine(
            self.ctx,
            self.alloc,
            PrecopyPolicy(mode=mode, copy_granularity=granularity, codec=codec),
            destination=self.dest,
        )


BACKENDS = ["nvm", "pfs", "buddy"]
TWO_VERSION = ["nvm", "buddy"]


@pytest.fixture(params=BACKENDS)
def rig(request):
    return _Rig(request.param)


# ---------------------------------------------------------------------------
# Protocol surface.
# ---------------------------------------------------------------------------


def test_protocol_surface(rig):
    assert rig.dest.name
    assert isinstance(rig.dest.two_version, bool)
    cap = rig.dest.capacity()
    assert isinstance(cap, float) and (cap >= 0 or cap == float("inf"))
    assert rig.dest.flush() >= 0.0


def test_base_protocol_is_abstract():
    d = Destination()
    with pytest.raises(NotImplementedError):
        d.write(None, 0)
    with pytest.raises(NotImplementedError):
        d.read("x")
    assert d.commit([]) == 0.0
    assert d.capacity() == float("inf")


# ---------------------------------------------------------------------------
# One engine drives every backend.
# ---------------------------------------------------------------------------


def test_engine_checkpoint_completes(rig):
    a = rig.alloc.nvalloc("a", CHUNK_BYTES)
    b = rig.alloc.nvalloc("b", 2 * CHUNK_BYTES)
    ck = rig.engine_for()
    stats = ck.checkpoint()
    assert stats.chunks_copied == 2
    assert stats.bytes_copied == a.nbytes + b.nbytes
    assert stats.end >= stats.start
    assert ck.checkpoints_done == 1 and len(ck.history) == 1


def test_two_version_commit_roundtrips_payload(rig):
    if rig.dest.name not in TWO_VERSION:
        pytest.skip("single-version backend")
    a = rig.alloc.nvalloc("a", CHUNK_BYTES)
    data = np.arange(CHUNK_BYTES, dtype=np.uint8)
    a.write(0, data)
    rig.engine_for().checkpoint()
    got = np.frombuffer(rig.dest.read("a"), dtype=np.uint8)
    assert np.array_equal(got, data)


def test_single_version_read_semantics(rig):
    if rig.dest.name in TWO_VERSION:
        pytest.skip("two-version backend")
    rig.alloc.nvalloc("a", CHUNK_BYTES)
    rig.engine_for().checkpoint()
    with pytest.raises(CheckpointError):
        rig.dest.read("a")


def test_pfs_accounting_keys_off_rank_tag(rig):
    if rig.dest.name != "pfs":
        pytest.skip("pfs-only contract")
    UsageMeter(rig.pfs.resource)  # the per-tag split is read here only
    rig.alloc.nvalloc("a", CHUNK_BYTES)
    rig.engine_for().checkpoint()
    assert rig.pfs.total_bytes == CHUNK_BYTES
    assert "r0:pfsckpt" in rig.pfs.resource.bytes_by_tag


def test_checkpoint_advances_simulated_time(rig):
    rig.alloc.nvalloc("a", 64 * CHUNK_BYTES)
    t0 = rig.ctx.engine.now
    rig.engine_for().checkpoint()
    assert rig.ctx.engine.now > t0


# ---------------------------------------------------------------------------
# Write/commit atomicity under the crash-point harness.
# ---------------------------------------------------------------------------


class _CrashAt(FaultInjector):
    """Abort the checkpoint at one named crash point, once."""

    def __init__(self, point: str):
        self.point = point
        self.fired = False

    def on_fire(self, name, info):
        if name == self.point and not self.fired:
            self.fired = True
            raise CrashInjected(f"scripted crash at {name}")


def _crashed_second_checkpoint(rig, point: str, old, new):
    """Commit *old*, then crash a second checkpoint of *new* at *point*."""
    a = rig.alloc.nvalloc("a", CHUNK_BYTES)
    a.write(0, old)
    rig.engine_for().checkpoint()
    a.write(0, new)
    ck = rig.engine_for()
    with install(_CrashAt(point)):
        proc = rig.ctx.engine.process(ck.checkpoint(blocking=False), name="crash-ckpt")
        rig.ctx.engine.run()
    assert proc.triggered and not proc.ok
    assert isinstance(proc.exception, CrashInjected)


# ---------------------------------------------------------------------------
# Page-granular incremental copy.
# ---------------------------------------------------------------------------

PAGE = 4096
INC_BYTES = 16 * PAGE  # multi-page, so partial-chunk dirtiness exists


def _three_incremental_checkpoints(rig):
    """Full, full, then genuinely partial: the stale maps of both
    version slots start all-stale, so savings begin at the third
    checkpoint.  Returns ``(chunk, engine, v2, v3)`` where *v2* is the
    content committed by the second checkpoint and *v3* the content the
    third is committing."""
    a = rig.alloc.nvalloc("a", INC_BYTES)
    v1 = np.full(INC_BYTES, 0x11, dtype=np.uint8)
    a.write(0, v1)
    ck = rig.engine_for(granularity="page")
    ck.checkpoint()
    a.write(2 * PAGE, np.full(2 * PAGE, 0x22, dtype=np.uint8))
    v2 = v1.copy()
    v2[2 * PAGE : 4 * PAGE] = 0x22
    ck.checkpoint()
    a.write(2 * PAGE, np.full(2 * PAGE, 0x33, dtype=np.uint8))
    v3 = v2.copy()
    v3[2 * PAGE : 4 * PAGE] = 0x33
    # the pending extents for the third copy cover only the re-dirtied
    # pages, not the whole chunk
    pending = rig.dest.pending_extents(a)
    assert 0 < sum(n for _, n in pending) < INC_BYTES
    return a, ck, v2, v3


def test_incremental_third_checkpoint_moves_only_extents(rig):
    _, ck, _, v3 = _three_incremental_checkpoints(rig)
    stats = ck.checkpoint()
    assert stats.chunks_copied == 1
    assert 0 < stats.bytes_copied < INC_BYTES
    if rig.dest.name in TWO_VERSION:
        got = np.frombuffer(rig.dest.read("a"), dtype=np.uint8)
        assert np.array_equal(got, v3), (
            "partial copy committed content differing from the source"
        )


INCREMENTAL_CRASH_POINTS = {
    "nvm": [
        "chunk.stage.mid",
        "local.commit.before_data_flush",
        "local.commit.before_meta_flush",
        "local.commit.done",
    ],
    "buddy": [
        "local.commit.before_data_flush",
        "local.commit.before_meta_flush",
        "local.commit.done",
    ],
}


@pytest.mark.parametrize(
    "backend,point",
    [(b, p) for b in TWO_VERSION for p in INCREMENTAL_CRASH_POINTS[b]],
)
def test_incremental_crash_is_never_torn(backend, point):
    """Crashing a *partial* (extent-granular) checkpoint at any
    injected crash point must leave either the previous committed
    content or the new one readable — never a mix."""
    rig = _Rig(backend)
    _, ck, v2, v3 = _three_incremental_checkpoints(rig)
    with install(_CrashAt(point)):
        proc = rig.ctx.engine.process(ck.checkpoint(blocking=False), name="crash-ckpt")
        rig.ctx.engine.run()
    assert proc.triggered and not proc.ok
    assert isinstance(proc.exception, CrashInjected)
    got = np.frombuffer(rig.dest.read("a"), dtype=np.uint8)
    if point in ("chunk.stage.mid", "local.commit.before_data_flush"):
        assert np.array_equal(got, v2), (
            "crash before the commit flip exposed partially staged data"
        )
    else:
        assert np.array_equal(got, v2) or np.array_equal(got, v3), (
            "committed payload is neither the old nor the new version (torn)"
        )


@pytest.mark.parametrize("backend", TWO_VERSION)
def test_crash_before_flip_preserves_old_version(backend):
    rig = _Rig(backend)
    old = np.full(CHUNK_BYTES, 0xAA, dtype=np.uint8)
    new = np.full(CHUNK_BYTES, 0x55, dtype=np.uint8)
    _crashed_second_checkpoint(rig, "local.commit.before_data_flush", old, new)
    got = np.frombuffer(rig.dest.read("a"), dtype=np.uint8)
    assert np.array_equal(got, old), "crash before commit flip exposed new data"


@pytest.mark.parametrize("backend", TWO_VERSION)
@pytest.mark.parametrize(
    "point", ["local.commit.before_meta_flush", "local.commit.done"]
)
def test_crash_around_commit_is_never_torn(backend, point):
    rig = _Rig(backend)
    old = np.full(CHUNK_BYTES, 0xAA, dtype=np.uint8)
    new = np.full(CHUNK_BYTES, 0x55, dtype=np.uint8)
    _crashed_second_checkpoint(rig, point, old, new)
    got = np.frombuffer(rig.dest.read("a"), dtype=np.uint8)
    assert np.array_equal(got, old) or np.array_equal(got, new), (
        "committed payload is neither the old nor the new version (torn write)"
    )


# ---------------------------------------------------------------------------
# Extent rejection where extents enter a backend (``stage``): one shared
# contract across every backend.
# ---------------------------------------------------------------------------

BAD_EXTENTS = [
    pytest.param([(0, CHUNK_BYTES + 1)], id="past-end"),
    pytest.param([(CHUNK_BYTES, 1)], id="starts-at-end"),
    pytest.param([(-8, 8)], id="negative-offset"),
    pytest.param([(0, -1)], id="negative-length"),
    pytest.param([(0, 128), (64, 128)], id="overlapping"),
    pytest.param([(256, 64), (0, 64)], id="unsorted"),
]


@pytest.mark.parametrize("extents", BAD_EXTENTS)
def test_write_at_rejects_malformed_extents(rig, extents):
    """Out-of-range, overlapping and unsorted extents raise the same
    CheckpointError when staged on any backend — callers can switch
    destinations without re-learning edge behaviour."""
    chunk = rig.alloc.nvalloc("a", CHUNK_BYTES)
    with pytest.raises(CheckpointError, match="outside chunk|overlapping or unsorted"):
        rig.dest.stage(chunk, extents)


def test_write_at_accepts_legal_extents(rig):
    chunk = rig.alloc.nvalloc("a", CHUNK_BYTES)
    # adjacent-but-not-overlapping runs and a zero-length run are legal
    rig.dest.stage(chunk, [(0, 64), (64, 0), (128, 64)])
    # the whole chunk as one extent is always legal
    rig.dest.stage(chunk, [(0, CHUNK_BYTES)])
    # and the data plane charges any planned byte count
    assert rig.dest.write(chunk, 128, tag="t") is not None


# ---------------------------------------------------------------------------
# The payload-codec path rides the same contract on every backend.
# ---------------------------------------------------------------------------


def test_ensure_block_store_is_idempotent(rig):
    s1 = rig.dest.ensure_block_store(4096)
    s2 = rig.dest.ensure_block_store(4096)
    assert s1 is s2 is rig.dest.block_store
    # a different block size replaces the index (never silently mixes
    # digests computed at two granularities)
    s3 = rig.dest.ensure_block_store(8192)
    assert s3 is not s1 and s3.block == 8192


def test_codec_slots_contract(rig):
    chunk = rig.alloc.nvalloc("a", CHUNK_BYTES)
    write_slot, base_slot = rig.dest.codec_slots(chunk)
    if rig.dest.two_version:
        # double-buffered: digests stage into the in-progress slot and
        # delta against the committed one
        assert write_slot != base_slot
    else:
        # flat baselines overwrite slot 0 and delta against it
        assert (write_slot, base_slot) == (0, 0)


def test_codec_checkpoint_completes_on_every_backend(rig):
    """Two auto-codec checkpoints (the second partially re-dirtied)
    complete through the shared engine walk on all four backends; the
    second ships fewer wire bytes than its dirty evidence, and
    two-version backends still round-trip the full content."""
    a = rig.alloc.nvalloc("a", INC_BYTES)
    v1 = np.full(INC_BYTES, 0x11, dtype=np.uint8)
    a.write(0, v1)
    ck = rig.engine_for(granularity="page", codec="auto")
    s1 = ck.checkpoint()
    assert s1.chunks_copied == 1
    assert rig.dest.block_store is not None
    assert rig.dest.block_store.commits == 1
    a.write(2 * PAGE, np.full(PAGE, 0x22, dtype=np.uint8))
    v2 = v1.copy()
    v2[2 * PAGE : 3 * PAGE] = 0x22
    s2 = ck.checkpoint()
    assert s2.chunks_copied == 1
    assert rig.dest.block_store.commits == 2
    assert 0 < s2.bytes_copied <= INC_BYTES
    if rig.dest.name in TWO_VERSION:
        got = np.frombuffer(rig.dest.read("a"), dtype=np.uint8)
        assert np.array_equal(got, v2), (
            "codec-planned copy committed content differing from the source"
        )


def test_codec_store_commit_crash_is_recoverable():
    """Crash inside the block-store commit of a second codec
    checkpoint: the committed payload is never torn, and rebuilding the
    refcount index from the slot maps restores agreement."""
    rig = _Rig("nvm")
    a = rig.alloc.nvalloc("a", INC_BYTES)
    old = np.full(INC_BYTES, 0xAA, dtype=np.uint8)
    a.write(0, old)
    ck = rig.engine_for(granularity="page", codec="auto")
    ck.checkpoint()
    new = old.copy()
    new[:PAGE] = 0x55
    a.write(0, new[:PAGE])
    with install(_CrashAt("codec.store.commit.mid")):
        proc = rig.ctx.engine.process(ck.checkpoint(blocking=False), name="crash-ckpt")
        rig.ctx.engine.run()
    assert proc.triggered and not proc.ok
    got = np.frombuffer(rig.dest.read("a"), dtype=np.uint8)
    assert np.array_equal(got, old) or np.array_equal(got, new), (
        "committed payload is neither the old nor the new version (torn)"
    )
    store = rig.dest.block_store
    store.rebuild()  # the restart path's recovery step
    live = np.concatenate([v[v != 0] for v in store._slots.values()])
    assert store.total_refs == len(live)
    assert (store._counts > 0).all()
    # and the next round starts clean: a fresh checkpoint commits
    s3 = rig.engine_for(granularity="page", codec="auto").checkpoint()
    assert s3.chunks_copied >= 0
    got = np.frombuffer(rig.dest.read("a"), dtype=np.uint8)
    assert np.array_equal(got, new)
