"""The payload-representation layer: codecs, block store, crash matrix.

Three concerns live here:

* **Planning** — the wire bytes each codec's planner charges on a real
  chunk (headers, references, changed bytes, the cap at the logical
  bytes), and the auto codec planning its blocks once.

* **BlockStore transactionality** — stage/commit/abort/rebuild
  refcount accounting, double-buffer overwrite decrements, and the
  negative-refcount / unknown-digest guards.

* **The codec crash matrix** — the ``codec.store.commit.*`` points are
  excluded from the default fault matrix (they only fire under a
  non-raw codec); this file runs them through a codec-enabled
  :class:`CrashConsistencyHarness`, and closes the loop with a
  real-payload checkpoint -> crash -> restart cycle whose block-digest
  verification must find zero mismatches.

``tests/test_property_codec.py`` holds the Hypothesis generalization
of the refcount invariants.
"""

import numpy as np
import pytest

from repro.alloc import NVAllocator
from repro.alloc.chunk import batch_commit
from repro.config import PrecopyPolicy
from repro.core import LocalCheckpointer, RestartManager, make_standalone_context
from repro.core.codec import (
    DEFAULT_BLOCK,
    DELTA_HEADER_BYTES,
    DIGEST_META_BYTES,
    AutoCodec,
    BlockStore,
    ContentModel,
    DedupCodec,
    DeltaCodec,
    RawCodec,
    block_digests,
    codec_names,
    content_digest,
    resolve_codec,
)
from repro.errors import (
    AllReplicasLost,
    CheckpointError,
    ConfigError,
    CrashInjected,
    InvalidAddress,
)
from repro.faults.crashpoints import install
from repro.faults.harness import CONSISTENT_OUTCOMES, CrashConsistencyHarness
from repro.faults.plan import FaultPlan, ScriptedFault
from repro.sim import Engine

pytestmark = pytest.mark.codec


def _buf(seed: int, n: int) -> bytes:
    return np.random.default_rng(seed).integers(0, 256, size=n, dtype=np.uint8).tobytes()


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------


def test_registry_names_and_resolution():
    assert codec_names() == ["auto", "dedup", "delta", "raw"]
    for name in codec_names():
        assert resolve_codec(name).name == name
    with pytest.raises(ConfigError):
        resolve_codec("gzip")


def test_policy_rejects_unknown_codec_and_bad_block():
    with pytest.raises(ConfigError):
        PrecopyPolicy(codec="gzip")
    assert not PrecopyPolicy().codec_enabled
    assert PrecopyPolicy(codec="delta").codec_enabled


# ---------------------------------------------------------------------------
# Block digests.
# ---------------------------------------------------------------------------


def test_block_digests_localize_change():
    data = _buf(14, 4 * DEFAULT_BLOCK)
    d1 = block_digests(np.frombuffer(data, dtype=np.uint8))
    mutated = bytearray(data)
    mutated[2 * DEFAULT_BLOCK] ^= 1
    d2 = block_digests(np.frombuffer(bytes(mutated), dtype=np.uint8))
    assert list(d1 != d2) == [False, False, True, False]
    assert content_digest(data) != content_digest(bytes(mutated))


# ---------------------------------------------------------------------------
# BlockStore transactionality.
# ---------------------------------------------------------------------------


def _digests(*vals: int) -> np.ndarray:
    return np.array(vals, dtype=np.uint64)


def test_store_stage_is_invisible_until_commit():
    s = BlockStore()
    s.stage("c", 0, np.array([0, 1]), _digests(10, 20))
    assert s.unique_blocks == 0 and not s.has(10)
    assert s.commit() == 2
    assert s.has(10) and s.has(20) and s.refcount(10) == 1
    assert list(s.slot_digests("c", 0)) == [10, 20]


def test_store_abort_and_begin_round_discard_staged():
    s = BlockStore()
    s.stage("c", 0, np.array([0]), _digests(10))
    s.abort()
    assert s.commit() == 0
    s.stage("c", 0, np.array([0]), _digests(10))
    s.begin_round()
    assert s.commit() == 0 and s.unique_blocks == 0


def test_store_overwrite_decrements_old_digest():
    s = BlockStore()
    s.stage("c", 0, np.array([0, 1]), _digests(10, 20))
    s.commit()
    s.stage("c", 0, np.array([0]), _digests(30))
    s.commit()
    assert not s.has(10) and s.has(20) and s.has(30)
    # shared digest across two slots holds refcount 2 and survives
    # one slot dropping it
    s.stage("c", 1, np.array([0]), _digests(20))
    s.commit()
    assert s.refcount(20) == 2
    s.stage("c", 1, np.array([0]), _digests(40))
    s.commit()
    assert s.refcount(20) == 1


def test_store_rebuild_matches_slot_truth():
    s = BlockStore()
    s.stage("a", 0, np.array([0, 1]), _digests(10, 20))
    s.stage("b", 0, np.array([0]), _digests(20))
    s.commit()
    before = (s.unique_blocks, s.total_refs, s.refcount(20))
    # simulate a torn index: wipe the cache, keep the durable maps
    s._digests = s._digests[:0]
    s._counts = s._counts[:0]
    s.rebuild()
    assert (s.unique_blocks, s.total_refs, s.refcount(20)) == before == (2, 3, 2)


def test_store_drop_chunk_releases_references():
    s = BlockStore()
    s.stage("a", 0, np.array([0]), _digests(10))
    s.stage("b", 0, np.array([0]), _digests(10))
    s.commit()
    s.drop_chunk("a")
    assert s.refcount(10) == 1
    s.drop_chunk("b")
    assert s.unique_blocks == 0
    s.drop_chunk("never-seen")  # no-op, no raise


def test_store_refcount_guards_raise():
    """Build-then-swap: an ``_apply`` that raises either guard leaves
    the index arrays the very objects (and values) they were — also
    when the same call's increfs had already been merged on the side."""
    s = BlockStore()
    s.stage("a", 0, np.array([0, 1]), _digests(10, 20))
    s.commit()
    digests, counts = s._digests, s._counts
    snapshot = (digests.copy(), counts.copy())
    for inc, dec in [
        (_digests(), _digests(99)),  # unknown decref
        (_digests(), _digests(10, 10)),  # 1 - 2 < 0
        (_digests(5, 10, 15), _digests(99)),  # increfs merged, then unknown
        (_digests(5, 10), _digests(10, 10, 10)),  # 1 + 1 - 3 < 0
    ]:
        with pytest.raises(CheckpointError):
            s._apply(inc, dec)
        assert s._digests is digests and s._counts is counts
        assert np.array_equal(digests, snapshot[0]) and np.array_equal(counts, snapshot[1])


def test_store_apply_merges_into_the_sorted_index():
    """New digests land below, between and above the resident ones, a
    digest increffed and decreffed in one call nets out, and rows that
    reach zero leave."""
    s = BlockStore()
    s._apply(_digests(20, 40, 40), _digests())
    s._apply(_digests(10, 30, 30, 40, 50, 2**64 - 1), _digests(20, 50))
    assert list(s._digests) == [10, 30, 40, 2**64 - 1]
    assert list(s._counts) == [1, 2, 3, 1]
    assert s._counts.dtype == np.int64 and s._digests.dtype == np.uint64
    s._apply(_digests(), _digests(10, 30, 30, 40, 40, 40, 2**64 - 1))
    assert s.unique_blocks == 0 and s.total_refs == 0


def test_store_commit_mid_crash_recovers_through_rebuild():
    """``codec.store.commit.mid``: the slot maps already hold the
    round, the index still holds the previous one (old objects, not a
    half-merged pair); ``rebuild()`` re-derives exactly what the
    uncrashed commit would have swapped in."""
    def two_rounds(store):
        store.stage("a", 0, np.array([0, 1, 2]), _digests(10, 20, 30))
        store.commit()
        store.stage("a", 0, np.array([1, 2]), _digests(40, 10))
        store.stage("b", 1, np.array([0]), _digests(5))
        store.commit()

    clean = BlockStore()
    two_rounds(clean)
    crashed = BlockStore()
    with install(FaultPlan.crash_at("codec.store.commit.mid", hit=2)):
        with pytest.raises(CrashInjected):
            two_rounds(crashed)
    assert list(crashed._digests) == [10, 20, 30] and list(crashed._counts) == [1, 1, 1]
    assert list(crashed.slot_digests("a", 0)) == [10, 40, 10]
    crashed.rebuild()
    assert np.array_equal(crashed._digests, clean._digests)
    assert np.array_equal(crashed._counts, clean._counts)
    assert list(clean._digests) == [5, 10, 40] and list(clean._counts) == [1, 2, 1]


def test_store_stage_last_write_wins_only_when_a_block_repeats():
    """Strictly increasing indices are queued as they are; anything
    else goes through the last-write-wins pass."""
    s = BlockStore()
    s.stage("a", 0, np.array([0, 2, 5]), _digests(10, 20, 30))
    s.stage("b", 0, np.array([3, 1, 3, 1]), _digests(1, 2, 3, 4))
    s.stage("c", 0, np.array([2, 1]), _digests(7, 8))
    assert s.commit() == 3 + 2 + 2
    assert list(s.slot_digests("a", 0)) == [10, 0, 20, 0, 0, 30]
    assert list(s.slot_digests("b", 0)) == [0, 4, 0, 3]
    assert list(s.slot_digests("c", 0)) == [0, 8, 7]
    assert not s.has(1) and not s.has(2) and s.total_refs == 7


def test_store_contains_vectorized():
    s = BlockStore()
    assert list(s.contains(_digests(20, 99))) == [False, False]  # empty store
    assert s.contains(_digests()).shape == (0,)
    s.stage("a", 0, np.array([0, 1, 2]), _digests(10, 20, 30))
    s.commit()
    hits = s.contains(_digests(20, 99, 10))
    assert list(hits) == [True, False, True]
    # answers come back in the needles' order, whatever that order is
    needles = _digests(30, 5, 30, 2**64 - 1, 10, 25, 10, 10, 20)
    assert list(s.contains(needles)) == [True, False, True, False, True, False, True, True, True]
    empty = s.contains(_digests())
    assert empty.shape == (0,) and empty.dtype == bool


# ---------------------------------------------------------------------------
# Planning mode: wire prices, and the auto codec plans its blocks once.
# ---------------------------------------------------------------------------


def _planning_chunk(phantom: bool, nbytes: int = 16 * DEFAULT_BLOCK + 100):
    engine = Engine()
    ctx = make_standalone_context(name="n0", engine=engine)
    alloc = NVAllocator("r0", ctx.nvmm, ctx.dram, phantom=phantom, clock=lambda: engine.now)
    chunk = alloc.nvalloc("a", nbytes)
    if phantom:
        chunk.content_novelty = 0.9  # most touches change the block
    else:
        chunk.write(0, np.frombuffer(_buf(50, nbytes), dtype=np.uint8))
    return chunk


def _commit_plan(store, chunk, payload, slot):
    store.stage(chunk.name, slot, payload.block_index, payload.block_digests)
    store.commit()


@pytest.mark.parametrize("phantom", [True, False], ids=["phantom", "real"])
def test_auto_plan_equals_its_planners_run_alone(phantom, monkeypatch):
    """One coverage + digest derivation feeds both block planners: the
    auto plan's candidates are exactly what each planner returns on
    its own, and the published index/digests are theirs."""
    chunk = _planning_chunk(phantom)
    store = BlockStore()
    auto = AutoCodec()
    _commit_plan(store, chunk, auto.plan(chunk, None, store=store, slot=0), 0)
    # rewrite a few runs (one spans the ragged tail block), leave the rest
    B = DEFAULT_BLOCK
    for off, n in [(B + 7, 3000), (9 * B, 2 * B), (chunk.nbytes - 60, 60)]:
        if phantom:
            chunk.touch(n, off)
        else:
            chunk.write(off, np.frombuffer(_buf(off, n), dtype=np.uint8))
    model_calls = []
    real_digests = ContentModel.digests
    monkeypatch.setattr(
        ContentModel,
        "digests",
        lambda self, idx: model_calls.append(len(idx)) or real_digests(self, idx),
    )
    for extents in (None, [(B, 3 * B), (9 * B + 5, 4000)]):
        kw = dict(store=store, slot=1, base_slot=0)
        del model_calls[:]
        got = auto.plan(chunk, extents, **kw)
        assert len(model_calls) == (1 if phantom else 0)
        raw = RawCodec().plan(chunk, extents, **kw)
        delta = DeltaCodec().plan(chunk, extents, **kw)
        dedup = DedupCodec().plan(chunk, extents, **kw)
        assert got.candidates == {
            "raw": raw.wire_bytes,
            "delta": delta.wire_bytes,
            "dedup": dedup.wire_bytes,
        }
        assert got.wire_bytes == min(got.candidates.values()) < got.logical_bytes
        for alone in (delta, dedup):
            assert np.array_equal(got.block_index, alone.block_index)
            assert np.array_equal(got.block_digests, alone.block_digests)
        winner = {"delta": delta, "dedup": dedup}[got.codec]
        for field in ("kind", "logical_bytes", "blocks", "blocks_new", "blocks_ref"):
            assert getattr(got, field) == getattr(winner, field), field
        if extents is None:
            # both arms met changed and unchanged blocks
            assert 0 < delta.blocks_ref < delta.blocks and 0 < dedup.blocks_ref < dedup.blocks


class _Unreadable:
    """A committed region whose read raises *exc*."""

    def __init__(self, exc):
        self.exc = exc

    def read(self, offset, nbytes):
        raise self.exc


def test_delta_plan_unreadable_base_charges_full_coverage_and_only_that():
    """A committed region the memory layer cannot read back falls back
    to the changed blocks' full coverage; any other exception is a bug
    in the planner and must surface, not inflate ``changed_bytes``."""
    chunk = _planning_chunk(phantom=False)
    store = BlockStore()
    delta = DeltaCodec()
    _commit_plan(store, chunk, delta.plan(chunk, None, store=store, slot=0), 0)
    chunk.write(2 * DEFAULT_BLOCK + 10, np.frombuffer(_buf(51, 100), dtype=np.uint8))
    exact = delta.plan(chunk, None, store=store, slot=1, base_slot=0)
    assert exact.blocks_new == 1 and 0 < exact.changed_bytes <= DEFAULT_BLOCK
    region = chunk.versions[0]
    try:
        chunk.versions[0] = _Unreadable(InvalidAddress("region gone"))
        fallback = delta.plan(chunk, None, store=store, slot=1, base_slot=0)
        assert fallback.changed_bytes == DEFAULT_BLOCK
        assert fallback.blocks_new == 1
        chunk.versions[0] = _Unreadable(ZeroDivisionError("planner bug"))
        with pytest.raises(ZeroDivisionError):
            delta.plan(chunk, None, store=store, slot=1, base_slot=0)
    finally:
        chunk.versions[0] = region


REAL_BLOCKS = 16  # a 64 KiB real chunk


def _rewrite(chunk, change):
    """Rewrite *chunk* after a committed checkpoint: ``None`` writes
    every byte back unchanged; ``(off, n)`` flips every bit of those
    *n* bytes, so all of them change; ``"repeated"`` fills the chunk
    with copies of one new block."""
    if change is None:
        chunk.write(0, chunk.view().copy())
    elif change == "repeated":
        chunk.write(0, np.frombuffer(_buf(9, DEFAULT_BLOCK) * REAL_BLOCKS, dtype=np.uint8))
    else:
        off, n = change
        chunk.write(off, chunk.view()[off : off + n] ^ 0xFF)


@pytest.mark.parametrize(
    "codec, change, extents, wire, blocks_new",
    [
        # an unchanged rewrite ships one run header per covered block
        ("delta", None, None, REAL_BLOCKS * DELTA_HEADER_BYTES, 0),
        # ... or one reference per covered block
        ("dedup", None, None, REAL_BLOCKS * DIGEST_META_BYTES, 0),
        # 63 changed bytes ship themselves plus every block's header:
        # 63 + 16 x 16 = 319 B
        ("delta", (100, 63), None, 63 + REAL_BLOCKS * DELTA_HEADER_BYTES, 1),
        # dedup ships the changed block whole plus every reference
        ("dedup", (100, 63), None, DEFAULT_BLOCK + REAL_BLOCKS * DIGEST_META_BYTES, 1),
        # either price is capped at the logical bytes
        ("delta", (100, 63), [(100, 8)], 8, 1),
        ("dedup", (100, 63), [(100, 8)], 8, 1),
        # the index holds committed digests only: 16 copies of one new
        # block all ship, and the price caps at the chunk
        ("dedup", "repeated", None, REAL_BLOCKS * DEFAULT_BLOCK, REAL_BLOCKS),
    ],
    ids=[
        "delta-same", "dedup-same", "delta-63B", "dedup-63B", "delta-cap", "dedup-cap",
        "dedup-repeated-block",
    ],
)
def test_planner_wire_prices_on_a_real_chunk(codec, change, extents, wire, blocks_new):
    """What the planner charges after one committed checkpoint of a
    64 KiB real chunk — the price every run reports."""
    chunk = _planning_chunk(phantom=False, nbytes=REAL_BLOCKS * DEFAULT_BLOCK)
    store = BlockStore()
    planner = resolve_codec(codec)
    slot = chunk.inprogress_index()
    first = planner.plan(chunk, None, store=store, slot=slot)
    chunk.stage_to_nvm()
    batch_commit([chunk])
    _commit_plan(store, chunk, first, slot)
    _rewrite(chunk, change)
    p = planner.plan(
        chunk,
        extents,
        store=store,
        slot=chunk.inprogress_index(),
        base_slot=chunk.committed_version,
    )
    assert (p.kind, p.wire_bytes, p.blocks_new) == (codec, wire, blocks_new)
    assert p.blocks_ref == p.blocks - blocks_new
    assert p.wire_bytes <= p.logical_bytes
    if codec == "delta":
        assert p.changed_bytes == (0 if change is None else change[1])


# ---------------------------------------------------------------------------
# The codec crash matrix (excluded from the default matrix: these
# points only fire when a non-raw codec stages into the block store).
# ---------------------------------------------------------------------------

CODEC_POINTS = [
    "codec.store.commit.before",
    "codec.store.commit.mid",
    "codec.store.commit.done",
]


@pytest.mark.faults
@pytest.mark.parametrize("point_name", CODEC_POINTS)
@pytest.mark.parametrize("codec", ["delta", "dedup", "auto"])
def test_codec_crash_matrix(point_name, codec):
    """Crash inside the block-store commit (clean-before, torn-mid,
    clean-after) under every non-raw codec: recovery must still
    round-trip a legal application state through the survived store."""
    harness = CrashConsistencyHarness(codec=codec)
    plan = FaultPlan(
        [ScriptedFault(point_name, hit=2)], name=f"{codec}@{point_name}"
    )
    result = harness.run(plan)
    assert all(f.consumed for f in plan.faults), (
        f"{codec}@{point_name}: never reached the crash point"
    )
    assert result.crash_point == point_name
    assert result.report is not None and result.report.ok, (
        f"{codec}@{point_name}: {result.report.summary() if result.report else 'no report'}"
    )
    assert result.outcome in CONSISTENT_OUTCOMES, (
        f"{codec}@{point_name}: outcome {result.outcome!r} ({result.detail})"
    )
    assert result.restored


@pytest.mark.faults
def test_codec_points_unreachable_under_raw():
    """The default (raw) harness never stages into a block store, so a
    plan targeting a codec point must simply never fire."""
    harness = CrashConsistencyHarness()  # codec="raw"
    plan = FaultPlan([ScriptedFault("codec.store.commit.mid", hit=1)])
    result = harness.run(plan)
    assert result.crash_point is None
    assert not any(f.consumed for f in plan.faults)


# ---------------------------------------------------------------------------
# Real-payload restart: block-digest verification end to end.
# ---------------------------------------------------------------------------


def _checkpoint_crash_restart(codec: str):
    """Two codec checkpoints over real content, a power loss, and a
    digest-verified restart; returns the RestartReport + checkpointer."""
    engine = Engine()
    ctx = make_standalone_context(name="n0", engine=engine)
    alloc = NVAllocator("r0", ctx.nvmm, ctx.dram, phantom=False, clock=lambda: engine.now)
    ck = LocalCheckpointer(ctx, alloc, PrecopyPolicy(mode="none", codec=codec))
    rng = np.random.default_rng(41)
    a = alloc.nvalloc("a", 64 * 1024)
    a.write(0, rng.integers(0, 255, size=64 * 1024, dtype=np.uint8))
    b = alloc.nvalloc("b", 32 * 1024)
    b.write(0, np.zeros(32 * 1024, dtype=np.uint8))
    p1 = engine.process(ck.checkpoint(blocking=False))
    engine.run()
    a.write(0, rng.integers(0, 255, size=4096, dtype=np.uint8))
    b.write(0, np.zeros(32 * 1024, dtype=np.uint8))
    p2 = engine.process(ck.checkpoint(blocking=False))
    engine.run()
    assert p1.ok and p2.ok
    ctx.nvmm.store.crash()
    ctx.nvmm.crash_process("r0")
    report = RestartManager(ctx).restart_process_sync(
        "r0", block_store=ck.destination.block_store
    )
    return report, ck


@pytest.mark.parametrize("codec", ["delta", "dedup", "auto"])
def test_restart_digest_verification_passes(codec):
    report, ck = _checkpoint_crash_restart(codec)
    assert report.chunks_local == 2 and not report.corrupted_chunks
    assert report.blocks_verified > 0
    assert report.digest_failures == 0
    # both checkpoints committed through the store
    assert ck.destination.block_store.commits == 2


def test_restart_digest_verification_catches_corruption():
    """Flip one committed digest in the store: the restart must treat
    the local version as corrupt and — with no remote replica to fall
    back to — refuse to restore it, rather than silently trusting the
    map."""
    engine = Engine()
    ctx = make_standalone_context(name="n0", engine=engine)
    alloc = NVAllocator("r0", ctx.nvmm, ctx.dram, phantom=False, clock=lambda: engine.now)
    ck = LocalCheckpointer(ctx, alloc, PrecopyPolicy(mode="none", codec="auto"))
    a = alloc.nvalloc("a", 16 * 1024)
    a.write(0, np.random.default_rng(42).integers(0, 255, size=16 * 1024, dtype=np.uint8))
    engine.process(ck.checkpoint(blocking=False))
    engine.run()
    store = ck.destination.block_store
    (key,) = [k for k in store._slots if k[0] == "a"]
    slot_map = store._slots[key]
    nz = np.flatnonzero(slot_map)
    slot_map[nz[0]] ^= np.uint64(1)
    ctx.nvmm.store.crash()
    ctx.nvmm.crash_process("r0")
    with pytest.raises(AllReplicasLost, match="'a'"):
        RestartManager(ctx).restart_process_sync("r0", block_store=store)
