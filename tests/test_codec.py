"""The payload-representation layer: codecs, block store, crash matrix.

Three concerns live here:

* **Exact-mode codecs** — every codec's ``decode(encode(x)) == x``
  byte transform on deterministic inputs, the loud-failure contracts
  (delta against the wrong base raises, dedup digest mismatch raises),
  and the wire-cost orderings the planner relies on (a sparse delta is
  smaller than a full copy; a re-encoded dedup payload ships only
  references).

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
of the round-trip and refcount invariants.
"""

import numpy as np
import pytest

from repro.alloc import NVAllocator
from repro.config import PrecopyPolicy
from repro.core import LocalCheckpointer, RestartManager, make_standalone_context
from repro.core.codec import (
    DEFAULT_BLOCK,
    AutoCodec,
    BlockStore,
    ContentModel,
    DedupCodec,
    DeltaCodec,
    Payload,
    RawCodec,
    block_digests,
    codec_names,
    content_digest,
    resolve_codec,
)
from repro.errors import (
    AllReplicasLost,
    CheckpointError,
    CodecError,
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
    with pytest.raises(ConfigError):
        PrecopyPolicy(codec="auto", codec_block=3000)
    assert not PrecopyPolicy().codec_enabled
    assert PrecopyPolicy(codec="delta").codec_enabled


# ---------------------------------------------------------------------------
# Exact-mode transforms.
# ---------------------------------------------------------------------------


def test_raw_round_trip_and_identity_cost():
    data = _buf(1, 10_000)
    p = RawCodec().encode_bytes(data)
    assert (p.kind, p.codec) == ("full", "raw")
    assert p.wire_bytes == p.logical_bytes == len(data)
    assert p.saved_bytes == 0
    assert RawCodec().decode_bytes(p) == data


def test_delta_round_trip_sparse_change_is_cheap():
    base = _buf(2, 64 * 1024)
    data = bytearray(base)
    data[100:164] = _buf(3, 64)  # one small dirty run
    p = DeltaCodec().encode_bytes(bytes(data), base=base)
    assert p.kind == "delta"
    assert DeltaCodec().decode_bytes(p, base=base) == bytes(data)
    # the wire carries ~the changed run, not the chunk
    assert p.wire_bytes < len(base) // 8
    assert 0 < p.changed_bytes <= 64


def test_delta_identical_buffers_ship_headers_only():
    base = _buf(4, 8192)
    p = DeltaCodec().encode_bytes(base, base=base)
    assert p.changed_bytes == 0
    assert p.data == b""
    assert DeltaCodec().decode_bytes(p, base=base) == base


def test_delta_requires_base_and_matching_length():
    data = _buf(5, 4096)
    with pytest.raises(CodecError):
        DeltaCodec().encode_bytes(data)
    with pytest.raises(CodecError):
        DeltaCodec().encode_bytes(data, base=data[:-1])


def test_delta_against_wrong_base_fails_loudly():
    base = _buf(6, 4096)
    data = _buf(7, 4096)
    p = DeltaCodec().encode_bytes(data, base=base)
    wrong = bytearray(base)
    wrong[0] ^= 0xFF
    with pytest.raises(CodecError, match="base mismatch"):
        DeltaCodec().decode_bytes(p, base=bytes(wrong))
    # silent corruption would be worse than the raise: verify the
    # correct base still round-trips after the failed attempt
    assert DeltaCodec().decode_bytes(p, base=base) == data


@pytest.mark.parametrize(
    "packed, complaint",
    [
        (DeltaCodec._RUN.pack(4090, 8) + bytes(8), "reaches past the 4096-byte base"),
        (DeltaCodec._RUN.pack(1 << 63, 1) + b"\x01", "reaches past"),
        (DeltaCodec._RUN.pack(0, 8) + bytes(5), "truncated inside the 8-byte run"),
        (DeltaCodec._RUN.pack(0, 1)[:7], "truncated inside the run header"),
        (DeltaCodec._RUN.pack(0, 1) + b"\x01" + b"\x00\x00", "truncated inside the run header"),
    ],
    ids=["run-past-base", "offset-far-past-base", "short-body", "short-header", "trailing-bytes"],
)
def test_delta_decode_rejects_malformed_runs(packed, complaint):
    """A run or a header outside the buffers it indexes is a codec
    failure, not an IndexError / struct.error (and never a silent
    partial apply)."""
    base = _buf(8, 4096)
    p = DeltaCodec().encode_bytes(base, base=base)
    p.data = packed
    with pytest.raises(CodecError, match=complaint):
        DeltaCodec().decode_bytes(p, base=base)


def test_delta_decode_applies_long_runs():
    """Every byte of a run is XORed, first and last included, and the
    bytes between runs are the base's."""
    base = _buf(9, 3 * 4096)
    data = bytearray(base)
    data[0:5000] = _buf(10, 5000)
    data[-1] ^= 0xFF
    p = DeltaCodec().encode_bytes(bytes(data), base=base)
    assert DeltaCodec().decode_bytes(p, base=base) == bytes(data)


def test_dedup_round_trip_and_reference_growth():
    store = BlockStore()
    data = _buf(8, 6 * DEFAULT_BLOCK)
    first = DedupCodec().encode_bytes(data, store=store)
    assert (first.blocks_new, first.blocks_ref) == (6, 0)
    assert DedupCodec().decode_bytes(first, store=store) == data
    # re-encoding identical content ships pure references
    second = DedupCodec().encode_bytes(data, store=store)
    assert (second.blocks_new, second.blocks_ref) == (0, 6)
    assert second.wire_bytes < first.wire_bytes
    assert DedupCodec().decode_bytes(second, store=store) == data


def test_dedup_repeated_blocks_dedupe_within_one_payload():
    store = BlockStore()
    blk = _buf(9, DEFAULT_BLOCK)
    data = blk * 4
    p = DedupCodec().encode_bytes(data, store=store)
    assert p.blocks_new == 1 and p.blocks_ref == 3
    assert DedupCodec().decode_bytes(p, store=store) == data


def test_dedup_tail_block_and_empty_input():
    store = BlockStore()
    data = _buf(10, DEFAULT_BLOCK + 7)  # ragged tail
    p = DedupCodec().encode_bytes(data, store=store)
    assert p.blocks == 2
    assert DedupCodec().decode_bytes(p, store=store) == data
    empty = DedupCodec().encode_bytes(b"", store=store)
    assert DedupCodec().decode_bytes(empty, store=store) == b""


def test_dedup_requires_store():
    with pytest.raises(CodecError):
        DedupCodec().encode_bytes(b"x")
    with pytest.raises(CodecError):
        DedupCodec().decode_bytes(
            Payload(kind="dedup", codec="dedup", logical_bytes=1, wire_bytes=1)
        )


def test_auto_picks_cheapest_and_decodes_via_kind():
    store = BlockStore()
    base = _buf(11, 8 * DEFAULT_BLOCK)
    data = bytearray(base)
    data[0:32] = _buf(12, 32)
    auto = AutoCodec()
    p = auto.encode_bytes(bytes(data), base=base, store=store)
    assert set(p.candidates) == {"raw", "delta", "dedup"}
    assert p.wire_bytes == min(p.candidates.values())
    assert p.codec == "delta"  # one dirty run beats shipping blocks
    assert auto.decode_bytes(p, base=base, store=store) == bytes(data)
    # incompressible novel content with no base: raw must win
    novel = auto.encode_bytes(_buf(13, 2 * DEFAULT_BLOCK), store=store)
    assert novel.codec == "raw"
    assert auto.decode_bytes(novel, store=store) == _buf(13, 2 * DEFAULT_BLOCK)


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
# Planning mode: the auto codec plans its blocks once.
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
