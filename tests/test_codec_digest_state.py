"""Block digests as state: the materialised digest vector, the
known-hits dedup shortcut and the changed-entries-only commit must
answer what the recomputing code answered (``tests/recompute_oracles.py``)
after any sequence of writes, plans, lands, commits, aborts, drops,
resizes and torn commits — equal, not close."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alloc import NVAllocator
from repro.config import PrecopyPolicy
from repro.core import LocalCheckpointer, make_standalone_context
from repro.core import codec as codec_mod
from repro.core.codec import (
    DEFAULT_BLOCK,
    AutoCodec,
    BlockStore,
    Codec,
    DedupCodec,
    DeltaCodec,
    current_digests,
    ensure_content_model,
)
from repro.errors import CrashInjected
from repro.faults.crashpoints import install
from repro.faults.plan import FaultPlan
from repro.sim import Engine

from tests.recompute_oracles import (
    assert_index_is_rebuilds,
    full_search_contains,
    recomputed_digests,
    reference_plan,
)

pytestmark = pytest.mark.codec

B = DEFAULT_BLOCK
#: ragged tails, a single block, and sizes a resize moves between
SIZES = (B, 3 * B + 100, 8 * B, 12 * B + 1, 20 * B)
PLANNERS = {"auto": AutoCodec(), "delta": DeltaCodec(), "dedup": DedupCodec()}
FIELDS = ("kind", "wire_bytes", "blocks_new", "blocks_ref", "changed_bytes")


class Rig:
    """A few phantom chunks, one block store, and the codec planners;
    ``step`` applies one event and every event ends in ``check``."""

    def __init__(self, n_chunks: int) -> None:
        engine = Engine()
        ctx = make_standalone_context(name="dg", engine=engine)
        self.alloc = NVAllocator("p0", ctx.nvmm, ctx.dram, phantom=True, clock=lambda: engine.now)
        self.store = BlockStore()
        self.names = [f"c{i}" for i in range(n_chunks)]
        for i, name in enumerate(self.names):
            chunk = self.alloc.nvalloc(name, SIZES[i % len(SIZES)])
            chunk.content_novelty = (0.05, 0.5, 0.9)[i % 3]
        #: plans made and not yet landed: (chunk name, payload)
        self.planned = []

    def chunk(self, a: int):
        return self.alloc.chunk(self.names[a % len(self.names)])

    def extents(self, chunk, a: int, b: int):
        """``None`` (whole chunk), or one or two runs that need not be
        block-aligned and may reach the ragged tail."""
        if a % 4 == 0:
            return None
        off = (a * 977) % chunk.nbytes
        runs = [(off, 1 + (b * 1613) % (chunk.nbytes - off))]
        if a % 4 == 3 and off > B:
            runs.insert(0, (0, 1 + b % B))
        return runs

    # -- events ---------------------------------------------------------

    def step(self, op: int, a: int, b: int) -> None:
        store = self.store
        if op == 0:  # application write
            chunk = self.chunk(a)
            off = (b * 811) % chunk.nbytes
            chunk.touch(1 + (a * 4099) % (chunk.nbytes - off), off)
        elif op == 1:  # plan, checked against the recomputing planners
            self.plan(self.chunk(a), a, b)
        elif op == 2:  # land: digests re-read at stage time
            if self.planned:
                name, payload = self.planned.pop(b % len(self.planned))
                chunk = self.alloc.chunk(name)
                idx = payload.block_index
                idx = idx[idx < ensure_content_model(chunk).nblocks]  # resized since
                store.stage(name, payload.slot, idx, current_digests(chunk, idx))
        elif op == 3:
            store.commit()
        elif op == 4:
            store.abort()
        elif op == 5:
            store.drop_chunk(self.chunk(a).name)
        elif op == 6:  # resize: the content model goes with the buffer
            chunk, nbytes = self.chunk(a), SIZES[b % len(SIZES)]
            resized = nbytes != chunk.nbytes
            self.alloc.nvrealloc(chunk.name, nbytes)
            assert chunk._content is None or not resized
        else:  # torn commit, then what restart does
            with install(FaultPlan.crash_at("codec.store.commit.mid")):
                with pytest.raises(CrashInjected):
                    store.commit()
            store.rebuild()
        self.check()

    def plan(self, chunk, a: int, b: int) -> None:
        store = self.store
        slot, base_slot = b % 2, (a // 4) % 3 - 1
        extents = self.extents(chunk, a, b)
        model = ensure_content_model(chunk)
        want = reference_plan(model, chunk.nbytes, extents, store, chunk.name, base_slot)
        idx, _, logical, digests, known = Codec._blocks(chunk, extents, store, base_slot, None)
        assert logical == want["logical"]
        assert np.array_equal(digests, want["digests"])
        if known is not None:
            # every known hit is a hit of the full search
            assert want["hits"][known].all()
        for name, planner in PLANNERS.items():
            got = planner.plan(chunk, extents, store=store, slot=slot, base_slot=base_slot)
            if name == "auto":
                assert got.candidates == want["candidates"]
                winner = min(("raw", "delta", "dedup"), key=want["candidates"].get)
                ref = want.get(winner) or {
                    "kind": "full", "wire_bytes": logical, "blocks_new": 0,
                    "blocks_ref": 0, "changed_bytes": 0,
                }
                assert got.codec == winner
            else:
                ref = want[name]
            for field in FIELDS:
                assert getattr(got, field) == ref[field], (name, field)
            assert np.array_equal(got.block_index, idx)
            assert np.array_equal(got.block_digests, want["digests"])
        got.slot = slot  # as CopyStep.plan stamps it; any planner's coverage lands
        self.planned.append((chunk.name, got))

    # -- invariants -----------------------------------------------------

    def check(self) -> None:
        for name in self.names:
            model = self.alloc.chunk(name)._content
            if model is not None:
                every = np.arange(model.nblocks)
                assert np.array_equal(model._digests, recomputed_digests(model, every))
                assert model._digests.dtype == np.uint64 and model._digests.all()
        assert_index_is_rebuilds(self.store)
        # the invariant the known-hits shortcut rests on
        for slot_map in self.store._slots.values():
            assert full_search_contains(self.store, slot_map[slot_map != 0]).all()


# writes, plans and lands dominate, as in a run
OPS = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 3, 3, 4, 5, 6, 7]


@pytest.mark.parametrize("block", range(4))
def test_digest_state_equals_the_recomputation(block):
    """Seeded random programs (hypothesis' list strategy rarely builds
    the write / plan / write / land / commit interleavings that tell
    state from recomputation apart; 4 x 25 programs of 120 events do)."""
    for seed in range(25 * block, 25 * (block + 1)):
        rnd = random.Random(seed)
        rig = Rig(rnd.randint(1, 4))
        for n in range(120):
            try:
                rig.step(rnd.choice(OPS), rnd.randrange(256), rnd.randrange(256))
            except AssertionError as err:
                raise AssertionError(f"seed {seed}, event {n}: {err}") from None


@given(
    n_chunks=st.integers(1, 3),
    program=st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, 255), st.integers(0, 255)),
        max_size=40,
    ),
)
@settings(max_examples=60, deadline=None)
def test_digest_state_equals_the_recomputation_property(n_chunks, program):
    rig = Rig(n_chunks)
    for op, a, b in program:
        rig.step(op, a, b)


def test_contains_on_an_empty_index_or_no_needles_searches_nothing(monkeypatch):
    store = BlockStore()
    needles = np.array([3, 1, 2], dtype=np.uint64)
    monkeypatch.setattr(codec_mod, "_locate", None)  # would raise if reached
    assert not store.contains(needles).any()
    store._digests, store._counts = np.array([1, 2], np.uint64), np.array([1, 1], np.int64)
    empty = store.contains(needles[:0])
    assert empty.shape == (0,) and empty.dtype == bool


def test_commit_counts_only_the_entries_that_change(monkeypatch):
    """Re-staging a slot with what it holds refcounts nothing; one
    changed block is one incref and one decref."""
    store = BlockStore()
    idx = np.arange(6)
    first = np.array([10, 20, 30, 40, 50, 60], dtype=np.uint64)
    store.stage("a", 0, idx, first)
    store.commit()
    applied = []
    real_apply = BlockStore._apply
    monkeypatch.setattr(
        BlockStore,
        "_apply",
        lambda self, inc, dec: applied.append((inc.tolist(), dec.tolist()))
        or real_apply(self, inc, dec),
    )
    store.stage("a", 0, idx, first)
    assert store.commit() == 6
    second = first.copy()
    second[2] = 35
    store.stage("a", 0, idx, second)
    # the same block twice in one round: the later stage sees the earlier
    store.stage("a", 0, np.array([2, 4]), np.array([36, 50], dtype=np.uint64))
    assert store.commit() == 8
    assert applied == [([], []), ([35, 36], [30, 35])]
    assert list(store._digests) == [10, 20, 36, 40, 50, 60]
    assert list(store._counts) == [1] * 6


def test_untouched_chunk_plans_and_lands_without_hashing_or_searching(monkeypatch):
    """A chunk no write touched since its last plan: the digests are a
    gather from the vector (``_mix64`` never runs) and every block
    equals its committed base, so ``contains`` gets zero needles."""
    engine = Engine()
    ctx = make_standalone_context(name="n0", engine=engine)
    alloc = NVAllocator("r0", ctx.nvmm, ctx.dram, phantom=True, clock=lambda: engine.now)
    ck = LocalCheckpointer(ctx, alloc, PrecopyPolicy(mode="none", codec="auto"))
    chunk = alloc.nvalloc("a", 24 * B + 17)
    other = alloc.nvalloc("b", 8 * B)  # keeps the index non-empty and shared
    for rounds in range(2):
        engine.process(ck.checkpoint(blocking=False))
        engine.run()
        chunk.touch(5 * B, 3 * B)
        other.touch()
    engine.process(ck.checkpoint(blocking=False))
    engine.run()
    store = ck.destination.block_store
    assert store.commits == 3 and store.unique_blocks > 0

    mixes, needles = [], []
    real_mix, real_contains = codec_mod._mix64, BlockStore.contains
    monkeypatch.setattr(codec_mod, "_mix64", lambda x: mixes.append(len(x)) or real_mix(x))
    monkeypatch.setattr(
        BlockStore,
        "contains",
        lambda self, d: needles.append(len(d)) or real_contains(self, d),
    )
    plan = ck.copier.plan(chunk, ck.destination)
    assert plan.payload.blocks == 25 and plan.payload.blocks_ref == 25
    assert plan.payload.candidates["dedup"] < plan.payload.candidates["raw"]
    ck.copier.land(plan, start=engine.now, phase="coordinated")
    assert mixes == [] and sum(needles) == 0
    # ... and one written block is one re-derived digest, one needle
    chunk.touch(10, 7 * B)
    plan = ck.copier.plan(chunk, ck.destination)
    assert sum(mixes) <= 2 and sum(needles) <= 1
