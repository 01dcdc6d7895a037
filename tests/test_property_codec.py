"""Property-based tests of the codec's block store.

:class:`BlockStore` refcounts never go negative and the refcount index
always equals what :meth:`BlockStore.rebuild` re-derives from the slot
maps, across arbitrary stage/commit/abort/overwrite/drop_chunk programs
and at the size the codec workload runs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.codec import BlockStore

from tests.recompute_oracles import assert_index_is_rebuilds

pytestmark = pytest.mark.codec


# ---------------------------------------------------------------------------
# BlockStore refcount invariants.
# ---------------------------------------------------------------------------

CHUNKS = ["a", "b"]
SLOTS = [0, 1]
NBLOCKS = 4
# a handful of small digests so rounds collide on the same rows, and
# the whole uint64 range so new rows land anywhere in the sorted index
DIGESTS = st.one_of(st.integers(1, 5), st.integers(1, 2**64 - 1))


store_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("stage"),
            st.sampled_from(CHUNKS),
            st.sampled_from(SLOTS),
            st.lists(
                st.tuples(st.integers(0, NBLOCKS - 1), DIGESTS),
                min_size=1,
                max_size=NBLOCKS,
            ),
        ),
        st.tuples(st.just("commit"), st.none(), st.none(), st.none()),
        st.tuples(st.just("abort"), st.none(), st.none(), st.none()),
        st.tuples(st.just("begin_round"), st.none(), st.none(), st.none()),
        st.tuples(st.just("drop"), st.sampled_from(CHUNKS), st.none(), st.none()),
        st.tuples(st.just("rebuild"), st.none(), st.none(), st.none()),
    ),
    max_size=30,
)


@given(program=store_ops)
@settings(max_examples=200, deadline=None)
def test_store_refcounts_never_negative(program):
    """Any stage/commit/abort/drop/rebuild interleaving: counts stay
    positive, the index matches a model rebuilt from the slot maps,
    and total refs equal the live slot-map entries."""
    s = BlockStore(block=64)
    for op, name, slot, writes in program:
        if op == "stage":
            idx = np.array([i for i, _ in writes], dtype=np.int64)
            dgs = np.array([d for _, d in writes], dtype=np.uint64)
            s.stage(name, slot, idx, dgs)
        elif op == "commit":
            s.commit()
        elif op == "abort":
            s.abort()
        elif op == "begin_round":
            s.begin_round()
        elif op == "drop":
            s.drop_chunk(name)
        else:
            s.rebuild()

        assert_index_is_rebuilds(s)
        assert len(s._digests) == len(set(s._digests.tolist()))
        live = [v[v != 0] for v in s._slots.values()]
        assert s.total_refs == sum(len(v) for v in live)


def test_store_index_tracks_rebuild_at_workload_scale():
    """A seeded program at the size the codec workload runs (tens of
    thousands of blocks a round): first fill, a second chunk sharing
    content, sparse and dense overwrites, an unsorted stage that names
    blocks twice, drops.  After every step the merged index equals the
    full re-derivation."""
    rng = np.random.default_rng(16)
    nblocks = 60_000
    pool = rng.integers(1, 2**64 - 1, size=40_000, dtype=np.uint64)

    def draw(n, fresh):
        """*n* digests: a *fresh* fraction never seen, the rest from the pool."""
        out = rng.choice(pool, size=n)
        new = rng.random(n) < fresh
        out[new] = rng.integers(1, 2**64 - 1, size=int(new.sum()), dtype=np.uint64)
        return out

    def subset(n):
        return np.sort(rng.choice(nblocks, size=n, replace=False))

    s = BlockStore()
    everything = np.arange(nblocks)
    steps = [
        ("a", 0, everything, draw(nblocks, 0.0)),  # fill: pool only, many shared rows
        ("b", 0, everything, draw(nblocks, 0.5)),  # half new rows spread over the index
        ("a", 1, everything, draw(nblocks, 0.1)),
        ("a", 0, subset(20_000), draw(20_000, 0.3)),  # overwrite: decref + incref
        ("b", 0, subset(500), draw(500, 1.0)),  # sparse round into a big index
        ("a", 1, rng.integers(0, nblocks, size=30_000), draw(30_000, 0.2)),  # repeats, unsorted
        ("b", 0, everything, np.full(nblocks, pool[0])),  # one row takes 60k refs, most rows leave
    ]
    for name, slot, idx, digests in steps:
        s.stage(name, slot, idx, digests)
        assert s.commit() == len(np.unique(idx))
        assert_index_is_rebuilds(s)
    assert s.refcount(int(pool[0])) >= nblocks
    # two stages of one slot in one round: the later one's decref meets
    # the digest the earlier one just put there
    s.stage("b", 1, subset(10_000), draw(10_000, 0.5))
    s.stage("b", 1, subset(10_000), draw(10_000, 0.5))
    s.commit()
    assert_index_is_rebuilds(s)
    for name in ("a", "b"):
        s.drop_chunk(name)
        assert_index_is_rebuilds(s)
    assert s.unique_blocks == 0
