"""Property-based tests of dirty-page extent coalescing and the
incremental staging path: whatever writes land, the union of copied
extents covers exactly the dirty page set — no page copied twice, none
missed — and extent-granular staging leaves the NVM slot byte-identical
to DRAM."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.alloc import NVAllocator
from repro.core import make_standalone_context
from repro.memory.page import StalePageMap, _mask_extents

from tests.recompute_oracles import index_diff_extents

PAGE = 64  # small pages so a few writes exercise many boundary cases
N_PAGES = 40
NBYTES = N_PAGES * PAGE - 17  # deliberately ragged final page

writes = st.lists(
    st.tuples(
        st.integers(0, NBYTES - 1),
        st.integers(1, 5 * PAGE),
    ),
    min_size=0,
    max_size=20,
)


def _clip(off, n):
    return off, min(n, NBYTES - off)


def _dirty_pages(ws):
    pages = set()
    for off, n in (_clip(o, n) for o, n in ws):
        pages.update(range(off // PAGE, (off + n - 1) // PAGE + 1))
    return pages


def _extent_pages(extents):
    """Page indexes covered by the extents, asserting page alignment,
    ordering and coalescing on the way."""
    covered = []
    prev_end = -1
    for off, n in extents:
        assert n > 0
        assert off % PAGE == 0, "extent not page-aligned"
        assert off + n <= NBYTES
        # sorted, disjoint, and truly coalesced (a zero gap would mean
        # two adjacent runs that should have merged)
        assert off > prev_end, "extents overlap or touch (not coalesced)"
        prev_end = off + n
        last = (off + n - 1) // PAGE
        covered.extend(range(off // PAGE, last + 1))
    assert len(covered) == len(set(covered)), "a page is covered twice"
    return set(covered)


@given(ws=writes)
@settings(max_examples=120, deadline=None)
def test_extent_union_equals_dirty_page_set(ws):
    pmap = StalePageMap(NBYTES, 1, page_size=PAGE)
    pmap.clear_all(0)
    for off, n in (_clip(o, n) for o, n in ws):
        pmap.mark(off, n)
    extents = pmap.extents(0)
    assert _extent_pages(extents) == _dirty_pages(ws)
    # extent bytes match the map's own byte accounting
    assert sum(n for _, n in extents) == pmap.stale_bytes(0)


@given(ws=writes, cleared=st.integers(0, 19))
@settings(max_examples=80, deadline=None)
def test_per_slot_clear_is_isolated(ws, cleared):
    """Marks land in every slot; clearing one slot's extents leaves the
    sibling slot's stale set untouched."""
    pmap = StalePageMap(NBYTES, 2, page_size=PAGE)
    pmap.clear_all(0)
    pmap.clear_all(1)
    for off, n in (_clip(o, n) for o, n in ws):
        pmap.mark(off, n)
    before_other = pmap.extents(1)
    ext = pmap.extents(0)[: cleared or None]
    pmap.clear_extents(0, ext)
    assert pmap.extents(1) == before_other
    # the cleared pages are gone from slot 0, the rest remain
    remaining = _extent_pages(pmap.extents(0)) if pmap.extents(0) else set()
    assert remaining == _dirty_pages(ws) - _extent_pages(ext)


REAL_PAGE = 4096
C_BYTES = 6 * REAL_PAGE + 100  # ragged multi-page chunk (real page size)

chunk_writes = st.lists(
    st.tuples(
        st.integers(0, C_BYTES - 1),
        st.integers(1, 2 * REAL_PAGE),
        st.integers(0, 255),
    ),
    min_size=1,
    max_size=12,
)


@given(rounds=st.lists(chunk_writes, min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_extent_staging_reproduces_dram_exactly(rounds):
    """Alternating-slot incremental staging: after each checkpoint's
    extent copy, the staged NVM slot is byte-identical to DRAM — the
    end-to-end 'no page copied twice, none missed' property."""
    ctx = make_standalone_context(name="prop-extents")
    alloc = NVAllocator(
        "p0", ctx.nvmm, ctx.dram, phantom=False, clock=lambda: ctx.engine.now
    )
    chunk = alloc.nvalloc("c", C_BYTES)
    for ws in rounds:
        for off, n, val in ws:
            n = min(n, C_BYTES - off)
            chunk.write(off, np.full(n, val, dtype=np.uint8))
        extents = chunk.copy_extents("local")
        moved = chunk.stage_to_nvm(extents)
        assert moved == sum(n for _, n in extents)
        staged = np.asarray(chunk.inprogress_region().read(0, C_BYTES))
        assert np.array_equal(staged, chunk.dram), (
            "staged slot differs from DRAM after extent copy"
        )
        chunk.commit()
        assert chunk.stale_bytes("local", slot=chunk.committed_version) == 0


# ---------------------------------------------------------------------------
# Run edges from the bitmap's flips == the old index-diff coalescing.
# ---------------------------------------------------------------------------


def _both(mask, nbytes):
    mask = np.asarray(mask, dtype=bool)
    got = _mask_extents(mask, PAGE, nbytes)
    assert got == index_diff_extents(mask, PAGE, nbytes)
    assert all(type(v) is int for run in got for v in run)
    return got


@given(
    bits=st.lists(st.booleans(), min_size=0, max_size=70),
    tail=st.integers(0, PAGE - 1),
)
@settings(max_examples=300, deadline=None)
def test_flip_edges_equal_the_index_diff(bits, tail):
    """Any bitmap, full or partial last page."""
    nbytes = max(0, len(bits) * PAGE - tail) if bits else 0
    _both(bits, nbytes)


@pytest.mark.parametrize("tail", [0, 17], ids=["full-last-page", "partial-last-page"])
def test_flip_edges_on_the_corner_bitmaps(tail):
    n = 9
    nbytes = n * PAGE - tail
    assert _both(np.zeros(0, bool), 0) == []
    assert _both(np.zeros(n, bool), nbytes) == []
    assert _both(np.ones(n, bool), nbytes) == [(0, nbytes)]
    assert _both([True], PAGE - tail) == [(0, PAGE - tail)]
    for page in (0, 4, n - 1):  # single page: first, inner, last
        one = np.zeros(n, bool)
        one[page] = True
        assert _both(one, nbytes) == [(page * PAGE, min(PAGE, nbytes - page * PAGE))]
    even = _both(np.arange(n) % 2 == 0, nbytes)  # alternating, last page set
    assert len(even) == 5 and even[-1] == ((n - 1) * PAGE, PAGE - tail)
    odd = _both(np.arange(n) % 2 == 1, nbytes)  # alternating, last page clear
    assert odd == [(p * PAGE, PAGE) for p in (1, 3, 5, 7)]
    # a row of a 2-D bitmap (a strided view)
    grid = np.zeros((2, n), bool)
    grid[1, 2:5] = grid[1, 7:] = True
    assert _both(grid[1], nbytes) == [(2 * PAGE, 3 * PAGE), (7 * PAGE, 2 * PAGE - tail)]
