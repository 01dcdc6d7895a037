"""Per-chunk stale page runs: the page state every run keeps."""

import pytest

from repro.memory import StalePageMap
from repro.units import PAGE_SIZE


class TestStalePageMap:
    @pytest.fixture
    def pmap(self):
        return StalePageMap(10 * PAGE_SIZE, 2)

    def test_fresh_slots_start_fully_stale(self, pmap):
        assert pmap.n_slots == 2
        for slot in (0, 1):
            assert pmap.stale_bytes(slot) == 10 * PAGE_SIZE

    def test_mark_lands_in_every_slot(self, pmap):
        pmap.clear_all(0)
        pmap.clear_all(1)
        pmap.mark(PAGE_SIZE, PAGE_SIZE)
        assert pmap.extents(0) == [(PAGE_SIZE, PAGE_SIZE)]
        assert pmap.extents(1) == [(PAGE_SIZE, PAGE_SIZE)]

    def test_clear_is_per_slot(self, pmap):
        pmap.clear_all(0)
        pmap.mark(0, PAGE_SIZE)
        pmap.clear_extents(0, pmap.extents(0))
        assert pmap.extents(0) == []
        assert pmap.stale_bytes(1) == 10 * PAGE_SIZE  # untouched

    def test_ensure_slots_grows_fully_stale(self, pmap):
        pmap.clear_all(0)
        pmap.ensure_slots(3)
        assert pmap.n_slots == 3
        assert pmap.stale_bytes(2) == 10 * PAGE_SIZE
        pmap.ensure_slots(2)  # never shrinks
        assert pmap.n_slots == 3

    def test_resize_marks_everything_stale(self, pmap):
        pmap.clear_all(0)
        pmap.clear_all(1)
        pmap.resize(4 * PAGE_SIZE)
        assert pmap.nbytes == 4 * PAGE_SIZE
        for slot in (0, 1):
            assert pmap.stale_bytes(slot) == 4 * PAGE_SIZE

    def test_partial_page_clear_keeps_the_page_stale(self, pmap):
        """Over-copying is the safe direction: a copy of 50 bytes of
        page 0 leaves the other 4,046 stale bytes of it to copy."""
        pmap.clear_extents(0, [(100, 50)])
        assert pmap.extents(0) == [(0, 10 * PAGE_SIZE)]
        assert pmap.stale_bytes(0) == 10 * PAGE_SIZE

    def test_clear_drops_only_whole_pages(self, pmap):
        pmap.clear_all(0)
        pmap.mark(0, 4 * PAGE_SIZE)
        pmap.clear_extents(0, [(100, 2 * PAGE_SIZE)])  # pages 0 and 2 in part
        assert pmap.extents(0) == [(0, PAGE_SIZE), (2 * PAGE_SIZE, 2 * PAGE_SIZE)]
        assert pmap.extents(1) == [(0, 10 * PAGE_SIZE)]

    def test_clear_reaching_the_end_counts_the_ragged_page_whole(self):
        pmap = StalePageMap(2 * PAGE_SIZE + 100, 1)
        pmap.clear_extents(0, [(2 * PAGE_SIZE + 50, 50)])
        assert pmap.stale_bytes(0) == 2 * PAGE_SIZE + 100
        pmap.clear_extents(0, [(PAGE_SIZE, PAGE_SIZE + 100)])
        assert pmap.extents(0) == [(0, PAGE_SIZE)]

    def test_needs_at_least_one_slot(self):
        with pytest.raises(ValueError):
            StalePageMap(PAGE_SIZE, 0)
