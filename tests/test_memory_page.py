"""Page tables: protection bits, nvdirty bits, fault accounting."""

import pytest

from repro.errors import InvalidAddress
from repro.memory import PageTable
from repro.units import PAGE_SIZE


@pytest.fixture
def table():
    return PageTable(10 * PAGE_SIZE)


class TestConstruction:
    def test_page_count(self, table):
        assert table.n_pages == 10

    def test_partial_last_page(self):
        t = PageTable(PAGE_SIZE + 1)
        assert t.n_pages == 2

    def test_empty_region(self):
        t = PageTable(0)
        assert t.n_pages == 0
        assert not t.any_protected()

    def test_validation(self):
        with pytest.raises(ValueError):
            PageTable(-1)
        with pytest.raises(ValueError):
            PageTable(100, page_size=0)


class TestProtection:
    def test_protect_all_and_check_range(self, table):
        table.protect_all()
        assert table.is_protected(0)
        assert table.is_protected(5 * PAGE_SIZE, PAGE_SIZE)
        assert table.any_protected()

    def test_unprotect_all(self, table):
        table.protect_all()
        table.unprotect_all()
        assert not table.any_protected()

    def test_out_of_bounds_access(self, table):
        with pytest.raises(InvalidAddress):
            table.is_protected(10 * PAGE_SIZE, 1)
        with pytest.raises(InvalidAddress):
            table.is_protected(-1)

    def test_fault_counting(self, table):
        table.record_fault()
        table.record_fault()
        assert table.fault_count == 2


class TestNvDirty:
    def test_mark_and_collect(self, table):
        table.mark_nvdirty(0, 1)  # page 0
        table.mark_nvdirty(3 * PAGE_SIZE, PAGE_SIZE)  # page 3
        assert table.collect_nvdirty(clear=False) == [0, 3]

    def test_range_spanning_pages(self, table):
        table.mark_nvdirty(PAGE_SIZE - 1, 2)  # crosses page 0->1
        assert table.collect_nvdirty() == [0, 1]

    def test_collect_clears_by_default(self, table):
        table.mark_nvdirty(0, PAGE_SIZE)
        assert table.collect_nvdirty() == [0]
        assert table.collect_nvdirty() == []

    def test_mark_all(self, table):
        table.mark_all_nvdirty()
        assert len(table.collect_nvdirty()) == 10

    def test_nvdirty_bytes_full_pages(self, table):
        table.mark_nvdirty(0, 2 * PAGE_SIZE)
        assert table.nvdirty_bytes() == 2 * PAGE_SIZE

    def test_nvdirty_bytes_partial_last_page(self):
        t = PageTable(PAGE_SIZE + 100)
        t.mark_all_nvdirty()
        assert t.nvdirty_bytes() == PAGE_SIZE + 100

    def test_nvdirty_bytes_zero(self, table):
        assert table.nvdirty_bytes() == 0

    def test_zero_length_mark_is_noop(self, table):
        table.mark_nvdirty(0, 0)
        assert table.collect_nvdirty() == []


class TestResize:
    def test_grow_preserves_state(self, table):
        table.protect_all()
        table.mark_nvdirty(0, PAGE_SIZE)
        table.resize(20 * PAGE_SIZE)
        assert table.n_pages == 20
        assert table.is_protected(0)
        assert not table.is_protected(15 * PAGE_SIZE)  # new pages clean
        assert table.collect_nvdirty() == [0]

    def test_shrink_truncates(self, table):
        table.mark_nvdirty(9 * PAGE_SIZE, PAGE_SIZE)
        table.resize(5 * PAGE_SIZE)
        assert table.n_pages == 5
        assert table.collect_nvdirty() == []


class TestNvDirtyExtents:
    def test_empty(self, table):
        assert table.nvdirty_extents() == []

    def test_adjacent_pages_coalesce(self, table):
        table.mark_nvdirty(PAGE_SIZE, 3 * PAGE_SIZE)
        assert table.nvdirty_extents() == [(PAGE_SIZE, 3 * PAGE_SIZE)]

    def test_gap_splits_runs(self, table):
        table.mark_nvdirty(0, PAGE_SIZE)
        table.mark_nvdirty(5 * PAGE_SIZE, PAGE_SIZE)
        assert table.nvdirty_extents() == [
            (0, PAGE_SIZE),
            (5 * PAGE_SIZE, PAGE_SIZE),
        ]

    def test_final_extent_clipped_to_region(self):
        t = PageTable(PAGE_SIZE + 100)
        t.mark_all_nvdirty()
        assert t.nvdirty_extents() == [(0, PAGE_SIZE + 100)]

    def test_clear_flag_resets(self, table):
        table.mark_nvdirty(0, PAGE_SIZE)
        assert table.nvdirty_extents(clear=True) == [(0, PAGE_SIZE)]
        assert table.nvdirty_extents() == []

    def test_clear_range_is_exact(self, table):
        table.mark_nvdirty(0, 4 * PAGE_SIZE)
        table.clear_nvdirty_range(PAGE_SIZE, 2 * PAGE_SIZE)
        assert table.nvdirty_extents() == [
            (0, PAGE_SIZE),
            (3 * PAGE_SIZE, PAGE_SIZE),
        ]

    def test_clear_range_keeps_partly_covered_pages_dirty(self, table):
        table.mark_nvdirty(0, 4 * PAGE_SIZE)
        table.clear_nvdirty_range(100, 2 * PAGE_SIZE)  # covers page 1 only whole
        assert table.nvdirty_extents() == [(0, PAGE_SIZE), (2 * PAGE_SIZE, 2 * PAGE_SIZE)]
        table.clear_nvdirty_range(0, 50)
        assert table.collect_nvdirty() == [0, 2, 3]

    def test_clear_range_reaching_the_end_clears_the_ragged_page(self):
        t = PageTable(2 * PAGE_SIZE + 100)
        t.mark_all_nvdirty()
        t.clear_nvdirty_range(2 * PAGE_SIZE + 50, 50)  # half of the tail page
        assert t.collect_nvdirty(clear=False) == [0, 1, 2]
        t.clear_nvdirty_range(PAGE_SIZE, PAGE_SIZE + 100)
        assert t.collect_nvdirty() == [0]


class TestStalePageMap:
    @pytest.fixture
    def pmap(self):
        from repro.memory import StalePageMap

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
        from repro.memory import StalePageMap

        pmap = StalePageMap(2 * PAGE_SIZE + 100, 1)
        pmap.clear_extents(0, [(2 * PAGE_SIZE + 50, 50)])
        assert pmap.stale_bytes(0) == 2 * PAGE_SIZE + 100
        pmap.clear_extents(0, [(PAGE_SIZE, PAGE_SIZE + 100)])
        assert pmap.extents(0) == [(0, PAGE_SIZE)]

    def test_needs_at_least_one_slot(self):
        from repro.memory import StalePageMap

        with pytest.raises(ValueError):
            StalePageMap(PAGE_SIZE, 0)
