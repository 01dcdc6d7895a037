"""The persistent store: region lifecycle, flush boundary, crash
rollback."""

import numpy as np
import pytest

from repro.errors import InvalidAddress, PersistenceError
from repro.memory import InMemoryStore
from tests.conftest import container_ids


#: the param names the store kind in the test ids
@pytest.fixture(params=["memory"])
def anystore():
    return InMemoryStore()


class TestRegionLifecycle:
    def test_create_zero_filled(self, anystore):
        anystore.create("r", 64)
        assert anystore.size("r") == 64
        assert not anystore.read("r").any()

    def test_duplicate_create_rejected(self, anystore):
        anystore.create("r", 8)
        with pytest.raises(PersistenceError):
            anystore.create("r", 8)

    def test_delete(self, anystore):
        anystore.create("r", 8)
        anystore.delete("r")
        assert not anystore.exists("r")
        with pytest.raises(PersistenceError):
            anystore.read("r")

    def test_delete_unknown_rejected(self, anystore):
        with pytest.raises(PersistenceError):
            anystore.delete("ghost")

    def test_resize_grow_preserves_prefix(self, anystore):
        anystore.create("r", 4)
        anystore.write("r", 0, np.array([1, 2, 3, 4], dtype=np.uint8))
        anystore.resize("r", 8)
        assert list(anystore.read("r")[:4]) == [1, 2, 3, 4]
        assert list(anystore.read("r")[4:]) == [0, 0, 0, 0]

    def test_resize_shrink(self, anystore):
        anystore.create("r", 8)
        anystore.resize("r", 2)
        assert anystore.size("r") == 2

    def test_list_regions_sorted(self, anystore):
        for name in ("c", "a", "b"):
            anystore.create(name, 1)
        assert anystore.list_regions() == ["a", "b", "c"]

    def test_negative_size_rejected(self, anystore):
        with pytest.raises(PersistenceError):
            anystore.create("r", -1)


class TestDataAccess:
    def test_write_read_roundtrip(self, anystore):
        anystore.create("r", 1024)
        data = np.arange(128, dtype=np.float64)
        anystore.write("r", 0, data)
        got = anystore.read("r", 0, 1024).view(np.float64)
        assert np.array_equal(got, data)

    def test_offset_write(self, anystore):
        anystore.create("r", 16)
        anystore.write("r", 8, np.full(8, 7, dtype=np.uint8))
        got = anystore.read("r")
        assert not got[:8].any()
        assert (got[8:] == 7).all()

    def test_out_of_bounds_write(self, anystore):
        anystore.create("r", 8)
        with pytest.raises(InvalidAddress):
            anystore.write("r", 4, np.zeros(8, dtype=np.uint8))

    def test_out_of_bounds_read(self, anystore):
        anystore.create("r", 8)
        with pytest.raises(InvalidAddress):
            anystore.read("r", 4, 8)

    def test_read_returns_copy(self, anystore):
        anystore.create("r", 4)
        got = anystore.read("r")
        got[:] = 99
        assert not anystore.read("r").any()


class TestFlushBoundary:
    def test_unflushed_write_dies_on_crash(self, anystore):
        anystore.create("r", 4)
        anystore.flush()
        anystore.write("r", 0, np.full(4, 5, dtype=np.uint8))
        anystore.crash()
        assert not anystore.read("r").any()

    def test_flushed_write_survives_crash(self, anystore):
        anystore.create("r", 4)
        anystore.write("r", 0, np.full(4, 5, dtype=np.uint8))
        anystore.flush()
        anystore.crash()
        assert (anystore.read("r") == 5).all()

    def test_unflushed_region_creation_dies(self, anystore):
        anystore.create("never_flushed", 4)
        anystore.crash()
        assert not anystore.exists("never_flushed")

    def test_flush_returns_byte_count(self, anystore):
        anystore.create("r", 100)
        assert anystore.flush() == 100
        assert anystore.flush() == 0  # nothing dirty now

    def test_metadata_flush_boundary(self, anystore):
        anystore.put_meta("k", {"a": 1})
        anystore.flush()
        anystore.put_meta("k", {"a": 2})
        anystore.crash()
        assert anystore.get_meta("k") == {"a": 1}

    def test_meta_delete_crash_rollback(self, anystore):
        anystore.put_meta("k", 1)
        anystore.flush()
        anystore.delete_meta("k")
        anystore.crash()
        assert anystore.get_meta("k") == 1

    def test_meta_delete_flushed(self, anystore):
        anystore.put_meta("k", 1)
        anystore.flush()
        anystore.delete_meta("k")
        anystore.flush()
        anystore.crash()
        assert anystore.get_meta("k") is None

    def test_meta_value_is_deep_copied(self, anystore):
        payload = {"list": [1, 2]}
        anystore.put_meta("k", payload)
        payload["list"].append(3)
        assert anystore.get_meta("k") == {"list": [1, 2]}


class TestMetaEntries:
    """Table-valued metadata updated one record at a time: the record
    obeys the same flush boundary as a whole key."""

    KEY = "nvmm/proc:p0"

    def test_entry_creates_key_and_table(self, anystore):
        anystore.put_meta_entry(self.KEY, "regions", "a", {"size": 8})
        assert anystore.get_meta(self.KEY) == {"regions": {"a": {"size": 8}}}
        assert anystore.list_meta() == [self.KEY]

    def test_unflushed_entry_dies_on_crash(self, anystore):
        anystore.put_meta_entry(self.KEY, "regions", "a", {"size": 8})
        anystore.crash()
        assert anystore.get_meta(self.KEY) is None

    def test_flushed_entry_survives_a_later_unflushed_one_does_not(self, anystore):
        anystore.put_meta_entry(self.KEY, "regions", "a", {"size": 8})
        anystore.flush()
        anystore.put_meta_entry(self.KEY, "regions", "b", {"size": 16})
        anystore.put_meta_entry(self.KEY, "regions", "a", {"size": 9})
        anystore.crash()
        assert anystore.get_meta(self.KEY) == {"regions": {"a": {"size": 8}}}

    def test_entry_joins_a_table_written_as_a_whole(self, anystore):
        anystore.put_meta(self.KEY, {"regions": {"a": {"size": 8}}})
        anystore.flush()
        anystore.put_meta_entry(self.KEY, "regions", "b", {"size": 16})
        anystore.flush()
        anystore.crash()
        assert anystore.get_meta(self.KEY) == {
            "regions": {"a": {"size": 8}, "b": {"size": 16}}
        }

    def test_entry_delete_rolls_back(self, anystore):
        anystore.put_meta_entry(self.KEY, "regions", "a", {"size": 8})
        anystore.flush()
        anystore.delete_meta_entry(self.KEY, "regions", "a")
        assert anystore.get_meta(self.KEY) == {"regions": {}}
        anystore.crash()
        assert anystore.get_meta(self.KEY) == {"regions": {"a": {"size": 8}}}

    def test_entry_delete_flushed(self, anystore):
        anystore.put_meta_entry(self.KEY, "regions", "a", {"size": 8})
        anystore.flush()
        anystore.delete_meta_entry(self.KEY, "regions", "a")
        anystore.flush()
        anystore.crash()
        assert anystore.get_meta(self.KEY) == {"regions": {}}

    def test_delete_of_absent_entry_is_a_noop(self, anystore):
        anystore.delete_meta_entry(self.KEY, "regions", "a")
        assert anystore.get_meta(self.KEY) is None
        anystore.put_meta(self.KEY, {"regions": {}})
        anystore.delete_meta_entry(self.KEY, "regions", "a")
        assert anystore.get_meta(self.KEY) == {"regions": {}}

    def test_caller_mutation_after_the_put_does_not_leak_in(self, anystore):
        record = {"size": 8, "checksums": [1, None]}
        anystore.put_meta_entry(self.KEY, "chunks", "a", record)
        record["checksums"].append(3)
        record["size"] = 0
        assert anystore.get_meta(self.KEY)["chunks"]["a"] == {
            "size": 8, "checksums": [1, None]
        }

    def test_reader_mutation_does_not_reach_the_durable_side(self, anystore):
        anystore.put_meta_entry(self.KEY, "chunks", "a", {"size": 8})
        anystore.flush()
        anystore.get_meta(self.KEY)["chunks"]["a"]["size"] = 0
        anystore.crash()
        assert anystore.get_meta(self.KEY)["chunks"]["a"] == {"size": 8}
        # the crash rebuilt the working side as a copy, not a view: a
        # reader mutating it now still cannot reach the durable side
        mem = getattr(anystore, "_inner", anystore)
        assert mem._meta_working == mem._meta_durable
        assert not container_ids(mem._meta_working) & container_ids(mem._meta_durable)

    def test_record_is_json_normalised(self, anystore):
        anystore.put_meta_entry(self.KEY, "chunks", "a", {"pair": (1, 2), 3: "x"})
        assert anystore.get_meta(self.KEY)["chunks"]["a"] == {"pair": [1, 2], "3": "x"}

    def test_non_json_record_rejected_and_nothing_changes(self, anystore):
        with pytest.raises(TypeError):
            anystore.put_meta_entry(self.KEY, "chunks", "a", {"bad": object()})
        assert anystore.get_meta(self.KEY) is None
        assert anystore.list_meta() == []

    def test_entry_into_a_non_table_rejected(self, anystore):
        anystore.put_meta("scalar", 1)
        anystore.put_meta("flat", {"regions": 1})
        with pytest.raises(PersistenceError):
            anystore.put_meta_entry("scalar", "regions", "a", {})
        with pytest.raises(PersistenceError):
            anystore.put_meta_entry("flat", "regions", "a", {})

    @pytest.mark.parametrize(
        "value",
        [None, {"regions": None, "owner": "p0"}],
        ids=["key-is-none", "table-is-none"],
    )
    def test_entry_into_a_none_rejected_and_nothing_changes(self, anystore, value):
        """``None`` is a value, not an absent key or table: an entry
        into it is refused, and neither image moves."""
        anystore.put_meta(self.KEY, value)
        anystore.flush()
        with pytest.raises(PersistenceError):
            anystore.put_meta_entry(self.KEY, "regions", "a", {"size": 8})
        assert anystore.list_meta() == [self.KEY]
        assert anystore.get_meta(self.KEY) == value
        anystore.flush()
        anystore.crash()
        assert anystore.list_meta() == [self.KEY]
        assert anystore.get_meta(self.KEY) == value

    def test_whole_key_put_after_entry_updates_wins(self, anystore):
        anystore.put_meta_entry(self.KEY, "regions", "a", {"size": 8})
        anystore.put_meta_entry(self.KEY, "regions", "b", {"size": 16})
        anystore.put_meta(self.KEY, {"regions": {"c": {"size": 1}}})
        assert anystore.get_meta(self.KEY) == {"regions": {"c": {"size": 1}}}
        anystore.flush()
        anystore.crash()
        assert anystore.get_meta(self.KEY) == {"regions": {"c": {"size": 1}}}

    def test_key_delete_after_entry_updates_wins(self, anystore):
        anystore.put_meta_entry(self.KEY, "regions", "a", {"size": 8})
        anystore.flush()
        anystore.put_meta_entry(self.KEY, "regions", "b", {"size": 16})
        anystore.delete_meta(self.KEY)
        anystore.flush()
        anystore.crash()
        assert anystore.get_meta(self.KEY) is None

    def test_entry_after_unflushed_whole_put_rides_with_the_key(self, anystore):
        anystore.put_meta(self.KEY, {"regions": {}, "owner": "p0"})
        anystore.put_meta_entry(self.KEY, "regions", "a", {"size": 8})
        anystore.flush()
        anystore.crash()
        assert anystore.get_meta(self.KEY) == {
            "regions": {"a": {"size": 8}}, "owner": "p0"
        }
