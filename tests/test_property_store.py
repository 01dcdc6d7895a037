"""Property-based tests of the persistent store's crash-consistency
contract: at any crash point, every region equals its last-flushed
contents, regardless of the write/flush interleaving — and of its
metadata copy against the JSON text round trip it stands in for."""

import copy
import enum
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.memory import InMemoryStore
from repro.memory.persistence import _json_copy
from tests.conftest import container_ids

REGION = "r"
SIZE = 64

# operations: write(offset, byte value), flush, crash
ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, SIZE - 8), st.integers(0, 255)),
        st.tuples(st.just("flush"), st.just(0), st.just(0)),
        st.tuples(st.just("crash"), st.just(0), st.just(0)),
    ),
    max_size=40,
)


@given(program=ops)
@settings(max_examples=150, deadline=None)
def test_crash_always_recovers_last_flush(program):
    store = InMemoryStore()
    store.create(REGION, SIZE)
    store.flush()

    shadow = np.zeros(SIZE, dtype=np.uint8)  # current working contents
    durable = shadow.copy()  # model of the last flush

    for op, off, val in program:
        if op == "write":
            payload = np.full(8, val, dtype=np.uint8)
            store.write(REGION, off, payload)
            shadow[off : off + 8] = payload
        elif op == "flush":
            store.flush()
            durable = shadow.copy()
        else:  # crash
            store.crash()
            shadow = durable.copy()
        assert np.array_equal(store.read(REGION), shadow)


@given(
    keys=st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 99)), max_size=25
    ),
    crash_at=st.integers(0, 25),
)
@settings(max_examples=100, deadline=None)
def test_metadata_crash_consistency(keys, crash_at):
    store = InMemoryStore()
    durable = {}
    working = {}
    for i, (key, val) in enumerate(keys):
        store.put_meta(key, val)
        working[key] = val
        if i % 3 == 2:
            store.flush()
            durable = dict(working)
    if crash_at % 2 == 0:
        store.crash()
        working = dict(durable)
    for key in ("a", "b", "c"):
        assert store.get_meta(key) == working.get(key)


# metadata operations over two table-valued keys: whole-key writes and
# deletes, single-record writes and deletes, flush, crash
meta_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["put", "delete", "put_entry", "put_entry", "delete_entry", "flush", "crash"]
        ),
        st.sampled_from(["k1", "k2"]),
        st.sampled_from(["a", "b", "c"]),
        st.integers(0, 99),
    ),
    max_size=40,
)


@given(program=meta_ops)
@settings(max_examples=200, deadline=None)
def test_metadata_entries_obey_the_flush_boundary(program):
    """Per-record updates mixed with whole-key ones: after any
    interleaving the store reads like a plain dict model, and a crash
    returns exactly the model's last-flushed copy."""
    store = InMemoryStore()
    working, durable = {}, {}
    for op, key, name, val in program:
        if op == "put":
            store.put_meta(key, {"t": {name: {"v": val}}})
            working[key] = {"t": {name: {"v": val}}}
        elif op == "delete":
            store.delete_meta(key)
            working.pop(key, None)
        elif op == "put_entry":
            store.put_meta_entry(key, "t", name, {"v": val})
            working.setdefault(key, {}).setdefault("t", {})[name] = {"v": val}
        elif op == "delete_entry":
            store.delete_meta_entry(key, "t", name)
            working.get(key, {}).get("t", {}).pop(name, None)
        elif op == "flush":
            store.flush()
            durable = copy.deepcopy(working)
        else:
            store.crash()
            working = copy.deepcopy(durable)
        for k in ("k1", "k2"):
            assert store.get_meta(k) == working.get(k)
        assert store.list_meta() == sorted(working)
    store.crash()
    for k in ("k1", "k2"):
        assert store.get_meta(k) == durable.get(k)


@given(
    sizes=st.lists(st.integers(0, 256), min_size=1, max_size=10),
)
@settings(max_examples=60, deadline=None)
def test_region_sizes_always_reported_exactly(sizes):
    store = InMemoryStore()
    for i, size in enumerate(sizes):
        store.create(f"r{i}", size)
    for i, size in enumerate(sizes):
        assert store.size(f"r{i}") == size
        assert len(store.read(f"r{i}")) == size


# -- the metadata copy against its oracle, json.loads(json.dumps(v)) ---------


class Level(enum.IntEnum):
    LOCAL = 1


class Name(str):
    pass


awkward_leaves = st.sampled_from(
    [True, 1, False, 0, float("nan"), float("inf"), -0.0, 2**63, -(2**70),
     Level.LOCAL, Name("n"), np.float64(1.5), ""]
)
json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4), awkward_leaves
)
json_keys = st.one_of(
    st.text(max_size=3), st.integers(-2, 2), st.booleans(), st.none(), st.floats(),
    st.sampled_from([Level.LOCAL, Name("n")]),
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(json_keys, inner, max_size=4),
    ),
    max_leaves=25,
)


def assert_same(got, want):
    """Equal values of equal types at every level (``nan`` equals
    ``nan`` here; dict keys plain ``str``, in the same order)."""
    assert type(got) is type(want)
    if isinstance(want, dict):
        assert list(got) == list(want)
        assert {type(key) for key in got} <= {str}
        for key in want:
            assert_same(got[key], want[key])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same(g, w)
    elif isinstance(want, float):
        assert repr(got) == repr(want)  # nan, inf and the sign of zero
    else:
        assert got == want


@given(value=json_values)
@example(value={"pair": (1, 2), 3: "x", True: [], None: {}, 1.5: ()})
@example(value={1: "int key first", "1": "then its text"})
@example(value=[True, 1, {"t": True, "n": 1}])
@example(value={})
@settings(max_examples=300, deadline=None)
def test_copy_equals_the_json_round_trip(value):
    want = json.loads(json.dumps(value))
    got = _json_copy(value)
    assert_same(got, want)
    assert not container_ids(got) & container_ids(value)
    store = InMemoryStore()
    store.put_meta("k", value)
    store.put_meta_entry("t", "records", "r", value)
    store.flush()
    store.crash()
    assert_same(store.get_meta("k"), want)
    assert_same(store.get_meta("t"), {"records": {"r": want}})


@pytest.mark.parametrize(
    "bad",
    [object(), b"bytes", {1, 2}, np.int64(3), np.arange(3), {(1, 2): "tuple key"}],
    ids=["object", "bytes", "set", "numpy-int64", "numpy-array", "tuple-key"],
)
@pytest.mark.parametrize("wrap", [lambda b: b, lambda b: {"a": [1, (b,)]}], ids=["bare", "nested"])
def test_what_json_rejects_the_copy_rejects_and_nothing_changes(bad, wrap):
    value = wrap(bad)
    store = InMemoryStore()
    store.put_meta("kept", {"t": {"r": 1}})
    for write in (
        lambda: json.loads(json.dumps(value)),
        lambda: _json_copy(value),
        lambda: store.put_meta("new", value),
        lambda: store.put_meta_entry("new", "t", "r", value),
        lambda: store.put_meta_entry("kept", "t", "r", value),
    ):
        with pytest.raises(TypeError):
            write()
        assert store.list_meta() == ["kept"]
        assert store.get_meta("kept") == {"t": {"r": 1}}
