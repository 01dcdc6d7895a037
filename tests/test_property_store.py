"""Property-based tests of the persistent store's crash-consistency
contract: at any crash point, every region equals its last-flushed
contents, regardless of the write/flush interleaving."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.memory import InMemoryStore

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
