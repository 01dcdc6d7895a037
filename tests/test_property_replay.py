"""Property-based tests of the trace round-trip and replay accounting.

Two invariants carry the whole replay design:

* **lossless serialization** — any event stream written through
  :class:`JsonlSink` and read back through :func:`read_trace` is the
  *identical* typed stream (the differential oracle is meaningless if
  the wire format can drop precision or fields);
* **prefix monotonicity** — faithful accounting over a prefix of a
  trace is a prefix of the accounting: byte counters never decrease
  as events append, and the commit ordering of a prefix is a prefix
  of the full ordering.  This is what makes mid-run traces (a capture
  cut short) safely replayable.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ConfigError
from repro.metrics.trace import (
    _KINDS,
    TRACE_VERSION,
    ChunkCopiedEvent,
    CommitEvent,
    FailoverEvent,
    JsonlSink,
    PhaseEvent,
    PolicyDecisionEvent,
    RetryEvent,
    encode_line,
    event_from_record,
    read_trace,
)
from repro.replay import accounting_from_events

pytestmark = pytest.mark.replay

# -- event strategies -------------------------------------------------------

times = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
actors = st.sampled_from(["r0", "r1", "r0:precopy", "n0:helper"])
chunks = st.sampled_from(["heap-0", "heap-1", "stack", "globals"])
sizes = st.integers(min_value=0, max_value=1 << 40)

decision_events = st.builds(
    PolicyDecisionEvent,
    t=times,
    actor=actors,
    chunk=chunks,
    decision=st.sampled_from(["precopy", "copy_at_checkpoint", "skip"]),
    policy=st.sampled_from(["none", "cpc", "dcpc", "dcpcp"]),
)
copy_events = st.builds(
    ChunkCopiedEvent,
    t=times,
    actor=actors,
    chunk=chunks,
    nbytes=sizes,
    start=times,
    stream=st.sampled_from(["local", "remote"]),
    phase=st.sampled_from(["coordinated", "precopy"]),
    destination=st.sampled_from(["", "nvm", "pfs"]),
    pages=st.integers(0, 1 << 20),
    bytes_saved=sizes,
)
commit_events = st.builds(
    CommitEvent,
    t=times,
    actor=actors,
    chunks_committed=st.integers(0, 4096),
    bytes_committed=sizes,
    flush_cost=st.floats(0.0, 10.0, allow_nan=False),
    destination=st.sampled_from(["", "nvm"]),
)
retry_events = st.builds(
    RetryEvent,
    t=times,
    actor=actors,
    target=st.sampled_from(["n0", "n1"]),
    attempt=st.integers(1, 10),
    delay=st.floats(0.0, 60.0, allow_nan=False),
    reason=st.sampled_from(["", "timeout", "reset"]),
)
failover_events = st.builds(
    FailoverEvent,
    t=times,
    actor=actors,
    from_target=st.sampled_from(["n0", "n1"]),
    to_target=st.sampled_from(["n2", "n3"]),
    reason=st.sampled_from(["", "buddy died"]),
)
phase_events = st.builds(
    PhaseEvent,
    t=times,
    actor=actors,
    phase=st.sampled_from(["compute", "local_ckpt", "remote_ckpt", "restart"]),
    start=times,
    end=times,
)
any_event = st.one_of(
    decision_events, copy_events, commit_events,
    retry_events, failover_events, phase_events,
)
event_streams = st.lists(any_event, max_size=60)


def round_trip(events, meta=None):
    buf = io.StringIO()
    sink = JsonlSink(buf, meta=meta)
    for ev in events:
        sink.handle(ev)
    buf.seek(0)
    return read_trace(buf)


# -- lossless serialization -------------------------------------------------


@given(events=event_streams)
@settings(max_examples=150, deadline=None)
def test_jsonl_round_trip_is_identity(events):
    meta = {"config": {"mode": "dcpcp", "nvm_gbps": 2.0}}
    got_meta, got = round_trip(events, meta=meta)
    assert got == events
    assert got_meta == meta


@given(event=any_event)
@settings(max_examples=150, deadline=None)
def test_record_round_trip_is_identity(event):
    rec = json.loads(json.dumps(event.to_record()))
    assert event_from_record(rec) == event


# -- the line writer against the spelling it replaced -----------------------

#: what a field of each annotated type may hold, awkward values first:
#: non-finite and signed-zero floats, ints past 2**63, ``bool`` where an
#: ``int`` is declared, non-ASCII and control characters in strings
_VALUES = {
    "float": st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-310]),
        st.floats(allow_nan=True, allow_infinity=True),
    ),
    "int": st.one_of(
        st.booleans(),
        st.integers(-(1 << 70), 1 << 70),
        st.sampled_from([1 << 63, -(1 << 63) - 1, 1 << 64]),
    ),
    "bool": st.booleans(),
    "str": st.one_of(
        st.sampled_from(["", "\x00\x1f\x7f", 'q"\\/\n\t', "ünï-çødé ✓ 𝄞", "\u2028\u2029"]),
        st.text(max_size=12),
    ),
}


def _events_of(cls):
    return st.builds(
        cls, **{f.name: _VALUES[f.type] for f in dataclasses.fields(cls)}
    )


every_kind = st.one_of([_events_of(cls) for cls in _KINDS])


def _old_record(event):
    """The record as it was spelt before the field table."""
    return {"kind": event.kind, **dataclasses.asdict(event)}


def _typed(record):
    """Order, value types, and values by ``repr`` (nan equals nan, -0.0
    differs from 0.0, True differs from 1)."""
    return [(k, type(v), repr(v)) for k, v in record.items()]


@given(event=every_kind)
@example(event=PhaseEvent(t=math.nan, actor="\x00", phase="é", start=-0.0, end=math.inf))
@settings(max_examples=400, deadline=None)
def test_line_and_record_equal_the_asdict_spelling(event):
    old = _old_record(event)
    line = encode_line(event.to_record())
    assert line == json.dumps(old, sort_keys=True) + "\n"
    buf = io.StringIO()
    JsonlSink(buf).handle(event)
    assert buf.getvalue().splitlines(keepends=True)[1] == line
    assert _typed(event.to_record()) == _typed(old)
    back = event_from_record(json.loads(line))
    assert type(back) is type(event)
    assert _typed(back.to_record()) == _typed(old)
    if not any(v != v for v in old.values()):  # nan is equal to nothing
        assert back == event


# -- prefix monotonicity ----------------------------------------------------


@given(events=event_streams, data=st.data())
@settings(max_examples=100, deadline=None)
def test_accounting_is_prefix_monotone(events, data):
    cut = data.draw(st.integers(0, len(events)), label="cut")
    full = accounting_from_events(events)
    part = accounting_from_events(events[:cut])
    assert part.coordinated_bytes <= full.coordinated_bytes
    assert part.local_precopy_bytes <= full.local_precopy_bytes
    assert part.bytes_saved <= full.bytes_saved
    assert part.remote_round_bytes <= full.remote_round_bytes
    assert part.remote_precopy_bytes <= full.remote_precopy_bytes
    # the prefix's commits are exactly the first commits of the full
    # stream, in emission order
    assert [c.key for c in part.commits] == [
        c.key for c in full.commits[: len(part.commits)]
    ]


@given(events=event_streams)
@settings(max_examples=100, deadline=None)
def test_accounting_conserves_copy_bytes(events):
    acc = accounting_from_events(events)
    copied = [e for e in events if isinstance(e, ChunkCopiedEvent)]
    assert acc.total_nvm_bytes + acc.remote_round_bytes + acc.remote_precopy_bytes == sum(
        e.nbytes for e in copied
    )
    assert acc.coordinated_copies + acc.precopy_copies == sum(
        1 for e in copied if e.stream == "local"
    )


# -- schema guards ----------------------------------------------------------


def test_reader_rejects_headerless_stream():
    buf = io.StringIO('{"kind": "commit", "t": 1.0}\n')
    with pytest.raises(ConfigError, match="trace.header"):
        read_trace(buf)


def test_reader_rejects_future_version():
    buf = io.StringIO(
        json.dumps(
            {"kind": "trace.header", "trace_version": TRACE_VERSION + 1, "meta": {}}
        )
        + "\n"
    )
    with pytest.raises(ConfigError, match="trace_version"):
        read_trace(buf)


def test_reader_rejects_unknown_kind_and_fields():
    with pytest.raises(ConfigError, match="unknown trace event kind"):
        event_from_record({"kind": "no.such.event", "t": 0.0, "actor": "r0"})
    rec = CommitEvent(
        t=1.0, actor="r0", chunks_committed=1, bytes_committed=1, flush_cost=0.0
    ).to_record()
    rec["surprise"] = 1
    with pytest.raises(ConfigError, match="unknown fields"):
        event_from_record(rec)


def test_reader_rejects_empty_stream():
    with pytest.raises(ConfigError, match="empty trace"):
        read_trace(io.StringIO(""))
