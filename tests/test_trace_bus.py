"""The structured trace bus: event schema, sinks, and pipeline emission.

Covers the bus mechanics (attach/detach/capture, zero-cost when idle),
each sink's contract, and end-to-end emission from the checkpoint
pipeline: policy decisions and chunk copies from the engine and
pre-copy walk, commits, and the timeline adapter reproducing the
directly-instrumented phases.
"""

from __future__ import annotations

import dataclasses
import io
import json

import pytest

from repro.alloc import NVAllocator
from repro.config import PrecopyPolicy
from repro.core import LocalCheckpointer, make_standalone_context
from repro.errors import ConfigError
from repro.metrics.trace import (
    _KINDS,
    BUS,
    TRACE_VERSION,
    ChunkCopiedEvent,
    CodecDecisionEvent,
    CommitEvent,
    CounterSink,
    FailoverEvent,
    JsonlSink,
    MembershipChangeEvent,
    MigrationAbortEvent,
    MigrationBatchEvent,
    MigrationCutoverEvent,
    MigrationPlannedEvent,
    PhaseEvent,
    PolicyDecisionEvent,
    ResyncAbortedEvent,
    RetryEvent,
    RingBufferSink,
    TraceBus,
    encode_line,
    event_from_record,
    read_trace,
)
from repro.units import MB


@pytest.fixture(autouse=True)
def clean_bus():
    """Tests must leave the process-global bus empty."""
    yield
    assert not BUS.active, "a test leaked an attached sink"


def _sample_events():
    """One event of every kind in :data:`_KINDS`, every field set away
    from its default."""
    return [
        PolicyDecisionEvent(t=1.0, actor="r0", chunk="a", decision="precopy", policy="cpc"),
        ChunkCopiedEvent(
            t=2.0, actor="r0", chunk="a", nbytes=10, start=1.5,
            stream="local", phase="precopy", destination="nvm", pages=3,
            bytes_saved=6, codec="delta", logical_bytes=16, tenant="t0",
        ),
        CommitEvent(t=3.0, actor="r0", chunks_committed=1, bytes_committed=10,
                    flush_cost=0.1, destination="nvm", tenant="t0"),
        RetryEvent(t=4.0, actor="n0", target="n1", attempt=2, delay=0.5, reason="timeout"),
        FailoverEvent(t=5.0, actor="n0", from_target="n1", to_target="n2", reason="buddy died"),
        CodecDecisionEvent(
            t=6.0, actor="r1", chunk="b", chosen="dedup", raw_bytes=40,
            delta_bytes=20, dedup_bytes=8, entropy=0.25, density=0.5,
        ),
        MembershipChangeEvent(t=7.0, actor="ctl", node=3, action="join", moves=2),
        MigrationPlannedEvent(
            t=8.0, actor="ctl", node=1, from_target="n1", to_target="n3",
            reason="drain", chunks=4, nbytes=400,
        ),
        MigrationBatchEvent(t=9.0, actor="n1", seq=1, chunks=2, nbytes=200,
                            start=8.5, throttled=True),
        MigrationCutoverEvent(t=10.0, actor="n1", from_target="n1", to_target="n3",
                              batches=2, nbytes=400),
        MigrationAbortEvent(t=11.0, actor="n2", reason="buddy failed", batches=1,
                            nbytes=100),
        ResyncAbortedEvent(t=12.0, actor="n2", failures=3, bytes_sent=50, chunks_sent=1),
        PhaseEvent(t=14.0, actor="n0", phase="compute", start=13.0, end=14.0),
    ]


# ---------------------------------------------------------------------------
# Bus mechanics.
# ---------------------------------------------------------------------------


def test_bus_inactive_by_default_and_emit_is_noop():
    bus = TraceBus()
    assert not bus.active
    bus.emit(_sample_events()[0])  # no sink: must not raise


def test_attach_detach_and_capture_scope():
    bus = TraceBus()
    with bus.capture() as ring:
        assert bus.active
        for ev in _sample_events():
            bus.emit(ev)
        assert len(ring.events) == len(_KINDS)
    assert not bus.active


def test_event_kinds_and_records_are_stable():
    events = _sample_events()
    assert [e.kind for e in events] == [
        "policy.decision", "chunk.copied", "commit", "retry", "failover",
        "codec.decision", "membership.change", "migration.planned",
        "migration.batch", "migration.cutover", "migration.aborted",
        "resync.aborted", "phase",
    ]
    assert sorted(e.kind for e in events) == sorted(_KINDS.values())
    rec = events[1].to_record()
    assert rec["kind"] == "chunk.copied"
    assert rec["chunk"] == "a" and rec["nbytes"] == 10 and rec["destination"] == "nvm"
    for event in events:
        for f in dataclasses.fields(event):
            assert getattr(event, f.name) != f.default, f"{event.kind}.{f.name} left at default"


def test_every_event_is_slotted_and_round_trips_to_the_same_line():
    """The per-event path's contract: no instance dict (slotted
    classes), a record that rebuilds an equal event, and a line —
    through ``encode_line`` or ``to_line`` — byte-identical to
    ``json.dumps(record, sort_keys=True)``."""
    for event in _sample_events():
        assert not hasattr(event, "__dict__"), f"{event.kind} has an instance __dict__"
        record = event.to_record()
        assert event_from_record(record) == event
        line = json.dumps(record, sort_keys=True) + "\n"
        assert encode_line(record) == line
        assert event.to_line() == line


# ---------------------------------------------------------------------------
# Sinks.
# ---------------------------------------------------------------------------


def test_ring_buffer_bounds_and_filters():
    sink = RingBufferSink(capacity=3)
    for i in range(10):
        sink.handle(CommitEvent(t=float(i), actor="r0", chunks_committed=1,
                                bytes_committed=1, flush_cost=0.0))
    assert len(sink.events) == 3
    assert [e.t for e in sink.of_kind("commit")] == [7.0, 8.0, 9.0]
    assert sink.of_kind("retry") == []


def test_jsonl_sink_streams_sorted_records():
    buf = io.StringIO()
    sink = JsonlSink(buf, meta={"config": {"mode": "cpc"}})
    for ev in _sample_events():
        sink.handle(ev)
    sink.close()
    header, *lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert header["kind"] == "trace.header"
    assert header["trace_version"] == TRACE_VERSION
    assert header["meta"] == {"config": {"mode": "cpc"}}
    assert [r["kind"] for r in lines] == [e.kind for e in _sample_events()]
    for raw in buf.getvalue().splitlines():
        assert raw == json.dumps(json.loads(raw), sort_keys=True)


def test_jsonl_sink_owns_path_file(tmp_path):
    path = tmp_path / "trace.jsonl"
    sink = JsonlSink(str(path))
    sink.handle(_sample_events()[0])
    sink.close()
    header, rec = [json.loads(line) for line in path.read_text().splitlines()]
    assert header["kind"] == "trace.header" and header["meta"] == {}
    assert rec["kind"] == "policy.decision" and rec["policy"] == "cpc"


def test_counter_sink_counts_kinds_and_decisions():
    sink = CounterSink()
    for ev in _sample_events():
        sink.handle(ev)
    sink.handle(PolicyDecisionEvent(t=6.0, actor="r0", chunk="b",
                                    decision="skip", policy="dcpcp"))
    assert sink.by_kind["policy.decision"] == 2
    assert sink.decisions == {"precopy": 1, "skip": 1}


# ---------------------------------------------------------------------------
# The reader on a damaged stream: one error type, the line named.
# ---------------------------------------------------------------------------

_HEADER = json.dumps({"kind": "trace.header", "trace_version": TRACE_VERSION, "meta": {}})
_COMMIT = json.dumps(_sample_events()[2].to_record(), sort_keys=True)


@pytest.mark.parametrize(
    "stream, message",
    [
        # a record without its required fields (was: TypeError)
        (
            f'{_HEADER}\n{_COMMIT}\n{{"kind": "commit", "t": 1.0, "actor": "r0"}}\n',
            r"line 3.*lacks required fields "
            r"\['chunks_committed', 'bytes_committed', 'flush_cost'\]",
        ),
        # a torn last line, the run killed mid-write (was: JSONDecodeError)
        (f"{_HEADER}\n{_COMMIT}\n{_COMMIT[:25]}", r"line 3 is not valid JSON"),
        # a line that is JSON but not a record (was: TypeError)
        (f"{_HEADER}\n[1, 2]\n", r"line 2 is not a JSON object"),
        # bool is an int to isinstance: True passed for version 1
        (
            f'{{"kind": "trace.header", "trace_version": true}}\n{_COMMIT}\n',
            r"trace_version True is not supported",
        ),
    ],
    ids=["missing-field", "torn-last-line", "non-object-line", "bool-version"],
)
def test_reader_reports_a_damaged_stream_as_config_error(stream, message):
    with pytest.raises(ConfigError, match=message):
        read_trace(io.StringIO(stream))


@pytest.mark.parametrize(
    "record, message",
    [
        (
            '{"kind": "no.such", "t": 1.0, "actor": "r0"}',
            "trace line 2: unknown trace event kind 'no.such'; known kinds: "
            "chunk.copied, codec.decision, commit, failover, "
            "membership.change, migration.aborted, migration.batch, "
            "migration.cutover, migration.planned, phase, policy.decision, "
            "resync.aborted, retry",
        ),
        (
            _COMMIT[:-1] + ', "zeta": 1, "alpha": 2}',
            "trace line 2: trace record of kind 'commit' carries unknown fields "
            "['alpha', 'zeta'] (schema drift? re-capture the trace or register "
            "an upgrader)",
        ),
        (
            '{"kind": "commit", "t": 1.0, "actor": "r0", "tenant": "x"}',
            "trace line 2: trace record of kind 'commit' lacks required fields "
            "['chunks_committed', 'bytes_committed', 'flush_cost']",
        ),
    ],
    ids=["unknown-kind", "unknown-fields", "missing-fields"],
)
def test_reader_names_each_record_defect_in_full(record, message):
    """The three schema errors, whole text (as written before the field
    table took over the known-field check)."""
    with pytest.raises(ConfigError) as err:
        read_trace(io.StringIO(f"{_HEADER}\n{record}\n"))
    assert str(err.value) == message


def test_reader_rejects_the_removed_tenant_kinds():
    """``tenant.*`` records were written only by a standalone QoS
    simulator that is gone; a v5 stream carrying one is rejected like
    any other unknown kind."""
    record = '{"kind": "tenant.admission", "t": 1.0, "actor": "qos", "tenant": "a"}'
    with pytest.raises(ConfigError, match="unknown trace event kind 'tenant.admission'"):
        read_trace(io.StringIO(f"{_HEADER}\n{record}\n"))


def test_reader_rejects_the_removed_autotune_kind():
    """``autotune.switch`` records were written only by the online
    policy tuner, which is gone; a v5 stream carrying one is rejected
    like any other unknown kind."""
    record = (
        '{"kind": "autotune.switch", "t": 1.0, "actor": "r0", "from_policy": "cpc", '
        '"to_policy": "dcpc", "reason": "bandit", "reward": -1.0}'
    )
    with pytest.raises(ConfigError, match="unknown trace event kind 'autotune.switch'"):
        read_trace(io.StringIO(f"{_HEADER}\n{record}\n"))


# ---------------------------------------------------------------------------
# The schema the line writer relies on, and one stream whoever writes it.
# ---------------------------------------------------------------------------


def test_every_event_field_is_a_scalar():
    """``to_record`` puts field values into the record un-copied; that
    is a private record only while no field can hold a container."""
    for cls, kind in _KINDS.items():
        for f in dataclasses.fields(cls):
            assert f.type in ("str", "int", "float", "bool"), (
                f"{kind}.{f.name}: {f.type} — to_record aliases its value"
            )


@pytest.fixture
def json_calls(monkeypatch):
    """Count encoder objects built and ``json.dumps`` calls made."""
    calls = {"encoders": 0, "dumps": 0}
    init, dumps = json.JSONEncoder.__init__, json.dumps

    def counting_init(self, *args, **kwargs):
        calls["encoders"] += 1
        init(self, *args, **kwargs)

    def counting_dumps(*args, **kwargs):
        calls["dumps"] += 1
        return dumps(*args, **kwargs)

    monkeypatch.setattr(json.JSONEncoder, "__init__", counting_init)
    monkeypatch.setattr(json, "dumps", counting_dumps)
    return calls


def _commits(n):
    return [
        CommitEvent(t=float(i), actor="r0", chunks_committed=i, bytes_committed=i,
                    flush_cost=0.0)
        for i in range(n)
    ]


def test_a_jsonl_line_builds_no_encoder(json_calls):
    """Budget, by count: what 10 events cost in encoder objects and
    ``json.dumps`` calls, 1,000 events cost too."""
    cost = {}
    for n in (10, 1000):
        json_calls.update(encoders=0, dumps=0)
        buf = io.StringIO()
        sink = JsonlSink(buf)
        for event in _commits(n):
            sink.handle(event)
        sink.close()
        assert buf.getvalue().count("\n") == n + 1
        cost[n] = dict(json_calls)
    assert cost[10] == cost[1000]


def test_a_traced_grid_builds_no_encoder_per_event(json_calls, monkeypatch):
    """The same budget through ``run_grid(trace=..., workers=1)``: the
    cell's lines are made where it ran and the grid writer only
    concatenates them."""
    from repro.exec import grid

    def emitting_cell(config):
        for event in _commits(config["iterations"]):
            BUS.emit(event)
        return {"events": config["iterations"]}

    monkeypatch.setattr(grid, "run_cell", emitting_cell)
    cost = {}
    for n in (10, 1000):
        json_calls.update(encoders=0, dumps=0)
        buf = io.StringIO()
        grid.run_grid(["--iterations", str(n)], trace=buf, workers=1)
        assert buf.getvalue().count("\n") == n + 1
        cost[n] = dict(json_calls)
    assert cost[10] == cost[1000]


def test_grid_trace_bytes_do_not_depend_on_who_wrote_them(wide_host):
    """In-process grid, pooled grid (lines made in the workers) and a
    JsonlSink fed the same cells' captured events: one byte stream."""
    from repro.exec import expand_grid, run_grid
    from repro.replay import capture_cell

    base = [
        "--app", "synthetic", "--nodes", "2", "--ranks-per-node", "2",
        "--iterations", "2", "--local-interval", "10", "--remote-interval", "30",
        "--checkpoint-mb", "40", "--chunk-mb", "10", "--no-remote",
    ]
    axes = ["mode=none,dcpcp", "nvm-gbps=1.0,2.0"]
    serial, pooled, sunk = io.StringIO(), io.StringIO(), io.StringIO()
    run_grid(base, axes, trace=serial, workers=1)
    assert run_grid(base, axes, trace=pooled, workers=2).execution.batches > 1
    header = json.loads(serial.getvalue().split("\n", 1)[0])
    sink = JsonlSink(sunk, meta=header["meta"])
    for cell in expand_grid(base, axes):
        for event in capture_cell(cell.config).events:
            sink.handle(event)
    sink.close()
    assert serial.getvalue().count("\n") > 100
    assert pooled.getvalue() == serial.getvalue()
    assert sunk.getvalue() == serial.getvalue()


def test_no_consumer_in_src_mutates_an_event():
    """Events are unfrozen, so immutability is a contract: every sink,
    the loader and the replay engine read a captured cell's events and
    leave each record as it was.  The replay engine's TraceSource
    shares the capture's event objects, so a mutation anywhere here
    would corrupt a later replay."""
    from repro.metrics.timeline import Timeline
    from repro.replay import accounting_from_events, capture_cell, compare_to_run, load_source

    cap = capture_cell({
        "app": "lammps", "nodes": 2, "ranks_per_node": 2, "iterations": 2,
        "local_interval": 20.0, "remote_interval": 40.0, "mode": "dcpcp",
    })
    events = cap.events
    before = [e.to_record() for e in events]
    assert {r["kind"] for r in before} >= {"policy.decision", "chunk.copied", "commit", "phase"}

    for sink in (JsonlSink(io.StringIO(), meta=cap.meta), CounterSink(), Timeline()):
        for event in events:
            sink.handle(event)
        sink.close()
    assert all(a is b for a, b in zip(load_source(events).events, events))
    engine = cap.engine()
    assert all(a is b for a, b in zip(engine.events, events))
    assert compare_to_run(engine.faithful(), cap.result).matches
    for mode in ("none", "cpc", "dcpc", "dcpcp"):
        engine.replay(mode)
    accounting_from_events(events)

    assert [e.to_record() for e in events] == before


# ---------------------------------------------------------------------------
# Pipeline emission end-to-end.
# ---------------------------------------------------------------------------


def _traced_run(mode: str):
    ctx = make_standalone_context(name="trace")
    alloc = NVAllocator("p0", ctx.nvmm, ctx.dram, phantom=True,
                        clock=lambda: ctx.engine.now)
    chunks = [alloc.nvalloc(f"c{i}", MB(5)) for i in range(3)]
    ck = LocalCheckpointer(ctx, alloc, PrecopyPolicy(mode=mode))
    ck.start_background()

    def app():
        for _ in range(2):
            for c in chunks:
                c.touch()
            yield ctx.engine.timeout(10.0)
            yield from ck.checkpoint(blocking=False)
        ck.stop_background()

    with BUS.capture() as ring:
        ctx.engine.process(app(), name="app")
        ctx.engine.run()
    return ring


def test_engine_emits_copies_decisions_and_commits():
    ring = _traced_run("none")
    copies = ring.of_kind("chunk.copied")
    assert len(copies) == 6  # 3 chunks x 2 checkpoints, no pre-copy
    assert {e.phase for e in copies} == {"coordinated"}
    assert {e.destination for e in copies} == {"nvm"}
    commits = ring.of_kind("commit")
    assert len(commits) == 2
    assert all(c.chunks_committed == 3 for c in commits)
    decisions = ring.of_kind("policy.decision")
    assert {d.policy for d in decisions} == {"none"}
    assert {d.decision for d in decisions} == {"copy_at_checkpoint"}


def test_precopy_emits_policy_decisions_and_spans():
    ring = _traced_run("cpc")
    pre = [e for e in ring.of_kind("chunk.copied") if e.phase == "precopy"]
    assert pre, "CPC run produced no pre-copy spans"
    assert all(e.start <= e.t for e in pre)
    assert any(
        d.decision == "precopy" and d.policy == "cpc"
        for d in ring.of_kind("policy.decision")
    )


def test_tracing_does_not_change_the_schedule():
    plain = _traced_run("dcpcp")  # warm-up for symmetry (captured anyway)
    ctx = make_standalone_context(name="trace-off")
    alloc = NVAllocator("p0", ctx.nvmm, ctx.dram, phantom=True,
                        clock=lambda: ctx.engine.now)
    chunks = [alloc.nvalloc(f"c{i}", MB(5)) for i in range(3)]
    ck = LocalCheckpointer(ctx, alloc, PrecopyPolicy(mode="dcpcp"))
    ck.start_background()

    def app():
        for _ in range(2):
            for c in chunks:
                c.touch()
            yield ctx.engine.timeout(10.0)
            yield from ck.checkpoint(blocking=False)
        ck.stop_background()

    ctx.engine.process(app(), name="app")
    ctx.engine.run()
    traced_commits = plain.of_kind("commit")
    assert [round(c.t, 9) for c in traced_commits] == [
        round(s.end, 9) for s in ck.history
    ]
