"""Golden-equivalence suite for the policy/destination/engine refactor.

The fixtures under ``tests/golden/`` were captured from the
pre-refactor checkpointers (see ``tests/golden/generate_fixtures.py``).
These tests re-run the same scenarios through the unified
:class:`~repro.core.engine.CheckpointEngine` pipeline and require
byte-for-byte identical schedules and stats — the refactor must be
behaviour-preserving, not merely similar.

A failure here means simulated *semantics* changed.  If that was
deliberate, regenerate the fixtures and say so in the PR; otherwise it
is a regression.
"""

from __future__ import annotations

import importlib.util
import io
import json
import os

import pytest

from repro.exec.grid import run_grid
from repro.metrics import timeline as tl
from repro.metrics.timeline import Timeline
from repro.metrics.trace import BUS, read_trace

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "golden_generate_fixtures",
        os.path.join(GOLDEN_DIR, "generate_fixtures.py"),
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


gen = _load_generator()


def _roundtrip(obj):
    """Normalize through JSON exactly like the stored fixture was."""
    return json.loads(json.dumps(obj, sort_keys=True))


def _fixture(name: str):
    path = os.path.join(GOLDEN_DIR, name)
    with open(path) as fh:
        return json.load(fh)


@pytest.mark.parametrize("mode", gen.MODES)
def test_standalone_schedule_matches_golden(mode):
    stored = {rec["mode"]: rec for rec in _fixture("standalone_schedules.json")}
    live = _roundtrip(gen.standalone_schedule(mode))
    assert live == stored[mode]


def test_standalone_modes_are_distinct():
    """The scenario must actually separate the four policies (else the
    per-mode assertions prove nothing): the naive baseline copies at
    the checkpoint, CPC pre-copies everything, DCPC pre-copies the hot
    chunk redundantly, DCPCP's prediction withholds it."""
    recs = {rec["mode"]: rec for rec in _fixture("standalone_schedules.json")}
    assert recs["none"]["total_precopy_bytes"] == 0
    assert recs["cpc"]["total_coordinated_bytes"] == 0
    assert recs["dcpc"]["precopy"]["redundant_copies"] > 0
    assert recs["dcpcp"]["precopy"]["redundant_copies"] == 0
    assert (
        recs["dcpcp"]["total_precopy_bytes"] < recs["dcpc"]["total_precopy_bytes"]
    )
    # the full schedule record (coordinated stats + pre-copy accounting)
    # is distinct per mode; DCPC and DCPCP share the coordinated-step
    # stats (both re-copy the hot chunk there) but differ in pre-copy
    schedules = [
        json.dumps(
            {k: v for k, v in recs[m].items() if k != "mode"}, sort_keys=True
        )
        for m in gen.MODES
    ]
    assert len(set(schedules)) == len(gen.MODES)


def test_pinned_grid_matches_golden():
    """The 16-cell pinned bench grid (4 modes x 4 NVM bandwidths, both
    tiers on) on the serial reference path reproduces the pre-refactor
    records exactly — every timing, byte count and resilience counter."""
    stored = _fixture("pinned_grid_records.json")
    live = _roundtrip(gen.pinned_grid_records())
    assert len(live) == 16
    assert live == stored


@pytest.mark.parametrize("cell", sorted(gen.TRACE_CELLS))
def test_trace_stream_matches_golden(cell):
    """The records above pin what a run sums to; this pins the event
    stream itself — order and every field of every ``chunk.copied`` /
    ``policy.decision`` / ``codec.decision`` / ``commit`` / ``failover``
    line — for one cell per copy-path combination."""
    stored = _fixture("trace_digests.json")
    assert sorted(stored) == sorted(gen.TRACE_CELLS)
    assert gen.trace_digest(gen.TRACE_CELLS[cell]) == stored[cell]


#: ``trace_digests.json`` as committed before trace v5 added the
#: ``phase`` kind (ISSUE 18): the stream minus its ``phase`` records
#: must still hash to these, i.e. the PR only *added* records
PRE_PHASE_DIGESTS = {
    "compress-ratio-0.6": {"blake2b": "e48f0c59f2c3634d9b87c9da02fac3de", "events": 1640},
    "dcpcp-remote-precopy": {"blake2b": "8fe7fc2de6d04f41e8f3572c7f41398b", "events": 752},
    "gtc-small-chunks-96": {"blake2b": "737341b676c32d20df5f295a1411a3da", "events": 1798},
    "none-no-remote": {"blake2b": "ecd9a1828a707d23729f10bb0e31276d", "events": 504},
    "page-codec-auto": {"blake2b": "b91af96c0f89819e1f83422fb1fd7543", "events": 1206},
    "synthetic-failures": {"blake2b": "49a9caebebbdef789e70f7d2b919aed9", "events": 2398},
}


@pytest.mark.parametrize("cell", sorted(gen.TRACE_CELLS))
def test_trace_stream_minus_phase_records_is_the_v4_stream(cell):
    filtered = gen.trace_digest(gen.TRACE_CELLS[cell], without_kinds=("phase",))
    assert filtered == PRE_PHASE_DIGESTS[cell]


def _observed_cell(cell: str):
    """Run one golden cell with a live :class:`Timeline` attached and a
    Jsonl trace streamed next to it; returns ``(live, trace_buffer)``."""
    buf = io.StringIO()
    with BUS.capture(Timeline()) as live:
        run_grid(
            gen.TRACE_CELLS[cell], None, workers=1, cache=None, trace=buf,
            derive_seeds=False,
        )
    buf.seek(0)
    return live, buf


def test_timeline_from_a_captured_trace_equals_the_live_timeline():
    """A captured trace alone redraws Fig. 5: feeding ``read_trace``'s
    events to a fresh Timeline gives the live one, phase for phase — on
    the cell where restart, re-sync, degraded spans and remote rounds
    all happen."""
    live, buf = _observed_cell("synthetic-failures")
    _, events = read_trace(buf)
    replayed = Timeline()
    for event in events:
        replayed.handle(event)
    assert replayed.phases == live.phases
    for kind in (
        tl.COMPUTE, tl.LOCAL_CKPT, tl.REMOTE_CKPT, tl.PRECOPY,
        tl.REMOTE_PRECOPY, tl.RESTART, tl.DEGRADED, tl.RESYNC,
    ):
        assert live.count(kind) > 0, kind


@pytest.mark.parametrize(
    "cell, hidden", [("dcpcp-remote-precopy", True), ("none-no-remote", False)]
)
def test_local_precopy_overlaps_compute_only_when_the_policy_precopies(cell, hidden):
    """Fig. 5's point as a number: DCPCP hides copy time under compute,
    the naive mode has nothing to hide."""
    live, _ = _observed_cell(cell)
    overlap = live.overlap(tl.COMPUTE, tl.PRECOPY)
    assert (overlap > 0) if hidden else (overlap == 0)
