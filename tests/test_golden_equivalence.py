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
import json
import os

import pytest

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
