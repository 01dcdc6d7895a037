"""Differential replay verification: live run vs trace-driven replay.

The replay engine's faithful path derives byte accounting verbatim
from the captured events, so for the *same* configuration it must
reproduce the live run's :class:`CheckpointStats`/:class:`RunResult`
numbers integer-for-integer — coordinated bytes, pre-copy bytes,
bytes saved by incremental extents, and the full commit ordering.
These tests run that oracle across every policy mode and both copy
granularities, plus the Jsonl round-trip (capture -> serialize ->
read -> replay must lose nothing).
"""

from __future__ import annotations

import pytest

from repro.config import PrecopyPolicy
from repro.replay import (
    ReplayEngine,
    capture_cell,
    compare_to_run,
)

pytestmark = pytest.mark.replay

#: small but real cluster cell: 2 nodes x 2 ranks, remote tier on
BASE = {
    "app": "lammps",
    "nodes": 2,
    "ranks_per_node": 2,
    "iterations": 3,
    "local_interval": 20.0,
    "remote_interval": 60.0,
}

MODES = ["none", "cpc", "dcpc", "dcpcp"]
GRANULARITIES = ["chunk", "page"]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_same_config_replay_is_byte_exact(mode, granularity, assert_replay_matches):
    cap = capture_cell(
        dict(BASE, mode=mode, granularity=granularity, copy_granularity=granularity)
    )
    cap = assert_replay_matches(cap)
    acc = cap.engine().faithful()
    # the oracle compared everything; spot-check the values are real
    assert acc.coordinated_bytes > 0 or acc.local_precopy_bytes > 0
    assert len(acc.commits) == cap.result.local_checkpoints


def test_commit_ordering_matches_live_history(assert_replay_matches):
    cap = assert_replay_matches(dict(BASE, mode="dcpcp"))
    acc = cap.engine().faithful()
    ordering = acc.commit_ordering()
    # strictly sorted canonical order, one commit per rank-interval
    assert ordering == sorted(ordering)
    assert len(ordering) == cap.result.local_checkpoints
    actors = {actor for _, actor, _, _ in ordering}
    assert len(actors) == cap.result.n_ranks


def test_jsonl_round_trip_preserves_exactness(tmp_path, assert_replay_matches):
    """capture -> Jsonl on disk -> read back -> still byte-exact."""
    cap = capture_cell(dict(BASE, mode="dcpcp", copy_granularity="page"))
    path = tmp_path / "trace.jsonl"
    cap.write_jsonl(str(path))
    engine = ReplayEngine.from_jsonl(str(path))
    assert engine.captured_config["mode"] == "dcpcp"
    report = compare_to_run(engine.faithful(), cap.result)
    assert report.matches, report.describe()
    # the disk trip must not change a single event
    assert engine.events == list(cap.events)


def test_page_granularity_reports_bytes_saved(assert_replay_matches):
    cap = assert_replay_matches(
        dict(BASE, mode="dcpcp", granularity="page", copy_granularity="page")
    )
    acc = cap.engine().faithful()
    live_saved = sum(
        s.checkpointer.copier.accounting.bytes_saved
        for s in cap.result.cluster.all_ranks()
    )
    assert acc.bytes_saved == live_saved
    assert cap.result.accounting.bytes_saved == live_saved


def test_divergence_report_catches_tampering():
    """The oracle is falsifiable: drop one copy event and it must
    report exactly the metrics that byte-loss perturbs."""
    cap = capture_cell(dict(BASE, mode="dcpcp"))
    drop = next(
        i
        for i, e in enumerate(cap.events)
        if e.kind == "chunk.copied"
        and getattr(e, "stream", "") == "local"
        and getattr(e, "phase", "") == "coordinated"
    )
    tampered = [e for i, e in enumerate(cap.events) if i != drop]
    assert len(tampered) == len(cap.events) - 1
    engine = ReplayEngine.from_events(tampered, meta=cap.meta)
    report = compare_to_run(engine.faithful(), cap.result)
    assert not report.matches
    diverged = {d.metric for d in report.divergences}
    assert "coordinated_bytes" in diverged


def test_whatif_none_upper_bounds_precopying_modes():
    """Sanity on the model path: the no-pre-copy baseline coordinates
    at least as many bytes as any pre-copying policy, and total NVM
    traffic is conserved across policy what-ifs of one trace."""
    cap = capture_cell(dict(BASE, mode="dcpcp"))
    engine = cap.engine()
    results = {m: engine.whatif(m) for m in MODES}
    for mode in ("cpc", "dcpc", "dcpcp"):
        assert (
            results["none"].accounting.coordinated_bytes
            >= results[mode].accounting.coordinated_bytes
        )
        assert results[mode].coverage == 1.0
    # same-mode what-if must agree with the faithful split exactly:
    # the model re-derives the captured schedule from its own epochs
    acc = engine.faithful()
    modelled = results["dcpcp"].accounting
    assert modelled.coordinated_bytes == acc.coordinated_bytes
    assert modelled.local_precopy_bytes == acc.local_precopy_bytes


def test_replay_record_marks_faithful_vs_model():
    cap = capture_cell(dict(BASE, mode="cpc"))
    engine = cap.engine()
    same = engine.replay("cpc")
    other = engine.replay("none")
    assert same["replay.faithful"] is True
    assert other["replay.faithful"] is False
    assert other["replay.coordinated_gb"] >= same["replay.coordinated_gb"]


def test_captured_threshold_margin_replays_faithfully():
    """No cell option sets the margin, so the captured config never
    holds it; the captured run's own margin is the policy default."""
    engine = capture_cell(dict(BASE, mode="dcpcp")).engine()
    default = PrecopyPolicy().threshold_margin
    assert engine.replay(threshold_margin=default)["replay.faithful"] is True
    assert engine.replay(threshold_margin=1.5)["replay.faithful"] is False
