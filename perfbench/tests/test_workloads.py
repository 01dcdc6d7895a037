"""Input generation and the per-pass checks."""

from perfbench.workloads import (
    FAILURE_SCHEDULE_SEED,
    WORKLOADS,
    PassOutcome,
    check_pass,
    make_inputs,
    record_digest,
)


def _option(argv, name):
    return argv[argv.index(name) + 1]


def test_seed_reaches_every_cell_and_nothing_else_changes():
    for workload in WORKLOADS.values():
        a, b = make_inputs(workload, 7), make_inputs(workload, 8)
        assert a == make_inputs(workload, 7)
        assert a.axes == b.axes == workload.axes
        assert a.base[:-2] == b.base[:-2] == workload.base
        if workload.cell_seed is None:
            assert a.base[-2:] == ("--seed", "7") and b.base[-2:] == ("--seed", "8")


def test_failure_schedule_is_pinned():
    workload = WORKLOADS["synthetic-failures-restart"]
    a, b = make_inputs(workload, 3), make_inputs(workload, 4)
    assert a == b
    assert _option(a.base, "--seed") == str(FAILURE_SCHEDULE_SEED)


def _good_record(**over):
    record = {
        "iterations": 2, "n_ranks": 4, "local.checkpoints": 8,
        "failures.soft": 0, "failures.hard": 0,
    }
    record.update(over)
    return record


def test_check_pass_accepts_a_correct_pass():
    workload = WORKLOADS["lammps-precopy-remote"]
    outcome = PassOutcome(records=[_good_record()])
    digest = record_digest(outcome)
    assert check_pass(workload, outcome, digest, digest) == []


def test_check_pass_names_each_way_a_pass_is_wrong():
    workload = WORKLOADS["lammps-precopy-remote"]
    outcome = PassOutcome(
        records=[_good_record(**{"local.checkpoints": 7, "sweep.mode": "cpc"})],
        problems=["reported by the pass itself"],
    )
    problems = check_pass(workload, outcome, "aa", "bb")
    assert problems[0] == "reported by the pass itself"
    assert any("digest" in p for p in problems)
    assert any("mode=cpc: 7 local checkpoints, expected 8" in p for p in problems)
    short = PassOutcome(records=[_good_record(iterations=1)])
    assert any("completed 1 of 2" in p for p in check_pass(workload, short, "a", "a"))


def test_check_pass_workload_specific_rules():
    codec = WORKLOADS["lammps-codec-page"]
    flat = PassOutcome(records=[_good_record(
        n_ranks=2, **{"local.checkpoints": 4, "codec.wire_gb": 2.0,
                      "codec.logical_gb": 2.0})])
    assert any("codec" in p for p in check_pass(codec, flat, "a", "a"))
    failing = WORKLOADS["synthetic-failures-restart"]
    calm = PassOutcome(records=[_good_record(iterations=10)])
    assert any("no failure" in p for p in check_pass(failing, calm, "a", "a"))
    stormy = PassOutcome(records=[_good_record(
        iterations=10, **{"failures.soft": 2, "local.checkpoints": 999})])
    assert check_pass(failing, stormy, "a", "a") == []


def test_digest_covers_records_and_replays():
    one = PassOutcome(records=[{"a": 1}], extra=[{"r": 1}])
    assert record_digest(one) == record_digest(PassOutcome([{"a": 1}], extra=[{"r": 1}]))
    assert record_digest(one) != record_digest(PassOutcome([{"a": 1}], extra=[{"r": 2}]))
    assert record_digest(one) != record_digest(PassOutcome([{"a": 2}], extra=[{"r": 1}]))
