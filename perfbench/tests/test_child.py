"""How a timed pass is bracketed: collector state and calibrations."""

import gc

from perfbench import child
from perfbench.workloads import WORKLOADS, PassOutcome


def test_calibration_is_a_slowdown_and_leaves_the_collector_as_it_was():
    calibrate = child.Calibrator()
    assert gc.isenabled()
    assert 0.1 < calibrate() < 100.0
    assert gc.isenabled()
    gc.disable()
    try:
        calibrate()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_every_timed_pass_starts_after_a_full_collection(monkeypatch):
    order = []
    monkeypatch.setattr(child.gc, "collect", lambda: order.append("collect"))
    record = {"iterations": 2, "n_ranks": 1, "local.checkpoints": 2}

    def one_pass():
        order.append("pass")
        return PassOutcome(records=[record])

    def calibrate():
        order.append("calibrate")
        return 1.5

    passes = child._Passes(WORKLOADS["lammps-precopy-remote"], one_pass, calibrate)
    for _ in range(3):
        passes.timed()
    # one calibration closes a pass and opens the next
    assert order == ["calibrate"] + ["collect", "pass", "calibrate"] * 3
    assert passes.speed == [1.5, 1.5, 1.5]
    assert (passes.attempted, passes.failed) == (3, 0)
