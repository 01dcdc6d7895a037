"""One measuring process: set up once, run passes, print raw results.

``python -m perfbench child ...`` is what :mod:`perfbench.runner`
spawns — a fresh interpreter per workload so that set-up (import, input
generation, warm-up passes, the worker pool of ``grid-trace-replay``)
is paid and timed inside it, and peak RSS is this workload's alone.
The last line of standard output is one JSON object.

Untraced mode times passes with no wrapper anywhere in the process.
Traced mode first times reference passes the same way, then installs
the span wrappers of :mod:`perfbench.layers`, runs the traced passes,
and uninstalls them again.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from . import metrics
from .workloads import (
    WORKLOADS,
    Inputs,
    PassOutcome,
    Workload,
    check_pass,
    make_inputs,
    make_pass,
    record_digest,
)

__all__ = ["main", "run_child"]

WORK_ROOT = Path(__file__).resolve().parent / ".work"

#: how many failed checks are spelled out in the output
_MAX_PROBLEMS = 5


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, value: int) -> None:
        self.key = str(value)
        self.value = value


def _station(pid: int, busy: List[bool], served: Dict[int, int]):
    """One process of the calibration's event loop: think, then hold the
    shared station if it is free, else back off."""
    step = 1.0 + (pid % 7) * 0.125
    now = 0.0
    while True:
        now = yield now + step
        if busy[0]:
            now = yield now + 0.25
        else:
            busy[0] = True
            now = yield now + 0.5
            busy[0] = False
            served[pid] = served.get(pid, 0) + 1


class Calibrator:
    """Three fixed pieces of work whose durations say how fast this
    host is *right now*.

    The sandbox switches between speeds that differ by 25-50 % and
    holds each for seconds to minutes (a busy neighbour on the shared
    core, most likely): stopwatch medians of back-to-back runs of one
    commit then differ by as much.  Every timed span is therefore
    bracketed by calibrations and divided by :func:`speed_factor`; raw
    seconds are kept beside it.

    How much a piece of code slows in the slow state depends on what it
    does, so the kernels are the three kinds of work the program does
    outside numpy, written here without any program code:

    * ``walk`` - 50 000 small objects (about 10 MB, so they live in the
      outer caches as chunks and events do), a dict lookup each, a heap
      push or pop for every eighth;
    * ``events`` - 48 generators resumed 16 000 times through a heap of
      ``(time, pid)`` tuples: the simulator kernel's instruction mix;
    * ``meta`` - 36 ``json`` round trips of a 40-chunk metadata record,
      which is what ``memory.persistence`` spends its time on.

    The factor is the mean of the three slow-downs.  No single kernel
    tracked all six workloads; the mean was close to the best kernel on
    every one of them (README, "Speed compensation").
    """

    #: seconds each kernel takes between passes on the reference host
    #: (the 2-core sandbox the baseline was taken on, in its usual state)
    REFERENCE_S = {"walk": 0.0120, "events": 0.0068, "meta": 0.0050}

    def __init__(self) -> None:
        self._cells = [_Cell(i * 7919 % 50_021) for i in range(50_000)]
        self._index = {cell.key: cell for cell in self._cells}
        self._meta = {
            "version": 3,
            "chunks": [
                {"id": i, "name": f"chunk-{i}", "size": 4096 * i, "dirty": bool(i & 1),
                 "epoch": i % 5, "extents": [[i, i + 4], [i + 9, i + 12]]}
                for i in range(40)
            ],
        }

    def walk(self) -> None:
        index, push, pop = self._index, heapq.heappush, heapq.heappop
        acc, heap = 0, []
        for cell in self._cells:
            acc += index[cell.key].value
            if cell.value & 7 == 0:
                push(heap, (cell.value, acc & 1023))
        while heap:
            pop(heap)

    def events(self) -> None:
        push, pop = heapq.heappush, heapq.heappop
        busy, served, heap = [False], {}, []
        stations = [_station(pid, busy, served) for pid in range(48)]
        for pid, station in enumerate(stations):
            push(heap, (next(station), pid))
        for _ in range(16_000):
            now, pid = pop(heap)
            push(heap, (stations[pid].send(now), pid))

    def meta(self) -> None:
        for _ in range(36):
            json.loads(json.dumps(self._meta, sort_keys=True))

    def __call__(self) -> float:
        """The host's slow-down against the reference host, now (1.0 =
        reference speed).  The collector is off meanwhile: a full
        collection landing inside a 5 ms kernel would be the reading."""
        clock = time.perf_counter
        enabled = gc.isenabled()
        gc.disable()
        try:
            slowdown = 0.0
            for name, reference_s in self.REFERENCE_S.items():
                t0 = clock()
                getattr(self, name)()
                slowdown += (clock() - t0) / reference_s
        finally:
            if enabled:
                gc.enable()
        return slowdown / len(self.REFERENCE_S)


def speed_factor(calibrations: List[float]) -> float:
    """How much slower than the reference host this host ran while
    *calibrations* were taken."""
    return statistics.fmean(calibrations)


class _Passes:
    """Runs passes of one workload and keeps what the checks need."""

    def __init__(
        self, workload: Workload, fn: Callable[[], PassOutcome], calibrate: Calibrator
    ) -> None:
        self.workload = workload
        self.fn = fn
        self.calibrate = calibrate
        self.first_digest: Optional[str] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.last: Optional[PassOutcome] = None
        self.segments: List[Dict[str, float]] = []
        #: host speed factor around each timed pass
        self.speed: List[float] = []
        #: the calibration that closed the previous timed pass
        self._calibration: Optional[float] = None

    def judge(self, outcome: Optional[PassOutcome], error: Optional[str]) -> None:
        """Count one pass and record what is wrong with it."""
        self.attempted += 1
        if outcome is None:
            problems = [error or "pass raised"]
        else:
            digest = record_digest(outcome)
            if self.first_digest is None:
                self.first_digest = digest
            problems = check_pass(self.workload, outcome, digest, self.first_digest)
            self.last = outcome
        if problems:
            self.failed += 1
            self.problems.extend(problems[: _MAX_PROBLEMS - len(self.problems)])

    def timed(self) -> float:
        """One untraced pass; its wall-clock in seconds.

        The pass starts right after a full collection.  Left alone, the
        collector's generation counters carry over from pass to pass, a
        full collection lands in every n-th pass only (every fifth on
        ``synthetic-failures-restart``, +15 %), and the median of such a
        two-humped sample jumps between the humps from run to run.
        Collections the pass itself triggers stay inside the timing.
        """
        before = self._calibration or self.calibrate()
        gc.collect()
        t0 = time.perf_counter()
        try:
            outcome: Optional[PassOutcome] = self.fn()
            error = None
        except Exception as exc:  # a failed pass is a result, not a crash
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        # this calibration also opens the next pass
        self._calibration = self.calibrate()
        self.speed.append(speed_factor([before, self._calibration]))
        self.judge(outcome, error)
        if outcome is not None:
            self.segments.append(outcome.segments)
        return wall


def _until(deadline: float, at_least: int, step: Callable[[], Any]) -> List[Any]:
    """Call *step* at least *at_least* times and until *deadline*."""
    out = []
    while len(out) < at_least or time.perf_counter() < deadline:
        out.append(step())
    return out


def _median_segments(rows: List[Dict[str, float]]) -> Dict[str, float]:
    names = rows[0].keys() if rows else ()
    return {name: statistics.median(row[name] for row in rows) for name in names}


def _replay_extras(inputs: Inputs, workdir: str, cold_s: float) -> Dict[str, float]:
    """The two ratios of the executor and the trace bus that need runs
    of their own: serial over parallel cold grid, and a captured cell
    over the same cell with the bus idle."""
    from repro import run_grid
    from repro.exec import run_cell
    from repro.replay import capture_cell

    base, axes = list(inputs.base), list(inputs.axes)
    serial = []
    for i in range(3):
        cache_dir = os.path.join(workdir, f"serial-{i}")
        t0 = time.perf_counter()
        grid = run_grid(base, axes, workers=1, cache=cache_dir)
        serial.append(time.perf_counter() - t0)
        shutil.rmtree(cache_dir, ignore_errors=True)
    config = next(c.config for c in grid.cells if c.config["mode"] == "dcpcp")
    plain, captured = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        run_cell(config)
        t1 = time.perf_counter()
        capture_cell(config)
        t2 = time.perf_counter()
        plain.append(t1 - t0)
        captured.append(t2 - t1)
    return {
        "exec.parallel_speedup": statistics.median(serial) / cold_s,
        "metrics.trace.capture_overhead_ratio": statistics.median(captured)
        / statistics.median(plain),
    }


def run_child(
    name: str,
    seed: int,
    *,
    seconds: float,
    min_passes: int,
    warmup: int,
    trace: bool,
    started: float,
) -> Dict[str, Any]:
    """Set up *name*, run its passes, and return the raw measurements."""
    workload = WORKLOADS[name]
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    try:
        t0 = time.perf_counter()
        calibrate = Calibrator()
        calibrations = [calibrate() for _ in range(3)]
        calibrating_s = time.perf_counter() - t0
        inputs = make_inputs(workload, seed)
        passes = _Passes(workload, make_pass(workload, inputs, workdir), calibrate)
        for _ in range(warmup):
            passes.fn()
        setup_s = time.perf_counter() - started - calibrating_s
        calibrations += [calibrate() for _ in range(3)]
        out: Dict[str, Any] = {
            "workload": name,
            "seed": seed,
            "argv": {"base": inputs.base, "axes": inputs.axes},
            "setup_s": setup_s,
            "setup_speed": speed_factor(calibrations),
        }
        if trace:
            out.update(_traced(passes, inputs, workdir, seconds, min_passes))
        else:
            deadline = time.perf_counter() + seconds
            out["pass_wall_s"] = _until(deadline, min_passes, passes.timed)
            out["pass_speed"] = passes.speed
        if passes.last is not None:
            out["digest"] = passes.first_digest
            out["simulated"] = metrics.simulated_metrics(passes.last.records)
        out.update(
            attempted=passes.attempted,
            failed=passes.failed,
            problems=passes.problems,
            # Linux reports ru_maxrss in KiB
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        return out
    finally:
        from repro.exec import shutdown_pools

        shutdown_pools()  # joins the workers grid-trace-replay started
        shutil.rmtree(workdir, ignore_errors=True)


def _traced(
    passes: _Passes, inputs: Inputs, workdir: str, seconds: float, min_passes: int
) -> Dict[str, Any]:
    """Reference passes, then the same passes under span wrappers."""
    from .layers import flat_targets
    from .spans import Tracer, span_cost_us

    start = time.perf_counter()
    reference = _until(start + seconds / 3.0, min_passes, passes.timed)
    segments = _median_segments(passes.segments)

    targets, _ = flat_targets()
    tracer = Tracer(
        targets, observe={metrics.EVENTS_TARGET: lambda result: result.sim_events}
    )
    spans = []

    def traced_pass() -> None:
        gc.collect()  # as before a timed pass
        try:
            outcome, measured = tracer.trace(passes.fn)
        except Exception as exc:
            passes.judge(None, f"{type(exc).__name__}: {exc}")
            return
        passes.judge(outcome, None)
        spans.append(measured)

    tracer.install()
    try:
        _until(start + seconds, min_passes, traced_pass)
    finally:
        tracer.uninstall()
    if not spans or passes.last is None:
        return {"layers": None, "missing_targets": tracer.missing}

    extras: Dict[str, float] = {}
    event_wall_s = statistics.median(reference)
    if passes.workload.replay:
        extras = _replay_extras(inputs, workdir, segments["exec.grid_cold_s"])
        # only the captured cell runs in this process
        event_wall_s = segments["replay.capture_s"]
    layers = metrics.layer_metrics(
        spans,
        reference_wall_s=reference,
        event_wall_s=event_wall_s,
        span_cost_us=span_cost_us(),
        simulated=metrics.simulated_metrics(passes.last.records),
        segments=segments,
        facts=passes.last.facts,
        extras=extras,
    )
    return {
        "layers": layers,
        "missing_targets": tracer.missing,
        "reference_passes": len(reference),
        "traced_passes": len(spans),
    }


def main(argv: List[str], started: float) -> int:
    parser = argparse.ArgumentParser(prog="perfbench child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-passes", type=int, required=True)
    parser.add_argument("--warmup", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    result = run_child(
        args.workload,
        args.seed,
        seconds=args.seconds,
        min_passes=args.min_passes,
        warmup=args.warmup,
        trace=bool(args.trace),
        started=started,
    )
    sys.stdout.flush()
    print(json.dumps(result))
    return 0
