"""Figure 4 — memcpy bandwidth for parallel processes.

Two reproductions:

1. the *model* curve used by the simulator (per-core effective DRAM
   copy bandwidth vs concurrent processes, calibrated to the paper's
   ~67% drop at 12 processes for 33 MB blocks);
2. a *live host measurement*: numpy block copies from concurrent
   threads (numpy releases the GIL, so threads genuinely contend on
   this machine's memory bus) — expect the same monotone decline.
"""

from conftest import once

from repro.config import DRAM_CONFIG
from repro.memory import CoreContentionModel
from repro.memory.bandwidth import measure_host_parallel_memcpy
from repro.metrics import Series, Table, render_series
from repro.units import MB

PROCS = [1, 2, 4, 8, 12]
BLOCK = MB(33)


def test_fig4_model_curve(benchmark, report):
    def experiment():
        model = CoreContentionModel(DRAM_CONFIG)
        return {n: BLOCK / model.copy_time(BLOCK, n) for n in PROCS}

    curve = once(benchmark, experiment)
    series = Series("per-core copy bandwidth (model)")
    table = Table(
        "Figure 4 — parallel memcpy, per-core bandwidth (33 MB blocks)",
        ["processes", "per-core MB/s", "normalized"],
    )
    base = curve[1]
    for n in PROCS:
        series.add(n, curve[n] / 2**20)
        table.add_row(n, f"{curve[n] / 2**20:.0f}", f"{curve[n] / base:.2f}")
    drop = 1 - curve[12] / curve[1]
    table.add_note(f"per-core drop 1 -> 12 processes: {drop*100:.0f}% (paper: ~67%)")
    report(render_series("Figure 4 (model)", [series], "processes", "MB/s"), table.render())
    assert 0.55 <= drop <= 0.80


def test_fig4_host_measurement(benchmark, report):
    def experiment():
        return measure_host_parallel_memcpy(
            proc_counts=(1, 2, 4), block_bytes=MB(16), repeats=2
        )

    host = once(benchmark, experiment)
    table = Table(
        "Figure 4 — live host rerun (numpy threads, 16 MB blocks)",
        ["threads", "per-thread MB/s"],
    )
    for n, bw in host.items():
        table.add_row(n, f"{bw / 2**20:.0f}")
    table.add_note("host measurement: absolute numbers depend on this machine; "
                   "the monotone per-thread decline is the reproduced shape")
    report(table.render())
    # weak shape assertion (host-dependent): more threads never help
    assert host[4] <= host[1] * 1.15
