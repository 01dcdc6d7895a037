"""X3 — ablation: chunk-size sensitivity of the pre-copy benefit.

The paper's §VI analysis ('We analyze the impact of chunk sizes on
pre-copy performance for a fixed checkpoint size (400 MB)') explains
why GTC/LAMMPS gain more than CM1.  This ablation fixes D = 400 MB and
the write schedule, sweeping only the chunk granularity; late-written
bytes are what the coordinated step must still absorb, and chunk
granularity sets how much of the remaining data pre-copy can overlap
and how much fault/bookkeeping overhead it pays."""

from conftest import once, run_figure

from repro.metrics import Series, Table, render_series


def test_ablation_chunk_size(benchmark, report):
    arms = once(benchmark, lambda: run_figure("ablation_chunksize"))
    results = {
        int(pre["sweep.chunk-mb"]): (pre, nop)
        for pre, nop in zip(arms["pre-copy"], arms["no-pre-copy"])
    }
    series = Series("pre-copy benefit %")
    table = Table(
        "X3 — chunk-size sensitivity (D = 400 MB/rank fixed)",
        ["chunk size (MB)", "chunks/rank", "pre-copy exec (s)",
         "no-pre-copy exec (s)", "benefit %", "fault time (s)"],
    )
    benefits = {}
    for mb, (pre, nop) in results.items():
        benefits[mb] = (nop["total_time_s"] - pre["total_time_s"]) / nop["total_time_s"]
        series.add(mb, benefits[mb] * 100)
        table.add_row(mb, 400 // mb, f"{pre['total_time_s']:.1f}",
                      f"{nop['total_time_s']:.1f}", f"{benefits[mb] * 100:.1f}",
                      f"{pre['local.fault_time_s']:.2f}")
    table.add_note("pre-copy always helps; tiny chunks pay more tracking/fault "
                   "overhead per byte, matching the paper's observation that the "
                   "bandwidth relief matters most for large-chunk workloads")
    report(render_series("X3 benefit vs chunk size", [series],
                         "chunk MB", "benefit %"), table.render())

    for mb, b in benefits.items():
        assert b > 0.0  # pre-copy never loses
    # small chunks carry more per-chunk overhead (faults, bookkeeping)
    assert results[1][0]["local.fault_time_s"] >= results[200][0]["local.fault_time_s"]
