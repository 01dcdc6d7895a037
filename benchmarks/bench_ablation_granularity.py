"""X4 — ablation: chunk-level vs page-level dirty tracking (§IV).

The paper rejects page-granular pre-copy for application-initiated
checkpoints: 'handling a page protection fault can take 6-12 usec, and
3 sec for 1 GB of data. Specifically ... since most checkpoint data
structures fully change, using page level pre-copy will not be
beneficial.'  This ablation runs the same pre-copy pipeline under both
granularities and measures the protection-fault bill."""

from conftest import once, run_figure

from repro.metrics import Table


def test_ablation_tracking_granularity(benchmark, report):
    records = once(benchmark, lambda: run_figure("ablation_granularity"))["granularity"]
    results = {r["sweep.granularity"]: r for r in records}
    chunk_r, page_r = results["chunk"], results["page"]
    table = Table(
        "X4 — dirty-tracking granularity (fully-rewritten 400 MB/rank)",
        ["granularity", "exec time (s)", "fault time total (s)",
         "fault time / rank / iter (s)"],
    )
    n = chunk_r["iterations"] * chunk_r["n_ranks"]
    for g, r in results.items():
        table.add_row(g, f"{r['total_time_s']:.1f}", f"{r['local.fault_time_s']:.2f}",
                      f"{r['local.fault_time_s'] / n:.4f}")
    # the paper's arithmetic: 9 us/fault * (1 GB / 4 KiB pages) ~ 2.4 s/GB
    per_gb = page_r["local.fault_time_s"] / (
        page_r["iterations"] * page_r["n_ranks"] * 400 / 1024
    )
    table.add_note(
        f"page-level fault handling costs {per_gb:.1f} s per GB of rewritten "
        "data (paper: '6-12 usec [per fault], and 3 sec for 1 GB')"
    )
    ratio = page_r["local.fault_time_s"] / max(1e-9, chunk_r["local.fault_time_s"])
    table.add_note(
        f"chunk-level tracking pays {chunk_r['local.fault_time_s']:.2f} s of faults "
        f"for the whole 48-checkpoint run — {ratio:.0f}x less"
    )
    report(table.render())

    # the paper's band: ~1.5-3 s of fault handling per GB at 6-12 us
    assert 1.0 <= per_gb <= 3.5
    assert page_r["local.fault_time_s"] > 100 * chunk_r["local.fault_time_s"]
    assert page_r["total_time_s"] > chunk_r["total_time_s"]
