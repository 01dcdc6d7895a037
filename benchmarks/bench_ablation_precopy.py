"""X2 — ablation: CPC vs DCPC vs DCPCP (§IV's three pre-copy variants).

On a hot-chunk-heavy synthetic workload, measures what each refinement
buys: CPC re-copies hot chunks after every write; DCPC delays the
start of pre-copy to the learned threshold; DCPCP additionally holds
each chunk until its predicted last write.  Expectations from §IV:
successive variants reduce redundant copies, protection faults, and
total data movement, without giving up the coordinated-step savings."""

from conftest import nvm_gb, once, run_figure

from repro.metrics import Table


def test_ablation_precopy_variants(benchmark, report):
    records = once(benchmark, lambda: run_figure("ablation_precopy"))["variants"]
    results = {r["sweep.mode"]: r for r in records}
    table = Table(
        "X2 — pre-copy variant ablation (50% hot chunks, 1 GB/s NVM)",
        ["variant", "exec time (s)", "coord ckpt avg (s)", "data to NVM (GB)",
         "fault time (s)"],
    )
    for mode, r in results.items():
        table.add_row(
            mode, f"{r['total_time_s']:.1f}", f"{r['local.avg_blocking_s']:.2f}",
            f"{nvm_gb(r):.1f}", f"{r['local.fault_time_s']:.2f}",
        )
    cpc, dcpc, dcpcp = results["cpc"], results["dcpc"], results["dcpcp"]
    none = results["none"]
    table.add_note(
        "CPC eagerly re-copies hot chunks (highest data volume); DCPC's "
        "threshold trims early wasted copies; DCPCP's prediction holds hot "
        "chunks until their last write (fewest redundant copies)."
    )
    report(table.render())

    # every pre-copy variant beats the blocking baseline on exec time
    for mode in ("cpc", "dcpc", "dcpcp"):
        assert results[mode]["total_time_s"] < none["total_time_s"]
        assert results[mode]["local.avg_blocking_s"] < none["local.avg_blocking_s"]
    # refinement reduces data movement: CPC >= DCPC >= DCPCP
    assert nvm_gb(cpc) >= nvm_gb(dcpc)
    assert nvm_gb(dcpc) >= nvm_gb(dcpcp) * 0.99
    # prediction reduces fault churn vs eager CPC
    assert dcpcp["local.fault_time_s"] <= cpc["local.fault_time_s"]
