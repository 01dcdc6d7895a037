"""Figure 9 — GTC application efficiency with remote checkpointing.

Efficiency = ideal runtime / actual runtime — the ideal run does not
checkpoint at all (§VI), so the overhead includes *both* local and
remote checkpointing.  Local interval fixed at 40 s; remote interval
swept (the paper sweeps 47-180 s).  The arms are the paper's:
full NVM-checkpoints (local pre-copy + remote pre-copy stream) vs the
asynchronous no-pre-copy approach (blocking local checkpoints, whole
checkpoint pushed at each remote round).  Both run at reduced per-core
NVM bandwidth (1 GB/s, the regime Fig. 9's x-axis emphasizes; at full
Table-I bandwidth both arms are cheap).

Paper's findings to match in shape: pre-copy consistently higher
efficiency, approaching 0.98 at long intervals / full bandwidth; the
average overhead drops from ~10.6% (no pre-copy) to ~6.2% (pre-copy),
i.e. ~40% less — the abstract's '40% faster application execution'."""

from conftest import once, run_figure

from repro.metrics import Series, Table, render_series


def test_fig9_remote_efficiency(benchmark, report):
    arms = once(benchmark, lambda: run_figure("fig9_efficiency"))
    ideal_s = arms["ideal"][0]["total_time_s"]
    results = {
        float(pre["sweep.remote-interval"]): (pre, nop)
        for pre, nop in zip(arms["pre-copy"], arms["no-pre-copy"])
    }
    s_pre, s_nop = Series("remote pre-copy"), Series("async no-pre-copy")
    table = Table(
        "Figure 9 — GTC efficiency vs remote checkpoint interval "
        "(local interval 40 s, 1 GB/s NVM)",
        ["remote interval (s)", "arm", "exec time (s)", "efficiency",
         "remote overhead %"],
    )
    overheads = {"pre": [], "nop": []}
    for ri, (pre, nop) in results.items():
        for key, label, r in (("pre", "pre-copy", pre), ("nop", "no-pre-copy", nop)):
            eff = ideal_s / r["total_time_s"]
            ovh = (r["total_time_s"] - ideal_s) / ideal_s * 100
            overheads[key].append(ovh)
            table.add_row(ri, label, f"{r['total_time_s']:.1f}", f"{eff:.3f}", f"{ovh:.1f}")
            (s_pre if key == "pre" else s_nop).add(ri, eff)
    avg_pre = sum(overheads["pre"]) / len(overheads["pre"])
    avg_nop = sum(overheads["nop"]) / len(overheads["nop"])
    reduction = (avg_nop - avg_pre) / avg_nop * 100
    table.add_note(
        f"average overhead: pre-copy {avg_pre:.1f}% vs no-pre-copy {avg_nop:.1f}% "
        f"-> {reduction:.0f}% less (paper: 6.2% vs 10.6%, ~40% less)"
    )
    best_eff = max(s_pre.ys)
    table.add_note(f"best pre-copy efficiency: {best_eff:.3f} (paper: up to ~0.98)")
    report(
        render_series("Figure 9 efficiency", [s_pre, s_nop],
                      "remote interval (s)", "efficiency"),
        table.render(),
    )

    # shape assertions
    for ri, (pre, nop) in results.items():
        assert ideal_s / pre["total_time_s"] >= ideal_s / nop["total_time_s"] - 1e-9
    assert reduction >= 15.0      # pre-copy clearly reduces the overhead
    assert best_eff >= 0.90       # approaches the paper's 0.98
