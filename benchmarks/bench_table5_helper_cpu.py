"""Table V — checkpoint helper core average CPU utilization.

Per-node helper utilization for 370/472/588 MB of checkpoint data per
core, pre-copy vs no-pre-copy.  Paper: pre-copy roughly doubles the
helper core's utilization (12.9->24.5%, 13.4->25.1%, 14.8->28.3%) but
stays small next to node-wide CPU (~2.5%).  588 MB/core x 12 ranks x
(2 local + 2 hosted remote versions) exceeds the default 24 GB NVM
part, so the cells size the node's NVM like the paper's 48 GB
machines."""

from conftest import once, run_figure

from repro.metrics import Table

PAPER = {370: (12.85, 24.48), 472: (13.40, 25.12), 588: (14.82, 28.31)}


def test_table5_helper_core_utilization(benchmark, report):
    arms = once(benchmark, lambda: run_figure("table5_helper_cpu"))
    results = {
        int(pre["sweep.checkpoint-mb"]): (pre, nop)
        for pre, nop in zip(arms["pre-copy"], arms["no-pre-copy"])
    }
    table = Table(
        "Table V — checkpoint helper core average CPU utilization (%)",
        ["data/core (MB)", "no-pre-copy (paper)", "no-pre-copy (ours)",
         "pre-copy (paper)", "pre-copy (ours)", "ratio (ours)"],
    )
    ratios = []
    for mb, (pre, nop) in results.items():
        p_nop, p_pre = PAPER[mb]
        u_pre = pre["remote.helper_utilization"] * 100
        u_nop = nop["remote.helper_utilization"] * 100
        ratio = u_pre / u_nop if u_nop else float("inf")
        ratios.append(ratio)
        table.add_row(mb, f"{p_nop:.2f}", f"{u_nop:.2f}", f"{p_pre:.2f}",
                      f"{u_pre:.2f}", f"{ratio:.2f}")
    # node-wide share: one helper core of 12
    any_pre = results[min(results)][0]
    node_share = any_pre["remote.helper_utilization"] / 12 * 100
    table.add_note(
        f"node-wide CPU share of the helper: ~{node_share:.1f}% "
        "(paper: ~2.5% of node-wide CPU)"
    )
    report(table.render())

    # shape: pre-copy roughly doubles helper utilization, and the
    # absolute values sit in Table V's band
    for r in ratios:
        assert 1.3 <= r <= 3.2
    for mb, (pre, nop) in results.items():
        assert 0.04 <= nop["remote.helper_utilization"] <= 0.30
        assert 0.10 <= pre["remote.helper_utilization"] <= 0.50
        assert pre["remote.helper_utilization"] > nop["remote.helper_utilization"]
