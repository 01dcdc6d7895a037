"""X7 — extension: PCM write endurance under checkpoint workloads.

The paper flags PCM's 1e8-cycle write endurance (vs DRAM's 1e16) as a
key hardware limitation but does not quantify it for checkpointing.
The device models track every NVM write, so we can: this bench runs
GTC at several local checkpoint intervals and projects device
lifetime under ideal wear leveling — showing both that checkpointing
at sane intervals is endurance-safe for years, and how aggressively
short intervals eat the budget.  Dirty tracking (pre-copy) also writes
*less* than the blocking baseline, extending lifetime.  The per-node
wear is read off the devices, which no record carries."""

from conftest import measure_figure, once

from repro.metrics import Table
from repro.units import hours


def wear(result):
    """The cell's checkpoint interval and run time, the bytes written to
    NVM over all nodes, and the worst node's projected lifetime in
    years."""
    nvms = [node.ctx.nvm for node in result.cluster.active_nodes]
    worst = min(nvm.estimated_lifetime_seconds(result.total_time) for nvm in nvms)
    return (
        result.compute_per_iteration,
        result.total_time,
        sum(nvm.wear.bytes_written for nvm in nvms),
        worst / hours(24 * 365),
    )


def test_pcm_endurance_projection(benchmark, report):
    arms = once(benchmark, lambda: measure_figure("endurance", wear))
    table = Table(
        "X7 — PCM lifetime under GTC checkpointing (1e8 cycles, ideal wear leveling)",
        ["ckpt interval (s)", "arm", "NVM GB written", "GB/hour",
         "projected lifetime (years)"],
    )
    lifetimes = {}
    for pre, nop in zip(arms["pre-copy"], arms["no-pre-copy"]):
        for label, (interval, total_time, written, years) in (
            ("pre-copy", pre), ("no-pre-copy", nop)
        ):
            lifetimes[(interval, label)] = years
            table.add_row(
                f"{interval:.0f}", label, f"{written / 2**30:.1f}",
                f"{written / 2**30 / (total_time / 3600):.0f}",
                f"{years:,.0f}",
            )
    table.add_note("even 10 s checkpoint intervals leave decades of ideal-wear "
                   "lifetime on a 24 GB part; real (imperfect) wear leveling "
                   "divides these numbers by the leveling inefficiency")
    table.add_note("dirty tracking writes less than the blocking baseline "
                   "(write-once chunks persist once), extending lifetime")
    report(table.render())

    # shorter intervals burn endurance faster
    assert lifetimes[(10.0, "no-pre-copy")] < lifetimes[(120.0, "no-pre-copy")]
    # pre-copy's dirty tracking never writes more than the baseline
    for interval, *_ in arms["pre-copy"]:
        assert lifetimes[(interval, "pre-copy")] >= lifetimes[(interval, "no-pre-copy")] * 0.99
    # all projections are finite (writes actually recorded)
    assert all(y != float("inf") for y in lifetimes.values())
