"""Figure 7 — LAMMPS local checkpointing: pre-copy vs no-pre-copy.

48 MPI processes, ~410 MB checkpoint per process (RhodoSpin), local
checkpoint every iteration; the x-axis sweeps the NVM device bandwidth
(which sets the effective per-core NVMBW).  Left axis: application
execution time.  Right axis: total data copied to NVM.

Paper's findings to match in shape: pre-copy holds the checkpoint
overhead to ~6.5% of execution time where no-pre-copy pays ~15%; the
pre-copy arm moves slightly more data (~+3%); overall ~15% better than
a ramdisk path."""

from conftest import nvm_gb, once, run_figure

from repro.baselines import MemoryPathModel, RamdiskPathModel
from repro.metrics import Series, Table, render_series
from repro.units import MB


def test_fig7_lammps_local_checkpoint(benchmark, report):
    arms = once(benchmark, lambda: run_figure("fig7_lammps_local"))
    ideal_s = arms["ideal"][0]["total_time_s"]
    results = {
        float(pre["sweep.nvm-gbps"]): (pre, nop)
        for pre, nop in zip(arms["pre-copy"], arms["no-pre-copy"])
    }
    bw_low = min(results)
    t_pre = Series("pre-copy exec time")
    t_nop = Series("no-pre-copy exec time")
    d_pre = Series("pre-copy data to NVM")
    d_nop = Series("no-pre-copy data to NVM")
    table = Table(
        "Figure 7 — LAMMPS (Rhodo), 48 procs, ~410 MB/proc",
        ["NVM GB/s", "arm", "exec time (s)", "ckpt overhead %",
         "data to NVM (GB)", "avg coord ckpt (s)"],
    )
    for bw, (pre, nop) in results.items():
        for label, r in (("pre-copy", pre), ("no-pre-copy", nop)):
            ovh = (r["total_time_s"] - ideal_s) / ideal_s * 100
            table.add_row(
                bw, label, f"{r['total_time_s']:.1f}", f"{ovh:.1f}",
                f"{nvm_gb(r):.1f}", f"{r['local.avg_blocking_s']:.2f}",
            )
        t_pre.add(bw, pre["total_time_s"])
        t_nop.add(bw, nop["total_time_s"])
        d_pre.add(bw, nvm_gb(pre))
        d_nop.add(bw, nvm_gb(nop))

    # headline shape numbers at the lowest-bandwidth point
    pre_l, nop_l = results[bw_low]
    ovh_pre = (pre_l["total_time_s"] - ideal_s) / ideal_s
    ovh_nop = (nop_l["total_time_s"] - ideal_s) / ideal_s
    # ramdisk comparison: NVM-as-ramdisk = the no-pre-copy arm plus
    # the per-checkpoint VFS tax (serialization, syscalls, lock waits)
    # the MADBench model measured — vs NVM-as-memory with pre-copy
    pre_2, nop_2 = results[2.0]
    ranks_per_node = nop_l["n_ranks"] // nop_l["n_nodes"]
    vfs_extra = (
        RamdiskPathModel().checkpoint_time(MB(410), ranks_per_node)
        - MemoryPathModel().checkpoint_time(MB(410), ranks_per_node)
    )
    ramdisk_exec = nop_l["total_time_s"] + vfs_extra * nop_l["iterations"]
    ramdisk_gain = 1 - pre_l["total_time_s"] / ramdisk_exec
    table.add_note(
        f"@{bw_low} GB/s: overhead pre-copy {ovh_pre*100:.1f}% vs "
        f"no-pre-copy {ovh_nop*100:.1f}% (paper: 6.5% vs 15%)"
    )
    table.add_note(
        f"@{bw_low} GB/s: exec time {pre_l['total_time_s']:.1f}s (NVM-as-memory + "
        f"pre-copy) vs {ramdisk_exec:.1f}s (NVM-as-ramdisk, VFS tax "
        f"{vfs_extra:.2f}s/ckpt) -> {ramdisk_gain*100:.0f}% better (paper: ~15%, "
        "of which 8-10 points from pre-copy)"
    )
    report(
        render_series("Figure 7 exec time", [t_pre, t_nop], "NVM GB/s", "seconds"),
        render_series("Figure 7 data copied", [d_pre, d_nop], "NVM GB/s", "GB"),
        table.render(),
    )

    # --- shape assertions ---
    assert ovh_pre < 0.6 * ovh_nop          # pre-copy at least ~40% less overhead
    for bw, (pre, nop) in results.items():
        assert pre["total_time_s"] <= nop["total_time_s"]
    # pre-copy data volume within a modest factor of the baseline
    assert nvm_gb(pre_2) <= 1.25 * nvm_gb(nop_2)
    assert 0.05 <= ramdisk_gain <= 0.30  # paper: ~15%
