"""X10 — extension: remote checkpoint compression (mcrengine-style).

Related work cites Islam et al.'s mcrengine: compress checkpoint data
before shipping it.  This bench adds an LZ-class codec to the remote
path and measures the interconnect-volume / helper-CPU trade at
several compressibility levels (HPC state ranges from near-random to
highly regular)."""

from conftest import once, run_figure

from repro.metrics import Table


def test_compression_volume_cpu_trade(benchmark, report):
    arms = once(benchmark, lambda: run_figure("compression"))
    results = {None: arms["off"][0]}
    results.update({float(r["sweep.compress-ratio"]): r for r in arms["compressed"]})
    table = Table(
        "X10 — remote checkpoint compression (LAMMPS, 48 ranks)",
        ["compress ratio", "ckpt bytes on fabric (GB)", "helper util %",
         "exec time (s)"],
    )
    for ratio, r in results.items():
        label = "off" if ratio is None else f"{ratio:.1f}"
        table.add_row(label, f"{r['fabric.ckpt_gb']:.1f}",
                      f"{r['remote.helper_utilization'] * 100:.1f}",
                      f"{r['total_time_s']:.1f}")
    base, best = results[None], results[0.4]
    table.add_note(
        f"at 0.4 compressibility the fabric carries "
        f"{(1 - best['fabric.ckpt_gb'] / base['fabric.ckpt_gb']) * 100:.0f}% less checkpoint "
        f"data for {(best['remote.helper_utilization'] / base['remote.helper_utilization'] - 1) * 100:+.0f}% "
        "helper CPU — the mcrengine trade on our substrate"
    )
    report(table.render())

    # volume falls with the ratio; CPU rises
    vols = [r["fabric.ckpt_gb"] for r in results.values()]
    assert vols == sorted(vols, reverse=True)
    assert best["fabric.ckpt_gb"] < 0.55 * base["fabric.ckpt_gb"]
    assert best["remote.helper_utilization"] > base["remote.helper_utilization"]
