"""Figures 1 & 5 — multilevel checkpoint timing diagrams.

Renders the measured phase timeline of a short run as the paper's
C/L/R diagrams and quantifies the overlap that pre-copy creates:

* Fig. 5a (no pre-copy): compute and local checkpoint strictly
  sequential; the remote round bursts after it;
* Fig. 5b/c (pre-copy): local pre-copy and the remote stream overlap
  the compute phase, shrinking the blocking L step.
"""

from conftest import once, run_cluster

from repro.apps import SyntheticModel
from repro.baselines import async_noprecopy_config, precopy_config
from repro.metrics import Table
from repro.metrics import timeline as tl
from repro.metrics.timeline import Timeline
from repro.metrics.trace import BUS
from repro.units import GB_per_sec

ITERS = 4
NODES = 2
RANKS = 2


def app():
    return SyntheticModel(
        checkpoint_mb_per_rank=200,
        chunk_mb=25,
        iteration_compute_time=30.0,
        comm_mb_per_iteration=50,
    )


def observed(ckpt_config):
    """One run and its phase timeline (a sink on the trace bus)."""
    with BUS.capture(Timeline()) as timeline:
        result = run_cluster(app(), ckpt_config, iterations=ITERS,
                             nodes=NODES, ranks_per_node=RANKS,
                             nvm_write_bandwidth=GB_per_sec(0.5))
    return result, timeline


def test_fig5_timing_diagrams(benchmark, report):
    def experiment():
        return observed(precopy_config(30, 60)), observed(async_noprecopy_config(30, 60))

    (pre, pre_tl), (nop, nop_tl) = once(benchmark, experiment)
    actors = ["r0", "n0:helper"]
    art_nop = nop_tl.ascii_art(width=100, actors=actors)
    art_pre = pre_tl.ascii_art(width=100, actors=actors)

    table = Table(
        "Figure 5 — phase accounting (rank r0 + node-0 helper)",
        ["metric", "no-pre-copy (5a)", "pre-copy (5b/c)"],
    )
    for label, kind in (("blocking local ckpt time (s)", tl.LOCAL_CKPT),):
        table.add_row(label,
                      f"{nop_tl.total(kind, actor='r0'):.2f}",
                      f"{pre_tl.total(kind, actor='r0'):.2f}")
    table.add_row(
        "remote stream phases",
        nop_tl.count(tl.REMOTE_PRECOPY),
        pre_tl.count(tl.REMOTE_PRECOPY),
    )
    table.add_row("total time (s)", f"{nop.total_time:.1f}", f"{pre.total_time:.1f}")
    report(
        "Figure 5a — asynchronous no-pre-copy (C=compute, L=local ckpt, "
        "R=remote ckpt):\n" + art_nop,
        "Figure 5b/c — NVM-checkpoint pre-copy (r=remote pre-copy stream):\n" + art_pre,
        table.render(),
    )

    # shape: pre-copy shrinks the blocking L step and streams remotely
    assert (
        pre_tl.total(tl.LOCAL_CKPT, actor="r0")
        < nop_tl.total(tl.LOCAL_CKPT, actor="r0")
    )
    assert pre_tl.count(tl.REMOTE_PRECOPY) > 0
    assert nop_tl.count(tl.REMOTE_PRECOPY) == 0
    assert pre.total_time <= nop.total_time
