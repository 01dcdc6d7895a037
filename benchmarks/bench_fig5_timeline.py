"""Figures 1 & 5 — multilevel checkpoint timing diagrams.

Renders the measured phase timeline of a short run as the paper's
C/L/R diagrams and quantifies the overlap that pre-copy creates:

* Fig. 5a (no pre-copy): compute and local checkpoint strictly
  sequential; the remote round bursts after it;
* Fig. 5b/c (pre-copy): local pre-copy and the remote stream overlap
  the compute phase, shrinking the blocking L step.

Each arm's timeline is read back from its cell's trace.
"""

import io

from conftest import once

from repro.exec.grid import run_grid
from repro.metrics import Table
from repro.metrics import timeline as tl
from repro.metrics.timeline import Timeline
from repro.metrics.trace import read_trace
from repro.tools.bench import figure_specs


def observed(spec):
    """One traced cell: its record and its phase timeline."""
    trace = io.StringIO()
    (record,) = run_grid(spec, workers="auto", trace=trace).records
    trace.seek(0)
    timeline = Timeline()
    for event in read_trace(trace)[1]:
        timeline.handle(event)
    return record, timeline


def test_fig5_timing_diagrams(benchmark, report):
    arms = once(benchmark, lambda: {
        arm: observed(spec) for arm, spec in figure_specs("fig5_timeline").items()
    })
    (pre, pre_tl), (nop, nop_tl) = arms["pre-copy"], arms["no-pre-copy"]
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
    table.add_row("total time (s)", f"{nop['total_time_s']:.1f}",
                  f"{pre['total_time_s']:.1f}")
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
    assert pre["total_time_s"] <= nop["total_time_s"]
