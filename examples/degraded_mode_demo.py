#!/usr/bin/env python3
"""Resilient remote checkpointing: link flaps, buddy failover,
degraded mode and background re-sync.

The ``link-flap`` scenario cell drives a 4-node / 2-rack cluster
through the scenarios the resilience layer exists for:

1. a **transient link flap** on node 1 in the middle of an active
   stream window — in-flight remote transfers tear down, the retrying
   transport backs off and re-delivers once the link heals;
2. a **hard buddy failure**: node 1 dies, node 0 (whose remote copies
   lived there) drops to *degraded* local-only checkpointing with an
   interval re-solved from the §III model, re-pairs cross-rack to
   node 3, re-syncs its committed chunks in the background, and
   restores two-level protection.

The timeline at the end shows the new glyphs: ``o`` (link outage),
``D`` (degraded-mode span), ``s`` (re-sync traffic).

Run:  python examples/degraded_mode_demo.py
"""

from repro.exec.cell import SCENARIOS, build_parser, resolve_config, run_collected
from repro.metrics import timeline as tl
from repro.metrics.timeline import Timeline
from repro.metrics.trace import BUS, RingBufferSink

#: a small synthetic app with 10 s compute intervals and 30 s rounds
CELL = [
    "--app", "synthetic", "--ranks-per-node", "2", "--local-interval", "10",
    "--remote-interval", "30", "--checkpoint-mb", "20", "--chunk-mb", "5",
    "--comm-mb", "5", "--iterations", "10", "--seed", "5", "--scenario", "link-flap",
]


def node_id(name: str) -> int:
    """``"n3"`` / ``"n3:helper"`` -> 3."""
    return int(name[1:].split(":")[0])


def summarize(res):
    """The record plus what only the finished testbed knows: each
    node's rack and node 0's buddy-side copies."""
    nodes, helper = res.cluster.nodes, res.cluster.nodes[0].helper
    racks = [res.cluster.topology.rack_of(n.node_id) for n in nodes]
    committed = sum(len(t.committed_chunks()) for t in helper.targets.values())
    return res.to_dict(), racks, helper.buddy_id, committed


def main() -> None:
    print("scripted schedule:")
    for ev in SCENARIOS["link-flap"].failures:
        extra = f" (heals after {ev.duration:.0f}s)" if ev.is_transient else ""
        print(f"  t={ev.time:>5.1f}s  node {ev.node}  {ev.kind}{extra}")

    config = resolve_config(build_parser().parse_args(CELL))
    # the phase timeline and the event buffer are trace sinks
    with BUS.capture(Timeline()) as timeline, \
            BUS.capture(RingBufferSink(capacity=None)) as trace:
        result, racks, buddy, committed = run_collected(config, summarize)

    failures = result["failures"]
    print(f"\ncompleted {result['iterations']} iterations in "
          f"{result['total_time_s']:.1f}s (ideal {result['ideal_time_s']:.0f}s)")
    print(f"failures: {failures['transient']} transient, "
          f"{failures['hard']} hard; "
          f"{failures['iterations_recomputed']} iterations recomputed")

    r = result["resilience"]
    print("\nresilience layer:")
    print(f"  transfer retries        {r['transfer_retries']}")
    print(f"  transfers abandoned     {r['transfers_abandoned']}")
    print(f"  heartbeats sent         {r['heartbeats']}")
    print(f"  buddy-down detections   {r['buddy_down_detections']}")
    print(f"  buddy re-pairings       {r['buddy_repairs']}")
    for ev in trace.of_kind("failover"):
        orphan, old, new = node_id(ev.actor), node_id(ev.from_target), node_id(ev.to_target)
        print(f"    node {orphan} (rack {racks[orphan]}): "
              f"buddy {old} -> {new} "
              f"(rack {racks[new]}, still cross-rack)")
    print(f"  re-syncs completed      {r['resyncs_completed']} "
          f"({r['resync_gb'] * 1024:.0f} MB re-sent)")
    print(f"  degraded-mode entries   {r['degraded_entries']} "
          f"({r['degraded_time_s']:.1f}s local-only total)")

    print(f"\nnode 0 now pairs with node {buddy}; "
          f"{committed} chunks committed on the new buddy")

    print("\ntimeline (o=outage, D=degraded, s=resync, R=restart):")
    actors = [a for a in timeline.actors() if a.startswith("n")]
    print(timeline.ascii_art(width=96, actors=actors))
    legend = {tl.OUTAGE: "outage", tl.DEGRADED: "degraded", tl.RESYNC: "resync"}
    for kind, label in legend.items():
        total = timeline.total(kind)
        if total:
            print(f"  {label:>9}: {total:.1f}s total")


if __name__ == "__main__":
    main()
