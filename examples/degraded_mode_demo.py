#!/usr/bin/env python3
"""Resilient remote checkpointing: link flaps, buddy failover,
degraded mode and background re-sync.

A scripted failure schedule drives a 4-node / 2-rack cluster through
the scenarios the resilience layer exists for:

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

from repro.apps import SyntheticModel
from repro.baselines import precopy_config
from repro.cluster import Cluster, ClusterRunner, FailureEvent, ScriptedInjector
from repro.config import ClusterConfig
from repro.metrics import timeline as tl
from repro.metrics.timeline import Timeline
from repro.metrics.trace import BUS
from repro.units import GB_per_sec

ITERATIONS = 10
LOCAL_I = 10.0
REMOTE_I = 30.0


def main() -> None:
    cluster = Cluster(ClusterConfig(nodes=4, racks=2),
                      nvm_write_bandwidth=GB_per_sec(2.0), seed=5)
    app = SyntheticModel(checkpoint_mb_per_rank=20, chunk_mb=5,
                         iteration_compute_time=LOCAL_I,
                         comm_mb_per_iteration=5)
    cluster.build(app, precopy_config(LOCAL_I, REMOTE_I), ranks_per_node=2)

    events = [
        FailureEvent(time=52.0, node=1, kind="transient", duration=6.0),
        FailureEvent(time=75.0, node=1, kind="hard"),
    ]
    print("scripted schedule:")
    for ev in events:
        extra = f" (heals after {ev.duration:.0f}s)" if ev.is_transient else ""
        print(f"  t={ev.time:>5.1f}s  node {ev.node}  {ev.kind}{extra}")

    runner = ClusterRunner(cluster, injector=ScriptedInjector(events))
    # the phase timeline is a trace sink: attach it around the run
    with BUS.capture(Timeline()) as timeline:
        result = runner.run(ITERATIONS)

    print(f"\ncompleted {result.iterations} iterations in "
          f"{result.total_time:.1f}s (ideal {result.ideal_time:.0f}s)")
    print(f"failures: {result.transient_failures} transient, "
          f"{result.hard_failures} hard; "
          f"{result.iterations_recomputed} iterations recomputed")

    r = result.to_dict()["resilience"]
    print("\nresilience layer:")
    print(f"  transfer retries        {r['transfer_retries']}")
    print(f"  transfers abandoned     {r['transfers_abandoned']}")
    print(f"  heartbeats sent         {r['heartbeats']}")
    print(f"  buddy-down detections   {r['buddy_down_detections']}")
    print(f"  buddy re-pairings       {r['buddy_repairs']}")
    for orphan, old, new in runner.directory.repairs:
        print(f"    node {orphan} (rack {cluster.topology.rack_of(orphan)}): "
              f"buddy {old} -> {new} "
              f"(rack {cluster.topology.rack_of(new)}, still cross-rack)")
    print(f"  re-syncs completed      {r['resyncs_completed']} "
          f"({r['resync_gb'] * 1024:.0f} MB re-sent)")
    print(f"  degraded-mode entries   {r['degraded_entries']} "
          f"({r['degraded_time_s']:.1f}s local-only total)")

    helper = cluster.nodes[0].helper
    committed = sum(len(t.committed_chunks()) for t in helper.targets.values())
    print(f"\nnode 0 now pairs with node {helper.buddy_id}; "
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
