#!/usr/bin/env python3
"""Elastic cluster membership: join, live migration, drain, and
incremental failover.

One 6-node / 2-rack cluster (4 nodes computing, 2 spares with NVM and
fabric but no ranks) runs the grow/shrink-under-load story:

1. **t=35 s** node 2 dies hard — its orphan (node 1) re-pairs onto
   node 0, which now hosts *two* sources (the imbalance);
2. **t=60 s** spare node 4 **joins** the buddy pool — the migration
   planner offloads node 1's copies onto it in bounded batches,
   interleaved with the live pre-copy stream and throttled whenever
   the per-interval checkpoint-latency SLO is at risk; ownership flips
   atomically only after the last batch commits;
3. **t=95 s** the replaced node 2 **drains** and departs (nothing
   checkpoints to it anymore);
4. **t=140 s** the newcomer dies hard — node 1 fails over *back* to
   node 0, and because node 0's copies are still current for every
   chunk that did not re-commit since the cutover, the re-sync sends
   only the delta (compare the full-resync baseline's bytes).

Run:  python examples/elastic_cluster_demo.py
"""

from repro.metrics.timeline import Timeline
from repro.metrics.trace import BUS
from repro.tools.elastic import (
    DRAIN_AT,
    EARLY_FAIL_AT,
    JOIN_AT,
    LATE_FAIL_AT,
    SLO_HEADROOM,
    run_clean,
    run_elastic,
    run_full_resync_baseline,
    _worst_latency,
)
from repro.units import to_GB


def main() -> None:
    print("calibrating: clean run + full-resync baseline ...")
    _, clean_worst = run_clean()
    b_cluster, _, b_res = run_full_resync_baseline()
    slo = SLO_HEADROOM * max(clean_worst, _worst_latency(b_cluster))

    print("scripted schedule (elastic arm):")
    print(f"  t={EARLY_FAIL_AT:>5.1f}s  node 2  hard failure (creates the imbalance)")
    print(f"  t={JOIN_AT:>5.1f}s  node 4  JOIN  (spare enters the buddy pool)")
    print(f"  t={DRAIN_AT:>5.1f}s  node 2  DRAIN (decommission the replaced node)")
    print(f"  t={LATE_FAIL_AT:>5.1f}s  node 4  hard failure (newcomer dies)")
    print(f"checkpoint-latency SLO: {slo:.3f}s "
          f"({SLO_HEADROOM}x the calibrated worst interval)\n")

    with BUS.capture(Timeline()) as timeline:
        cluster, runner, res = run_elastic(slo)
    ctrl = runner.membership_controller
    guard = runner.slo_guard

    print(f"completed {res.iterations} iterations in {res.total_time:.1f}s")
    print(f"membership: {res.membership_joins} join, {res.membership_drains} "
          f"drain, {res.membership_departs} depart")
    print(f"migrations: {res.migrations_completed} completed "
          f"({res.migration_batches} batches, "
          f"{to_GB(res.migration_bytes):.4f} GB), "
          f"{res.migrations_aborted} aborted, "
          f"{ctrl.moves_failed} failed to start")
    print(f"SLO guard: max interval {guard.max_latency:.3f}s vs SLO {slo:.3f}s "
          f"-> {'HELD' if guard.within_slo else 'VIOLATED'} "
          f"({res.migration_slo_pauses} pauses, "
          f"{res.migration_throttled_batches} throttled batches)")
    print("pairing changes:")
    for node, old, new in runner.directory.migrations:
        print(f"  migration cutover: node {node}: n{old} -> n{new}")
    for node, old, new in runner.directory.repairs:
        print(f"  failover repair:   node {node}: n{old} -> n{new}")

    print(f"\nfailover re-sync bytes:")
    print(f"  elastic (early full + late incremental): "
          f"{to_GB(res.resync_bytes):.4f} GB")
    print(f"  baseline (two full re-syncs):            "
          f"{to_GB(b_res.resync_bytes):.4f} GB")
    saved = 1.0 - res.resync_bytes / b_res.resync_bytes
    print(f"  incremental failover saved {saved:.0%} of the baseline's bytes")

    print("\ntimeline (o=outage, D=degraded, s=resync, m=migration, R=restart):")
    actors = [a for a in timeline.actors() if a.startswith("n")]
    print(timeline.ascii_art(width=96, actors=actors))


if __name__ == "__main__":
    main()
