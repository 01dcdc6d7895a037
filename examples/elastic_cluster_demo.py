#!/usr/bin/env python3
"""Elastic cluster membership: join, live migration, drain, and
incremental failover.

The ``elastic-migrate`` scenario cell runs one 6-node / 2-rack cluster
(4 nodes computing, 2 spares with NVM and fabric but no ranks) through
the grow/shrink-under-load story:

1. **t=35 s** node 2 dies hard — its orphan (node 1) re-pairs onto
   node 0, which now hosts *two* sources (the imbalance);
2. **t=60 s** spare node 4 **joins** the buddy pool — the migration
   planner offloads node 1's copies onto it in bounded batches,
   interleaved with the live pre-copy stream and paced under it;
   ownership flips atomically only after the last batch commits;
3. **t=95 s** the replaced node 2 **drains** and departs (nothing
   checkpoints to it anymore);
4. **t=140 s** the newcomer dies hard — node 1 fails over *back* to
   node 0, and because node 0's copies are still current for every
   chunk that did not re-commit since the cutover, the re-sync sends
   only the delta (compare the ``elastic-full-resync`` baseline's bytes).

Run:  python examples/elastic_cluster_demo.py
"""

from repro.exec.cell import SCENARIOS, run_cell, run_collected
from repro.metrics.timeline import Timeline
from repro.metrics.trace import BUS, RingBufferSink
from repro.tools.bench import elastic_config


def node_id(name: str) -> int:
    """``"n3"`` / ``"n3:helper"`` -> 3."""
    return int(name[1:].split(":")[0])


def main() -> None:
    print("baseline: the full-resync arm ...")
    baseline = run_cell(elastic_config("elastic-full-resync"))

    scenario = SCENARIOS["elastic-migrate"]
    print("scripted schedule (elastic arm):")
    schedule = [(ev.time, ev.node, f"{ev.kind} failure") for ev in scenario.failures]
    schedule += [(ev.time, ev.node, ev.action.upper()) for ev in scenario.membership]
    for t, node, what in sorted(schedule):
        print(f"  t={t:>5.1f}s  node {node}  {what}")
    print()

    config = elastic_config("elastic-migrate")
    with BUS.capture(Timeline()) as timeline, \
            BUS.capture(RingBufferSink(capacity=None)) as trace:
        res, moves_failed = run_collected(
            config,
            lambda r: (r.to_dict(), r.runner.membership_controller.moves_failed),
        )
    moves = res["membership"]

    print(f"completed {res['iterations']} iterations in {res['total_time_s']:.1f}s")
    print(f"membership: {moves['joins']} join, {moves['drains']} "
          f"drain, {moves['departs']} depart")
    print(f"migrations: {moves['migrations_completed']} completed "
          f"({moves['migration_batches']} batches, "
          f"{moves['migration_gb']:.4f} GB), "
          f"{moves['migrations_aborted']} aborted, "
          f"{moves_failed} failed to start")
    print("moves planned per membership event:")
    for ev in trace.of_kind("membership.change"):
        if ev.action != "depart":
            print(f"  t={ev.t:>5.1f}s  node {ev.node}  {ev.action}: {ev.moves} move(s)")
    print("pairing changes:")
    for ev in trace.of_kind("migration.cutover"):
        print(f"  migration cutover: node {node_id(ev.actor)}: "
              f"{ev.from_target} -> {ev.to_target}")
    for ev in trace.of_kind("failover"):
        if not ev.reason.startswith("migrated"):  # cutovers retarget too
            print(f"  failover repair:   node {node_id(ev.actor)}: "
                  f"{ev.from_target} -> {ev.to_target}")

    resync_gb = res["resilience"]["resync_gb"]
    base_resync_gb = baseline["resilience"]["resync_gb"]
    print("\nfailover re-sync bytes:")
    print(f"  elastic (early full + late incremental): {resync_gb:.4f} GB")
    print(f"  baseline (two full re-syncs):            {base_resync_gb:.4f} GB")
    print(f"  incremental failover saved {1.0 - resync_gb / base_resync_gb:.0%} "
          f"of the baseline's bytes")

    print("\ntimeline (o=outage, D=degraded, s=resync, m=migration, R=restart):")
    actors = [a for a in timeline.actors() if a.startswith("n")]
    print(timeline.ascii_art(width=96, actors=actors))


if __name__ == "__main__":
    main()
