#!/usr/bin/env python3
"""GTC on the simulated testbed: the paper's §VI methodology end to end.

Runs the 4-node x 12-rank GTC cell (48 MPI processes, as in the
evaluation) with full NVM-checkpoints (local DCPCP pre-copy + the
remote pre-copy stream to cross-rack buddies), and compares it against
the asynchronous no-pre-copy baseline and the checkpoint-free ideal.

Run:  python examples/gtc_cluster_simulation.py
"""

from repro.apps import GTCModel
from repro.exec import build_parser, resolve_config, run_cell
from repro.metrics.timeline import Timeline
from repro.metrics.trace import BUS

NODES = 4
RANKS_PER_NODE = 12
NVM_GBPS = 1.0
#: the cell every arm shares (intervals at the cell's 40 s / 120 s)
CELL = [
    "--app", "gtc", "--nodes", str(NODES), "--ranks-per-node", str(RANKS_PER_NODE),
    "--iterations", "6", "--nvm-gbps", str(NVM_GBPS), "--seed", "7",
]


def run(extra, label):
    record = run_cell(resolve_config(build_parser().parse_args(CELL + extra)))
    local, remote = record["local"], record["remote"]
    print(f"\n=== {label} ===")
    print(f"execution time          : {record['total_time_s']:8.1f} s")
    print(f"local checkpoints       : {local['checkpoints']} "
          f"(avg blocking {local['avg_blocking_s']:.2f} s)")
    print(f"data to local NVM       : "
          f"{local['coordinated_gb'] + local['precopy_gb']:8.1f} GB "
          f"({local['precopy_gb']:.1f} GB via pre-copy)")
    if "--ideal" not in extra:
        print(f"remote rounds           : {remote['rounds']} "
              f"({remote['round_gb']:.1f} GB at rounds, "
              f"{remote['stream_gb']:.1f} GB streamed)")
        print(f"helper core utilization : {remote['helper_utilization']*100:8.1f} %")
        print(f"peak ckpt fabric window : "
              f"{record['fabric']['ckpt_peak_1s_mb']:8.0f} MB/s")
    return record["total_time_s"]


def main() -> None:
    print(f"GTC, {NODES * RANKS_PER_NODE} ranks, "
          f"~{GTCModel().checkpoint_mb_per_rank:.0f} MB checkpoint/rank, "
          f"NVM at {NVM_GBPS:.1f} GB/s")

    ideal = run(["--ideal"], "ideal (no checkpointing)")
    nop = run(["--mode", "none", "--no-remote-precopy"], "asynchronous no-pre-copy")
    with BUS.capture(Timeline()) as timeline:
        pre = run([], "NVM-checkpoints (pre-copy)")

    print("\n=== comparison ===")
    print(f"efficiency  no-pre-copy : {ideal / nop:.3f}")
    print(f"efficiency  pre-copy    : {ideal / pre:.3f}")
    ovh_nop = (nop - ideal) / ideal * 100
    ovh_pre = (pre - ideal) / ideal * 100
    print(f"checkpoint overhead     : {ovh_pre:.1f}% (pre-copy) vs "
          f"{ovh_nop:.1f}% (no-pre-copy) — "
          f"{(1 - ovh_pre / ovh_nop) * 100:.0f}% less")
    print("\ntimeline (rank r0 + node-0 helper):")
    print(timeline.ascii_art(width=100, actors=["r0", "n0:helper"]))


if __name__ == "__main__":
    main()
