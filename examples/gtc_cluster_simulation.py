#!/usr/bin/env python3
"""GTC on the simulated testbed: the paper's §VI methodology end to end.

Builds the 4-node x 12-rank cluster (48 MPI processes, as in the
evaluation), runs the GTC workload model with full NVM-checkpoints
(local DCPCP pre-copy + the remote pre-copy stream to cross-rack
buddies), and compares against the asynchronous no-pre-copy baseline
and the checkpoint-free ideal.

Run:  python examples/gtc_cluster_simulation.py
"""

from repro.apps import GTCModel
from repro.baselines import async_noprecopy_config, precopy_config
from repro.cluster import Cluster, ClusterRunner
from repro.config import ClusterConfig
from repro.metrics.timeline import Timeline
from repro.metrics.trace import BUS
from repro.units import GB_per_sec, to_GB

ITERATIONS = 6
NODES = 4
RANKS_PER_NODE = 12
NVM_BW = GB_per_sec(1.0)


def run(config, label, with_remote=True, local_checkpoints=True):
    cluster = Cluster(ClusterConfig(nodes=NODES), nvm_write_bandwidth=NVM_BW, seed=7)
    app = GTCModel(small_chunks=24)
    cluster.build(app, config, ranks_per_node=RANKS_PER_NODE, with_remote=with_remote)
    runner = ClusterRunner(cluster, local_checkpoints=local_checkpoints)
    result = runner.run(ITERATIONS)
    print(f"\n=== {label} ===")
    print(f"execution time          : {result.total_time:8.1f} s")
    print(f"local checkpoints       : {result.local_checkpoints} "
          f"(avg blocking {result.local_ckpt_time_avg:.2f} s)")
    print(f"data to local NVM       : {to_GB(result.total_nvm_bytes):8.1f} GB "
          f"({to_GB(result.local_precopy_bytes):.1f} GB via pre-copy)")
    if with_remote:
        print(f"remote rounds           : {result.remote_rounds} "
              f"({to_GB(result.remote_round_bytes):.1f} GB at rounds, "
              f"{to_GB(result.remote_precopy_bytes):.1f} GB streamed)")
        print(f"helper core utilization : {result.helper_utilization*100:8.1f} %")
        print(f"peak ckpt fabric window : "
              f"{result.fabric_ckpt_peak_window_bytes/2**20:8.0f} MB/s")
    return result


def main() -> None:
    print(f"GTC, {NODES * RANKS_PER_NODE} ranks, "
          f"~{GTCModel().checkpoint_mb_per_rank:.0f} MB checkpoint/rank, "
          f"NVM at {NVM_BW / 2**30:.1f} GB/s")

    ideal = run(precopy_config(40, 120), "ideal (no checkpointing)",
                with_remote=False, local_checkpoints=False)
    nop = run(async_noprecopy_config(40, 120), "asynchronous no-pre-copy")
    with BUS.capture(Timeline()) as timeline:
        pre = run(precopy_config(40, 120), "NVM-checkpoints (pre-copy)")

    print("\n=== comparison ===")
    print(f"efficiency  no-pre-copy : {ideal.total_time / nop.total_time:.3f}")
    print(f"efficiency  pre-copy    : {ideal.total_time / pre.total_time:.3f}")
    ovh_nop = (nop.total_time - ideal.total_time) / ideal.total_time * 100
    ovh_pre = (pre.total_time - ideal.total_time) / ideal.total_time * 100
    print(f"checkpoint overhead     : {ovh_pre:.1f}% (pre-copy) vs "
          f"{ovh_nop:.1f}% (no-pre-copy) — "
          f"{(1 - ovh_pre / ovh_nop) * 100:.0f}% less")
    print("\ntimeline (rank r0 + node-0 helper):")
    print(timeline.ascii_art(width=100, actors=["r0", "n0:helper"]))


if __name__ == "__main__":
    main()
