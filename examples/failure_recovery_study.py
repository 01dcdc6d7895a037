#!/usr/bin/env python3
"""Failure injection and multilevel recovery, plus the §III model.

Runs LAMMPS-like work under an aggressive failure regime (64% soft /
36% hard, the paper's ASCI-Q split), watches soft failures recover
from node-local NVM and hard failures recover from cross-rack buddies,
and compares the measured cost against the §III analytic model's
prediction.  Finishes with the model's optimal-interval analysis
(a Young/Daly-style extension).

Run:  python examples/failure_recovery_study.py
"""

from repro.config import FailureConfig
from repro.exec import build_parser, resolve_config, run_cell
from repro.models import ModelParams, MultilevelModel, optimal_local_interval
from repro.units import MB

ITERATIONS = 10
NODES = 4
RANKS = 4
LOCAL_I = 20.0
REMOTE_I = 60.0
CKPT_MB = 100.0


def main() -> None:
    failure_config = FailureConfig.from_rates(
        lambda_total=1 / 400.0,  # per-node rate; ~1/100s cluster-wide
        soft_fraction=0.64,      # the ASCI-Q split the paper cites
        seed=21,
    )
    print(f"failure regime: MTBF_local={failure_config.mtbf_local:.0f}s/node, "
          f"MTBF_remote={failure_config.mtbf_remote:.0f}s/node "
          f"(soft fraction {failure_config.soft_fraction:.2f})")

    # the MTBFs go in as repr floats: the cell's failure schedule is the
    # one FailureConfig.from_rates describes, to the last bit
    result = run_cell(resolve_config(build_parser().parse_args([
        "--app", "synthetic", "--nodes", str(NODES), "--ranks-per-node", str(RANKS),
        "--iterations", str(ITERATIONS), "--nvm-gbps", "1.0", "--seed", "21",
        "--local-interval", str(LOCAL_I), "--remote-interval", str(REMOTE_I),
        "--checkpoint-mb", str(CKPT_MB), "--chunk-mb", "25", "--comm-mb", "50",
        "--mtbf-local", repr(failure_config.mtbf_local),
        "--mtbf-remote", repr(failure_config.mtbf_remote),
    ])))
    failures = result["failures"]

    print(f"\ncompleted {result['iterations']} iterations in "
          f"{result['total_time_s']:.1f}s (ideal {result['ideal_time_s']:.0f}s)")
    print(f"failures: {failures['soft']} soft (local NVM restart), "
          f"{failures['hard']} hard (buddy fetch + node replacement)")
    print(f"recovery time {failures['recovery_s']:.1f}s; "
          f"{failures['iterations_recomputed']} iterations recomputed")

    # -- §III model with the same parameters ----------------------------
    params = ModelParams(
        compute_time=ITERATIONS * LOCAL_I,
        checkpoint_bytes=MB(CKPT_MB),
        nvm_bw_per_core=MB(CKPT_MB) / max(1e-9, result["local"]["avg_blocking_s"]),
        remote_bw=MB(400),
        local_interval=LOCAL_I,
        remote_interval=REMOTE_I,
        mtbf_local=failure_config.mtbf_local / NODES,
        mtbf_remote=failure_config.mtbf_remote / NODES,
    )
    breakdown = MultilevelModel(params).solve()
    print("\n§III model prediction for this configuration:")
    print(f"  T_compute        = {breakdown.compute:8.1f} s")
    print(f"  T_lcl            = {breakdown.local_checkpoint:8.1f} s")
    print(f"  restart total    = {breakdown.restart_total:8.1f} s")
    print(f"  recompute total  = {breakdown.recompute_total:8.1f} s")
    print(f"  T_total          = {breakdown.total:8.1f} s "
          f"(simulated: {result['total_time_s']:.1f} s)")
    print("  (the model follows the paper's §III simplifications: no node-"
          "replacement delay, no failures during recovery, failures on "
          "average mid-interval — at high failure rates the simulation's "
          "cascades push the measured total above the model's expectation)")

    # -- what interval *should* this system use? -------------------------
    best_interval, best_total = optimal_local_interval(params, lo=2.0, hi=300.0)
    print(f"\noptimal local checkpoint interval for this failure regime: "
          f"{best_interval:.0f} s (model T_total {best_total:.0f} s; "
          f"we ran with {LOCAL_I:.0f} s)")


if __name__ == "__main__":
    main()
