"""Experiment driver CLI — a thin wrapper over :mod:`repro.exec.cell`.

Run one checkpointing experiment on the simulated testbed and print a
summary (optionally machine-readable JSON)::

    python -m repro.tools.experiment --app lammps --mode dcpcp \
        --nodes 4 --ranks-per-node 12 --iterations 6 \
        --nvm-gbps 1.0 --local-interval 40 --remote-interval 120

    python -m repro.tools.experiment --app gtc --mode none --no-remote \
        --json results.json

    python -m repro.tools.experiment --app synthetic --chunk-mb 25 \
        --checkpoint-mb 300 --hot-fraction 0.5 --mtbf-local 600 \
        --mtbf-remote 2400 --timeline

Every run is deterministic for a given ``--seed``.  The option surface,
config resolution and cell execution all live in
:mod:`repro.exec.cell`; this module owns only the human-facing output.
"""

from __future__ import annotations

import json
import sys
from contextlib import nullcontext

from ..exec.cell import build_parser, result_to_dict, run_experiment
from ..metrics.timeline import Timeline
from ..metrics.trace import BUS

__all__ = ["main"]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the phase timeline observes the run like any other trace sink
    with BUS.capture(Timeline()) if args.timeline else nullcontext() as timeline:
        result = run_experiment(args)
    summary = result_to_dict(result)

    print(f"{summary['app']} x{summary['n_ranks']} ranks, policy={summary['policy']}"
          f"{'' if summary['remote_precopy'] else ' (no remote pre-copy)'}")
    print(f"  execution time   : {summary['total_time_s']:.1f} s "
          f"(ideal {summary['ideal_time_s']:.0f} s, "
          f"overhead {summary['overhead_fraction']*100:.1f}%)")
    loc = summary["local"]
    print(f"  local            : {loc['checkpoints']} ckpts, avg blocking "
          f"{loc['avg_blocking_s']:.2f} s, {loc['coordinated_gb']:.1f} GB coordinated"
          f" + {loc['precopy_gb']:.1f} GB pre-copied")
    rem = summary["remote"]
    if rem["rounds"]:
        print(f"  remote           : {rem['rounds']} rounds, {rem['round_gb']:.1f} GB "
              f"at rounds + {rem['stream_gb']:.1f} GB streamed, helper "
              f"{rem['helper_utilization']*100:.1f}%")
    fail = summary["failures"]
    if fail["soft"] or fail["hard"]:
        print(f"  failures         : {fail['soft']} soft, {fail['hard']} hard, "
              f"{fail['recovery_s']:.1f} s recovering, "
              f"{fail['iterations_recomputed']} iterations recomputed")
    if args.timeline:
        actors = ["r0"]
        helpers = ["n0:helper"] if rem["rounds"] else []
        print("\n" + timeline.ascii_art(width=100, actors=actors + helpers))
    if args.json:
        payload = json.dumps(summary, indent=2)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
            print(f"  wrote JSON       : {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
