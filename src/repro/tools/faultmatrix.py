"""Crash-point matrix CLI: crash at every registered point, print the
per-point outcome table.

Runs the same campaign as ``pytest -m faults`` (and ``make faults``)
but as a standalone report::

    python -m repro.tools.faultmatrix                # fixed default seed
    python -m repro.tools.faultmatrix --seed 7 --random 25

``--random N`` additionally runs N seeded random fault plans (the
property-test workload) and folds their outcomes into the same table.
Exit status is non-zero if any run ends in an outcome the acceptance
rule forbids — a torn restore, or an unrecoverable state that a
committed checkpoint should have prevented.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from ..faults.harness import (
    CONSISTENT_OUTCOMES,
    OUTCOME_NO_CRASH,
    OUTCOME_UNRECOVERABLE,
    CrashConsistencyHarness,
    matrix_case,
    matrix_points,
)
from ..faults.plan import FaultPlan
from ..metrics.collectors import CrashOutcomeCounter

__all__ = ["run_matrix", "main"]

DEFAULT_SEED = 2024


def _acceptable(result, plan) -> bool:
    if result.outcome in CONSISTENT_OUTCOMES or result.outcome == OUTCOME_NO_CRASH:
        return True
    if result.outcome != OUTCOME_UNRECOVERABLE or "TORN" in result.detail:
        return False
    return plan.hits.get("local.commit.done", 0) == 0 or bool(plan.bitrot_injected)


def run_matrix(seed: int = DEFAULT_SEED, n_random: int = 0, verbose: bool = False):
    """Run the full crash-point matrix (plus *n_random* random plans).

    Returns ``(counter, failures)`` where *failures* lists human-readable
    descriptions of runs that violated the acceptance rule.
    """
    counter = CrashOutcomeCounter()
    failures: List[str] = []
    points = matrix_points()
    for name in points:
        harness, plan = matrix_case(name, seed=seed)
        result = harness.run(plan)
        counter.record(name, result.outcome)
        ok = _acceptable(result, plan) and all(f.consumed for f in plan.faults)
        if not ok:
            failures.append(f"matrix {name}: {result.outcome} ({result.detail})")
        if verbose:
            print(f"  {name:<32} {result.outcome:<20} {result.detail or ''}")
    for i in range(n_random):
        plan = FaultPlan.random(seed + i, points=points)
        result = CrashConsistencyHarness(seed=seed).run(plan)
        counter.record(result.crash_point or "<random:no-crash>", result.outcome)
        if not _acceptable(result, plan):
            failures.append(
                f"random seed={seed + i}: {result.outcome} at "
                f"{result.crash_point} ({result.detail})"
            )
        if verbose:
            print(f"  random #{i:<3} @{result.crash_point!s:<24} {result.outcome}")
    return counter, failures


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload/plan seed (default {DEFAULT_SEED})")
    p.add_argument("--random", type=int, default=0, metavar="N",
                   help="also run N seeded random fault plans")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print one line per run as it completes")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    n_points = len(matrix_points())
    print(f"crash-point matrix: {n_points} points, seed={args.seed}, "
          f"{args.random} random plans")
    counter, failures = run_matrix(args.seed, args.random, args.verbose)
    print()
    print(counter.table())
    if failures:
        print(f"\n{len(failures)} ACCEPTANCE FAILURES:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nall {counter.total} runs acceptable "
          f"(consistent: {sum(counter.count(o) for o in CONSISTENT_OUTCOMES)}, "
          f"unrecoverable: {counter.count(OUTCOME_UNRECOVERABLE)})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
