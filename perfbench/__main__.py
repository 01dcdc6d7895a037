"""Command line: ``python -m perfbench {run,compare,measure} ...``.

``measure`` is the driver's command (one workload, one JSON result
line); ``run`` is the human one (all workloads, table, result file);
``compare`` diffs two result files.  ``child`` is internal.
"""

import time

_STARTED = time.perf_counter()  # a child's set-up is timed from here

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_ROOT = Path(__file__).resolve().parent.parent


def _need_program() -> None:
    """Make ``repro`` importable from ``src/`` or exit 2: without the
    program there is nothing to measure and no result to print."""
    if importlib.util.find_spec("repro") is None:
        sys.path.insert(0, str(_ROOT / "src"))
        importlib.invalidate_caches()
    if importlib.util.find_spec("repro") is None:
        sys.exit("perfbench: cannot import 'repro' (expected under src/)")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["child"]:
        _need_program()
        from .child import main as child_main

        return child_main(argv[1:], _STARTED)

    from .workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="python -m perfbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="one run of one workload (driver contract)")
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)

    p = sub.add_parser("run", help="all workloads: metrics table + result file")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--no-trace", action="store_true",
                   help="skip the traced (per-layer) runs")
    p.add_argument("--smoke", action="store_true",
                   help="2 timed + 1 traced pass per workload; exit 1 on a failed check")
    p.add_argument("--out", default=None, help="result file (default perfbench/results/)")
    p.add_argument("--write-expected", action="store_true",
                   help="record this run's digests + simulated metrics as "
                        "perfbench/expected/seed<N>.json")

    p = sub.add_parser("compare", help="compare two result files of `run`")
    p.add_argument("baseline")
    p.add_argument("candidate")

    args = parser.parse_args(argv)
    if args.command == "compare":
        from .compare import main as compare_main

        return compare_main(args.baseline, args.candidate)

    _need_program()
    from . import runner

    if args.command == "measure":
        run = runner.measure(args.workload, args.seed, args.seconds, bool(args.trace))
        for problem in run["problems"]:
            print(f"! {problem}", file=sys.stderr)
        print(runner.result_line("per_layer" if args.trace else "end_to_end", run))
        return 0
    return runner.run_all(
        seed=args.seed, trace=not args.no_trace, smoke=args.smoke,
        out_path=args.out, write_expected=args.write_expected,
    )


if __name__ == "__main__":
    sys.exit(main())
