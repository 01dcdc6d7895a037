"""Parameter-sweep CLI — a thin wrapper over :func:`repro.exec.run_grid`.

Example — Fig. 7 as a CSV, sharded over 4 workers with a warm cache::

    python -m repro.tools.sweep --app lammps --sweep nvm-gbps=0.5,1.0,2.0 \
        --sweep mode=none,dcpcp --iterations 6 --workers 4 \
        --cache-dir .repro-cache --out fig7.csv

Any scalar option of ``repro.tools.experiment`` can be swept; the
cross product of all ``--sweep`` axes runs on the
:mod:`repro.exec` engine — parallel execution is byte-identical to
serial, a populated ``--cache-dir`` re-executes only changed cells —
and one CSV row is written per cell.  Grid expansion, dispatch, and
CSV field selection all live in :mod:`repro.exec.grid`; this module
owns only argument parsing and the replay-mode sweep.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Tuple

from ..errors import ConfigError
from ..exec.grid import GridResult, parse_sweeps, run_grid, write_csv

__all__ = ["run_replay_sweep", "main"]


#: replay-mode sweep axes -> ReplayEngine.replay keyword arguments.
#: Anything else needs a live simulation, so it is rejected loudly.
REPLAY_AXES = {
    "mode": ("mode", str),
    "copy-granularity": ("copy_granularity", str),
    "nvm-gbps": ("nvm_gbps", float),
    "threshold-margin": ("threshold_margin", float),
    "codec": ("codec", str),
    "codec-novelty": ("codec_novelty", float),
}


def run_replay_sweep(
    trace: str, axes: List[Tuple[str, List[str]]]
) -> List[dict]:
    """Sweep the cross product of *axes* over one captured trace.

    No simulation runs: each cell is a trace-driven replay
    (:class:`~repro.replay.ReplayEngine`), so a policy/bandwidth grid
    that takes minutes live takes milliseconds here.  Only the axes in
    :data:`REPLAY_AXES` are replayable — anything that changes the
    *workload* (app, scale, intervals) needs a fresh capture."""
    import itertools

    from ..replay import ReplayEngine

    for name, _ in axes:
        if name not in REPLAY_AXES:
            raise ConfigError(
                f"axis {name!r} cannot be replayed from a trace; replayable "
                f"axes: {', '.join(sorted(REPLAY_AXES))} (run a live sweep "
                "for workload-shaping options)"
            )
    engine = ReplayEngine.from_jsonl(trace)
    records: List[dict] = []
    names = [name for name, _ in axes]
    for combo in itertools.product(*(values for _, values in axes)):
        kwargs = {}
        for name, raw in zip(names, combo):
            key, cast = REPLAY_AXES[name]
            kwargs[key] = cast(raw)
        record = engine.replay(**kwargs)
        for name, raw in zip(names, combo):
            record[f"sweep.{name}"] = raw
        records.append(record)
    return records


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        prog="repro.tools.sweep",
        description="Run a grid of NVM-checkpoints experiments; emit CSV.",
    )
    p.add_argument("--sweep", action="append", default=[], metavar="NAME=V1,V2",
                   help="axis to sweep (repeatable; cross product)")
    p.add_argument("--replay", default=None, metavar="TRACE.jsonl",
                   help="replay a captured trace instead of simulating: "
                        "sweep mode/copy-granularity/nvm-gbps/"
                        "threshold-margin/codec/codec-novelty over it "
                        "without re-running the app")
    p.add_argument("--out", default="-", help="CSV path ('-' for stdout)")
    p.add_argument("--workers", default=None, metavar="N",
                   help="parallel worker processes (default 1; 'auto' = one "
                        "per CPU; clamped to the host CPU count)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="content-addressed result cache; reruns execute "
                        "only changed cells")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="stream every executed cell's trace events to PATH "
                        "as one versioned Jsonl file")
    p.add_argument("--no-cell-seeds", action="store_true",
                   help="do not derive per-cell RNG seeds; every cell "
                        "uses the base --seed verbatim")
    args, passthrough = p.parse_known_args(argv)
    if not args.sweep:
        p.error("at least one --sweep axis is required")
    axes = parse_sweeps(args.sweep)
    report: GridResult | None = None
    if args.replay:
        # a replay runs no simulation: an option that only shapes a live
        # run would otherwise be dropped without a word
        live_only = {
            "--workers": args.workers, "--cache-dir": args.cache_dir,
            "--trace": args.trace, "--no-cell-seeds": args.no_cell_seeds or None,
        }
        rejected = [flag for flag, value in live_only.items() if value is not None]
        rejected += [tok for tok in passthrough if tok.startswith("--")] or passthrough
        if rejected:
            p.error(
                "--replay re-decides a captured trace without simulating, "
                f"so it cannot honour {', '.join(rejected)} (sweep a "
                "replayable axis with --sweep, or drop --replay for a "
                "live sweep)"
            )
        records = run_replay_sweep(args.replay, axes)
    else:
        report = run_grid(
            passthrough,
            axes,
            workers=1 if args.workers is None else args.workers,
            cache=args.cache_dir,
            trace=args.trace,
            derive_seeds=not args.no_cell_seeds,
        )
        records = report.records

    out = sys.stdout if args.out == "-" else open(args.out, "w", newline="", encoding="utf-8")
    try:
        write_csv(records, axes, out)
    finally:
        if out is not sys.stdout:
            out.close()
            if report is not None:
                ex = report.execution
                print(
                    f"wrote {len(records)} rows to {args.out} "
                    f"({ex.cells_executed} executed, {ex.cache_hits} cached, "
                    f"{ex.workers} worker{'s' if ex.workers != 1 else ''})"
                )
            else:
                print(
                    f"wrote {len(records)} replay rows to {args.out} "
                    f"(trace {args.replay}, no simulation)"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
