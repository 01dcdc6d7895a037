"""Host cost of one paper-scale cell: PAPER §VI's 8 nodes × 12 ranks
with Table IV's faithful GTC chunk layout (``--small-chunks 0``), two
iterations, run through ``run_cell`` the way a grid runs it.

Prints the cell's wall time, the process's peak RSS, and the cycle
collector's passes — those that ran while the cell was running
(automatic ones) apart from ``run_cell``'s own end-of-cell collection.
Nothing is gated; the numbers are for the record.

    make paper-scale
    PYTHONPATH=src python benchmarks/paper_scale.py [experiment options]

Experiment options (``python -m repro.tools.experiment --help``) given
on the command line override the GTC cell's, e.g. ``--app lammps``; the
faithful layout applies only to an app that has one (GTC, CM1).
"""

import gc
import resource
import sys
import time

from repro.exec import cell

CELL = "--app gtc --nodes 8 --ranks-per-node 12 --iterations 2 --mode dcpcp"
FAITHFUL_LAYOUT = ["--small-chunks", "0"]


def main(argv):
    argv = CELL.split() + argv
    if cell.build_parser().parse_args(argv).app in cell.SMALL_CHUNK_APPS:
        argv = FAITHFUL_LAYOUT + argv
    config = cell.resolve_config(cell.build_parser().parse_args(argv))
    passes = {"in-cell": [], "after": []}
    where, started = "after", 0.0

    def on_gc(phase, info):
        nonlocal started
        if phase == "start":
            started = time.perf_counter()
        else:
            passes[where].append((info["generation"], time.perf_counter() - started))

    inner = cell.run_experiment

    def watched(args):
        nonlocal where
        where = "in-cell"
        try:
            return inner(args)
        finally:
            where = "after"

    cell.run_experiment = watched
    gc.callbacks.append(on_gc)
    t0 = time.perf_counter()
    try:
        cell.run_cell(config)
    finally:
        wall = time.perf_counter() - t0
        gc.callbacks.remove(on_gc)
        cell.run_experiment = inner

    print(f"cell: {' '.join(argv)}")
    print(f"wall: {wall:.2f} s")
    # Linux reports ru_maxrss in KiB
    print(f"peak RSS: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f} MB")
    for label, rows in passes.items():
        by_gen = "/".join(str(sum(1 for g, _ in rows if g == gen)) for gen in (0, 1, 2))
        print(
            f"collector passes {label}: {len(rows)} (gen0/1/2 {by_gen}), "
            f"{sum(s for _, s in rows):.3f} s"
        )


if __name__ == "__main__":
    main(sys.argv[1:])
