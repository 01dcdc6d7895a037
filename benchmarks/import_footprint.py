"""Import footprint of one phantom cell and of one failure cell.

Runs, each in a fresh interpreter through ``run_cell``:

* the pinned LAMMPS cell of the ``lammps-nopolicy-local`` benchmark
  workload at one NVM bandwidth — phantom ranks, no payload bytes, so
  numpy must stay unloaded (``repro._numpy``);
* the cell of the ``synthetic-failures-restart`` workload (its pinned
  failure schedule, seed 1), whose failure draws take numpy's
  generator (``repro.sim.rng``) and so import numpy.

and prints, per cell, how many ``repro`` modules it imported and
whether numpy was imported.  Ungated; ``make loc`` prints it next to
the size numbers::

    PYTHONPATH=src python benchmarks/import_footprint.py
"""

import subprocess
import sys

CELLS = {
    "phantom cell": (
        "--app lammps --local-interval 20 --nodes 2 --ranks-per-node 2 "
        "--iterations 4 --mode none --no-remote --nvm-gbps 1.0 --seed 1"
    ),
    "failure cell": (
        "--app synthetic --nodes 4 --ranks-per-node 2 --iterations 10 "
        "--local-interval 15 --remote-interval 45 --checkpoint-mb 80 "
        "--chunk-mb 10 --mtbf-local 200 --mtbf-remote 600 --mode dcpcp "
        "--nvm-gbps 2.0 --seed 1"
    ),
}


def footprint(argv: str = CELLS["phantom cell"]):
    """``(repro modules imported, numpy imported)`` after one cell (by
    default the phantom cell)."""
    from repro.exec import cell

    cell.run_cell(cell.resolve_config(cell.build_parser().parse_args(argv.split())))
    modules = [m for m in sys.modules if m == "repro" or m.startswith("repro.")]
    return len(modules), "numpy" in sys.modules


def main(argv):
    if argv:  # one cell, in this interpreter
        label = argv[0]
        n_modules, numpy_loaded = footprint(CELLS[label])
        print(f"{label} imports: {n_modules} repro modules, "
              f"numpy {'imported' if numpy_loaded else 'not imported'}")
        return
    for label in CELLS:  # every cell in an interpreter of its own
        subprocess.run([sys.executable, __file__, label], check=True)


if __name__ == "__main__":
    main(sys.argv[1:])
