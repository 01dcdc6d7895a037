"""Import footprint of one phantom cell.

Runs the pinned LAMMPS cell of the ``lammps-nopolicy-local`` benchmark
workload at one NVM bandwidth through ``run_cell`` — phantom ranks, no
payload bytes — in this interpreter, then prints how many ``repro``
modules it imported and whether numpy was imported.  A phantom cell
touches no real bytes, so numpy must stay unloaded (``repro._numpy``).
Ungated; ``make loc`` prints it next to the size numbers::

    PYTHONPATH=src python benchmarks/import_footprint.py
"""

import sys

CELL = (
    "--app lammps --local-interval 20 --nodes 2 --ranks-per-node 2 "
    "--iterations 4 --mode none --no-remote --nvm-gbps 1.0 --seed 1"
)


def footprint():
    """``(repro modules imported, numpy imported)`` after one cell."""
    from repro.exec import cell

    cell.run_cell(cell.resolve_config(cell.build_parser().parse_args(CELL.split())))
    modules = [m for m in sys.modules if m == "repro" or m.startswith("repro.")]
    return len(modules), "numpy" in sys.modules


def main():
    n_modules, numpy_loaded = footprint()
    print(f"phantom cell imports: {n_modules} repro modules, "
          f"numpy {'imported' if numpy_loaded else 'not imported'}")


if __name__ == "__main__":
    main()
