"""Record audit: which ``RunResult.to_dict()`` leaves do entry-point cells move?

Runs every cell that an entry point runs (the 16 pinned bench cells,
the two ``--scenario`` cells under ``lammps`` and under ``synthetic``,
and the cells of the six perfbench workloads at seed 1) and prints, per
record leaf, its min and max over the cells whose record has it, and
the cells where it is non-zero (or, when most are, the cells where it
is zero).  Ungated:

    PYTHONPATH=src python benchmarks/record_audit.py     # or: make record-audit
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.workloads import WORKLOADS, make_inputs  # noqa: E402
from repro.exec.cell import SCENARIOS, build_parser, resolve_config, run_cell  # noqa: E402
from repro.exec.grid import expand_grid  # noqa: E402
from repro.tools.bench import PINNED_GRID  # noqa: E402


def cells():
    """``(name, resolved config)`` of every audited cell."""
    grids = {"pinned": PINNED_GRID}
    grids.update((f"perf:{name}", (list(make_inputs(w, 1).base), list(w.axes)))
                 for name, w in WORKLOADS.items())
    for label, (base, axes) in grids.items():
        for cell in expand_grid(base, axes):
            yield label + "".join(f",{k}={v}" for k, v in cell.overrides), cell.config
    for app in ("lammps", "synthetic"):
        for scenario in SCENARIOS:
            argv = ["--app", app, "--scenario", scenario]
            yield f"{app}:{scenario}", resolve_config(build_parser().parse_args(argv))


def leaves(record, prefix=""):
    for key, value in record.items():
        if isinstance(value, dict):
            yield from leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


def main() -> int:
    table = {}
    names = []
    for name, config in cells():
        names.append(name)
        for key, value in leaves(run_cell(config)):
            table.setdefault(key, []).append((name, value))
    print(f"{len(names)} cells")
    print("| leaf | cells | min | max | non-zero in |")
    print("|---|---|---|---|---|")
    for key, seen in table.items():
        values = [v for _, v in seen]
        hits = [n for n, v in seen if v]
        zeros = [n for n, v in seen if not v]
        where = ("all" if not zeros else "none" if not hits else
                 "all but " + ", ".join(zeros) if len(hits) > len(zeros) else
                 ", ".join(hits))
        print(f"| `{key}` | {len(seen)} | {min(values)!r} | {max(values)!r} | {where} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
