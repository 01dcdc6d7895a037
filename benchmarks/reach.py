"""Reach audit: which functions under ``src/repro`` no entry point runs.

Runs every non-test entry point of the repository — the full bench and
its smokes, every example, the crash-point matrix, the two scripted
``--scenario`` cells, a two-cell sweep and the figure benchmarks — each
in its own interpreter under a ``sys.setprofile`` hook that records the
code object of every Python call, forked pool workers included.  It
then prints how many ``def``s the package has, how many were reached,
and the unreached ones: their count, their lines, a per-module table
and the list.  A function that only tests call shows up here.

    make reach
    PYTHONPATH=src python benchmarks/reach.py

Stdlib only (``coverage`` is not a dependency).  Takes a few minutes;
exits 1 if an entry point fails, because its reach would be missing.

What counts: every ``def`` under ``src/repro`` — methods and nested
functions included — except stubs, whose body (after the docstring) is
only ``pass``, ``...`` or ``raise NotImplementedError``.  A code object
is matched to its ``def`` by ``co_firstlineno``, which for a decorated
function is the line of its first decorator.  A function's lines run
from that line to its last; "unreached lines" counts each line once,
so a nested function inside an unreached one adds nothing.
"""

from __future__ import annotations

import ast
import atexit
import os
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from typing import Dict, List, NamedTuple, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")

_SWEEP_CELL = [
    "--app", "synthetic", "--nodes", "2", "--ranks-per-node", "2",
    "--iterations", "2", "--local-interval", "10", "--remote-interval", "30",
    "--checkpoint-mb", "40", "--chunk-mb", "10", "--no-remote",
]

#: the scripted cells at the degraded-mode example's size
_SCENARIO_CELL = [
    "--app", "synthetic", "--ranks-per-node", "2", "--local-interval", "10",
    "--remote-interval", "30", "--checkpoint-mb", "20", "--chunk-mb", "5",
    "--comm-mb", "5", "--iterations", "10", "--seed", "5",
]

_SCENARIOS = ("elastic-full-resync", "link-flap")


def entry_points(out_dir: str) -> List[Tuple[str, List[str]]]:
    """``(label, argv)`` of every entry point; an argv starts with
    ``-m MODULE`` or a script path, like a ``python`` command line.
    Files an entry point writes go under *out_dir*."""
    examples = sorted(
        name for name in os.listdir(os.path.join(ROOT, "examples")) if name.endswith(".py")
    )
    return [
        ("bench", ["-m", "repro.tools.bench", "--out", os.path.join(out_dir, "bench.json")]),
        ("bench --smoke all", ["-m", "repro.tools.bench", "--smoke", "all"]),
        *((f"examples/{name}", [os.path.join(ROOT, "examples", name)]) for name in examples),
        ("faultmatrix", ["-m", "repro.tools.faultmatrix"]),
        ("faultmatrix --random 10", ["-m", "repro.tools.faultmatrix", "--random", "10"]),
        *((f"experiment --scenario {name}",
           ["-m", "repro.tools.experiment", *_SCENARIO_CELL, "--scenario", name])
          for name in _SCENARIOS),
        ("sweep (2 cells)",
         ["-m", "repro.tools.sweep", "--sweep", "mode=none,dcpcp",
          "--out", os.path.join(out_dir, "sweep.csv"), *_SWEEP_CELL]),
        ("pytest benchmarks",
         ["-m", "pytest", os.path.join(ROOT, "benchmarks"), "-q", "--benchmark-disable",
          "-p", "no:cacheprovider"]),
    ]


# -- the hook (runs inside each entry point's interpreter) --------------

_codes: Set = set()


def _hook(frame, event, arg):
    if event == "call":
        _codes.add(frame.f_code)


def _dump(dump_dir: str) -> None:
    """Write this process's reached ``(file, first line)`` pairs."""
    sys.setprofile(None)
    seen = {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in set(_codes)}
    path = os.path.join(dump_dir, f"{os.getpid()}.reach")
    with open(path, "w") as fh:
        fh.writelines(f"{line}\t{name}\n" for name, line in seen)


class _Worker:
    """The after-fork hook's object (:mod:`multiprocessing` keeps only a
    weak reference to it, so :func:`install` holds it)."""

    def __init__(self, dump_dir: str) -> None:
        self.dump_dir = dump_dir

    def forked(self) -> None:
        # a forked child's bootstrap clears the finalizers it inherits
        # *before* it runs the after-fork hooks, so the worker's dump is
        # registered here; it runs when the worker exits normally
        from multiprocessing import util

        util.Finalize(None, _dump, args=(self.dump_dir,), exitpriority=0)


_worker = None


def install(dump_dir: str) -> None:
    """Record every Python call of this process, its threads and the
    processes ``multiprocessing`` forks from it; each writes its own
    dump into *dump_dir* at exit."""
    global _worker
    from multiprocessing import util

    _worker = _Worker(dump_dir)
    util.register_after_fork(_worker, _Worker.forked)
    atexit.register(_dump, dump_dir)
    # threads too: a process pool may fork its workers from a thread of
    # its own, and a forked child keeps only the forking thread's hook
    threading.setprofile(_hook)
    sys.setprofile(_hook)


def child(dump_dir: str, argv: List[str]) -> None:
    """Run one entry point (*argv* as after ``python``) under the hook."""
    import runpy

    install(dump_dir)
    if argv[0] == "-m":
        sys.argv = [argv[1], *argv[2:]]
        runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
    else:
        sys.argv = list(argv)
        sys.path.insert(0, os.path.dirname(os.path.abspath(argv[0])))
        runpy.run_path(argv[0], run_name="__main__")


def run_under_hook(argv: List[str], dump_dir: str, log, env=None, cwd=ROOT) -> int:
    """Run *argv* in a new interpreter under the hook; its output goes
    to *log*.  Returns the exit code."""
    code = (
        f"import sys; sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r}); "
        f"import reach; reach.child({dump_dir!r}, {argv!r})"
    )
    return subprocess.call(
        [sys.executable, "-c", code], stdout=log, stderr=subprocess.STDOUT, env=env, cwd=cwd
    )


def load(dump_dir: str) -> Set[Tuple[str, int]]:
    """Every ``(file, first line)`` any dump in *dump_dir* reached."""
    reached = set()
    for name in os.listdir(dump_dir):
        if name.endswith(".reach"):
            with open(os.path.join(dump_dir, name)) as fh:
                for row in fh:
                    line, path = row.rstrip("\n").split("\t", 1)
                    reached.add((path, int(line)))
    return reached


# -- what the package defines -------------------------------------------


class Def(NamedTuple):
    path: str  # real path of the file
    qualname: str
    first: int  # first decorator's line, else the def line
    last: int


def _is_stub(node) -> bool:
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    if not body:
        return True
    if len(body) > 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
            and stmt.value.value is Ellipsis:
        return True
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def defined_functions(package_dir: str) -> List[Def]:
    """Every non-stub ``def`` in the ``.py`` files under *package_dir*."""
    defs: List[Def] = []

    def walk(node, path: str, prefix: str) -> None:
        for child_node in ast.iter_child_nodes(node):
            if isinstance(child_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child_node.name
                if not _is_stub(child_node):
                    first = min([child_node.lineno]
                                + [d.lineno for d in child_node.decorator_list])
                    defs.append(Def(path, qualname, first, child_node.end_lineno))
                walk(child_node, path, qualname + ".<locals>.")
            elif isinstance(child_node, ast.ClassDef):
                walk(child_node, path, prefix + child_node.name + ".")
            else:
                walk(child_node, path, prefix)

    for dirpath, dirnames, filenames in os.walk(package_dir):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.realpath(os.path.join(dirpath, name))
                with open(path) as fh:
                    walk(ast.parse(fh.read(), path), path, "")
    return defs


def unreached(defs: List[Def], reached: Set[Tuple[str, int]]) -> List[Def]:
    return [d for d in defs if (d.path, d.first) not in reached]


def _lines(defs: List[Def]) -> int:
    return len({(d.path, n) for d in defs for n in range(d.first, d.last + 1)})


def report(defs: List[Def], missed: List[Def], package_dir: str) -> None:
    def module(d: Def) -> str:
        return os.path.relpath(d.path, package_dir)

    print(f"functions defined: {len(defs)}")
    print(f"reached: {len(defs) - len(missed)}")
    print(f"unreached: {len(missed)}")
    print(f"unreached lines: {_lines(missed)}")

    by_module: Dict[str, List[Def]] = defaultdict(list)
    for d in missed:
        by_module[module(d)].append(d)
    defined = defaultdict(int)
    for d in defs:
        defined[module(d)] += 1
    width = max([len("module")] + [len(name) for name in by_module])
    print(f"\n{'module':<{width}}  defined  unreached  lines")
    for name in sorted(by_module):
        rows = by_module[name]
        print(f"{name:<{width}}  {defined[name]:>7}  {len(rows):>9}  {_lines(rows):>5}")

    print("\nunreached functions:")
    for d in sorted(missed, key=lambda d: (module(d), d.first)):
        print(f"  {module(d)}:{d.first}  {d.qualname}  ({d.last - d.first + 1} lines)")


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    failed = []
    with tempfile.TemporaryDirectory(prefix="reach-") as work:
        dump_dir = os.path.join(work, "dumps")
        os.mkdir(dump_dir)
        started = time.perf_counter()
        for label, argv in entry_points(work):
            t0 = time.perf_counter()
            log_path = os.path.join(work, "entry.log")
            with open(log_path, "w") as log:
                rc = run_under_hook(argv, dump_dir, log, env=env)
            print(f"ran {label}: exit {rc}, {time.perf_counter() - t0:.1f} s", flush=True)
            if rc != 0:
                failed.append(label)
                with open(log_path) as log:
                    sys.stdout.write("".join(log.readlines()[-20:]))
        print(f"entry points run in {time.perf_counter() - started:.0f} s\n")
        defs = defined_functions(PACKAGE)
        report(defs, unreached(defs, load(dump_dir)), PACKAGE)
    if failed:
        print(f"\nfailed entry points (their reach is missing): {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
