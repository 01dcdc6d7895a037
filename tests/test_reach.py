"""The reach audit's hook (``benchmarks/reach.py``): a function that runs
only in a forked pool worker counts as reached, and a decorated function
is matched to its ``def`` through its first decorator's line."""

from __future__ import annotations

import importlib.util
import os
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_reach():
    spec = importlib.util.spec_from_file_location(
        "reach", os.path.join(ROOT, "benchmarks", "reach.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


reach = _load_reach()

PROGRAM = textwrap.dedent('''
    import functools


    def tag(fn):
        @functools.wraps(fn)
        def tagged(*args):
            return fn(*args)
        return tagged


    def in_worker_only(x):
        return x + 1


    @tag
    @tag
    def decorated(x):
        return x * 2


    def never_called():
        return 0


    def stub():
        """Documented, not implemented."""
        raise NotImplementedError


    def main():
        from repro.exec.pool import WorkerPool

        pool = WorkerPool(1)
        try:
            answered = pool.run_batches(in_worker_only, [[(0, 41)]])
        finally:
            pool.close()
        assert answered == {0: (42, None)}
        assert decorated(2) == 4


    if __name__ == "__main__":
        main()
''')


def _audit(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "prog.py").write_text(PROGRAM)
    dumps = tmp_path / "dumps"
    dumps.mkdir()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), os.path.join(ROOT, "src")]))
    with open(tmp_path / "log", "w") as log:
        rc = reach.run_under_hook(["-m", "pkg.prog"], str(dumps), log, env=env, cwd=str(tmp_path))
    assert rc == 0, (tmp_path / "log").read_text()
    defs = reach.defined_functions(str(package))
    missed = reach.unreached(defs, reach.load(str(dumps)))
    return {d.qualname for d in defs}, {d.qualname for d in missed}, len(os.listdir(dumps))


def test_worker_and_decorated_functions_count_as_reached(tmp_path):
    defined, missed, dumps = _audit(tmp_path)
    assert defined == {
        "tag", "tag.<locals>.tagged", "in_worker_only", "decorated", "never_called", "main",
    }  # the stub is not counted
    assert dumps == 2  # the parent's and the worker's
    assert missed == {"never_called"}
