"""numpy loads only when a run touches real bytes.

Each check runs in a fresh interpreter, since the test process itself
has long imported numpy.  A phantom cell (the pinned LAMMPS cell of
``benchmarks/import_footprint.py``) must finish without importing
numpy.  The package quick start (real chunks: allocate, write,
checkpoint, crash, restart) must load it, and from then on
``repro._numpy.np`` must hand out numpy's own objects.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FOOTPRINT = ROOT / "benchmarks" / "import_footprint.py"


def _run(code: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_a_phantom_cell_never_imports_numpy():
    out = _run(f"""
        import json, runpy, sys
        import repro
        after_import = "numpy" in sys.modules
        n_modules, numpy_loaded = runpy.run_path({str(FOOTPRINT)!r})["footprint"]()
        print(json.dumps({{"after_import": after_import, "n_modules": n_modules,
                          "numpy_loaded": numpy_loaded}}))
    """)
    assert not out["after_import"]
    assert not out["numpy_loaded"]
    assert out["n_modules"] > 1  # the cell really ran through the package


def test_the_quickstart_loads_numpy_and_the_helper_is_then_transparent():
    out = _run("""
        import json, sys
        from repro import NVMCheckpoint
        from repro.memory import InMemoryStore
        from repro._numpy import np as lazy
        before = "numpy" in sys.modules

        store = InMemoryStore()
        app = NVMCheckpoint("rank0", store=store)
        temp = app.nvalloc("temperature", 1 << 20)
        allocated = "numpy" in sys.modules  # a real chunk's DRAM copy

        import numpy as np
        temp.write(0, np.linspace(0.0, 100.0, 131072))
        app.nvchkptall()
        app.crash()
        app2, report = NVMCheckpoint.restart("rank0", store)
        view = app2.chunk("temperature").view(np.float64)
        print(json.dumps({
            "before": before,
            "allocated": allocated,
            "restored": [float(view[0]), float(view[-1])],
            "same_objects": lazy.zeros is np.zeros
            and lazy.uint64 is np.uint64
            and lazy.random.default_rng is np.random.default_rng,
            "version": lazy.__version__ == np.__version__,
        }))
    """)
    assert out == {
        "before": False,
        "allocated": True,
        "restored": [0.0, 100.0],
        "same_objects": True,
        "version": True,
    }


def test_the_helper_loads_numpy_on_first_attribute_and_caches_it():
    out = _run("""
        import json, sys
        from repro._numpy import np
        before = "numpy" in sys.modules
        zeros = np.zeros
        import numpy
        cached = "zeros" in vars(np) and "__version__" not in vars(np)
        np.__version__
        print(json.dumps({
            "before": before,
            "cached": cached,
            "dunder_cached": vars(np)["__version__"] == numpy.__version__,
            "same": zeros is numpy.zeros,
            "not_installed": sys.modules["numpy"] is numpy and numpy is not np,
            "missing": not hasattr(np, "no_such_numpy_name"),
        }))
    """)
    assert out == {
        "before": False,
        "cached": True,
        "dunder_cached": True,
        "same": True,
        "not_installed": True,
        "missing": True,
    }
