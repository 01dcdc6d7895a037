"""The crash-point matrix prints what it printed when it was pinned.

``python -m repro.tools.faultmatrix`` (the 27-point matrix) and its
``--random 10`` run are compared line for line with
``tests/faultmatrix_expected.txt`` and
``tests/faultmatrix_random10_expected.txt``.  Both runs are seeded, so
any difference is a change in what a crash at some point recovers to —
the pre-copy and remote-stream crash points included.  Regenerate the
files only for a deliberate change to crash semantics, by running the
two commands with ``PYTHONPATH=src`` and redirecting their output.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = str(HERE.parent / "src")


@pytest.mark.parametrize(
    "args, expected",
    [
        ((), "faultmatrix_expected.txt"),
        (("--random", "10"), "faultmatrix_random10_expected.txt"),
    ],
    ids=["matrix", "random10"],
)
def test_faultmatrix_output_is_pinned(args, expected):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.tools.faultmatrix", *args],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == (HERE / expected).read_text().splitlines()
