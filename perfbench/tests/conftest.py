"""Make ``perfbench`` and ``repro`` importable however pytest is started
(``python -m pytest perfbench/tests -q`` from the repo root)."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
