"""Wider event-order digests than ``tests/golden/trace_digests.json``.

The six golden trace digests hold few retry, outage and heartbeat
interleavings, which is where a change to the simulation kernel's
dispatch order would show first.  These cells add them: the
``synthetic-failures`` golden cell at failure seeds 1-4 (soft and hard
failures, restart, remote fetch, re-sync, degraded spans) and one
4-node x 12-rank LAMMPS DCPCP cell (many flows per link at once).

Each entry is the event count and blake2b of the cell's captured trace
stream, header left out (``generate_fixtures.trace_digest``).  The
fixture was written before any kernel change and must be reproduced
byte for byte; regenerate it only for a deliberate change to simulated
semantics:

    PYTHONPATH=src python tests/test_trace_order_digests.py
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "trace_order_digests.json")


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "golden_generate_fixtures", os.path.join(HERE, "golden", "generate_fixtures.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


gen = _load_generator()

_FAILURES = gen.TRACE_CELLS["synthetic-failures"]
assert _FAILURES[-2] == "--seed"

#: name -> experiment argv
ORDER_CELLS = {
    **{
        f"synthetic-failures-seed{seed}": _FAILURES[:-1] + [str(seed)]
        for seed in (1, 2, 3, 4)
    },
    "lammps-4x12-dcpcp": [
        "--app", "lammps", "--local-interval", "20", "--nvm-gbps", "1.0",
        "--nodes", "4", "--ranks-per-node", "12", "--iterations", "2",
        "--remote-interval", "40", "--mode", "dcpcp",
    ],
}


def _stored() -> dict:
    with open(FIXTURE) as fh:
        return json.load(fh)


def test_fixture_covers_every_cell():
    assert sorted(_stored()) == sorted(ORDER_CELLS)


@pytest.mark.parametrize("cell", sorted(ORDER_CELLS))
def test_trace_stream_matches_recorded_digest(cell):
    assert gen.trace_digest(ORDER_CELLS[cell]) == _stored()[cell]


def main() -> int:
    digests = {name: gen.trace_digest(argv) for name, argv in ORDER_CELLS.items()}
    with open(FIXTURE, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, rec in digests.items():
        print(f"{name}: {rec['events']} events, {rec['blake2b']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
