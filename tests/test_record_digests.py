"""Record digests of runs whose tuning defaults live in the components.

The golden records (``tests/golden/pinned_grid_records.json``) hold no
failure-heavy and no elastic run, so nothing there notices if the
retry/heartbeat/re-sync constants or the migration pacing and batch
bound change value.  These runs use all of them at their defaults:

* the ``synthetic-failures-restart`` perfbench cell (retries, heartbeats,
  degraded mode, re-sync, soft and hard restarts);
* a page-granular LAMMPS cell whose remote stream is compressed: the
  local stream copies page extents while the remote one, under the
  wire entropy stage, copies whole chunks, so each stream keeps its
  own page state (or none);
* the four ``--scenario`` cells: the three elastic arms — clean, the
  ``elastic`` bench block's full-resync baseline and its migrating run
  (live migration, and a failover back onto a buddy that still holds
  most chunks) — and
  ``examples/degraded_mode_demo.py``'s link flap (a transient outage,
  then a hard failure of the same node: retries, degraded mode and a
  buddy re-pair), all recorded from the hand-built runs they replaced;
* three runs the benchmarks once built by hand, as the cells that
  replaced them (the digests were recorded from the hand-built runs):
  the ideal (no-checkpoint) LAMMPS run (``--ideal``), Table V's 588 MB
  pre-copy arm on a 48 GB NVM part (``--nvm-capacity-gb 48``), and X5's
  buddy→PFS archive arm (``--archive``; four iterations: the first
  archive round fires at 150 s, after a three-iteration run has ended),
  whose archived bytes are pinned beside its digest.

Each entry is the blake2b of the run's ``RunResult.to_dict()`` as
canonical JSON.  The fixture must be reproduced byte for byte;
regenerate it only for a deliberate change to simulated semantics:

    PYTHONPATH=src python tests/test_record_digests.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "record_digests.json")


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "golden_generate_fixtures", os.path.join(HERE, "golden", "generate_fixtures.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


gen = _load_generator()

#: name -> experiment argv
CELLS = {
    "synthetic-failures-restart": gen.TRACE_CELLS["synthetic-failures"],
    "lammps-page-compress-0.6": [
        "--app", "lammps", "--nodes", "2", "--ranks-per-node", "2", "--iterations", "4",
        "--copy-granularity", "page", "--compress-ratio", "0.6",
    ],
}

ELASTIC_ARMS = ("elastic-clean", "elastic-full-resync", "elastic-migrate")
LINK_FLAP = "link-flap"

#: the degraded-mode example's cell
LINK_FLAP_CELL = [
    "--app", "synthetic", "--ranks-per-node", "2", "--local-interval", "10",
    "--remote-interval", "30", "--checkpoint-mb", "20", "--chunk-mb", "5",
    "--comm-mb", "5", "--iterations", "10", "--seed", "5", "--scenario", LINK_FLAP,
]

#: the benchmarks' 2×4 size
_2X4 = ["--nodes", "2", "--ranks-per-node", "4", "--iterations", "3"]

#: name -> argv of the cells that replace runs the benchmarks built by
#: hand (the digests were recorded from those hand-built runs)
HAND_BUILT = {
    "ideal-lammps": ["--app", "lammps", *_2X4, "--ideal"],
    "table5-588mb-nvm48": [
        "--app", "synthetic", *_2X4, "--checkpoint-mb", "588", "--chunk-mb", "40",
        "--comm-mb", "200", "--nvm-capacity-gb", "48",
    ],
    "x5-nvm-ckpt-archive": [
        "--app", "lammps", *_2X4, "--iterations", "4", "--seed", "5", "--archive",
    ],
}
#: fixture key of the X5 archive arm's archived bytes
ARCHIVE_BYTES = "x5-nvm-ckpt-archive:archive_bytes"


def hand_built_digests() -> dict:
    """The hand-built runs' digests from their cells; the archive arm's
    ``archive`` block (which its hand-built run had no record of) is
    pinned as bytes beside the digest of the rest."""
    from repro.units import GB

    out = {name: cell_record(argv) for name, argv in HAND_BUILT.items()}
    out[ARCHIVE_BYTES] = GB(out["x5-nvm-ckpt-archive"].pop("archive")["gb"])
    return {
        name: value if name == ARCHIVE_BYTES else _digest(value)
        for name, value in out.items()
    }


def _digest(record: dict) -> str:
    canon = json.dumps(record, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.blake2b(canon.encode("utf-8"), digest_size=16).hexdigest()


def cell_record(argv) -> dict:
    from repro.exec.cell import build_parser, resolve_config, run_cell

    return run_cell(resolve_config(build_parser().parse_args(argv)))


def cell_digest(argv) -> str:
    return _digest(cell_record(argv))


def elastic_digests() -> dict:
    """The bench's elastic cell under each elastic scenario."""
    from repro.exec.cell import run_cell
    from repro.tools.bench import elastic_config

    return {name: _digest(run_cell(elastic_config(name))) for name in ELASTIC_ARMS}


def link_flap_digest() -> dict:
    return {LINK_FLAP: cell_digest(LINK_FLAP_CELL)}


def _stored() -> dict:
    with open(FIXTURE) as fh:
        return json.load(fh)


def test_fixture_covers_every_run():
    assert sorted(_stored()) == sorted(
        [*CELLS, *ELASTIC_ARMS, LINK_FLAP, *HAND_BUILT, ARCHIVE_BYTES]
    )


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_cell_record_matches_recorded_digest(cell):
    assert cell_digest(CELLS[cell]) == _stored()[cell]


def test_elastic_records_match_recorded_digests():
    stored = _stored()
    assert elastic_digests() == {name: stored[name] for name in ELASTIC_ARMS}


def test_link_flap_record_matches_recorded_digest():
    assert link_flap_digest() == {LINK_FLAP: _stored()[LINK_FLAP]}


def test_hand_built_records_match_recorded_digests():
    stored = _stored()
    assert hand_built_digests() == {
        name: stored[name] for name in (*HAND_BUILT, ARCHIVE_BYTES)
    }


def main() -> int:
    digests = {name: cell_digest(argv) for name, argv in CELLS.items()}
    digests.update(elastic_digests())
    digests.update(link_flap_digest())
    digests.update(hand_built_digests())
    with open(FIXTURE, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, digest in digests.items():
        print(f"{name}: {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
