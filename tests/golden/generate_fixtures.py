"""Regenerate the golden-equivalence fixtures.

The fixtures pin the *pre-refactor* checkpoint behaviour: the policy /
destination / engine split (ISSUE 4) must reproduce these records
byte-for-byte.  Regenerate only when a PR deliberately changes
simulated semantics (and say so in the PR):

    PYTHONPATH=src python tests/golden/generate_fixtures.py

Three fixtures:

* ``pinned_grid_records.json`` — the 16-cell pinned bench grid
  (``repro.tools.bench.PINNED_GRID``) executed on the serial reference
  path (``workers=1``, no cache).  Records are the flattened
  ``RunResult.to_dict()`` dicts, fully determined by the simulated
  clock — no wall-clock fields.
* ``standalone_schedules.json`` — one standalone single-rank scenario
  per paper mode (none/cpc/dcpc/dcpcp): a scripted app dirtying a
  fixed chunk set between coordinated checkpoints.  Captures every
  ``CheckpointStats`` field per checkpoint plus the pre-copy engine's
  accounting — the exact schedule each policy produces.
* ``trace_digests.json`` — blake2b of the sorted-key Jsonl event stream
  (``run_grid(trace=...)``) of one small cell per copy-path
  combination (:data:`TRACE_CELLS`).  The records above pin what a run
  *sums to*; this pins the order and every field of the events it is
  made of.  The header line is left out of the digest: it carries the
  cell's resolved option list, which grows with every new CLI option
  and says nothing about the event stream.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys

FIXTURE_DIR = os.path.dirname(os.path.abspath(__file__))

#: compute seconds before each coordinated checkpoint
INTERVAL_S = 20.0
#: seconds before each checkpoint at which the hot chunk is re-written —
#: late enough to land *after* DCPC's learned threshold time, so DCPC
#: pre-copies it redundantly while DCPCP's prediction withholds it
LATE_TOUCH_S = 0.05
#: how many coordinated checkpoints each standalone scenario runs
N_CHECKPOINTS = 5
#: (name, MB) of the standalone chunk set — mixed sizes so largest-first
#: pre-copy ordering matters
CHUNKS_MB = [("state", 40), ("grid", 25), ("params", 10), ("log", 5)]
#: the chunk re-dirtied right before every checkpoint (LAMMPS' 3-D
#: result array in the paper — modified until the end of the iteration)
HOT_CHUNK = "state"
#: chunk names touched at the start of interval k (k = 0 .. N-1);
#: "params" goes quiet after the first interval so DCPCP's prediction
#: table has a write-once chunk to learn
TOUCH_SCRIPT = [
    ["state", "grid", "params"],
    ["state", "grid"],
    ["state", "grid"],
    ["state"],
    ["state", "grid"],
]

MODES = ["none", "cpc", "dcpc", "dcpcp"]

_LAMMPS_2X2 = [
    "--app", "lammps", "--local-interval", "20", "--nvm-gbps", "1.0",
    "--nodes", "2", "--ranks-per-node", "2", "--iterations", "2",
]
#: one cell per copy-path combination (name -> experiment argv): every
#: site that moves a chunk — coordinated step, local pre-copy, remote
#: stream, remote round, re-sync — runs in at least one of them, whole
#: chunks and page extents, raw and encoded, compressed and not
TRACE_CELLS = {
    "dcpcp-remote-precopy": _LAMMPS_2X2 + ["--remote-interval", "40", "--mode", "dcpcp"],
    "none-no-remote": _LAMMPS_2X2 + ["--mode", "none", "--no-remote"],
    "page-codec-auto": [
        "--app", "lammps", "--local-interval", "20", "--nvm-gbps", "1.0",
        "--nodes", "2", "--ranks-per-node", "1", "--iterations", "4",
        "--remote-interval", "40", "--mode", "dcpcp",
        "--copy-granularity", "page", "--codec", "auto",
    ],
    "gtc-small-chunks-96": [
        "--app", "gtc", "--nodes", "2", "--ranks-per-node", "1",
        "--iterations", "3", "--local-interval", "20", "--remote-interval", "60",
        "--mode", "dcpcp", "--nvm-gbps", "1.0", "--small-chunks", "96",
    ],
    # the cell seed *is* the failure schedule (soft and hard failures,
    # restart, remote fetch, re-sync)
    "synthetic-failures": [
        "--app", "synthetic", "--nodes", "4", "--ranks-per-node", "2",
        "--iterations", "10", "--local-interval", "15", "--remote-interval", "45",
        "--checkpoint-mb", "80", "--chunk-mb", "10", "--mtbf-local", "200",
        "--mtbf-remote", "600", "--mode", "dcpcp", "--nvm-gbps", "2.0",
        "--seed", "1",
    ],
    # four iterations: the remote stream only starts after the first
    # round, so two would leave the compressed stream sends unpinned
    "compress-ratio-0.6": _LAMMPS_2X2[:-1] + [
        "4", "--remote-interval", "40", "--mode", "dcpcp", "--compress-ratio", "0.6",
    ],
}


def standalone_schedule(mode: str) -> dict:
    from repro.alloc import NVAllocator
    from repro.config import PrecopyPolicy
    from repro.core import LocalCheckpointer, make_standalone_context
    from repro.units import MB

    ctx = make_standalone_context(name="golden")
    alloc = NVAllocator(
        "p0", ctx.nvmm, ctx.dram, phantom=True, clock=lambda: ctx.engine.now
    )
    chunks = {name: alloc.nvalloc(name, MB(mb)) for name, mb in CHUNKS_MB}
    ck = LocalCheckpointer(ctx, alloc, PrecopyPolicy(mode=mode))
    ck.start_background()

    def app():
        for round_no in range(N_CHECKPOINTS):
            for name in TOUCH_SCRIPT[round_no]:
                chunks[name].touch()
            yield ctx.engine.timeout(INTERVAL_S - LATE_TOUCH_S)
            chunks[HOT_CHUNK].touch()
            yield ctx.engine.timeout(LATE_TOUCH_S)
            yield from ck.checkpoint(blocking=False)
        ck.stop_background()

    ctx.engine.process(app(), name="app")
    ctx.engine.run()

    record = {
        "mode": mode,
        "checkpoints": [
            {
                "start": s.start,
                "end": s.end,
                "bytes_copied": s.bytes_copied,
                "chunks_copied": s.chunks_copied,
                "chunks_skipped": s.chunks_skipped,
                "flush_cost": s.flush_cost,
            }
            for s in ck.history
        ],
        "checkpoints_done": ck.checkpoints_done,
        "total_coordinated_bytes": ck.total_coordinated_bytes,
        "total_precopy_bytes": ck.total_precopy_bytes,
        "total_bytes_to_nvm": ck.total_bytes_to_nvm,
        "total_checkpoint_time": ck.total_checkpoint_time,
    }
    if ck.precopy is not None:
        record["precopy"] = {
            "copies": ck.precopy.stats.copies,
            "bytes_copied": ck.precopy.stats.bytes_copied,
            "stale_copies": ck.precopy.stats.stale_copies,
            "redundant_copies": ck.precopy.stats.redundant_copies,
            "faults_induced": ck.precopy.stats.faults_induced,
        }
    return record


def pinned_grid_records() -> list:
    from repro.exec.grid import run_grid
    from repro.tools.bench import PINNED_GRID
    from repro.tools.sweep import parse_sweeps

    base_args, axes_specs = PINNED_GRID
    report = run_grid(base_args, parse_sweeps(list(axes_specs)), workers=1, cache=None)
    return report.records


def trace_digest(argv: list, *, without_kinds=()) -> dict:
    """Event count and blake2b digest of one cell's trace stream
    (*without_kinds*: event kinds left out — how a PR that only *adds*
    a kind proves the rest of the stream did not move)."""
    from repro.exec.grid import run_grid

    buf = io.StringIO()
    run_grid(argv, None, workers=1, cache=None, trace=buf, derive_seeds=False)
    lines = buf.getvalue().splitlines(keepends=True)[1:]  # [0] is the header
    if without_kinds:
        lines = [ln for ln in lines if json.loads(ln)["kind"] not in without_kinds]
    digest = hashlib.blake2b("".join(lines).encode("utf-8"), digest_size=16)
    return {"events": len(lines), "blake2b": digest.hexdigest()}


def main() -> int:
    grid = pinned_grid_records()
    with open(os.path.join(FIXTURE_DIR, "pinned_grid_records.json"), "w") as fh:
        json.dump(grid, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned_grid_records.json: {len(grid)} cells")

    schedules = [standalone_schedule(mode) for mode in MODES]
    with open(os.path.join(FIXTURE_DIR, "standalone_schedules.json"), "w") as fh:
        json.dump(schedules, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for rec in schedules:
        print(
            f"standalone[{rec['mode']}]: {rec['checkpoints_done']} ckpts, "
            f"{rec['total_bytes_to_nvm']} bytes to NVM"
        )

    digests = {name: trace_digest(argv) for name, argv in TRACE_CELLS.items()}
    with open(os.path.join(FIXTURE_DIR, "trace_digests.json"), "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, rec in digests.items():
        print(f"trace[{name}]: {rec['events']} events, {rec['blake2b']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
