#!/usr/bin/env python3
"""Trace-driven replay: capture one live run, then answer "what if?"
without re-simulating.

Walks the replay engine end to end:

1. **capture** — run one LAMMPS cluster cell with a ring-buffer sink
   on the trace bus; the event stream plus the resolved config is the
   complete record of the run;
2. **faithful replay** — re-derive the byte accounting verbatim from
   the events and diff it against the live `RunResult`; every metric
   must match integer-for-integer (this is the differential oracle
   the test suite runs across all policies and granularities);
3. **what-if replay** — reconstruct the dirty-page activity and re-run
   the scheduling decisions under every policy mode and a faster NVM,
   pricing alternatives in milliseconds instead of re-simulating;
4. **replay sweep** — the same grid through `run_replay_sweep`, i.e.
   what `repro-sweep --replay trace.jsonl` does from the CLI.

Run:  PYTHONPATH=src python examples/replay_whatif_demo.py
"""

import io

from repro.replay import capture_cell, compare_to_run
from repro.tools.sweep import run_replay_sweep
from repro.units import to_GB

CELL = {
    "app": "lammps",
    "nodes": 2,
    "ranks_per_node": 2,
    "iterations": 3,
    "local_interval": 20.0,
    "remote_interval": 60.0,
    "mode": "dcpcp",
    "copy_granularity": "page",
}


def main() -> None:
    # -- 1. capture one live cell --------------------------------------
    cap = capture_cell(CELL)
    print(f"captured {len(cap.events)} trace events from one live run")
    print(f"  live coordinated : {to_GB(cap.result.accounting.coordinated_bytes):.3f} GB")
    print(f"  live pre-copied  : {to_GB(cap.result.accounting.local_precopy_bytes):.3f} GB")

    # -- 2. faithful replay: the differential oracle -------------------
    engine = cap.engine()
    report = compare_to_run(engine.faithful(), cap.result)
    print(f"\nfaithful replay: {report.describe()}")
    assert report.matches

    # -- 3. what-if: other policies, faster NVM ------------------------
    print("\nwhat-if grid (same trace, no simulation):")
    print(f"  {'mode':<6} {'nvm GB/s':>8} {'coord GB':>9} "
          f"{'precopy GB':>11} {'blocking s':>11}")
    for mode in ("none", "cpc", "dcpc", "dcpcp"):
        for gbps in (2.0, 4.0):
            w = engine.whatif(mode, nvm_gbps=gbps).accounting
            print(f"  {mode:<6} {gbps:>8.1f} {to_GB(w.coordinated_bytes):>9.3f} "
                  f"{to_GB(w.local_precopy_bytes):>11.3f} {w.blocking_s:>11.2f}")

    # -- 4. the CLI path: sweep a serialized trace ---------------------
    buf = io.StringIO()
    cap.write_jsonl(buf)
    buf.seek(0)
    rows = run_replay_sweep(
        buf, [("mode", ["none", "dcpcp"]), ("nvm-gbps", ["2.0"])]
    )
    faithful = [r for r in rows if r["replay.faithful"]]
    print(f"\nsweep --replay produced {len(rows)} rows; "
          f"{len(faithful)} took the faithful (byte-exact) path")


if __name__ == "__main__":
    main()
