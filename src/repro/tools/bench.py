"""Perf-trajectory benchmark CLI: ``python -m repro.tools.bench``.

Runs a pinned subset of the paper's evaluation grids through
:func:`repro.exec.run_grid` and emits a machine-readable JSON record
(``BENCH_baseline.json`` via ``make bench-json``) seeding the repo's
perf trajectory.  The record is assembled from the :data:`BLOCKS`
registry — one entry per block, each ``(run, smoke_inputs, gate,
summary)``:

* ``run()`` produces the block's record at the full pinned inputs
  (``--block NAME`` prints just that);
* ``run(**smoke_inputs)`` is the same code at CI size, ``gate(record)``
  its acceptance check and ``summary(record)`` the one line
  ``--smoke [NAME|all]`` prints before exiting 0/1.

All grids are deterministic (per-cell derived seeds), so the records
themselves are stable across runs — only the wall-clocks move with the
host.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .. import __version__
from ..exec.cell import run_collected
from ..exec.grid import GridResult, GridSpec, expand_grid, run_grid
from ..metrics.trace import BUS, CounterSink, JsonlSink

__all__ = [
    "PINNED_GRID", "FIGURE_GRIDS", "FIGURE_SMOKE", "SCALE_GRID",
    "BLOCKS", "Block",
    "figure_specs", "run_benchmark", "run_smoke", "main",
]

#: the headline grid: 16 cells of the paper's LAMMPS testbed with the
#: remote (buddy) tier on — the heaviest per-cell configuration the
#: evaluation sweeps, crossed over device bandwidth and pre-copy policy
PINNED_GRID: Tuple[List[str], List[str]] = (
    [
        "--app", "lammps", "--nodes", "2", "--ranks-per-node", "4",
        "--iterations", "3", "--local-interval", "20", "--remote-interval", "60",
    ],
    ["nvm-gbps=0.5,1.0,2.0,4.0", "mode=none,cpc,dcpc,dcpcp"],
)

#: one arm of a figure: base argv and sweep axes over it
Arm = Tuple[List[str], List[str]]

#: the paper's pre-copy system and its asynchronous no-pre-copy
#: baseline (``baselines.precopy_config`` / ``async_noprecopy_config``)
PRECOPY = ["--mode", "dcpcp"]
NO_PRECOPY = ["--mode", "none", "--no-remote-precopy"]


def _size(app: str, nodes: int, ranks: int, iterations: int) -> List[str]:
    return ["--app", app, "--nodes", str(nodes), "--ranks-per-node", str(ranks),
            "--iterations", str(iterations)]


def _pair(base: List[str], axes: Sequence[str] = ()) -> Dict[str, Arm]:
    """The pre-copy and no-pre-copy arms over one base and axes."""
    return {
        "pre-copy": (base + PRECOPY, list(axes)),
        "no-pre-copy": (base + NO_PRECOPY, list(axes)),
    }


_LAMMPS_4X12 = _size("lammps", 4, 12, 6)
_GTC_4X12 = _size("gtc", 4, 12, 6)
#: the synthetic ablations' testbed: 1 GB/s NVM, no remote tier (its
#: rounds out of reach) and no application traffic
_ABLATION = ["--nvm-gbps", "1.0", "--remote-interval", "1e6", "--comm-mb", "0", "--no-remote"]

#: every cluster figure of ``benchmarks/`` (keyed by its
#: ``bench_<name>.py``) as named arms at the size its bench runs; each
#: cell keeps the base ``--seed`` (run with ``derive_seeds=False``)
FIGURE_GRIDS: Dict[str, Dict[str, Arm]] = {
    "fig5_timeline": _pair(
        _size("synthetic", 2, 2, 4) + [
            "--checkpoint-mb", "200", "--chunk-mb", "25", "--comm-mb", "50",
            "--local-interval", "30", "--remote-interval", "60", "--nvm-gbps", "0.5",
        ]
    ),
    "fig7_lammps_local": {
        **_pair(_LAMMPS_4X12 + ["--no-remote"], ["nvm-gbps=0.5,1.0,1.5,2.0"]),
        "ideal": (_LAMMPS_4X12 + ["--ideal"], []),
    },
    "fig8_gtc_local": {
        **_pair(_GTC_4X12 + ["--no-remote"], ["nvm-gbps=0.5,1.0,2.0"]),
        "ideal": (_GTC_4X12 + ["--ideal"], []),
    },
    "fig8b_cm1_local": _pair(
        _LAMMPS_4X12 + ["--nvm-gbps", "1.0", "--no-remote"], ["app=cm1,lammps"]
    ),
    "fig9_efficiency": {
        "ideal": (_size("gtc", 4, 12, 9) + ["--ideal"], []),
        **_pair(_size("gtc", 4, 12, 9) + ["--nvm-gbps", "1.0"],
                ["remote-interval=60.0,120.0,180.0"]),
    },
    "fig10_interconnect": _pair(_size("lammps", 4, 12, 9)),
    "table5_helper_cpu": _pair(
        _size("synthetic", 4, 12, 9)
        + ["--chunk-mb", "40", "--comm-mb", "200", "--nvm-capacity-gb", "48"],
        ["checkpoint-mb=370,472,588"],
    ),
    "model_validation": {
        "failures": (
            _size("synthetic", 2, 4, 12) + [
                "--checkpoint-mb", "80", "--chunk-mb", "20", "--comm-mb", "20",
                "--local-interval", "20", "--remote-interval", "60", "--nvm-gbps", "1.0",
                "--mtbf-local", "400", "--mtbf-remote", "1600", "--seed", "13",
            ],
            [],
        ),
    },
    "ablation_precopy": {
        "variants": (
            _size("synthetic", 2, 8, 8) + _ABLATION + [
                "--checkpoint-mb", "300", "--chunk-mb", "25", "--hot-fraction", "0.5",
                "--local-interval", "30", "--no-remote-precopy",
            ],
            ["mode=none,cpc,dcpc,dcpcp"],
        ),
    },
    "ablation_chunksize": _pair(
        _size("synthetic", 2, 8, 6) + _ABLATION
        + ["--checkpoint-mb", "400", "--hot-fraction", "0.25"],
        ["chunk-mb=1,10,50,100,200"],
    ),
    "ablation_granularity": {
        "granularity": (
            _size("synthetic", 2, 8, 6) + _ABLATION
            + ["--checkpoint-mb", "400", "--chunk-mb", "50"] + PRECOPY,
            ["granularity=chunk,page"],
        ),
    },
    "pfs_multilevel": {
        "ideal": (_LAMMPS_4X12 + ["--ideal"], []),
        "pfs": (_LAMMPS_4X12 + ["--seed", "5", "--pfs-gbps", "1.5"] + NO_PRECOPY, []),
        "multilevel": (_LAMMPS_4X12 + ["--seed", "5"] + NO_PRECOPY, []),
        "nvm-checkpoints": (_LAMMPS_4X12 + ["--seed", "5"] + PRECOPY, []),
        "nvm-ckpt+archive": (_LAMMPS_4X12 + ["--seed", "5", "--archive"] + PRECOPY, []),
    },
    "compression": {
        "off": (_LAMMPS_4X12 + ["--seed", "6"], []),
        "compressed": (_LAMMPS_4X12 + ["--seed", "6"], ["compress-ratio=0.8,0.6,0.4"]),
    },
    "endurance": _pair(
        _size("gtc", 2, 12, 6) + ["--no-remote"], ["local-interval=10.0,40.0,120.0"]
    ),
}

#: appended to every figure arm by the bench's figure block (a repeated
#: option takes its last value)
FIGURE_SMOKE = ["--nodes", "2", "--ranks-per-node", "4", "--iterations", "3"]


def figure_specs(name: str, *, smoke: bool = False) -> Dict[str, GridSpec]:
    """The arms of ``FIGURE_GRIDS[name]`` as grid specs, at the size the
    figure's bench runs or (*smoke*) at the bench block's."""
    extra = FIGURE_SMOKE if smoke else []
    return {
        arm: GridSpec.of(base + extra, axes, derive_seeds=False)
        for arm, (base, axes) in FIGURE_GRIDS[name].items()
    }


#: the throughput grid behind the ``scale`` block: 4 local-only LAMMPS
#: cells, small enough to run serially and again across the pool
SCALE_GRID: Tuple[List[str], List[str]] = (
    [
        "--app", "lammps", "--nodes", "2", "--ranks-per-node", "4",
        "--iterations", "3", "--local-interval", "20",
        "--remote-interval", "60", "--no-remote",
    ],
    ["mode=none,dcpcp", "nvm-gbps=1.0,2.0"],
)

#: the ``scale`` block's dispatch probe: one iteration on one 1-rank
#: node (under 1 ms a cell), so a round's wall is ``run_grid``'s own
#: batching + IPC + reassembly, not simulation
DISPATCH_GRID: Tuple[List[str], List[str]] = (
    [
        "--app", "synthetic", "--nodes", "1", "--ranks-per-node", "1",
        "--iterations", "1", "--checkpoint-mb", "1", "--chunk-mb", "1",
        "--no-remote",
    ],
    ["seed=1,2,3,4"],
)
DISPATCH_ROUNDS = 12
#: workers the ``scale`` block asks for; the host decides what it gets
SCALE_WORKERS = 4


def _cell_ckpt_gb(record: dict) -> float:
    """Total checkpoint bytes (GB) one cell moved across both tiers."""
    return (
        record["local.coordinated_gb"]
        + record["local.precopy_gb"]
        + record["remote.round_gb"]
        + record["remote.stream_gb"]
    )


def _rate(num: float, den: float, digits: int) -> float:
    return round(num / den, digits) if den > 0 else 0.0


def _saved_ratio(before_gb: float, after_gb: float) -> float:
    return round(1.0 - after_gb / before_gb, 4) if before_gb > 0 else 0.0


def _mode_record(report: GridResult) -> dict:
    ex = report.execution
    return {
        "wall_s": round(ex.wall_s, 4),
        "cells": ex.cells_total,
        "cells_executed": ex.cells_executed,
        "cache_hits": ex.cache_hits,
        "cache_hit_rate": round(ex.cache_hit_rate, 4),
        "cells_per_sec": round(ex.cells_per_sec, 3),
        "workers": ex.workers,
    }


@functools.lru_cache(maxsize=1)
def _incremental_pass(axes_specs: Tuple[str, ...]) -> GridResult:
    """The pinned grid with page-granular incremental copy: the exec
    block pairs it against whole-chunk copies, the dedup block against
    the codec, and a full bench runs it once.  Copy granularity (like
    the codec) lives in the base config, not an axis, so every pass
    derives identical per-cell seeds and pairs cell-for-cell in grid
    order."""
    base = PINNED_GRID[0] + ["--copy-granularity", "page"]
    return run_grid(base, axes_specs, workers=1, cache=None)


def run_exec_block(
    axes_specs: Sequence[str] = PINNED_GRID[1],
    figures: Sequence[str] = tuple(FIGURE_GRIDS),
    *,
    workers: int | str | None = "auto",
    cache_dir: Optional[str] = None,
    trace_path: Optional[str] = None,
) -> dict:
    """The execution-engine block: the pinned grid serially (the
    reference), with a cold cache, then with a warm one; a paired
    chunk-granular vs page-granular (incremental) pass over the same
    grid; and the wall-clock of each arm of each of *figures*, at the
    :data:`FIGURE_SMOKE` size.

    *trace_path* streams the serial reference run's structured trace
    (policy decisions, chunk copies, commits...) as JSONL.  Tracing is
    scoped to the serial run only — it doubles as the reference count
    for the census; grid-level merged worker traces are available via
    ``run_grid(..., trace=path)`` instead.  Without *cache_dir* the
    cache lives in a temp dir removed on return.
    """
    base = PINNED_GRID[0]

    # 1. reference: naive serial, no cache — what every sweep paid
    # before the engine existed.  Runs in-process, so the trace bus
    # observes every cell.
    with contextlib.ExitStack() as stack:
        counter = stack.enter_context(BUS.capture(CounterSink()))
        if trace_path:
            jsonl = JsonlSink(trace_path)
            stack.callback(jsonl.close)
            stack.enter_context(BUS.capture(jsonl))
        serial = run_grid(base, axes_specs, workers=1, cache=None)

    # 1b. the same grid with page-granular incremental copy: the delta
    # is the checkpoint bytes the dirty-page extents saved over
    # whole-chunk copies
    incremental = _incremental_pass(tuple(axes_specs))
    inc_cells: List[dict] = []
    chunk_gb_total = inc_gb_total = 0.0
    for chunk_rec, inc_rec in zip(serial.records, incremental.records):
        cg = _cell_ckpt_gb(chunk_rec)
        ig = _cell_ckpt_gb(inc_rec)
        chunk_gb_total += cg
        inc_gb_total += ig
        inc_cells.append({
            "mode": chunk_rec["sweep.mode"],
            "nvm_gbps": chunk_rec["sweep.nvm-gbps"],
            "chunk_gb": round(cg, 4),
            "incremental_gb": round(ig, 4),
            "bytes_saved_ratio": _saved_ratio(cg, ig),
        })

    with contextlib.ExitStack() as stack:
        tmp = cache_dir or stack.enter_context(
            tempfile.TemporaryDirectory(prefix="repro-bench-")
        )
        # 2. engine, cold cache: sharded execution, results stored
        cold = run_grid(base, axes_specs, workers=workers, cache=tmp)
        # 3. engine, warm cache: the re-run path — must execute nothing
        warm = run_grid(base, axes_specs, workers=workers, cache=tmp)
        figure_records = {
            name: {
                arm: _mode_record(run_grid(spec, workers=workers, cache=tmp))
                for arm, spec in figure_specs(name, smoke=True).items()
            }
            for name in figures
        }

    serial_s = serial.execution.wall_s
    return {
        "grid": {
            "app": "lammps",
            "axes": list(axes_specs),
            "cells": serial.execution.cells_total,
        },
        "serial": _mode_record(serial),
        "parallel_cold": {
            **_mode_record(cold),
            "speedup_vs_serial": _rate(serial_s, cold.execution.wall_s, 3),
        },
        "cached_rerun": {
            **_mode_record(warm),
            "speedup_vs_serial": _rate(serial_s, warm.execution.wall_s, 3),
        },
        # the engine's wall-clock win over naive serial re-execution:
        # best of sharding (multi-core hosts) and caching (re-runs)
        "speedup": round(
            serial_s / min(cold.execution.wall_s, warm.execution.wall_s), 3
        ),
        "deterministic": serial.records == cold.records == warm.records,
        # structured-trace census of the serial reference run: how many
        # of each pipeline event fired, and the scheduling-policy
        # decision mix across all cells
        "trace_events": dict(sorted(counter.by_kind.items())),
        "policy_decisions": dict(sorted(counter.decisions.items())),
        # chunk-granular vs page-granular (incremental) checkpoint
        # bytes per pinned cell, and the aggregate bytes-saved ratio
        "incremental": {
            "cells": inc_cells,
            "chunk_gb": round(chunk_gb_total, 4),
            "incremental_gb": round(inc_gb_total, 4),
            "bytes_saved_ratio": _saved_ratio(chunk_gb_total, inc_gb_total),
        },
        "figures": figure_records,
    }


def _exec_gate(block: dict) -> bool:
    """The cold run executes every cell, the warm run none, and
    serial / cold / warm records are identical."""
    cells = block["grid"]["cells"]
    cold, warm = block["parallel_cold"], block["cached_rerun"]
    return (
        block["deterministic"]
        and cold["cells_executed"] == cells
        and warm["cells_executed"] == 0
        and warm["cache_hits"] == cells
    )


def _exec_summary(block: dict) -> str:
    cold, warm = block["parallel_cold"], block["cached_rerun"]
    return (
        f"cold executed={cold['cells_executed']} "
        f"warm executed={warm['cells_executed']} hits={warm['cache_hits']} "
        f"deterministic={block['deterministic']}"
    )


def run_scale_block() -> dict:
    """DES + dispatch throughput: the ``scale`` block of the baseline.

    * **simulation throughput** — the :data:`SCALE_GRID` cells run
      in-process inside ``run_cell``'s own collection bracket
      (:func:`~repro.exec.cell.run_collected`, so the number does not
      depend on what this process's heap holds), counting the engine's
      dispatched DES items (``RunResult.sim_events``).
    * **worker accounting** — :data:`SCALE_WORKERS` requested vs the
      count ``run_grid`` derives from this host, so a 1-CPU CI runner
      is legible in the record instead of silently odd.
    * **pool dispatch** — the same cells through
      ``run_grid(workers=SCALE_WORKERS)`` (``batches`` is 0 where the
      host grants one worker and the run stays in-process), then
      :data:`DISPATCH_ROUNDS` rounds of the near-empty
      :data:`DISPATCH_GRID` through the same call.

    The pooled run must reproduce the serial records byte for byte
    (``deterministic``) — the block's gate.
    """
    base, axes_specs = SCALE_GRID
    configs = [cell.config for cell in expand_grid(base, axes_specs)]

    # 1. single-process simulation throughput
    events = nodes = 0
    serial_records = []
    t0 = time.perf_counter()
    for config in configs:
        cell_events, cell_nodes, record = run_collected(
            config, lambda res: (res.sim_events, res.n_nodes, res.to_dict())
        )
        events += cell_events
        nodes += cell_nodes
        serial_records.append(record)
    sim_wall = time.perf_counter() - t0

    # 2. the session's persistent pool: real cells, then dispatch rounds
    pooled = run_grid(base, axes_specs, workers=SCALE_WORKERS).execution
    dispatch_wall = sum(
        run_grid(*DISPATCH_GRID, workers=SCALE_WORKERS).execution.wall_s
        for _ in range(DISPATCH_ROUNDS)
    )

    return {
        "grid": {"axes": list(axes_specs), "cells": len(configs)},
        "sim": {
            "wall_s": round(sim_wall, 4),
            "events": events,
            "events_per_sec": _rate(events, sim_wall, 1),
            "nodes_per_sec": _rate(nodes, sim_wall, 3),
            "cells_per_sec": _rate(len(configs), sim_wall, 3),
        },
        "workers": {
            "requested": pooled.workers_requested,
            "effective": pooled.workers,
            "host_cpus": os.cpu_count(),
        },
        "pool": {
            "dispatch_rounds": DISPATCH_ROUNDS,
            "persistent_dispatch_wall_s": round(dispatch_wall, 4),
            "persistent_cells_wall_s": round(pooled.wall_s, 4),
            "batches": pooled.batches,
        },
        "deterministic": serial_records == pooled.results,
    }


def _scale_gate(block: dict) -> bool:
    """Throughput numbers are not degenerate and serial / pooled
    records are identical."""
    return (
        block["sim"]["events"] > 0
        and block["sim"]["events_per_sec"] > 0
        and block["deterministic"]
    )


def _scale_summary(block: dict) -> str:
    return (
        f"{block['sim']['events']} DES events at "
        f"{block['sim']['events_per_sec']:.0f}/s, "
        f"{block['sim']['cells_per_sec']:.2f} cells/s serial, "
        f"{block['pool']['dispatch_rounds']} dispatch rounds in "
        f"{block['pool']['persistent_dispatch_wall_s']}s "
        f"({block['workers']['effective']}/{block['workers']['requested']} "
        f"workers effective), deterministic={block['deterministic']}"
    )


def run_dedup_block(axes_specs: Sequence[str] = PINNED_GRID[1]) -> dict:
    """Paired incremental-vs-codec pass over the pinned grid.

    Both passes run page-granular incremental copy; the codec pass
    additionally routes every payload through the ``auto`` codec
    (delta/dedup/raw, cheapest per chunk); the delta is the wire bytes
    the payload representation kept off the copy path *on top of* the
    dirty-extent savings.  ``below_incremental_all`` asserts the codec
    pass moved strictly fewer bytes on every cell.
    """
    incremental = _incremental_pass(tuple(axes_specs))
    dedup = run_grid(
        PINNED_GRID[0] + ["--copy-granularity", "page", "--codec", "auto"],
        axes_specs, workers=1, cache=None,
    )
    cells: List[dict] = []
    inc_gb_total = dedup_gb_total = delta_gb_total = 0.0
    blocks_new = blocks_ref = 0
    all_below = True
    for inc_rec, ded_rec in zip(incremental.records, dedup.records):
        ig = _cell_ckpt_gb(inc_rec)
        dg = _cell_ckpt_gb(ded_rec)
        below = dg < ig
        all_below = all_below and below
        inc_gb_total += ig
        dedup_gb_total += dg
        delta_gb_total += ded_rec.get("codec.delta_changed_gb", 0.0)
        blocks_new += ded_rec.get("codec.blocks_new", 0)
        blocks_ref += ded_rec.get("codec.blocks_ref", 0)
        cells.append({
            "mode": ded_rec["sweep.mode"],
            "nvm_gbps": ded_rec["sweep.nvm-gbps"],
            "incremental_gb": round(ig, 4),
            "dedup_gb": round(dg, 4),
            "bytes_saved_ratio": _saved_ratio(ig, dg),
            "dedup_hit_rate": ded_rec.get("codec.dedup_hit_rate", 0.0),
            "below_incremental": below,
        })
    blocks = blocks_new + blocks_ref
    return {
        "codec": "auto",
        "cells": cells,
        "incremental_gb": round(inc_gb_total, 4),
        "dedup_gb": round(dedup_gb_total, 4),
        "bytes_saved_ratio": _saved_ratio(inc_gb_total, dedup_gb_total),
        "delta_changed_gb": round(delta_gb_total, 4),
        "dedup_hit_rate": _rate(blocks_ref, blocks, 4),
        "below_incremental_all": all_below,
        # host cost of the codec on top of the same page-granular pass
        "incremental_wall_s": round(incremental.execution.wall_s, 4),
        "codec_wall_s": round(dedup.execution.wall_s, 4),
    }


def _dedup_restart_check() -> Tuple[int, int]:
    """Checkpoint real payloads through the auto codec twice, crash,
    and restart with block-digest verification; returns
    ``(blocks_verified, digest_failures)``."""
    import numpy as np

    from ..alloc import NVAllocator
    from ..config import PrecopyPolicy
    from ..core import LocalCheckpointer, RestartManager, make_standalone_context
    from ..sim import Engine

    engine = Engine()
    ctx = make_standalone_context(name="n0", engine=engine)
    alloc = NVAllocator(
        "r0", ctx.nvmm, ctx.dram, phantom=False, clock=lambda: engine.now
    )
    ck = LocalCheckpointer(ctx, alloc, PrecopyPolicy(mode="none", codec="auto"))
    rng = np.random.default_rng(7)
    a = alloc.nvalloc("a", 256 * 1024)
    a.write(0, rng.integers(0, 255, size=256 * 1024, dtype=np.uint8))
    b = alloc.nvalloc("b", 128 * 1024)
    b.write(0, np.zeros(128 * 1024, dtype=np.uint8))
    p1 = engine.process(ck.checkpoint(blocking=False))
    engine.run()
    # second round: one re-dirtied page on `a` (delta/dedup base
    # exists now), `b` rewritten with identical content (pure dedup)
    a.write(0, rng.integers(0, 255, size=4096, dtype=np.uint8))
    b.write(0, np.zeros(128 * 1024, dtype=np.uint8))
    p2 = engine.process(ck.checkpoint(blocking=False))
    engine.run()
    if not (p1.ok and p2.ok):
        return (0, 1)
    ctx.nvmm.store.crash()
    ctx.nvmm.crash_process("r0")
    report = RestartManager(ctx).restart_process_sync(
        "r0", block_store=ck.destination.block_store
    )
    return (report.blocks_verified, report.digest_failures)


def _dedup_gate(block: dict) -> bool:
    """Wire bytes drop on every cell, blocks really deduplicate, and a
    real-payload checkpoint -> crash -> restart cycle verifies its
    block digests with zero mismatches."""
    verified, failed = _dedup_restart_check()
    print(f"  restart verified {verified} blocks with {failed} mismatches")
    return (
        block["below_incremental_all"]
        and block["dedup_hit_rate"] > 0.0
        and verified > 0
        and failed == 0
    )


def _dedup_summary(block: dict) -> str:
    return (
        f"{len(block['cells'])} cells, "
        f"incremental {block['incremental_gb']}GB -> codec "
        f"{block['dedup_gb']}GB (saved {block['bytes_saved_ratio']:.1%}, "
        f"hit rate {block['dedup_hit_rate']:.1%}), "
        f"wall {block['incremental_wall_s']}s -> {block['codec_wall_s']}s"
    )


def run_replay_block(axes_specs: Sequence[str] = PINNED_GRID[1]) -> dict:
    """Capture every grid cell in-process and differentially verify
    its trace-driven replay, then time a what-if policy sweep over the
    captured traces.

    Two numbers matter: ``cells_exact`` (every cell's same-config
    replay must reproduce the live byte accounting integer-for-integer
    — the emit/serialize/replay pipeline's end-to-end oracle) and
    ``speedup`` (wall-clock of replaying a policy grid from traces vs
    simulating it live — the reason the replay engine exists).
    """
    from ..replay import capture_cell, compare_to_run

    cells = expand_grid(PINNED_GRID[0], axes_specs)
    captures = []
    exact = 0
    mismatches: List[str] = []
    t0 = time.perf_counter()
    for cell in cells:
        cap = capture_cell(cell.config)
        captures.append((cell, cap))
    live_wall = time.perf_counter() - t0
    for cell, cap in captures:
        report = compare_to_run(cap.engine().faithful(), cap.result)
        if report.matches:
            exact += 1
        else:
            mismatches.append(
                f"cell {dict(cell.overrides)}: {report.describe()}"
            )
    # what-if sweep: one captured trace per non-policy coordinate
    # (the dcpcp captures), replayed under every policy mode — the
    # same cell count as the live grid, for an honest speedup
    modes = ["none", "cpc", "dcpc", "dcpcp"]
    whatif_sources = [
        cap for cell, cap in captures if cell.config["mode"] == "dcpcp"
    ] or [cap for _, cap in captures]
    t1 = time.perf_counter()
    whatif_cells = 0
    for cap in whatif_sources:
        engine = cap.engine()
        for mode in modes:
            engine.replay(mode)
            whatif_cells += 1
    replay_wall = time.perf_counter() - t1
    return {
        "cells": len(cells),
        "cells_exact": exact,
        "mismatches": mismatches,
        "live_wall_s": round(live_wall, 4),
        "whatif_cells": whatif_cells,
        "replay_wall_s": round(replay_wall, 6),
        "speedup": _rate(live_wall, replay_wall, 1),
    }


def _replay_gate(block: dict) -> bool:
    """Every captured cell replays byte-exact."""
    return 0 < block["cells"] == block["cells_exact"]


def _replay_summary(block: dict) -> str:
    return "; ".join([
        f"{block['cells_exact']}/{block['cells']} cells byte-exact, "
        f"what-if speedup {block['speedup']}x",
        *block["mismatches"],
    ])


class Block(NamedTuple):
    """One bench block: its record, its CI-sized inputs, its acceptance."""

    #: the block's JSON-ready record; no arguments = the full pinned inputs
    run: Callable[..., dict]
    #: keyword arguments of the CI-sized run (none: the full run is CI-sized)
    smoke_inputs: Dict[str, Any]
    gate: Callable[[dict], bool]
    summary: Callable[[dict], str]


#: two pinned cells: the no-pre-copy baseline and the paper's DCPCP
_TWO_CELLS = {"axes_specs": ["nvm-gbps=2.0", "mode=none,dcpcp"]}

#: the one table of bench blocks: ``run_benchmark``, ``--smoke`` and
#: ``--block`` all iterate it, in this order
BLOCKS: Dict[str, Block] = {
    # one pinned cell serial, cold then warm (must execute nothing),
    # then every figure arm at smoke size
    "exec": Block(
        run_exec_block,
        {"axes_specs": ["nvm-gbps=2.0", "mode=dcpcp"]},
        _exec_gate,
        _exec_summary,
    ),
    # payload codec on top of incremental copy: wire bytes must drop
    "dedup": Block(run_dedup_block, _TWO_CELLS, _dedup_gate, _dedup_summary),
    # trace-driven replay: captured cells re-decided byte-exact
    "replay": Block(run_replay_block, _TWO_CELLS, _replay_gate, _replay_summary),
    # DES events/sec and run_grid's pool dispatch
    "scale": Block(run_scale_block, {}, _scale_gate, _scale_summary),
}


def run_benchmark(
    workers: int | str | None,
    cache_dir: Optional[str] = None,
    trace_path: Optional[str] = None,
) -> dict:
    """Run every block at its full pinned inputs; returns the
    JSON-ready record.

    Schema ``repro-bench/1`` keeps the execution-engine block's fields
    at the top level of the record (it is also the only block the CLI
    options reach); every other block sits under its registry name.
    """
    record = {
        "schema": "repro-bench/1",
        "version": __version__,
        "host_cpus": os.cpu_count(),
        **run_exec_block(
            workers=workers, cache_dir=cache_dir, trace_path=trace_path
        ),
    }
    for name, block in BLOCKS.items():
        if block.run is not run_exec_block:
            record[name] = block.run()
    return record


def run_smoke(names: Sequence[str]) -> int:
    """Run each named block at CI size and check its gate; 0 when every
    gate holds."""
    failed = 0
    for name in names:
        block = BLOCKS[name]
        t0 = time.perf_counter()
        record = block.run(**block.smoke_inputs)
        ok = block.gate(record)
        failed += not ok
        print(
            f"{name} smoke: {block.summary(record)}, "
            f"{time.perf_counter() - t0:.1f}s -> {'OK' if ok else 'FAIL'}"
        )
    return 1 if failed else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        prog="repro.tools.bench",
        description="Pinned benchmark subset; emits the perf-trajectory JSON.",
    )
    p.add_argument("--out", default=None,
                   help="JSON output path ('-' for stdout; default "
                        "BENCH_baseline.json, or stdout with --block)")
    p.add_argument("--workers", default="auto",
                   help="parallel worker processes ('auto' = one per CPU; "
                        "requests above the host CPU count are clamped)")
    p.add_argument("--cache-dir", default=None,
                   help="reuse a persistent cache dir (default: fresh temp dir)")
    p.add_argument("--smoke", nargs="?", const="all", default=None,
                   choices=[*BLOCKS, "all"], metavar="NAME",
                   help="run one block (or 'all', the default) at CI size, "
                        f"check its gate, and exit 0/1; blocks: {', '.join(BLOCKS)}")
    p.add_argument("--block", default=None, choices=list(BLOCKS), metavar="NAME",
                   help="run one block at its full pinned inputs and write "
                        "its record alone to --out")
    p.add_argument("--trace", default=None, metavar="OUT.JSONL",
                   help="stream the serial reference run's structured "
                        "trace (policy decisions, copies, commits) as "
                        "JSON lines to this path")
    args = p.parse_args(argv)
    if args.smoke:
        return run_smoke(list(BLOCKS) if args.smoke == "all" else [args.smoke])

    t0 = time.perf_counter()
    if args.block:
        record = BLOCKS[args.block].run()
        out, wrote = args.out or "-", f"the {args.block} block"
    else:
        record = run_benchmark(
            args.workers, cache_dir=args.cache_dir, trace_path=args.trace
        )
        record["total_wall_s"] = round(time.perf_counter() - t0, 3)
        out = args.out or "BENCH_baseline.json"
        wrote = (
            f"{record['grid']['cells']} cells, "
            f"serial {record['serial']['wall_s']}s, "
            f"engine speedup {record['speedup']}x "
            f"(parallel {record['parallel_cold']['speedup_vs_serial']}x, "
            f"cached {record['cached_rerun']['speedup_vs_serial']}x)"
        )
    payload = json.dumps(record, indent=2) + "\n"
    if out == "-":
        sys.stdout.write(payload)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(f"wrote {out}: {wrote}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
