"""Sweep grids and the one public entry point for running them.

A sweep is the cross product of option axes over the experiment-cell
surface (:mod:`repro.exec.cell`).  :class:`GridSpec` names a grid
declaratively, :func:`expand_grid` resolves every cell to its full
configuration dict (argparse defaulting applied, per-cell seed
derived), and :func:`run_grid` — the one function the CLIs and the
bench call — probes the result cache, batches the misses, runs them
(in-process, or across the persistent :class:`~repro.exec.pool.WorkerPool`)
and returns a :class:`GridResult`.  Records come back in grid order and
each cell's output depends only on its own config, so ``workers=N``
is byte-identical to ``workers=1`` for any N.

Per-cell RNG seeding: each cell's ``seed`` is derived as a stable
48-bit hash of the base ``--seed`` and the cell's *own* axis values —
never of its position in the grid or the worker that ran it.  Cells
therefore decorrelate (sweeping MTBF no longer injects the identical
failure schedule into every cell) while staying bit-reproducible across
serial/parallel execution, axis reordering, and cache round-trips.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import time
from dataclasses import dataclass, field
from typing import IO, Any, Dict, List, Optional, Sequence, Tuple, Union

from .. import __version__
from .cache import ResultCache, cache_key
from .cell import build_parser, resolve_config, run_cell
from .pool import _run_one, shared_pool

__all__ = [
    "Axes",
    "ExecutionReport",
    "GridCell",
    "GridSpec",
    "GridResult",
    "CSV_FIELDS",
    "collect_fields",
    "derive_cell_seed",
    "expand_grid",
    "flatten_record",
    "parse_sweeps",
    "resolve_workers",
    "run_grid",
    "write_csv",
]

Axes = Sequence[Tuple[str, Sequence[str]]]

#: preferred CSV column ordering; columns present in the results are
#: emitted in this order first, every other key follows in the stable
#: first-seen order of the records (nothing is ever dropped)
CSV_FIELDS = [
    "app", "policy", "remote_precopy", "n_nodes", "n_ranks", "iterations",
    "total_time_s", "ideal_time_s", "overhead_fraction",
    "local.checkpoints", "local.avg_blocking_s", "local.coordinated_gb",
    "local.precopy_gb", "local.fault_time_s",
    "remote.rounds", "remote.round_gb", "remote.stream_gb",
    "remote.helper_utilization",
    "fabric.ckpt_peak_1s_mb", "fabric.app_gb", "fabric.ckpt_gb",
    "failures.soft", "failures.hard", "failures.recovery_s",
]


def parse_sweeps(specs: Sequence[str]) -> List[Tuple[str, List[str]]]:
    """``["nvm-gbps=0.5,1.0", "mode=none,dcpcp"]`` -> axis list."""
    axes: List[Tuple[str, List[str]]] = []
    for spec in specs:
        if "=" not in spec:
            raise ValueError(f"sweep spec {spec!r} must look like name=v1,v2")
        name, _, values = spec.partition("=")
        vals = [v for v in values.split(",") if v]
        if not vals:
            raise ValueError(f"sweep spec {spec!r} has no values")
        axes.append((name.strip(), vals))
    return axes


def flatten_record(d: dict, prefix: str = "") -> dict:
    """``{"local": {"gb": 1}} -> {"local.gb": 1}`` (stable order)."""
    out: Dict[str, Any] = {}
    for key, value in d.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(flatten_record(value, prefix=f"{name}."))
        else:
            out[name] = value
    return out


def derive_cell_seed(base_seed: int, overrides: Sequence[Tuple[str, str]]) -> int:
    """Stable per-cell seed from the base seed and the cell's axis
    values (execution-order and axis-order independent)."""
    canon = ";".join(f"{k}={v}" for k, v in sorted(overrides))
    digest = hashlib.blake2b(
        f"{base_seed}:{canon}".encode("utf-8"), digest_size=6
    ).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class GridCell:
    """One fully resolved point of the sweep grid."""

    index: int
    overrides: Tuple[Tuple[str, str], ...]  # axis name -> swept value
    config: Dict[str, Any]  # resolved experiment config (hash input)

    @property
    def key(self) -> str:
        """Content address of this cell for the result cache."""
        return cache_key(self.config, __version__)


@dataclass(frozen=True)
class GridSpec:
    """A declarative sweep grid: base CLI options crossed over axes.

    The one value :func:`run_grid` takes.  Axes are given either as
    ``(name, values)`` pairs or as ``"name=v1,v2"`` sweep specs (the
    CLI form); both normalize to the same tuple-of-tuples.
    """

    base: Tuple[str, ...] = ()
    axes: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
    derive_seeds: bool = True

    @classmethod
    def of(
        cls,
        base_args: Sequence[str],
        axes: Union[Axes, Sequence[str], None] = None,
        *,
        derive_seeds: bool = True,
    ) -> "GridSpec":
        """Normalize any accepted (base, axes) shape into a spec."""
        parsed: Axes
        if axes is None:
            parsed = []
        elif axes and isinstance(axes[0], str):
            parsed = parse_sweeps(list(axes))  # "name=v1,v2" specs
        else:
            parsed = axes  # already (name, values) pairs
        return cls(
            base=tuple(base_args),
            axes=tuple((name, tuple(str(v) for v in values)) for name, values in parsed),
            derive_seeds=derive_seeds,
        )


@dataclass
class ExecutionReport:
    """What one :func:`run_grid` call executed, and how."""

    #: one raw result dict per cell, in grid order
    results: List[Dict[str, Any]] = field(default_factory=list)
    cells_total: int = 0
    cells_executed: int = 0
    cache_hits: int = 0
    #: effective worker count (after host clamping)
    workers: int = 1
    #: the count the caller asked for, before clamping
    workers_requested: int = 1
    #: dispatch batches streamed to the pool (0 = in-process run)
    batches: int = 0
    wall_s: float = 0.0

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.cells_total if self.cells_total else 0.0

    @property
    def cells_per_sec(self) -> float:
        return self.cells_total / self.wall_s if self.wall_s > 0 else 0.0


@dataclass
class GridResult:
    """The records of a grid run plus its execution accounting."""

    records: List[Dict[str, Any]]
    cells: List[GridCell]
    execution: ExecutionReport
    #: path the grid's trace was streamed to (None when not requested)
    trace_path: Optional[str] = None

    def write_csv(self, stream: IO[str]) -> None:
        """Write one CSV row per cell to an open text *stream*."""
        axes = [(name, list(values)) for name, values in self._axes]
        write_csv(self.records, axes, stream)

    @property
    def _axes(self) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
        if not self.cells:
            return ()
        return tuple(
            (name, ()) for name, _ in self.cells[0].overrides
        )


def expand_grid(
    base_args: Sequence[str],
    axes: Union[Axes, Sequence[str], None] = None,
    *,
    derive_seeds: bool = True,
) -> List[GridCell]:
    """Resolve the cross product of *axes* over *base_args* into cells.

    With ``derive_seeds`` (the default) each cell's ``seed`` option is
    replaced by :func:`derive_cell_seed` unless ``seed`` is itself a
    swept axis value for that cell.
    """
    spec = (
        base_args
        if isinstance(base_args, GridSpec)
        else GridSpec.of(base_args, axes, derive_seeds=derive_seeds)
    )
    parser = build_parser()
    names = [name for name, _ in spec.axes]
    cells: List[GridCell] = []
    for index, combo in enumerate(
        itertools.product(*(vals for _, vals in spec.axes))
    ):
        argv = list(spec.base)
        for name, value in zip(names, combo):
            argv += [f"--{name}", value]
        args = parser.parse_args(argv)
        overrides = tuple(zip(names, combo))
        if spec.derive_seeds and "seed" not in names:
            args.seed = derive_cell_seed(args.seed, overrides)
        cells.append(GridCell(index=index, overrides=overrides, config=resolve_config(args)))
    return cells


def collect_fields(records: Sequence[dict], axes: Axes) -> List[str]:
    """The CSV column set: sweep coordinates, then the preferred
    ordering, then every remaining key in stable first-seen order —
    the union over *all* records, so no metric is silently dropped."""
    sweep_cols = [f"sweep.{name}" for name, _ in axes]
    seen: Dict[str, None] = {}
    for record in records:
        for key in record:
            if key not in seen:
                seen[key] = None
    preferred = [f for f in CSV_FIELDS if f in seen]
    rest = [k for k in seen if k not in preferred and k not in sweep_cols]
    return sweep_cols + preferred + rest


def write_csv(records: Sequence[dict], axes: Axes, stream: IO[str]) -> None:
    """Write the sweep records as CSV to an open text *stream*."""
    import csv

    writer = csv.DictWriter(stream, fieldnames=collect_fields(records, axes))
    writer.writeheader()
    for record in records:
        writer.writerow(record)


def _write_grid_trace(
    target: Union[str, IO[str]],
    cells: Sequence[GridCell],
    traces: Sequence[Optional[List[str]]],
) -> None:
    """Write the per-cell captured lines as one versioned Jsonl file.

    The header's meta carries the grid shape and every cell's resolved
    config (keyed by index), then each executed cell's lines (encoded
    where the cell ran) follow in submission order — deterministic
    output whether the cells ran in-process or across the pool.
    Cache-served cells executed nothing, so they contribute no lines.
    """
    from ..metrics.trace import TRACE_VERSION, encode_line

    owns = isinstance(target, str)
    fh: IO[str] = open(target, "w", encoding="utf-8") if owns else target
    try:
        header = {
            "kind": "trace.header",
            "trace_version": TRACE_VERSION,
            "meta": {
                "source": "repro.exec.run_grid",
                "cells": [
                    {
                        "index": cell.index,
                        "overrides": dict(cell.overrides),
                        "config": cell.config,
                    }
                    for cell in cells
                ],
            },
        }
        fh.write(encode_line(header))
        for lines in traces:
            fh.writelines(lines or ())
    finally:
        if owns:
            fh.close()


#: worker-count spellings meaning "one worker per available CPU"
_AUTO_WORKERS = (None, "auto", 0, "0")

#: the misses are split into ``min(4 * workers, n)`` batches pulled by
#: whichever worker frees up first: few enough that IPC stays
#: negligible, many enough to balance heterogeneous cell times
_BATCHES_PER_WORKER = 4


def resolve_workers(workers: int | str | None) -> int:
    """The effective worker count: ``None``/``"auto"``/``0`` mean one
    per available CPU; anything else must be a positive int and is
    clamped to ``os.cpu_count()`` — extra processes on an
    oversubscribed host only add dispatch overhead."""
    host = max(1, os.cpu_count() or 1)
    if workers in _AUTO_WORKERS:
        return host
    n = int(workers)
    if n < 1:
        raise ValueError(f"workers must be >= 1 (or 'auto'), got {workers}")
    return min(n, host)


def _batch_indexes(pending: Sequence[int], n_batches: int) -> List[List[int]]:
    """Split *pending* into at most *n_batches* contiguous batches of
    near-equal size (deterministic; order-preserving)."""
    n_batches = max(1, min(n_batches, len(pending)))
    size, extra = divmod(len(pending), n_batches)
    starts = [b * size + min(b, extra) for b in range(n_batches + 1)]
    return [list(pending[lo:hi]) for lo, hi in zip(starts, starts[1:])]


def run_grid(
    grid: Union[GridSpec, Sequence[str]],
    axes: Union[Axes, Sequence[str], None] = None,
    *,
    workers: int | str | None = 1,
    cache: Union[ResultCache, str, None] = None,
    trace: Union[str, IO[str], None] = None,
    derive_seeds: bool = True,
) -> GridResult:
    """Run a whole sweep grid; the single execution entry point.

    *grid* is a :class:`GridSpec` or a base-argument list with *axes*
    alongside.  *cache* takes a :class:`ResultCache` or a directory
    path: hits never reach a worker, misses are stored after they run.
    *trace* streams every executed cell's trace events to one versioned
    Jsonl file (captured where the cell runs, in-process or in a
    worker).  *workers* is clamped to the host CPU count
    (:func:`resolve_workers`).

    Returns one flat record per cell (in grid order), each carrying its
    ``sweep.<axis>`` coordinates alongside the flattened experiment
    metrics.
    """
    cells = expand_grid(grid, axes, derive_seeds=derive_seeds)
    if isinstance(cache, (str, bytes)) or hasattr(cache, "__fspath__"):
        cache = ResultCache(cache)
    n_workers = resolve_workers(workers)
    report = ExecutionReport(
        cells_total=len(cells),
        workers=n_workers,
        workers_requested=n_workers if workers in _AUTO_WORKERS else int(workers),
    )
    t0 = time.perf_counter()
    results: List[Optional[Dict[str, Any]]] = [None] * len(cells)
    traces: List[Optional[List[str]]] = [None] * len(cells)

    # 1. cache probe — hits never reach a worker
    keys = [cell.key for cell in cells] if cache is not None else None
    pending: List[int] = []
    for i in range(len(cells)):
        cached = cache.get(keys[i]) if keys is not None else None
        if cached is not None:
            results[i] = cached
            report.cache_hits += 1
        else:
            pending.append(i)

    # 2. execute the misses: batched over the persistent pool, or
    # in-process when one worker (or one miss) makes sharding moot
    capture = trace is not None
    if n_workers > 1 and len(pending) > 1:
        batches = _batch_indexes(pending, _BATCHES_PER_WORKER * n_workers)
        report.batches = len(batches)
        answered = shared_pool(n_workers).run_batches(
            run_cell,
            [[(i, cells[i].config) for i in batch] for batch in batches],
            capture=capture,
        )
    else:
        answered = {i: _run_one(run_cell, cells[i].config, capture) for i in pending}
    for i in pending:
        results[i], traces[i] = answered[i]
        if keys is not None:
            cache.put(keys[i], results[i])
    report.cells_executed = len(pending)
    report.results = results  # type: ignore[assignment]  (all filled)
    report.wall_s = time.perf_counter() - t0

    if trace is not None:
        _write_grid_trace(trace, cells, traces)
    records: List[Dict[str, Any]] = []
    for cell, result in zip(cells, results):
        record = flatten_record(result)
        for name, value in cell.overrides:
            record[f"sweep.{name}"] = value
        records.append(record)
    return GridResult(
        records=records,
        cells=cells,
        execution=report,
        trace_path=trace if isinstance(trace, str) else None,
    )
