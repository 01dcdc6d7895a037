"""Sweep grids and the one public entry point for running them.

A sweep is the cross product of option axes over the experiment-cell
surface (:mod:`repro.exec.cell`).  :class:`GridSpec` names a grid
declaratively, :func:`expand_grid` resolves every cell to its full
configuration dict (argparse defaulting applied, per-cell seed
derived), and :func:`run_grid` — the facade the CLIs and the bench are
thin wrappers over — pushes the cells through a
:class:`~repro.exec.executor.ParallelExecutor` and returns a
:class:`GridResult`.

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
import json
from dataclasses import dataclass
from typing import IO, Any, Dict, List, Optional, Sequence, Tuple, Union

from .. import __version__
from .cache import ResultCache, cache_key
from .cell import build_parser, resolve_config, run_cell
from .executor import ExecutionReport, ParallelExecutor

__all__ = [
    "Axes",
    "GridCell",
    "GridSpec",
    "GridResult",
    "CSV_FIELDS",
    "collect_fields",
    "derive_cell_seed",
    "expand_grid",
    "flatten_record",
    "parse_sweeps",
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

    @property
    def n_cells(self) -> int:
        n = 1
        for _, values in self.axes:
            n *= len(values)
        return n


@dataclass
class GridResult:
    """The records of a grid run plus the executor's accounting."""

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
    execution: ExecutionReport,
) -> None:
    """Stream the per-cell captured events as one versioned Jsonl file.

    The header's meta carries the grid shape and every cell's resolved
    config (keyed by index), then each executed cell's events follow in
    submission order — deterministic output whether the cells ran
    in-process or across the pool.  Cache-served cells executed
    nothing, so they contribute no events.
    """
    from ..metrics.trace import TRACE_VERSION

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
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for records in execution.trace_records:
            for record in records or ():
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    finally:
        if owns:
            fh.close()


def run_grid(
    grid: Union[GridSpec, Sequence[str]],
    axes: Union[Axes, Sequence[str], None] = None,
    *,
    workers: int | str | None = 1,
    cache: Union[ResultCache, str, None] = None,
    trace: Union[str, IO[str], None] = None,
    derive_seeds: bool = True,
    mp_start: Optional[str] = None,
    clamp: bool = True,
    executor: Optional[ParallelExecutor] = None,
) -> GridResult:
    """Run a whole sweep grid; the single public execution entry point.

    *grid* is a :class:`GridSpec` (preferred) or a base-argument list
    with *axes* alongside — the historical calling form, still
    accepted.  *cache* takes a :class:`ResultCache` or a directory
    path; *trace* streams every executed cell's trace events to one
    versioned Jsonl file (captured inside the workers, so it works
    under parallel execution too); *workers* is clamped to the host CPU
    count unless ``clamp=False``.  Pass *executor* to reuse a
    configured :class:`ParallelExecutor` (its workers/cache win).

    Returns one flat record per cell (in grid order), each carrying its
    ``sweep.<axis>`` coordinates alongside the flattened experiment
    metrics.
    """
    spec = grid if isinstance(grid, GridSpec) else GridSpec.of(
        grid, axes, derive_seeds=derive_seeds
    )
    cells = expand_grid(spec)
    if isinstance(cache, (str, bytes)) or hasattr(cache, "__fspath__"):
        cache = ResultCache(cache)
    ex = executor or ParallelExecutor(
        workers, cache=cache, mp_start=mp_start, clamp=clamp
    )
    report = ex.run(
        run_cell,
        [cell.config for cell in cells],
        keys=[cell.key for cell in cells] if ex.cache is not None else None,
        capture_trace=trace is not None,
    )
    if trace is not None:
        _write_grid_trace(trace, cells, report)
    records: List[Dict[str, Any]] = []
    for cell, result in zip(cells, report.results):
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
