"""The parallel, cached experiment-execution engine.

The paper's evaluation (Figs. 5–10) is a grid of *independent*
simulations — the classic parameter-study shape.  This package turns
that shape into wall-clock wins behind one public entry point,
:func:`run_grid`:

* :mod:`~repro.exec.cell` — the experiment-cell surface: argparse
  options, canonical config resolution, and the picklable
  ``run_cell`` worker function (``repro.tools.experiment`` is a thin
  CLI wrapper over it);
* :mod:`~repro.exec.pool` — :class:`WorkerPool`, persistent daemon
  workers spawned once per session with batched cell dispatch and
  worker-side trace capture;
* :mod:`~repro.exec.cache` — :class:`ResultCache`, a content-addressed
  store keyed by the resolved cell config + ``repro.__version__``;
  re-running a sweep executes only changed cells;
* :mod:`~repro.exec.grid` — :class:`GridSpec` expansion with
  deterministic per-cell RNG seed derivation, and :func:`run_grid`
  itself: cache probe, batching, dispatch (in-process or over the
  pool); results come back in grid order, so ``workers=N`` is
  byte-identical to serial.

``repro.tools.sweep`` and ``repro.tools.bench`` are thin user-facing
wrappers over :func:`run_grid`.
"""

from .cache import ResultCache, cache_key
from .cell import build_parser, resolve_config, run_cell
from .grid import (
    ExecutionReport,
    GridCell,
    GridResult,
    GridSpec,
    derive_cell_seed,
    expand_grid,
    flatten_record,
    parse_sweeps,
    resolve_workers,
    run_grid,
)
from .pool import WorkerPool, WorkerPoolError, shared_pool, shutdown_pools

__all__ = [
    "ResultCache",
    "cache_key",
    "build_parser",
    "resolve_config",
    "run_cell",
    "ExecutionReport",
    "resolve_workers",
    "WorkerPool",
    "WorkerPoolError",
    "shared_pool",
    "shutdown_pools",
    "GridCell",
    "GridSpec",
    "GridResult",
    "derive_cell_seed",
    "expand_grid",
    "flatten_record",
    "parse_sweeps",
    "run_grid",
]
