"""Shared helpers for the benchmark harness.

Every ``bench_*.py`` regenerates one table or figure of the paper.
A cluster figure is a declaration, ``repro.tools.bench.FIGURE_GRIDS``
(named arms of base argv + sweep axes); its bench runs the arms through
``run_grid`` and keeps only the summariser: tables, series and shape
asserts.  Benchmarks run the experiment once (``benchmark.pedantic``
with one round — the simulations are deterministic, re-running them
only burns time) and print the reproduced rows/series uncaptured so
``pytest benchmarks/ --benchmark-only`` output contains the artifacts.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

import pytest

from repro.cluster import RunResult
from repro.exec.cell import run_collected
from repro.exec.grid import expand_grid, run_grid
from repro.tools.bench import figure_specs


@pytest.fixture
def report(capsys):
    """Print a reproduction artifact past pytest's capture."""

    def _report(*blocks):
        with capsys.disabled():
            print()
            for block in blocks:
                print(block)
                print()

    return _report


def run_figure(name: str) -> Dict[str, List[dict]]:
    """Every arm of ``FIGURE_GRIDS[name]`` across the worker pool:
    arm -> its flat records, in grid order."""
    return {
        arm: run_grid(spec, workers="auto").records
        for arm, spec in figure_specs(name).items()
    }


def measure_figure(name: str, measure: Callable[[RunResult], Any]) -> Dict[str, List[Any]]:
    """``measure`` of every cell of ``FIGURE_GRIDS[name]``, for figures
    that read simulator state no record carries: arm -> one value per
    cell, in grid order."""
    return {
        arm: [run_collected(cell.config, measure) for cell in expand_grid(spec)]
        for arm, spec in figure_specs(name).items()
    }


def nvm_gb(record: dict) -> float:
    """Checkpoint data copied to NVM (coordinated + pre-copied), GB."""
    return record["local.coordinated_gb"] + record["local.precopy_gb"]


def once(benchmark, fn):
    """Run *fn* exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
