"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.config import (
    BandwidthModelConfig,
    CheckpointConfig,
    ClusterConfig,
    DRAM_CONFIG,
    NodeConfig,
    PCM_CONFIG,
    PrecopyPolicy,
)
from repro.core.context import make_standalone_context
from repro.exec import shutdown_pools
from repro.alloc.nvmalloc import NVAllocator
from repro.memory.device import MemoryDevice
from repro.memory.nvmm import NVMKernelManager
from repro.memory.persistence import InMemoryStore
from repro.sim.engine import Engine
from repro.units import GB_per_sec, MB


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def store():
    return InMemoryStore()


@pytest.fixture
def nvmm(store):
    return NVMKernelManager(store=store)


@pytest.fixture
def dram():
    return MemoryDevice(DRAM_CONFIG)


@pytest.fixture
def ctx():
    """A standalone single-node context with its own engine."""
    return make_standalone_context(name="testnode")


@pytest.fixture
def allocator(ctx):
    """A real-data allocator bound to the standalone context."""
    return NVAllocator(
        "p0", ctx.nvmm, ctx.dram, clock=lambda: ctx.engine.now
    )


@pytest.fixture
def phantom_allocator(ctx):
    """A phantom (size-only) allocator for simulation-style tests."""
    return NVAllocator(
        "p0", ctx.nvmm, ctx.dram, phantom=True, clock=lambda: ctx.engine.now
    )


def run_proc(engine, gen, until=None):
    """Run a generator process to completion and return its value."""
    proc = engine.process(gen)
    engine.run(until=until)
    assert proc.triggered, "process did not finish"
    return proc.value


def container_ids(value) -> set:
    """ids of every dict and list anywhere inside *value* (itself
    included) — two values share a mutable object iff these meet."""
    if isinstance(value, dict):
        return {id(value)}.union(*map(container_ids, value.values()))
    if isinstance(value, (list, tuple)):
        own = {id(value)} if isinstance(value, list) else set()
        return own.union(*map(container_ids, value))
    return set()


def gtc_cell(small_chunks: int, mode: str = "dcpcp") -> dict:
    """The many-small-chunks GTC cell (perfbench's ``gtc-manychunk``
    shape) as a ``run_cell`` config — the scaling guards count work on
    it at two chunk counts."""
    from repro.exec.cell import build_parser

    argv = (
        "--app gtc --nodes 2 --ranks-per-node 1 --iterations 3 --local-interval 20 "
        f"--remote-interval 60 --mode {mode} --small-chunks {small_chunks} --nvm-gbps 1.0"
    )
    return vars(build_parser().parse_args(argv.split()))


@pytest.fixture
def wide_host(monkeypatch):
    """Make ``run_grid`` see an 8-CPU host, so ``workers=N`` really
    crosses the worker pool whatever the machine running the tests."""
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    yield
    shutdown_pools()  # do not leave 4-wide pools behind on a small host


@pytest.fixture
def assert_replay_matches():
    """The differential-replay oracle as a reusable assertion: capture
    a cell (or take an existing capture), replay it faithfully, and
    fail with the full divergence report if any byte diverges."""
    from repro.replay import CapturedRun, capture_cell, compare_to_run

    def check(config_or_capture) -> CapturedRun:
        cap = (
            config_or_capture
            if isinstance(config_or_capture, CapturedRun)
            else capture_cell(config_or_capture)
        )
        report = compare_to_run(cap.engine().faithful(), cap.result)
        assert report.matches, report.describe()
        return cap

    return check
