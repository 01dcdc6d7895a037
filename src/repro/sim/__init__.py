"""Deterministic discrete-event simulation engine.

A compact, SimPy-like kernel purpose-built for this reproduction:

* :class:`~repro.sim.engine.Engine` — event loop with a virtual clock;
* generator-based *processes* (:class:`~repro.sim.engine.Process`) that
  ``yield`` events to wait;
* :mod:`~repro.sim.resources` — a CPU busy-time ledger and a
  **processor-sharing bandwidth** resource used to model the NVM memory
  bus and the interconnect, which is where all the contention phenomena
  in the paper come from;
* :mod:`~repro.sim.rng` — named, seeded random streams so every
  experiment is reproducible.
"""

from .engine import Engine, Process
from .events import AllOf, AnyOf, Event, Timeout, Wake
from .resources import (
    BandwidthResource,
    CpuCores,
    FlowHandle,
    UsageMeter,
    UtilizationTracker,
)
from .rng import RngStreams

__all__ = [
    "Engine",
    "Process",
    "Event",
    "Timeout",
    "Wake",
    "AllOf",
    "AnyOf",
    "CpuCores",
    "BandwidthResource",
    "FlowHandle",
    "UsageMeter",
    "UtilizationTracker",
    "RngStreams",
]
