"""Deterministic crash-point fault injection and crash-consistency
checking.

Layering: :mod:`~repro.faults.crashpoints` (the registry + ``fire()``
hook) depends only on :mod:`repro.errors` and is imported by the memory
substrate and the allocator — the lowest layers of the stack.  The
checker and harness sit *above* core/alloc, so they are exposed lazily
here to keep ``import repro.faults`` (what the instrumented layers pull
in transitively) cycle-free.
"""

from __future__ import annotations

from .crashpoints import (
    ARMED,
    BITROT_CAPABLE,
    CrashPoint,
    FaultInjector,
    REGISTRY,
    all_points,
    fire,
    install,
    point,
)
from .plan import KIND_BITROT, KIND_CRASH, FaultPlan, ScriptedFault

__all__ = [
    "ARMED",
    "BITROT_CAPABLE",
    "CrashPoint",
    "FaultInjector",
    "REGISTRY",
    "all_points",
    "fire",
    "install",
    "point",
    "KIND_BITROT",
    "KIND_CRASH",
    "FaultPlan",
    "ScriptedFault",
    # lazy (import cycles: these pull in core/alloc):
    "payload_digest",
    "Violation",
    "ConsistencyReport",
    "ConsistencyChecker",
    "OracleRecorder",
    "CrashRunResult",
    "CrashConsistencyHarness",
    "matrix_case",
    "random_case",
    "matrix_points",
    "CONSISTENT_OUTCOMES",
    "OUTCOME_NO_CRASH",
    "OUTCOME_CONSISTENT",
    "OUTCOME_INFLIGHT",
    "OUTCOME_MIXED",
    "OUTCOME_REMOTE",
    "OUTCOME_UNRECOVERABLE",
]

_CHECKER = ("payload_digest", "Violation", "ConsistencyReport", "ConsistencyChecker")
_HARNESS = (
    "OracleRecorder",
    "CrashRunResult",
    "CrashConsistencyHarness",
    "matrix_case",
    "random_case",
    "matrix_points",
    "CONSISTENT_OUTCOMES",
    "OUTCOME_NO_CRASH",
    "OUTCOME_CONSISTENT",
    "OUTCOME_INFLIGHT",
    "OUTCOME_MIXED",
    "OUTCOME_REMOTE",
    "OUTCOME_UNRECOVERABLE",
)


def __getattr__(name: str):
    if name in _CHECKER:
        from . import checker

        return getattr(checker, name)
    if name in _HARNESS:
        from . import harness

        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
