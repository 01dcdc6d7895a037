"""Capture one experiment cell with full trace recording.

The capture path is how the differential tests and the bench replay
block obtain (trace, live result) pairs: run the cell in-process with
an *unbounded* ring buffer on the bus — a bounded buffer would
silently drop early events and break the byte-exactness oracle — and
return both sides.

A capture keeps the typed events and the live result object, so it
runs the cell in this process; a grid traced across the worker pool
(``run_grid(trace=...)``) gets its cells' events as Jsonl lines made in
the workers instead (see :mod:`repro.exec.pool`).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..metrics.trace import BUS, JsonlSink, RingBufferSink, TraceEvent

__all__ = ["CapturedRun", "capture_cell"]


@dataclass
class CapturedRun:
    """A cell's trace plus the live result it must agree with."""

    events: List[TraceEvent] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)
    #: the live RunResult (with ``.cluster`` attached by the driver)
    result: Any = None

    def engine(self):
        """A :class:`~repro.replay.ReplayEngine` over this capture."""
        from . import ReplayEngine

        return ReplayEngine.from_events(self.events, meta=self.meta)

    def write_jsonl(self, target) -> None:
        """Persist the capture as a versioned Jsonl trace."""
        sink = JsonlSink(target, meta=self.meta)
        try:
            for ev in self.events:
                sink.handle(ev)
        finally:
            sink.close()


def capture_cell(
    config: Dict[str, Any], *, overrides: Optional[Dict[str, Any]] = None
) -> CapturedRun:
    """Run one resolved experiment cell under full trace capture.

    *config* is a resolved-config dict (argparse dest names, e.g. from
    :func:`repro.exec.cell.resolve_config` or a grid cell);
    *overrides* are applied on top.  The run happens on this process's
    bus with capture scoped to the run, so concurrent sinks (if any)
    still see the events too.
    """
    from ..exec.cell import build_parser, resolve_config, run_experiment

    merged = dict(config)
    if overrides:
        merged.update(overrides)
    # start from parser defaults so partial configs (tests often pin
    # only a few knobs) resolve exactly like the CLI would
    args = build_parser().parse_args([])
    for key, value in merged.items():
        setattr(args, key, value)
    meta = {"config": resolve_config(args)}
    sink = RingBufferSink(capacity=None)
    with BUS.capture(sink):
        result = run_experiment(args)
    return CapturedRun(events=list(sink.events), meta=meta, result=result)
