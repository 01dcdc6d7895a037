"""Trace-driven replay: re-run a captured checkpoint schedule without
re-executing the application.

The trace bus records everything the pipeline decided and moved
(``policy.decision`` / ``chunk.copied`` / ``commit`` events).  This
package closes the loop:

* :mod:`~repro.replay.reader` — load a trace from a Jsonl stream
  (schema-versioned) or an in-memory :class:`RingBufferSink`;
* :mod:`~repro.replay.reconstruct` — rebuild the per-rank,
  per-interval dirty-chunk activity from the copy extents;
* :mod:`~repro.replay.whatif` — re-run the schedule under a different
  policy / granularity / bandwidth against the threshold and bandwidth
  models (seconds instead of a full simulation);
* :mod:`~repro.replay.divergence` — the differential oracle: assert a
  same-config replay reproduces the live run's byte accounting
  exactly;
* :mod:`~repro.replay.capture` — run one experiment cell in-process
  with full trace capture (the test/bench entry point).

:class:`ReplayEngine` is the façade: faithful accounting for the
captured config, the what-if model for everything else.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..config import PrecopyPolicy
from ..errors import ConfigError
from .capture import CapturedRun, capture_cell
from .divergence import (
    Divergence,
    DivergenceReport,
    accounting_from_events,
    compare_to_run,
)
from .reader import TraceSource, load_source
from .reconstruct import RankWorkload, Workload, reconstruct
from .whatif import WhatIfResult, run_whatif

__all__ = [
    "CapturedRun",
    "capture_cell",
    "Divergence",
    "DivergenceReport",
    "accounting_from_events",
    "compare_to_run",
    "TraceSource",
    "load_source",
    "RankWorkload",
    "Workload",
    "reconstruct",
    "WhatIfResult",
    "run_whatif",
    "ReplayEngine",
]


class ReplayEngine:
    """One captured trace, many replays.

    ``faithful()`` re-derives the byte/timing accounting verbatim from
    the events — exact by construction, the differential-test oracle.
    ``whatif(...)`` re-runs the reconstructed schedule under different
    knobs through the model.  ``replay(...)`` picks faithful when the
    requested knobs match the captured config and the model otherwise.
    """

    def __init__(self, source, meta: Optional[Dict[str, Any]] = None) -> None:
        src = load_source(source, meta=meta)
        self.events = src.events
        self.meta = src.meta
        self._workload: Optional[Workload] = None

    # -- constructors --------------------------------------------------

    @classmethod
    def from_jsonl(cls, path) -> "ReplayEngine":
        return cls(path)

    @classmethod
    def from_events(
        cls, events, meta: Optional[Dict[str, Any]] = None
    ) -> "ReplayEngine":
        return cls(events, meta=meta)

    # -- captured-config introspection ---------------------------------

    @property
    def captured_config(self) -> Dict[str, Any]:
        """The capturing run's resolved config (empty if the trace
        carried no metadata)."""
        cfg = self.meta.get("config") if isinstance(self.meta, dict) else None
        return dict(cfg) if isinstance(cfg, dict) else {}

    def _captured(self, key: str) -> Any:
        """The captured config's value of *key*.  No cell option sets
        the threshold margin, so a captured run always ran with
        :class:`PrecopyPolicy`'s default, which the config never holds."""
        if key == "threshold_margin":
            return self.captured_config.get(key, PrecopyPolicy().threshold_margin)
        return self.captured_config.get(key)

    @property
    def workload(self) -> Workload:
        if self._workload is None:
            self._workload = reconstruct(self.events, meta=self.meta)
        return self._workload

    # -- replays -------------------------------------------------------

    def faithful(self):
        """Exact accounting of the captured schedule (the oracle)."""
        return accounting_from_events(self.events)

    def whatif(
        self,
        mode: Optional[str] = None,
        *,
        nvm_gbps: Optional[float] = None,
        copy_granularity: Optional[str] = None,
        threshold_margin: Optional[float] = None,
        codec: Optional[str] = None,
        codec_novelty: Optional[float] = None,
    ) -> WhatIfResult:
        cfg = self.captured_config
        mode = mode or cfg.get("mode")
        if mode is None:
            raise ConfigError(
                "what-if replay needs a policy mode (none in the trace meta)"
            )
        captured_gbps = cfg.get("nvm_gbps")
        scale = 1.0
        if nvm_gbps is not None:
            if not captured_gbps:
                raise ConfigError(
                    "cannot what-if nvm-gbps: the trace meta does not "
                    "record the captured bandwidth"
                )
            scale = float(nvm_gbps) / float(captured_gbps)
        kwargs = {}
        wanted_codec = codec or cfg.get("codec")
        if wanted_codec is not None:
            kwargs["codec"] = wanted_codec
        if codec_novelty is not None:
            kwargs["codec_novelty"] = codec_novelty
        return run_whatif(
            self.workload,
            mode,
            bandwidth_scale=scale,
            copy_granularity=copy_granularity or cfg.get("copy_granularity"),
            threshold_margin=threshold_margin
            if threshold_margin is not None
            else self._captured("threshold_margin"),
            **kwargs,
        )

    def matches_captured(self, **overrides: Any) -> bool:
        """True when every supplied override equals the captured
        config's value (the faithful path applies)."""
        for key, value in overrides.items():
            if value is None:
                continue
            captured = self._captured(key)
            if captured is None:
                return False
            if isinstance(value, float) or isinstance(captured, float):
                if float(value) != float(captured):
                    return False
            elif value != captured:
                return False
        return True

    def replay(
        self,
        mode: Optional[str] = None,
        *,
        nvm_gbps: Optional[float] = None,
        copy_granularity: Optional[str] = None,
        threshold_margin: Optional[float] = None,
        codec: Optional[str] = None,
        codec_novelty: Optional[float] = None,
    ) -> Dict[str, Any]:
        """One replay cell as a flat sweep-compatible record."""
        from ..units import to_GB

        faithful = codec_novelty is None and self.matches_captured(
            mode=mode,
            nvm_gbps=nvm_gbps,
            copy_granularity=copy_granularity,
            threshold_margin=threshold_margin,
            codec=codec,
        )
        if faithful:
            acc, coverage = self.faithful(), 1.0
        else:
            res = self.whatif(
                mode,
                nvm_gbps=nvm_gbps,
                copy_granularity=copy_granularity,
                threshold_margin=threshold_margin,
                codec=codec,
                codec_novelty=codec_novelty,
            )
            acc, coverage = res.accounting, res.coverage
        cfg = self.captured_config
        return {
            "app": cfg.get("app", ""),
            "policy": mode or cfg.get("mode", ""),
            "replay.faithful": faithful,
            "replay.coordinated_gb": round(to_GB(acc.coordinated_bytes), 6),
            "replay.precopy_gb": round(to_GB(acc.local_precopy_bytes), 6),
            "replay.total_gb": round(to_GB(acc.total_nvm_bytes), 6),
            "replay.saved_gb": round(to_GB(acc.bytes_saved), 6),
            "replay.blocking_s": round(acc.blocking_s, 6),
            "replay.coverage": round(coverage, 4),
            "replay.codec": codec or cfg.get("codec", "raw"),
            "replay.codec_saved_gb": round(to_GB(acc.codec_saved_bytes), 6),
        }
