"""Degraded-mode control: local-only checkpointing while a node has no
healthy remote target.

While a node's buddy is dead or unreachable, its second checkpoint
level does not exist: *every* failure in that window must be recovered
from the local level.  Following the §III model, the controller
re-solves the local checkpoint interval for the degraded regime —
:func:`degraded_local_interval` folds the remote-recoverable failure
rate into the local MTBF and re-runs
:func:`~repro.models.optimal.optimal_local_interval` over the
:class:`~repro.models.multilevel.MultilevelModel` with the remote level
effectively removed — and hands the (shorter) interval to its
``on_enter`` hook for the span of the outage.  The cluster runner's
hook writes it to the helper's config, where it sets only the helper's
pace (the re-sync's); the ranks keep their local checkpoint interval.
Once a re-sync to a healthy buddy completes (or the transient outage
heals), two-level operation and the original interval are restored.

Each closed span is published as a ``phase`` trace event (phase
``degraded``, actor ``n<id>``) and counted for metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..metrics import timeline as tl
from ..metrics.trace import emit_phase
from ..models.notation import ModelParams
from ..models.optimal import optimal_local_interval

__all__ = [
    "DEGRADED_MIN_INTERVAL",
    "DegradedModeController",
    "DegradedSpan",
    "degraded_local_interval",
]

#: stand-in MTBF for the (absent) remote level when re-solving the
#: degraded model: effectively "the remote level never helps".
_NO_REMOTE_MTBF = 1e15

#: floor (seconds) for the re-solved local-only checkpoint interval.
DEGRADED_MIN_INTERVAL = 5.0


def degraded_local_interval(
    params: ModelParams,
    *,
    min_interval: float = DEGRADED_MIN_INTERVAL,
    hi: float = 3600.0,
) -> float:
    """The local checkpoint interval to run while the remote level is
    gone.

    All failures become local-recoverable-or-fatal; we model the
    degraded regime by combining both failure rates into the local MTBF
    (``1/M = 1/M_lcl + 1/M_rmt``) and removing the remote level, then
    minimizing model total time over the interval.  The result is
    clamped to ``[min_interval, params.local_interval]`` — the degraded
    interval never exceeds the healthy one.
    """
    lam = 1.0 / params.mtbf_local + 1.0 / params.mtbf_remote
    combined_mtbf = 1.0 / lam if lam > 0 else params.mtbf_local
    degraded = params.with_(
        mtbf_local=combined_mtbf,
        mtbf_remote=_NO_REMOTE_MTBF,
        remote_noise_fraction=0.0,
    )
    lo = max(1e-3, min(min_interval, params.local_interval * 0.5))
    hi = max(hi, params.local_interval)
    best, _ = optimal_local_interval(degraded, lo=lo, hi=hi)
    return max(min_interval, min(best, params.local_interval))


@dataclass
class DegradedSpan:
    """One contiguous window without a healthy remote target."""

    start: float
    reason: str
    end: Optional[float] = None
    interval: Optional[float] = None

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


@dataclass
class DegradedStats:
    entries: int = 0
    exits: int = 0
    total_time: float = 0.0


class DegradedModeController:
    """Tracks one node's degraded/restored state and applies the
    re-solved interval through caller-provided hooks."""

    def __init__(
        self,
        node_id: int,
        *,
        clock: Callable[[], float],
        normal_interval: float,
        solve_interval: Optional[Callable[[], float]] = None,
        on_enter: Optional[Callable[[float], None]] = None,
        on_exit: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.node_id = node_id
        self.actor = f"n{node_id}"
        self._clock = clock
        self.normal_interval = normal_interval
        #: computes the degraded interval; defaults to half the normal
        #: interval when no model inputs are available
        self._solve = solve_interval or (lambda: max(1.0, normal_interval / 2.0))
        self.on_enter = on_enter
        self.on_exit = on_exit
        self.active = False
        self.degraded_interval: Optional[float] = None
        self.spans: List[DegradedSpan] = []
        self.stats = DegradedStats()

    # ------------------------------------------------------------------
    # Transitions (idempotent).
    # ------------------------------------------------------------------

    def enter(self, reason: str) -> bool:
        """Drop to local-only checkpointing.  Returns True on a real
        transition, False if already degraded."""
        if self.active:
            return False
        now = self._clock()
        self.active = True
        self.degraded_interval = self._solve()
        self.spans.append(
            DegradedSpan(start=now, reason=reason, interval=self.degraded_interval)
        )
        self.stats.entries += 1
        if self.on_enter is not None:
            self.on_enter(self.degraded_interval)
        return True

    def exit(self) -> bool:
        """Restore two-level operation and the original interval."""
        if not self.active:
            return False
        now = self._clock()
        self.active = False
        span = self.spans[-1]
        span.end = now
        self.stats.exits += 1
        self.stats.total_time += span.duration
        emit_phase(self.actor, tl.DEGRADED, span.start, now)
        if self.on_exit is not None:
            self.on_exit(self.normal_interval)
        return True

    def finalize(self) -> None:
        """Close a still-open span at job end (keeps the trace and
        totals consistent if the run finishes degraded)."""
        if self.active:
            self.exit()

    # ------------------------------------------------------------------
    # Accounting.
    # ------------------------------------------------------------------

    @property
    def degraded_time(self) -> float:
        return self.stats.total_time

    @property
    def entries(self) -> int:
        return self.stats.entries
