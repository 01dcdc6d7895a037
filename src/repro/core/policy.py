"""Checkpoint scheduling policies as strategy objects (§IV).

The paper's four modes are one copy mechanism under four *scheduling
policies*.  Each policy answers one question — given a dirty chunk and
the interval clock, should it be pre-copied now, left for the
coordinated step, or skipped — via :meth:`CheckpointPolicy.decide`:

* :class:`NonePolicy`   — never pre-copy (the blocking baseline);
* :class:`PrecopyPolicy` — pre-copy any dirty chunk immediately (CPC);
* :class:`DelayedPrecopyPolicy` — pre-copy only after the learned
  threshold ``T_p = I - T_c`` within the interval (DCPC);
* :class:`PredictivePolicy` — delayed, and additionally withheld until
  the prediction table expects no further writes (DCPCP).

Mechanism-level checks (is the chunk persistent, dirty, idle on this
stream) stay in the engine; the policy sees only chunks that *could*
be copied.  Policies are looked up by mode name through
:data:`POLICIES` / :func:`resolve_policy` — adding a fifth policy is
one class plus one registry entry, not a new pipeline fork.

Policies decide *when* a chunk moves; *how much* of it moves is the
orthogonal ``copy_granularity`` axis of the config (whole dirty chunks
vs stale dirty-page extents), applied by the engine after the
decision.  Threshold recomputes surface on the trace bus as
``policy.decision`` events with ``decision="recompute_threshold"``.
"""

from __future__ import annotations

import enum
from typing import Dict, NamedTuple, Optional, Type

from ..alloc.chunk import Chunk
from ..config import PrecopyPolicy as PrecopyConfig
from ..errors import ConfigError
from .prediction import PredictionTable
from .threshold import ThresholdEstimator

__all__ = [
    "Decision",
    "IntervalClock",
    "CheckpointPolicy",
    "NonePolicy",
    "PrecopyPolicy",
    "DelayedPrecopyPolicy",
    "PredictivePolicy",
    "POLICIES",
    "policy_class",
    "resolve_policy",
    "valid_policy_names",
]

#: slack added to ``now`` before comparing against the threshold time,
#: so a wake-up scheduled *exactly at* the boundary is not lost to
#: float rounding (must match the pre-refactor eligibility check).
_EPS = 1e-12


class Decision(enum.Enum):
    """What to do with one dirty chunk right now."""

    #: copy it in the background immediately
    PRECOPY = "precopy"
    #: leave it for the coordinated checkpoint step
    COPY_AT_CHECKPOINT = "copy_at_checkpoint"
    #: do not copy it now (expected to be written again this interval)
    SKIP = "skip"


class IntervalClock(NamedTuple):
    """The policy's view of time: the current instant and the start of
    the open checkpoint interval.  Built at every pre-copy wake-up, so
    a tuple, which is cheaper to build than a frozen dataclass."""

    now: float
    interval_start: float

    def reached(self, t: float) -> bool:
        """Has the clock reached absolute time *t*?  The one gate
        comparison: delayed policies apply it to their own
        ``ready_time`` inside ``decide``, the pre-copy engine applies
        it once per wake-up before looking at any chunk."""
        return self.now + _EPS >= t


class CheckpointPolicy:
    """Strategy protocol: when does a dirty chunk move?

    Subclasses override :meth:`decide` (and :meth:`ready_time` for
    delayed variants).  ``threshold``/``prediction`` are the shared
    estimators owned by the checkpointer; policies that do not use them
    leave them ``None``.
    """

    #: registry name (also the ``PrecopyConfig.mode`` string)
    name: str = ""
    #: does this policy consume a ThresholdEstimator?  The engine builds
    #: the shared estimators from these flags — registry-keyed, so a new
    #: policy never needs a mode-string branch in the pipeline.
    needs_threshold: bool = False
    #: does this policy consume a PredictionTable?
    needs_prediction: bool = False

    def __init__(
        self,
        threshold: Optional[ThresholdEstimator] = None,
        prediction: Optional[PredictionTable] = None,
    ) -> None:
        self.threshold = threshold
        self.prediction = prediction

    def decide(self, chunk: Chunk, clock: IntervalClock) -> Decision:
        """The authority on whether *chunk* moves now.

        Time may enter only through :meth:`ready_time`; past that gate
        the answer may depend on the chunk's own write history this
        interval and on what the estimators learned at interval
        boundaries, nothing else.  The pre-copy engine relies on this:
        a chunk answered with anything but :data:`Decision.PRECOPY` is
        not asked about again until it is written or the interval
        turns."""
        raise NotImplementedError

    def ready_time(self, interval_start: float) -> float:
        """Absolute time from which this policy may return
        :data:`Decision.PRECOPY` in the interval opened at
        *interval_start*.  The pre-copy engine evaluates it once per
        wake-up: before it, no chunk is asked about at all, and the
        engine sleeps until the boundary instead of polling — writes
        do not wake it, so the answer may change only when the
        interval turns."""
        return interval_start

    @property
    def precopies(self) -> bool:
        """False only for the no-pre-copy baseline (drives the
        checkpointer's dirty-tracking switch)."""
        return True

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class NonePolicy(CheckpointPolicy):
    """No pre-copy: every dirty chunk waits for the coordinated step."""

    name = PrecopyConfig.NONE

    def decide(self, chunk: Chunk, clock: IntervalClock) -> Decision:
        return Decision.COPY_AT_CHECKPOINT

    @property
    def precopies(self) -> bool:
        return False


class PrecopyPolicy(CheckpointPolicy):
    """CPC: pre-copy any dirty chunk as soon as it is seen.

    (Strategy counterpart of the ``mode="cpc"`` config; distinct from
    the :class:`repro.config.PrecopyPolicy` *config dataclass*.)
    """

    name = PrecopyConfig.CPC

    def decide(self, chunk: Chunk, clock: IntervalClock) -> Decision:
        return Decision.PRECOPY


class DelayedPrecopyPolicy(CheckpointPolicy):
    """DCPC: pre-copy only within ``T_p`` of the expected next
    checkpoint, where ``T_p = I - T_c`` comes from the threshold
    estimator.  Until the estimator has observed one full interval the
    policy never pre-copies ('our method waits for the first checkpoint
    step to complete', §IV).  Without an estimator the delay gate is
    open from the interval start (prediction-only remote streams).
    """

    name = PrecopyConfig.DCPC
    needs_threshold = True

    def ready_time(self, interval_start: float) -> float:
        if self.threshold is None:
            return interval_start
        if not self.threshold.learned:
            return float("inf")
        return interval_start + self.threshold.threshold()

    def decide(self, chunk: Chunk, clock: IntervalClock) -> Decision:
        if not clock.reached(self.ready_time(clock.interval_start)):
            return Decision.COPY_AT_CHECKPOINT
        return Decision.PRECOPY


class PredictivePolicy(DelayedPrecopyPolicy):
    """DCPCP: delayed pre-copy, plus the per-chunk prediction table —
    a chunk expected to be written again this interval is withheld
    (:data:`Decision.SKIP`) even after the threshold passes."""

    name = PrecopyConfig.DCPCP
    needs_prediction = True

    def decide(self, chunk: Chunk, clock: IntervalClock) -> Decision:
        if not clock.reached(self.ready_time(clock.interval_start)):
            return Decision.COPY_AT_CHECKPOINT
        if self.prediction is not None and not self.prediction.eligible(chunk):
            return Decision.SKIP
        return Decision.PRECOPY


#: mode name -> policy class; the single source of mode dispatch
POLICIES: Dict[str, Type[CheckpointPolicy]] = {
    NonePolicy.name: NonePolicy,
    PrecopyPolicy.name: PrecopyPolicy,
    DelayedPrecopyPolicy.name: DelayedPrecopyPolicy,
    PredictivePolicy.name: PredictivePolicy,
}


def valid_policy_names() -> list:
    return sorted(POLICIES)


def policy_class(mode: str) -> Type[CheckpointPolicy]:
    """The policy class registered under *mode* (without instantiating
    it) — for callers that need the class flags, e.g. the engine sizing
    its estimators.  Unknown names raise :class:`ConfigError`."""
    try:
        return POLICIES[mode]
    except KeyError:
        raise ConfigError(
            f"unknown checkpoint policy {mode!r}; valid policies: "
            f"{', '.join(valid_policy_names())}"
        ) from None


def resolve_policy(
    mode: str,
    *,
    threshold: Optional[ThresholdEstimator] = None,
    prediction: Optional[PredictionTable] = None,
) -> CheckpointPolicy:
    """Instantiate the policy registered under *mode*.

    Unknown names raise :class:`~repro.errors.ConfigError` carrying the
    valid-name list — never a silent fallback to the naive baseline.
    """
    return policy_class(mode)(threshold=threshold, prediction=prediction)
