"""Online checkpoint tuning (extension).

The paper takes its intervals from Dong et al.'s offline estimates
(30-100 s) and learns the DCPC(P) pre-copy threshold once, from the
first checkpoint interval.  This module closes both loops at runtime:

* :class:`IntervalTuner` estimates the failure rate from *observed*
  failures (exponential MLE with a prior, so the estimate is sane
  before the first failure) and the checkpoint cost from *measured*
  coordinated-step durations, then recommends Young's optimum
  ``I* = sqrt(2 * t_ckpt * MTBF)`` (or Daly's refinement), clamped to
  a configurable band;
* :class:`OnlinePolicyTuner` runs a small bandit (decaying
  epsilon-greedy or UCB1) over the four scheduling-policy modes and
  hot-swaps the :class:`~repro.core.engine.CheckpointEngine` policy
  between intervals, so a nonstationary workload is not stuck with a
  first-interval decision.  It consumes live statistics through the
  trace-bus subscriber API (pre-copy traffic per interval) plus the
  engine's ``on_complete`` stats, and surfaces every switch as an
  ``autotune.switch`` trace event.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence

from ..config import AutotuneConfig
from ..errors import ConfigError
from ..metrics.trace import BUS, AutotuneSwitchEvent, ChunkCopiedEvent
from ..models.optimal import daly_interval, young_interval

__all__ = ["IntervalTuner", "OnlinePolicyTuner"]


class IntervalTuner:
    """Adaptive checkpoint-interval recommendation."""

    def __init__(
        self,
        initial_interval: float,
        *,
        prior_mtbf: float = 3600.0,
        prior_weight: float = 1.0,
        min_interval: float = 5.0,
        max_interval: float = 600.0,
        smoothing: float = 0.3,
        use_daly: bool = False,
    ) -> None:
        if initial_interval <= 0:
            raise ValueError("initial_interval must be positive")
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        if min_interval <= 0 or max_interval < min_interval:
            raise ValueError("need 0 < min_interval <= max_interval")
        self.interval = initial_interval
        self.prior_mtbf = prior_mtbf
        self.prior_weight = prior_weight
        self.min_interval = min_interval
        self.max_interval = max_interval
        self.smoothing = smoothing
        self.use_daly = use_daly
        self._ckpt_cost: Optional[float] = None
        self.failures: List[float] = []
        self._observed_time = 0.0

    # ------------------------------------------------------------------
    # Observations.
    # ------------------------------------------------------------------

    def observe_checkpoint(self, duration: float) -> None:
        """Fold one measured coordinated-checkpoint duration in."""
        if duration <= 0:
            return
        if self._ckpt_cost is None:
            self._ckpt_cost = duration
        else:
            s = self.smoothing
            self._ckpt_cost = s * duration + (1 - s) * self._ckpt_cost

    def observe_failure(self, now: float) -> None:
        """Record a failure at virtual time *now*."""
        self.failures.append(now)
        self._observed_time = max(self._observed_time, now)

    def observe_progress(self, now: float) -> None:
        """Record failure-free progress up to *now* (keeps the MTBF
        estimate honest when nothing goes wrong)."""
        self._observed_time = max(self._observed_time, now)

    # ------------------------------------------------------------------
    # Estimates.
    # ------------------------------------------------------------------

    @property
    def checkpoint_cost(self) -> Optional[float]:
        return self._ckpt_cost

    def mtbf_estimate(self) -> float:
        """Bayesian-flavoured exponential MLE: the prior contributes
        ``prior_weight`` pseudo-failures over ``prior_weight *
        prior_mtbf`` pseudo-time, so the estimate starts at the prior
        and converges to observed elapsed/failures."""
        pseudo_failures = self.prior_weight + len(self.failures)
        pseudo_time = self.prior_weight * self.prior_mtbf + self._observed_time
        return pseudo_time / pseudo_failures

    def recommended_interval(self) -> float:
        """Young/Daly optimum from the current estimates, clamped."""
        if self._ckpt_cost is None:
            return self.interval
        mtbf = self.mtbf_estimate()
        if self.use_daly:
            target = daly_interval(self._ckpt_cost, mtbf)
        else:
            target = young_interval(self._ckpt_cost, mtbf)
        target = min(self.max_interval, max(self.min_interval, target))
        # smooth the applied interval so the schedule does not thrash
        s = self.smoothing
        self.interval = s * target + (1 - s) * self.interval
        return self.interval


class OnlinePolicyTuner:
    """Per-rank bandit over the pre-copy policy modes.

    Each completed checkpoint interval is one bandit pull of the mode
    that ran it.  The pull's cost is

        ``blocking_duration + waste_weight * precopy_bytes / bandwidth``

    — the coordinated step's application stall plus the (weighted) bus
    seconds the background stream spent, so a mode that hides the
    checkpoint *and* a mode that floods the bus both pay their true
    price.  Blocking time comes from the engine's ``on_complete``
    stats; pre-copy traffic is metered live off the trace bus through
    the subscriber API (``chunk.copied`` events from this rank's
    pre-copy actor).

    After folding the cost in, the tuner picks the next interval's arm
    (decaying epsilon-greedy, or UCB1 with ``strategy="ucb"``) and
    hot-swaps the engine via
    :meth:`~repro.core.engine.CheckpointEngine.set_policy`, emitting an
    ``autotune.switch`` trace event.  With ``nudge_margin`` it also
    walks the DCPC threshold margin while a threshold arm is held.

    The tuner only needs ``policy.mode`` / ``set_policy`` /
    ``on_complete`` from its engine, so tests can drive it with a stub.
    """

    def __init__(
        self,
        engine,
        *,
        arms: Sequence[str] = ("none", "cpc", "dcpc", "dcpcp"),
        strategy: str = "epsilon",
        epsilon: float = 0.3,
        epsilon_decay: float = 0.95,
        ucb_c: float = 0.5,
        waste_weight: float = 0.5,
        nudge_margin: bool = False,
        margin_step: float = 0.1,
        seed: int = 0,
        bandwidth: Optional[float] = None,
        bus=BUS,
    ) -> None:
        if strategy not in ("epsilon", "ucb"):
            raise ConfigError(
                f"unknown autotune strategy {strategy!r}; expected 'epsilon' or 'ucb'"
            )
        if not arms:
            raise ConfigError("autotune needs at least one arm")
        self.engine = engine
        self.arms = tuple(arms)
        self.strategy = strategy
        self.epsilon = epsilon
        self.epsilon_decay = epsilon_decay
        self.ucb_c = ucb_c
        self.waste_weight = waste_weight
        self.nudge_margin = nudge_margin
        self.margin_step = margin_step
        self.rng = random.Random(seed)
        self.bus = bus
        if bandwidth is None:
            try:
                bandwidth = engine.ctx.effective_nvm_bw_per_core()
            except AttributeError:
                bandwidth = 1.0
        self.bandwidth = max(1e-9, bandwidth)
        #: the arm the *open* interval is running under
        self.current: str = engine.policy.mode
        self.pulls: Dict[str, int] = {arm: 0 for arm in self.arms}
        self.mean_cost: Dict[str, float] = {arm: 0.0 for arm in self.arms}
        self.intervals_seen = 0
        #: applied switches as (t, from_mode, to_mode) tuples
        self.switches: List[tuple] = []
        self.nudges = 0
        self._interval_precopy_bytes = 0
        self._precopy_actor = f"{getattr(engine, 'tag', 'rank')}:precopy"
        self._subscription = None
        self._attached = False

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def attach(self) -> "OnlinePolicyTuner":
        """Hook the live run: subscribe to the trace bus and observe
        completed intervals.  Idempotent pairing with :meth:`detach`."""
        if self._attached:
            return self
        self._subscription = self.bus.subscribe(
            self._on_trace_event, kinds=("chunk.copied",)
        )
        self.engine.on_complete.append(self._on_interval_complete)
        self._attached = True
        return self

    def detach(self) -> None:
        if not self._attached:
            return
        if self._subscription is not None:
            self.bus.unsubscribe(self._subscription)
            self._subscription = None
        try:
            self.engine.on_complete.remove(self._on_interval_complete)
        except ValueError:
            pass
        self._attached = False

    # ------------------------------------------------------------------
    # Live statistics.
    # ------------------------------------------------------------------

    def _on_trace_event(self, event) -> None:
        if (
            isinstance(event, ChunkCopiedEvent)
            and event.phase == "precopy"
            and event.actor == self._precopy_actor
        ):
            self._interval_precopy_bytes += event.nbytes

    def _now(self) -> float:
        try:
            return self.engine.ctx.engine.now
        except AttributeError:
            return float(self.intervals_seen)

    def interval_cost(self, stats) -> float:
        """The closing interval's bandit cost (see class docstring)."""
        waste_s = self._interval_precopy_bytes / self.bandwidth
        return stats.duration + self.waste_weight * waste_s

    # ------------------------------------------------------------------
    # The bandit.
    # ------------------------------------------------------------------

    def observe(self, arm: str, cost: float) -> None:
        """Fold one pull's cost into the arm's running mean."""
        if arm not in self.pulls:
            self.pulls[arm] = 0
            self.mean_cost[arm] = 0.0
        n = self.pulls[arm] + 1
        self.pulls[arm] = n
        self.mean_cost[arm] += (cost - self.mean_cost[arm]) / n

    def choose(self) -> str:
        """Pick the next interval's arm."""
        unseen = [a for a in self.arms if self.pulls.get(a, 0) == 0]
        if unseen:
            # forced first tour: every arm gets one pull before the
            # exploit/explore trade-off starts
            return unseen[0]
        if self.strategy == "epsilon":
            if self.rng.random() < self.epsilon:
                return self.rng.choice(self.arms)
            return min(self.arms, key=lambda a: self.mean_cost[a])
        # UCB1 on costs: optimism = subtract the confidence radius
        total = max(1, sum(self.pulls[a] for a in self.arms))
        return min(
            self.arms,
            key=lambda a: self.mean_cost[a]
            - self.ucb_c * math.sqrt(2.0 * math.log(total) / self.pulls[a]),
        )

    # ------------------------------------------------------------------
    # Interval boundary: update, maybe switch, maybe nudge.
    # ------------------------------------------------------------------

    def _on_interval_complete(self, stats) -> None:
        cost = self.interval_cost(stats)
        self._interval_precopy_bytes = 0
        arm = self.current
        self.observe(arm, cost)
        self.intervals_seen += 1
        self.epsilon *= self.epsilon_decay
        nxt = self.choose()
        now = self._now()
        if nxt != arm:
            self.engine.set_policy(nxt)
            self.current = nxt
            self.switches.append((now, arm, nxt))
            if self.bus.active:
                self.bus.emit(
                    AutotuneSwitchEvent(
                        t=now,
                        actor=str(getattr(self.engine, "tag", "tuner")),
                        from_policy=arm,
                        to_policy=nxt,
                        reason="bandit",
                        reward=-cost,
                    )
                )
        elif self.nudge_margin:
            self._maybe_nudge(arm, cost, now)

    def _maybe_nudge(self, arm: str, cost: float, now: float) -> None:
        threshold = getattr(self.engine, "threshold", None)
        if threshold is None or not getattr(
            self.engine.decision_policy, "needs_threshold", False
        ):
            return
        # costlier-than-usual interval: start pre-copy earlier (larger
        # margin inflates T_c, pulling T_p forward); cheaper: back off
        delta = self.margin_step if cost > self.mean_cost[arm] else -self.margin_step
        before = threshold.margin
        after = threshold.nudge_margin(delta)
        if after != before:
            self.nudges += 1
            if self.bus.active:
                self.bus.emit(
                    AutotuneSwitchEvent(
                        t=now,
                        actor=str(getattr(self.engine, "tag", "tuner")),
                        from_policy=arm,
                        to_policy=arm,
                        reason="nudge",
                        reward=-cost,
                    )
                )

    # ------------------------------------------------------------------
    # Construction from config.
    # ------------------------------------------------------------------

    @classmethod
    def from_config(
        cls,
        engine,
        config: AutotuneConfig,
        *,
        seed_offset: int = 0,
        bandwidth: Optional[float] = None,
    ) -> "OnlinePolicyTuner":
        return cls(
            engine,
            strategy=config.strategy,
            seed=config.seed + seed_offset,
            bandwidth=bandwidth,
        )
