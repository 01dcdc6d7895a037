"""DCPC: the delayed pre-copy threshold (§IV).

Starting pre-copy at the beginning of a compute interval is wasteful —
many chunks will be modified again before the checkpoint.  The paper
delays the start of pre-copy to

    ``T_c = D / NVMBW_core``       (time to move the checkpoint data)
    ``T_p = I - T_c``              (pre-copy threshold, from interval start)

where ``D`` is the per-process checkpoint size, ``I`` the checkpoint
interval and ``NVMBW_core`` the effective per-core NVM bandwidth.  Both
``D`` and ``I`` are *measured* during the first checkpoint interval
(the learning phase visible as the early spike in Fig. 10) and then
continuously adapted with exponential smoothing.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..metrics.trace import BUS, PolicyDecisionEvent

__all__ = ["MIN_MARGIN", "ThresholdEstimator"]

#: the smallest safety margin on ``T_c`` (no margin at all)
MIN_MARGIN = 1.0


class ThresholdEstimator:
    """Measures interval and checkpoint size, yields the pre-copy start
    offset ``T_p`` within each interval."""

    def __init__(
        self,
        bandwidth_per_core: float,
        smoothing: float = 0.5,
        margin: float = 1.25,
        *,
        clock: Callable[[], float] = lambda: 0.0,
        actor: str = "threshold",
    ) -> None:
        if bandwidth_per_core <= 0:
            raise ValueError("bandwidth_per_core must be positive")
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        if margin < MIN_MARGIN:
            raise ValueError("margin must be >= 1 (safety factor on T_c)")
        self.bandwidth_per_core = bandwidth_per_core
        self.smoothing = smoothing
        self.margin = margin
        self._clock = clock
        self._actor = actor
        self._interval: Optional[float] = None
        self._data_size: Optional[float] = None
        self.observations = 0

    # -- learning --------------------------------------------------------------

    def observe_interval(self, interval: float, data_bytes: float) -> None:
        """Fold one completed checkpoint interval into the estimates
        (called by the coordinator after each coordinated checkpoint)."""
        if interval <= 0:
            return
        s = self.smoothing
        if self._interval is None:
            self._interval = interval
            self._data_size = float(data_bytes)
        else:
            self._interval = s * interval + (1 - s) * self._interval
            assert self._data_size is not None
            self._data_size = s * float(data_bytes) + (1 - s) * self._data_size
        self.observations += 1

    def update_bandwidth(self, bandwidth_per_core: float) -> None:
        """Fold a fresh bandwidth probe into the estimator and recompute
        the threshold.  A nonpositive probe is a broken measurement —
        silently keeping the stale value would freeze ``T_p`` forever,
        so it raises exactly like the constructor."""
        if bandwidth_per_core <= 0:
            raise ValueError("bandwidth_per_core must be positive")
        self.bandwidth_per_core = bandwidth_per_core
        if BUS.active:
            BUS.emit(
                PolicyDecisionEvent(
                    t=self._clock(),
                    actor=self._actor,
                    chunk="*",
                    decision="recompute_threshold",
                    policy="dcpc",
                )
            )

    # -- queries --------------------------------------------------------------------

    @property
    def learned(self) -> bool:
        """False until the first interval completes; pre-copy runs
        un-delayed during the learning phase."""
        return self.observations > 0

    @property
    def interval_estimate(self) -> Optional[float]:
        return self._interval

    @property
    def data_size_estimate(self) -> Optional[float]:
        return self._data_size

    def copy_time(self) -> float:
        """``T_c = D / NVMBW_core`` with the safety margin applied."""
        if self._data_size is None:
            return 0.0
        return self.margin * self._data_size / self.bandwidth_per_core

    def threshold(self) -> float:
        """``T_p``: seconds after interval start at which pre-copy may
        begin.  0 while learning (no delay), and never negative — if
        the copy takes longer than the interval, pre-copy must run the
        whole time."""
        if not self.learned or self._interval is None:
            return 0.0
        return max(0.0, self._interval - self.copy_time())
