"""Failure injection (§III failure model).

Failures arrive as a merged Poisson process: per-node soft failures at
rate ``1/mtbf_local`` (process/OS crash — node-local NVM survives, the
application recovers from its local checkpoint) and hard failures at
rate ``1/mtbf_remote`` (node unusable — recovery needs the buddy's
remote copy).  Draws come from named RNG streams, so a run's failure
schedule is a pure function of the seed.

*Transient* failures (link flaps: the node's checkpoint-path
connectivity drops for an outage window, then heals on its own — no
state is lost, but in-flight remote transfers tear down and the
resilience layer must retry) are scripted only, through
:class:`ScriptedInjector` (``--scenario link-flap``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..config import FailureConfig
from ..sim.rng import RngStreams

__all__ = ["FailureEvent", "FailureInjector", "ScriptedInjector"]

SOFT = "soft"
HARD = "hard"
TRANSIENT = "transient"


@dataclass(frozen=True)
class FailureEvent:
    """One injected failure."""

    time: float
    node: int
    kind: str  # "soft" | "hard" | "transient"
    #: outage window for transient failures (0 for soft/hard).
    duration: float = 0.0

    @property
    def is_transient(self) -> bool:
        return self.kind == TRANSIENT


class FailureInjector:
    """Lazy generator of the cluster's failure schedule."""

    def __init__(self, config: FailureConfig, n_nodes: int, rng: Optional[RngStreams] = None) -> None:
        if n_nodes < 1:
            raise ValueError("need at least one node")
        if config.mtbf_local <= 0 or config.mtbf_remote <= 0:
            raise ValueError(
                f"MTBFs must be positive, got mtbf_local={config.mtbf_local} "
                f"mtbf_remote={config.mtbf_remote}"
            )
        self.config = config
        self.n_nodes = n_nodes
        self.rng = rng or RngStreams(config.seed)
        lam_soft = n_nodes / config.mtbf_local
        lam_hard = n_nodes / config.mtbf_remote
        self.lambda_total = lam_soft + lam_hard
        if not (self.lambda_total > 0.0) or self.lambda_total == float("inf"):
            # both MTBFs infinite (no failures ever: 0/0) or either
            # zero-like (inf rate): there is no valid failure schedule
            raise ValueError(
                "failure rates must be positive and finite "
                f"(mtbf_local={config.mtbf_local}, mtbf_remote={config.mtbf_remote})"
            )
        # extreme mtbf ratios can round the probabilities to exactly
        # 0.0 or 1.0; clamping keeps them probabilities, and
        # next_failure() treats the degenerate endpoints explicitly so
        # rng.random() == 0.0 (which `< p_soft` would misclassify at
        # p_soft == 0) cannot emit the wrong failure kind
        self.p_soft = min(1.0, max(0.0, lam_soft / self.lambda_total))
        self._clock = 0.0
        self._pending: Optional[FailureEvent] = None
        self.injected: List[FailureEvent] = []

    def next_failure(self) -> FailureEvent:
        """The next failure strictly after the previous one."""
        if self._pending is not None:
            ev, self._pending = self._pending, None
        else:
            gap = self.rng.exponential("failure.gap", 1.0 / self.lambda_total)
            self._clock += gap
            node = int(self.rng.stream("failure.node").integers(0, self.n_nodes))
            # the kind stream is always consumed (schedule determinism
            # does not depend on the kind mix), but the degenerate
            # endpoints are decided without it: numpy's random() can
            # return exactly 0.0, which `< p_soft` would turn into a
            # hard failure even when hard failures are impossible
            draw = self.rng.stream("failure.kind").random()
            if self.p_soft >= 1.0:
                kind = SOFT
            elif self.p_soft <= 0.0:
                kind = HARD
            else:
                kind = SOFT if draw < self.p_soft else HARD
            ev = FailureEvent(time=self._clock, node=node, kind=kind)
        self.injected.append(ev)
        return ev

    def peek(self) -> FailureEvent:
        """Look at the next failure without consuming it."""
        if self._pending is None:
            self._pending = self.next_failure()
            self.injected.pop()
        return self._pending

    def schedule_until(self, horizon: float) -> List[FailureEvent]:
        """All failures up to *horizon* (pre-drawn; deterministic)."""
        out: List[FailureEvent] = []
        while self.peek().time <= horizon:
            out.append(self.next_failure())
        return out

    def expected_failures(self, elapsed: float) -> float:
        return elapsed * self.lambda_total


class ScriptedInjector:
    """A drop-in :class:`FailureInjector` stand-in replaying a fixed
    event list — the deterministic way to script "kill this buddy at
    t=60" scenarios in tests and demos.

    Exposes the same ``peek``/``next_failure``/``injected`` surface the
    cluster runner consumes.  After the script is exhausted it reports
    one final event at ``t = inf`` that never fires.
    """

    _SENTINEL = FailureEvent(time=float("inf"), node=0, kind=SOFT)

    def __init__(self, events: Sequence[FailureEvent]) -> None:
        ordered = sorted(events, key=lambda e: e.time)
        for ev in ordered:
            if ev.kind not in (SOFT, HARD, TRANSIENT):
                raise ValueError(f"unknown failure kind {ev.kind!r}")
            if ev.kind == TRANSIENT and ev.duration <= 0:
                raise ValueError("transient events need a positive duration")
        self._script: List[FailureEvent] = ordered
        self._cursor = 0
        self.injected: List[FailureEvent] = []

    def peek(self) -> FailureEvent:
        if self._cursor < len(self._script):
            return self._script[self._cursor]
        return self._SENTINEL

    def next_failure(self) -> FailureEvent:
        ev = self.peek()
        if self._cursor < len(self._script):
            self._cursor += 1
        self.injected.append(ev)
        return ev
