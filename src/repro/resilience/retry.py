"""Retrying wrappers around :func:`rdma_put`/:func:`rdma_get`.

A resilient transfer is a *generator* (multi-step DES fragment, used as
``yield from transport.put(...)``) that re-issues the underlying RDMA
operation until it completes, the attempt budget runs out, or the
deadline passes:

* each attempt gets a unique tag prefix (``a<seq>~<tag>``) so a stalled
  attempt can be cancelled precisely without touching concurrent flows;
  the trailing ``:<kind>`` suffix is preserved, so per-kind fabric
  accounting (Fig. 10) still sees the traffic under its real kind;
* a per-attempt stall timeout cancels the in-flight flows and re-issues
  the transfer (the "cancel and re-issue stalled flows" half of the
  policy);
* backoff between attempts is capped exponential with jitter drawn from
  a *named RNG stream*, so retry schedules are a pure function of the
  seed and adding retries to one node never perturbs another node's
  randomness;
* a transfer that succeeds on its first attempt consumes **no** RNG
  draws and finishes at the same virtual time as a bare ``rdma_put`` —
  the success path is behaviour-identical.

Exhaustion raises :class:`~repro.errors.TransferFailed` (a
:class:`~repro.errors.NetworkError`), which callers treat as "this
peer is gone" rather than "one flow tore down".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import TransferCancelled, TransferFailed
from ..metrics.trace import BUS, RetryEvent
from ..net.interconnect import Fabric
from ..net.rdma import cancel_rdma, rdma_get, rdma_put
from ..sim.events import Event
from ..sim.resources import BandwidthResource
from ..sim.rng import RngStreams

__all__ = ["RetryPolicy", "TransferStats", "ResilientTransport"]


@dataclass(frozen=True)
class RetryPolicy:
    """Deadline + capped exponential backoff with jitter."""

    #: attempts before giving up with TransferFailed.
    max_attempts: int = 8
    #: first backoff delay (seconds).
    base_delay: float = 0.5
    #: cap on any single backoff delay.
    max_delay: float = 8.0
    #: multiplicative backoff growth per attempt.
    backoff: float = 2.0
    #: +/- fraction of each delay randomized (0 disables jitter).
    jitter: float = 0.25
    #: per-attempt stall timeout; ``None`` waits forever.
    timeout: Optional[float] = 60.0
    #: total virtual-time budget per transfer; ``None`` = unlimited.
    deadline: Optional[float] = 300.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValueError("need 0 <= base_delay <= max_delay")
        if self.backoff < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        for name in ("timeout", "deadline"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive or None, got {value!r}")

    def backoff_delay(self, attempt: int, rng, stream: str) -> float:
        """Delay before re-issuing after failed attempt *attempt*
        (0-based).  Jitter comes from the named stream on *rng*."""
        delay = min(self.max_delay, self.base_delay * self.backoff**attempt)
        if self.jitter > 0.0 and delay > 0.0:
            u = float(rng.stream(stream).random())  # uniform [0, 1)
            delay *= 1.0 + self.jitter * (2.0 * u - 1.0)
        return delay


@dataclass
class TransferStats:
    """Counters over one transport's resilient transfers."""

    transfers: int = 0
    delivered: int = 0
    retries: int = 0
    timeouts: int = 0
    cancelled: int = 0
    abandoned: int = 0
    retried_bytes: float = 0.0
    backoff_time: float = 0.0


class ResilientTransport:
    """Per-node bundle of (policy, RNG stream, stats, tag sequence)
    offering :meth:`put`/:meth:`get` generators.

    One transport per node keeps attempt tags unique within the node
    and gives every node an independent jitter stream
    (``resilience.backoff.n<id>``), so retry randomness on one node
    never shifts another node's schedule.
    """

    def __init__(
        self,
        node_id: int,
        rng: RngStreams,
        policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.node_id = node_id
        self.rng = rng
        self.policy = policy or RetryPolicy()
        self.stream = f"resilience.backoff.n{node_id}"
        self.stats = TransferStats()
        #: attempt sequence: unique tags across the node
        self._seq = 0

    def put(
        self, fabric, src, dst, nbytes, *, tag="", dst_nvm_bus=None, dst_nvm_bytes=None
    ):
        """Retrying :func:`rdma_put` (generator; ``yield from`` it).
        Returns the elapsed transfer time on success; raises
        :class:`TransferFailed` when the policy budget is exhausted.

        *dst_nvm_bytes* (optional) decouples the NVM-bus volume from
        the wire volume — compressed sends move fewer bytes over the
        fabric than they land on the buddy's NVM."""


        def issue(attempt_tag: str) -> Event:
            return rdma_put(
                fabric,
                src,
                dst,
                nbytes,
                tag=attempt_tag,
                dst_nvm_bus=dst_nvm_bus,
                dst_nvm_bytes=dst_nvm_bytes,
            )

        return self._attempts(issue, fabric, src, dst, nbytes, tag, dst_nvm_bus)

    def get(self, fabric, src, dst, nbytes, *, tag="", src_nvm_bus=None):
        """Retrying :func:`rdma_get` (generator; ``yield from`` it)."""


        def issue(attempt_tag: str) -> Event:
            return rdma_get(
                fabric, src, dst, nbytes, tag=attempt_tag, src_nvm_bus=src_nvm_bus
            )

        return self._attempts(issue, fabric, src, dst, nbytes, tag, src_nvm_bus)

    def _attempts(
        self,
        issue: Callable[[str], Event],
        fabric: Fabric,
        src: int,
        dst: int,
        nbytes: float,
        tag: str,
        nvm_bus: Optional[BandwidthResource],
    ):
        """The one attempt loop behind :meth:`put`/:meth:`get`: *issue*
        starts the RDMA operation under the attempt's tag.  Cancellation
        is by tag, so a stalled attempt tears down both its flows (the
        fabric's and *nvm_bus*'s) regardless of their byte counts."""
        engine = fabric.engine
        policy, stats = self.policy, self.stats
        stats.transfers += 1
        start = engine.now
        for attempt in range(policy.max_attempts):
            # every attempt gets a unique prefix so a stall can cancel
            # exactly this attempt's flows; aggregation by tag *suffix*
            # (endswith ":kind") is unaffected
            self._seq += 1
            attempt_tag = f"a{self._seq}~{tag}"
            fail_reason = ""
            try:
                ev = issue(attempt_tag)
                if policy.timeout is not None:
                    idx, _ = yield engine.any_of([ev, engine.timeout(policy.timeout)])
                    if idx == 1:
                        # stalled: tear the attempt's flows down precisely
                        # (unique tag) so a fresh attempt can be issued
                        cancel_rdma(fabric, src, dst, attempt_tag, nvm_bus=nvm_bus)
                        stats.timeouts += 1
                        fail_reason = "timeout"
                else:
                    yield ev
            except TransferCancelled:
                stats.cancelled += 1
                fail_reason = "cancelled"
            if not fail_reason:
                stats.delivered += 1
                return engine.now - start
            elapsed = engine.now - start
            out_of_budget = (
                attempt + 1 >= policy.max_attempts
                or (policy.deadline is not None and elapsed >= policy.deadline)
            )
            if out_of_budget:
                stats.abandoned += 1
                raise TransferFailed(
                    f"transfer {tag!r} n{src}->n{dst} gave up after "
                    f"{attempt + 1} attempts ({elapsed:.1f}s elapsed)",
                    src=src,
                    dst=dst,
                    tag=tag,
                    attempts=attempt + 1,
                    elapsed=elapsed,
                )
            delay = policy.backoff_delay(attempt, self.rng, self.stream)
            stats.retries += 1
            stats.retried_bytes += nbytes
            stats.backoff_time += delay
            if BUS.active:
                BUS.emit(
                    RetryEvent(
                        t=engine.now,
                        actor=f"n{src}",
                        target=f"n{dst}",
                        attempt=attempt + 1,
                        delay=delay,
                        reason=fail_reason,
                    )
                )
            if delay > 0:
                yield engine.timeout(delay)
