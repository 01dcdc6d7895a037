"""Shared resources: FIFO resources, CPU cores, and processor-sharing
bandwidth.

The **processor-sharing bandwidth resource** is the heart of the
reproduction: both the NVM memory bus and the InfiniBand fabric are
modeled as capacity ``C`` shared equally among active flows (optionally
with a per-flow cap, e.g. a single core cannot exceed its DDR channel
rate).  When flows join or leave, every active flow's remaining bytes
are advanced and the next completion is rescheduled.  This yields the
contention behaviours the paper studies: checkpoint bursts slowing each
other down, pre-copy spreading load over time, and peak-usage reduction.
"""

from __future__ import annotations

from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple
from collections import deque

from ..errors import SimulationError, TransferCancelled
from .engine import Engine
from .events import Event

__all__ = [
    "Resource",
    "CpuCores",
    "BandwidthResource",
    "FlowHandle",
    "UtilizationTracker",
]

#: flows with fewer remaining bytes than this are considered complete —
#: but only when the residue also amounts to less than a nanosecond at
#: the current rate, so a slow tiny flow is never finished measurably
#: early (its completion wakeup is exact).
_EPSILON_BYTES = 1e-6
_EPSILON_SECONDS = 1e-9


class UtilizationTracker:
    """Records a piecewise-constant time series of a resource's load.

    Samples are ``(time, value)`` pairs recorded at each change; the
    value holds from that time until the next sample.  Used to plot the
    interconnect-usage timeline of Figure 10 and to compute busy-time
    integrals (CPU utilization, Table V).
    """

    __slots__ = ("samples",)

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []

    def record(self, time: float, value: float) -> None:
        if self.samples and abs(self.samples[-1][1] - value) < 1e-12:
            return
        if self.samples and self.samples[-1][0] == time:
            self.samples[-1] = (time, value)
            return
        self.samples.append((time, value))

    def value_at(self, time: float) -> float:
        """The recorded value in effect at *time* (0 before first sample)."""
        lo, hi = 0, len(self.samples)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.samples[mid][0] <= time:
                lo = mid + 1
            else:
                hi = mid
        return self.samples[lo - 1][1] if lo else 0.0

    def integral(self, t0: float, t1: float) -> float:
        """Integral of the series over ``[t0, t1]`` (e.g. bytes moved if
        the series is a rate in bytes/s)."""
        if t1 <= t0 or not self.samples:
            return 0.0
        total = 0.0
        prev_t, prev_v = t0, self.value_at(t0)
        for t, v in self.samples:
            if t <= t0:
                continue
            if t >= t1:
                break
            total += prev_v * (t - prev_t)
            prev_t, prev_v = t, v
        total += prev_v * (t1 - prev_t)
        return total

    def peak(self, t0: float = 0.0, t1: float = float("inf")) -> float:
        """Maximum value over ``[t0, t1]``."""
        best = self.value_at(t0)
        for t, v in self.samples:
            if t0 <= t < t1:
                best = max(best, v)
        return best

    def windowed_series(
        self, window: float, t_end: float, t_start: float = 0.0
    ) -> List[Tuple[float, float]]:
        """Average value per fixed window — e.g. 'bytes transferred per
        second of application timeline' for Figure 10."""
        if window <= 0:
            raise ValueError("window must be positive")
        out: List[Tuple[float, float]] = []
        t = t_start
        while t < t_end:
            hi = min(t + window, t_end)
            out.append((t, self.integral(t, hi) / window))
            t += window
        return out


class Resource:
    """A FIFO resource with integer capacity (mutexes, core slots)."""

    def __init__(self, engine: Engine, capacity: int, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    def request(self) -> Event:
        """An event firing when a slot is granted.  The caller must
        eventually :meth:`release`."""
        ev = self.engine.event(name=f"{self.name}.request")
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed(self)
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release() of idle resource {self.name!r}")
        if self._waiters:
            ev = self._waiters.popleft()
            ev.succeed(self)  # slot transfers directly; _in_use unchanged
        else:
            self._in_use -= 1

    def use(self, duration: float):
        """Process helper: hold one slot for *duration* seconds."""
        yield self.request()
        try:
            yield self.engine.timeout(duration)
        finally:
            self.release()


class CpuCores(Resource):
    """Node CPU cores with per-owner busy-time accounting.

    ``busy(owner, duration)`` occupies one core for *duration* and
    charges the time to *owner*; Table V's helper-core utilization is
    ``busy_time('helper') / elapsed``.
    """

    def __init__(self, engine: Engine, cores: int, name: str = "cpu") -> None:
        super().__init__(engine, cores, name=name)
        self._busy_time: Dict[str, float] = {}
        self.utilization = UtilizationTracker()

    def charge(self, owner: str, duration: float) -> None:
        """Account *duration* of CPU time to *owner* without modelling
        queueing (used for small, bounded costs like fault handling)."""
        self._busy_time[owner] = self._busy_time.get(owner, 0.0) + duration

    def busy(self, owner: str, duration: float):
        """Process: occupy one core for *duration*, charged to *owner*."""
        yield self.request()
        self.utilization.record(self.engine.now, float(self._in_use))
        try:
            yield self.engine.timeout(duration)
            self._busy_time[owner] = self._busy_time.get(owner, 0.0) + duration
        finally:
            self.release()
            self.utilization.record(self.engine.now, float(self._in_use))

    def busy_time(self, owner: str) -> float:
        return self._busy_time.get(owner, 0.0)

    def total_busy_time(self) -> float:
        return sum(self._busy_time.values())


class FlowHandle:
    """One active transfer inside a :class:`BandwidthResource`."""

    __slots__ = ("flow_id", "nbytes", "remaining", "event", "tag", "kind", "started_at")

    def __init__(self, flow_id: int, nbytes: float, event: Event, tag: str, now: float) -> None:
        self.flow_id = flow_id
        self.nbytes = nbytes
        self.remaining = nbytes
        self.event = event
        self.tag = tag
        # traffic kind: the part after ':' in "<rank>:<kind>" tags
        # (app / lckpt / precopy / rckpt / rprecopy / restart / ...)
        self.kind = tag.rsplit(":", 1)[-1] if tag else ""
        self.started_at = now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Flow {self.flow_id} tag={self.tag} {self.remaining:.0f}/{self.nbytes:.0f}B>"


class BandwidthResource:
    """Capacity shared equally among active flows (processor sharing).

    Each flow additionally obeys ``per_flow_cap`` (bytes/s) — e.g. a
    single core's memcpy cannot exceed its channel rate even when the
    bus is otherwise idle.  The per-flow rate is therefore
    ``min(per_flow_cap, capacity / n_flows)``.

    The tracker records the *aggregate* rate over time, so peak usage
    and per-window transfer volumes (Fig. 10) fall out directly.
    Per-tag byte counters let callers split application vs. checkpoint
    traffic.
    """

    def __init__(
        self,
        engine: Engine,
        capacity: float,
        per_flow_cap: Optional[float] = None,
        name: str = "bw",
        capacity_fn: Optional[Callable[[int], float]] = None,
    ) -> None:
        if capacity <= 0:
            raise SimulationError("bandwidth capacity must be positive")
        self.engine = engine
        self.capacity = float(capacity)
        self.per_flow_cap = float(per_flow_cap) if per_flow_cap else None
        #: optional effective capacity as a function of the number of
        #: concurrent flows (models interference; see
        #: :class:`repro.config.BandwidthModelConfig`).
        self.capacity_fn = capacity_fn
        self.name = name
        self._flows: Dict[int, FlowHandle] = {}
        self._next_id = 0
        self._last_update = engine.now
        self._completion_token = 0
        self.utilization = UtilizationTracker()
        #: per traffic kind (tag suffix) rate series, for filtered
        #: usage timelines like Fig. 10's checkpoint-only traffic
        self.utilization_by_kind: Dict[str, UtilizationTracker] = {}
        self.bytes_by_tag: Dict[str, float] = {}
        self.total_bytes = 0.0

    # -- public API -----------------------------------------------------------

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def current_rate(self) -> float:
        """Current aggregate throughput in bytes/s."""
        n = len(self._flows)
        if n == 0:
            return 0.0
        return self._flow_rate(n) * n

    def transfer(self, nbytes: float, tag: str = "") -> Event:
        """Start moving *nbytes* through this resource; the returned
        event fires when the transfer completes.  Zero-byte transfers
        complete immediately."""
        if nbytes < 0:
            raise SimulationError("cannot transfer a negative byte count")
        ev = self.engine.event(name=f"{self.name}.transfer({nbytes:.0f})")
        if nbytes < _EPSILON_BYTES:
            ev.succeed(0.0)
            return ev
        self._advance()
        fid = self._next_id
        self._next_id += 1
        self._flows[fid] = FlowHandle(fid, float(nbytes), ev, tag, self.engine.now)
        self._note_rate()
        self._reschedule()
        return ev

    def transfer_many(
        self, requests: Sequence[Tuple[float, str]]
    ) -> List[Event]:
        """Start a batch of ``(nbytes, tag)`` transfers at once.

        Semantically one :meth:`transfer` per request at the same
        instant, but the existing flows advance once and the completion
        wakeup is rescheduled once — starting N flows costs O(flows)
        instead of O(N * flows).  The classic use is a restart barrier:
        every rank of a node re-fetching its checkpoint through the
        same NVM bus.
        """
        events: List[Event] = []
        fresh = False
        for nbytes, tag in requests:
            if nbytes < 0:
                raise SimulationError("cannot transfer a negative byte count")
            ev = self.engine.event(name=f"{self.name}.transfer({nbytes:.0f})")
            events.append(ev)
            if nbytes < _EPSILON_BYTES:
                ev.succeed(0.0)
                continue
            if not fresh:
                self._advance()
                fresh = True
            fid = self._next_id
            self._next_id += 1
            self._flows[fid] = FlowHandle(fid, float(nbytes), ev, tag, self.engine.now)
        if fresh:
            self._note_rate()
            self._reschedule()
        return events

    def cancel_tag(self, tag: str) -> int:
        """Abort all in-flight flows with *tag* (e.g. node failure);
        their events fail.  Returns the number of flows cancelled."""
        return self.cancel_matching(lambda t: t == tag)

    def cancel_matching(self, predicate: Optional[Callable[[str], bool]] = None) -> int:
        """Abort in-flight flows whose tag satisfies *predicate*
        (all flows if None).  Used by failure injection to tear down a
        crashed node's traffic.  Returns the number cancelled."""
        self._advance()
        doomed = [f for f in self._flows.values() if predicate is None or predicate(f.tag)]
        for f in doomed:
            del self._flows[f.flow_id]
            f.event.fail(TransferCancelled(f"transfer {f.flow_id} ({f.tag!r}) cancelled"))
        if doomed:
            self._note_rate()
            self._reschedule()
        return len(doomed)

    def estimate_duration(self, nbytes: float) -> float:
        """Duration if this transfer ran alone right now (lower bound)."""
        rate = min(self.per_flow_cap or self.capacity, self.capacity)
        return nbytes / rate

    # -- internals --------------------------------------------------------------

    def _flow_rate(self, n_flows: int) -> float:
        cap = self.capacity_fn(n_flows) if self.capacity_fn else self.capacity
        share = cap / n_flows
        if self.per_flow_cap is not None:
            return min(self.per_flow_cap, share)
        return share

    def _advance(self) -> None:
        """Progress all flows from the last update time to now and
        complete any that finished."""
        now = self.engine.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0 or not self._flows:
            return
        rate = self._flow_rate(len(self._flows))
        moved = rate * dt
        finished: List[FlowHandle] = []
        for f in self._flows.values():
            f.remaining -= moved
            progressed = min(moved, f.remaining + moved)
            self.total_bytes += progressed
            if f.tag:
                self.bytes_by_tag[f.tag] = self.bytes_by_tag.get(f.tag, 0.0) + progressed
            if f.remaining <= _EPSILON_BYTES and f.remaining <= rate * _EPSILON_SECONDS:
                finished.append(f)
        for f in finished:
            del self._flows[f.flow_id]
            f.event.succeed(now - f.started_at)

    def _note_rate(self) -> None:
        now = self.engine.now
        self.utilization.record(now, self.current_rate())
        n = len(self._flows)
        per_flow = self._flow_rate(n) if n else 0.0
        counts: Dict[str, int] = {}
        for f in self._flows.values():
            counts[f.kind] = counts.get(f.kind, 0) + 1
        for kind, tracker in self.utilization_by_kind.items():
            tracker.record(now, counts.pop(kind, 0) * per_flow)
        for kind, count in counts.items():
            tracker = UtilizationTracker()
            tracker.record(now, count * per_flow)
            self.utilization_by_kind[kind] = tracker

    def _reschedule(self) -> None:
        """Schedule a wakeup at the earliest flow completion.

        Flows within float dust of completion (sub-nanosecond at the
        current rate) are finished inline: scheduling a wakeup that
        rounds to the current timestamp would spin forever.
        """
        self._completion_token += 1
        token = self._completion_token
        while self._flows:
            rate = self._flow_rate(len(self._flows))
            dust = [f for f in self._flows.values() if f.remaining / rate < _EPSILON_SECONDS]
            if not dust:
                break
            now = self.engine.now
            for f in dust:
                self.total_bytes += f.remaining
                if f.tag:
                    self.bytes_by_tag[f.tag] = self.bytes_by_tag.get(f.tag, 0.0) + f.remaining
                del self._flows[f.flow_id]
                f.event.succeed(now - f.started_at)
            self._note_rate()
        if not self._flows:
            return
        rate = self._flow_rate(len(self._flows))
        min_remaining = min(f.remaining for f in self._flows.values())
        eta = self.engine.now + min_remaining / rate
        self.engine.call_at(eta, lambda: self._on_wakeup(token))

    def _on_wakeup(self, token: int) -> None:
        if token != self._completion_token:
            return  # state changed since this wakeup was scheduled
        self._advance()
        self._note_rate()
        self._reschedule()
