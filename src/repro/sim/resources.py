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

**Usage is metered only where it is read.**  A resource keeps what
completing its flows needs, plus ``total_bytes``.  Its usage over time
and per tag is kept by a :class:`UsageMeter`, which only the code that
reads it attaches — the fabric, on its egress links (Fig. 10, a run
record's ``fabric_*``); NVM buses, ingress links and the PFS pipe carry
none.  On a metered resource a rate change costs one appended *note* —
``(time, per-flow rate, flow counts per kind)``, from counts kept live
at join and leave — and the series are made when read: the unfolded
notes go through :meth:`UtilizationTracker.record` as ``count *
per_flow`` per series, in order, which writes the sample lists that
recording on every change would have written.  A note taken at the
timestamp of the previous one replaces it (flows that start or finish
together leave one note); what it keeps of the replaced note is which
series that one had moved, because a series that moves within a
timestamp has a sample there even if it ends where it started.
"""

from __future__ import annotations

from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple
from collections import deque
from math import inf

from ..errors import SimulationError, TransferCancelled
from .engine import Engine
from .events import _PENDING, Event

__all__ = [
    "Resource",
    "CpuCores",
    "BandwidthResource",
    "FlowHandle",
    "TransferEvent",
    "UsageMeter",
    "UtilizationTracker",
]

#: flows with fewer remaining bytes than this are considered complete —
#: but only when the residue also amounts to less than a nanosecond at
#: the current rate, so a slow tiny flow is never finished measurably
#: early (its completion wakeup is exact).
_EPSILON_BYTES = 1e-6
_EPSILON_SECONDS = 1e-9

#: from 2**13 bytes/s up, neighbouring doubles are more than the 1e-12
#: apart that :meth:`UtilizationTracker.record` calls "unchanged", so
#: there "unchanged" is "equal" and same-timestamp rate notes can be
#: merged exactly; a resource that ever runs slower keeps every note
_MIN_MERGE_RATE = 8192.0


class UtilizationTracker:
    """Records a piecewise-constant time series of a resource's load.

    Samples are ``(time, value)`` pairs recorded at each change; the
    value holds from that time until the next sample.  Used to plot the
    interconnect-usage timeline of Figure 10.
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

    def _upto(self, time: float) -> int:
        """Number of samples taken at or before *time*."""
        lo, hi = 0, len(self.samples)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.samples[mid][0] <= time:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _integrate(self, first: int, t0: float, t1: float) -> Tuple[float, int]:
        """Integral over ``[t0, t1]`` given ``first == _upto(t0)``; also
        returns the index of the first sample at or after *t1*, which is
        where a window starting at or after *t1* resumes."""
        samples = self.samples
        total = 0.0
        prev_t, prev_v = t0, samples[first - 1][1] if first else 0.0
        i, n = first, len(samples)
        while i < n:
            t, v = samples[i]
            if t >= t1:
                break
            total += prev_v * (t - prev_t)
            prev_t, prev_v = t, v
            i += 1
        total += prev_v * (t1 - prev_t)
        return total, i

    def value_at(self, time: float) -> float:
        """The recorded value in effect at *time* (0 before first sample)."""
        i = self._upto(time)
        return self.samples[i - 1][1] if i else 0.0

    def integral(self, t0: float, t1: float) -> float:
        """Integral of the series over ``[t0, t1]`` (e.g. bytes moved if
        the series is a rate in bytes/s)."""
        if t1 <= t0 or not self.samples:
            return 0.0
        return self._integrate(self._upto(t0), t0, t1)[0]

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
        second of application timeline' for Figure 10.

        One sweep over the samples: each window resumes where the
        previous one stopped, and sums its pieces in the order
        :meth:`integral` does, so every entry equals
        ``integral(t, min(t + window, t_end)) / window`` exactly."""
        if window <= 0:
            raise ValueError("window must be positive")
        samples = self.samples
        n = len(samples)
        out: List[Tuple[float, float]] = []
        t = t_start
        i = 0
        while t < t_end:
            while i < n and samples[i][0] <= t:
                i += 1
            total, i = self._integrate(i, t, min(t + window, t_end))
            out.append((t, total / window))
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

    def charge(self, owner: str, duration: float) -> None:
        """Account *duration* of CPU time to *owner* without modelling
        queueing (used for small, bounded costs like fault handling)."""
        self._busy_time[owner] = self._busy_time.get(owner, 0.0) + duration

    def busy(self, owner: str, duration: float):
        """Process: occupy one core for *duration*, charged to *owner*."""
        yield self.request()
        try:
            yield self.engine.timeout(duration)
            self._busy_time[owner] = self._busy_time.get(owner, 0.0) + duration
        finally:
            self.release()

    def busy_time(self, owner: str) -> float:
        return self._busy_time.get(owner, 0.0)

    def total_busy_time(self) -> float:
        return sum(self._busy_time.values())


class TransferEvent(Event):
    """Completion event of one flow.  It names itself from its resource
    when asked (``repr``), so starting a flow formats nothing."""

    __slots__ = ("resource", "nbytes")

    def __init__(self, resource: Any, nbytes: float) -> None:
        self.engine = resource.engine
        self.name = ""
        self.callbacks = []
        self._value = _PENDING
        self._exc = None
        self._triggered = False
        self.resource = resource
        self.nbytes = nbytes

    def _label(self) -> str:
        return f"{self.resource.name}.transfer({self.nbytes:.0f})"


class FlowHandle:
    """One active transfer inside a :class:`BandwidthResource`."""

    __slots__ = ("flow_id", "nbytes", "remaining", "event", "tag", "kind", "started_at")

    def __init__(self, flow_id: int, nbytes: float, event: Event, tag: str, now: float) -> None:
        self.flow_id = flow_id
        self.nbytes = nbytes
        self.remaining = nbytes
        self.event = event
        self.tag = tag
        # ``kind`` is set by the resource's meter, if it has one
        self.started_at = now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Flow {self.flow_id} tag={self.tag} {self.remaining:.0f}/{self.nbytes:.0f}B>"


def _changed_series(before: tuple, after: tuple) -> int:
    """Bit *i* is set when series *i* reads differently in two rate-log
    notes (series both notes know: a series is born by its first
    sample, which nothing can suppress)."""
    _, rate0, counts0, _ = before
    _, rate1, counts1, _ = after
    mask, bit = 0, 1
    for count0, count1 in zip(counts0, counts1):
        if count0 * rate0 != count1 * rate1:
            mask |= bit
        bit <<= 1
    return mask


class UsageMeter:
    """Usage of one :class:`BandwidthResource`, attached by its reader
    (``UsageMeter(resource)``, while the resource is idle).

    :attr:`utilization` is the *aggregate* rate over time, so peak usage
    and per-window transfer volumes (Fig. 10) fall out directly;
    :attr:`utilization_by_kind` splits it by traffic kind and
    :attr:`bytes_by_tag` the bytes moved by flow tag.
    """

    __slots__ = ("_kind_counts", "_rate_log", "_folded", "_merge_notes",
                 "_utilization", "_utilization_by_kind", "bytes_by_tag")

    def __init__(self, resource: "BandwidthResource") -> None:
        if resource.meter is not None or resource.active_flows:
            raise SimulationError(f"{resource.name}: a meter attaches once, to an idle resource")
        #: live flows per traffic kind, in first-seen order; a kind
        #: stays (at 0) once seen, like its series
        self._kind_counts: Dict[str, int] = {}
        #: rate changes as ``(time, per-flow rate, (flows, *per-kind
        #: flows), touched)``: ``_rate_log[:_folded]`` is already in the
        #: series (only the last such note is kept, to merge against),
        #: the rest is folded in on the next read
        self._rate_log: List[Tuple[float, float, Tuple[int, ...], int]] = []
        self._folded = 0
        #: cleared for good by the first rate so small that the series'
        #: "unchanged" tolerance stops meaning "equal"
        self._merge_notes = True
        self._utilization = UtilizationTracker()
        self._utilization_by_kind: Dict[str, UtilizationTracker] = {}
        self.bytes_by_tag: Dict[str, float] = {}
        resource.meter = self

    @property
    def utilization(self) -> UtilizationTracker:
        """Aggregate rate over time."""
        self._fold_rate_log()
        return self._utilization

    @property
    def utilization_by_kind(self) -> Dict[str, UtilizationTracker]:
        """Per traffic kind (tag suffix) rate series, for filtered usage
        timelines like Fig. 10's checkpoint-only traffic."""
        self._fold_rate_log()
        return self._utilization_by_kind

    def join(self, flow: FlowHandle) -> None:
        # traffic kind: the part after ':' in "<rank>:<kind>" tags
        # (app / lckpt / precopy / rckpt / rprecopy / restart / ...)
        tag = flow.tag
        flow.kind = kind = tag.rsplit(":", 1)[-1] if tag else ""
        counts = self._kind_counts
        counts[kind] = counts.get(kind, 0) + 1

    def leave(self, flow: FlowHandle) -> None:
        self._kind_counts[flow.kind] -= 1

    def note_rate(self, now: float, n_flows: int, per_flow: float) -> None:
        """Log the rate every series holds from *now* on (O(kinds), no
        walk over the flows); the series themselves are made on read."""
        if 0.0 < per_flow < _MIN_MERGE_RATE:
            self._merge_notes = False
        counts = (n_flows, *self._kind_counts.values())
        log = self._rate_log
        if len(log) > self._folded and log[-1][0] == now and self._merge_notes:
            # One note per timestamp: the newest replaces the one it
            # follows.  What must survive of the replaced note is which
            # series it moved — a series that moved within a timestamp
            # has a sample there even when it ends where it started.
            last = log[-1]
            touched = last[3] | _changed_series(log[-2], last) if len(log) > 1 else 0
            log[-1] = (now, per_flow, counts, touched)
        else:
            log.append((now, per_flow, counts, 0))

    def _fold_rate_log(self) -> None:
        """Bring the series up to date: replay every unfolded note
        through :meth:`UtilizationTracker.record`, ``count * per_flow``
        per series, in the order the notes were taken."""
        log = self._rate_log
        if self._folded == len(log):
            return
        series = [self._utilization, *self._utilization_by_kind.values()]
        kinds = list(self._kind_counts)
        for at in range(self._folded, len(log)):
            now, per_flow, counts, touched = log[at]
            for kind in kinds[len(series) - 1:len(counts) - 1]:
                tracker = self._utilization_by_kind[kind] = UtilizationTracker()
                series.append(tracker)
            for i, count in enumerate(counts):
                tracker = series[i]
                tracker.record(now, count * per_flow)
                if touched >> i & 1 and tracker.samples[-1][0] != now:
                    tracker.samples.append((now, count * per_flow))
        del log[:-1]
        self._folded = 1


class BandwidthResource:
    """Capacity shared equally among active flows (processor sharing).

    Each flow additionally obeys ``per_flow_cap`` (bytes/s) — e.g. a
    single core's memcpy cannot exceed its channel rate even when the
    bus is otherwise idle.  The per-flow rate is therefore
    ``min(per_flow_cap, capacity / n_flows)``.

    :attr:`total_bytes` counts every byte moved; :attr:`utilization`,
    :attr:`utilization_by_kind` and :attr:`bytes_by_tag` are read off
    an attached :class:`UsageMeter`, and raise without one.
    """

    def __init__(
        self,
        engine: Engine,
        capacity: float,
        per_flow_cap: Optional[float] = None,
        name: str = "bw",
        capacity_fn: Optional[Callable[[int], float]] = None,
    ) -> None:
        if not capacity > 0:  # NaN too: no flow would ever finish
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
        #: the usage meter a reader attached (:class:`UsageMeter`), if any
        self.meter: Optional[UsageMeter] = None
        self.total_bytes = 0.0

    # -- public API -----------------------------------------------------------

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def _metered(self) -> UsageMeter:
        if self.meter is None:
            raise SimulationError(f"{self.name} meters no usage: no reader attached a UsageMeter")
        return self.meter

    utilization = property(lambda self: self._metered().utilization)
    utilization_by_kind = property(lambda self: self._metered().utilization_by_kind)
    bytes_by_tag = property(lambda self: self._metered().bytes_by_tag)

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
        if not 0 <= nbytes < inf:
            raise SimulationError(f"cannot transfer {nbytes} bytes: not finite and non-negative")
        ev = TransferEvent(self, nbytes)
        if nbytes < _EPSILON_BYTES:
            ev.succeed(0.0)
            return ev
        self._advance()
        self._join(ev, tag)
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
        same NVM bus.  A batch holding a negative or non-finite byte
        count is rejected whole, before any of its flows joins.
        """
        for nbytes, _ in requests:
            if not 0 <= nbytes < inf:
                raise SimulationError(f"cannot transfer {nbytes} bytes: not finite and non-negative")
        events: List[Event] = []
        fresh = False
        for nbytes, tag in requests:
            ev = TransferEvent(self, nbytes)
            events.append(ev)
            if nbytes < _EPSILON_BYTES:
                ev.succeed(0.0)
                continue
            if not fresh:
                self._advance()
                fresh = True
            self._join(ev, tag)
        if fresh:
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
            self._leave(f)
            f.event.fail(TransferCancelled(f"transfer {f.flow_id} ({f.tag!r}) cancelled"))
        if doomed:
            self._reschedule()
        return len(doomed)

    # -- internals --------------------------------------------------------------

    def _flow_rate(self, n_flows: int) -> float:
        cap = self.capacity_fn(n_flows) if self.capacity_fn else self.capacity
        share = cap / n_flows
        if self.per_flow_cap is not None:
            return min(self.per_flow_cap, share)
        return share

    def _join(self, event: TransferEvent, tag: str) -> None:
        fid = self._next_id
        self._next_id += 1
        flow = FlowHandle(fid, float(event.nbytes), event, tag, self.engine.now)
        self._flows[fid] = flow
        if self.meter is not None:
            self.meter.join(flow)

    def _leave(self, flow: FlowHandle) -> None:
        del self._flows[flow.flow_id]
        if self.meter is not None:
            self.meter.leave(flow)

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
        dust = rate * _EPSILON_SECONDS
        total_bytes = self.total_bytes
        by_tag = None if self.meter is None else self.meter.bytes_by_tag
        finished: List[FlowHandle] = []
        for f in self._flows.values():
            f.remaining = after = f.remaining - moved
            had_left = after + moved
            progressed = had_left if had_left < moved else moved
            total_bytes += progressed
            if by_tag is not None and f.tag:
                by_tag[f.tag] = by_tag.get(f.tag, 0.0) + progressed
            if after <= _EPSILON_BYTES and after <= dust:
                finished.append(f)
        self.total_bytes = total_bytes
        for f in finished:
            self._leave(f)
            f.event.succeed(now - f.started_at)

    def _reschedule(self) -> None:
        """Note the rate the flows now run at (to the meter, if one is
        attached) and schedule a wakeup at the earliest completion.  The
        wakeup carries a fresh :attr:`_completion_token`; the engine
        drops it if another reschedule has happened by then, and
        otherwise calls :meth:`_advance` and this method again.

        Flows within float dust of completion (sub-nanosecond at the
        current rate) are finished inline: scheduling a wakeup that
        rounds to the current timestamp would spin forever.
        """
        self._completion_token += 1
        engine, flows, meter = self.engine, self._flows, self.meter
        now = engine.now
        while True:
            n = len(flows)
            rate = self._flow_rate(n) if n else 0.0
            if meter is not None:
                meter.note_rate(now, n, rate)
            if not n:
                return
            nearest = inf
            for f in flows.values():
                if f.remaining < nearest:
                    nearest = f.remaining
            # the nearest flow decides: dividing by one positive rate
            # keeps the order of the remainders
            if not nearest / rate < _EPSILON_SECONDS:
                engine._schedule_wakeup(now + nearest / rate, self, self._completion_token)
                return
            for f in [f for f in flows.values() if f.remaining / rate < _EPSILON_SECONDS]:
                self.total_bytes += f.remaining
                if meter is not None and f.tag:
                    by_tag = meter.bytes_by_tag
                    by_tag[f.tag] = by_tag.get(f.tag, 0.0) + f.remaining
                self._leave(f)
                f.event.succeed(now - f.started_at)
