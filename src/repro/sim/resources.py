"""Shared resources: a CPU busy-time ledger and processor-sharing
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
at join and leave — and a series is made when it is read: the notes
it has not folded yet go through :meth:`UtilizationTracker.record` as
``count * per_flow``, in order, which writes the sample list that
recording on every change would have written, and a series nobody
reads is never made.  A note taken at the
timestamp of the previous one replaces it (flows that start or finish
together leave one note); what it keeps of the replaced note is which
series that one had moved, because a series that moves within a
timestamp has a sample there even if it ends where it started.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple
from math import inf

from ..errors import SimulationError, TransferCancelled
from .engine import Engine
from .events import _PENDING, Event

__all__ = [
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


class CpuCores:
    """A node's per-owner CPU busy-time ledger.  Costs are charged
    without modelling queueing; Table V's helper-core utilization is
    ``busy_time('helper') / elapsed``."""

    def __init__(self) -> None:
        self._busy_time: Dict[str, float] = {}

    def charge(self, owner: str, duration: float) -> None:
        """Account *duration* of CPU time to *owner*."""
        self._busy_time[owner] = self._busy_time.get(owner, 0.0) + duration

    def busy_time(self, owner: str) -> float:
        return self._busy_time.get(owner, 0.0)


class TransferEvent(Event):
    """Completion event of one flow.  It names itself from its resource
    when asked (``repr``), so starting a flow formats nothing."""

    __slots__ = ("resource", "nbytes")

    #: how the resource ends the flow (see :meth:`BandwidthResource.transfer_into`)
    _flow_ended = Event._trigger

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
    """One active transfer inside a :class:`BandwidthResource`; it ends
    into :attr:`event` (see :meth:`BandwidthResource.transfer_into`)."""

    __slots__ = ("flow_id", "nbytes", "remaining", "event", "tag", "kind", "started_at")

    def __init__(self, flow_id: int, nbytes: float, event: Any, tag: str, now: float) -> None:
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


class _KindSeries(Mapping):
    """:attr:`UsageMeter.utilization_by_kind`: the per-kind series in
    first-seen order, each brought up to date when it is read — reading
    one kind folds no other kind's series."""

    __slots__ = ("_meter",)

    def __init__(self, meter: "UsageMeter") -> None:
        self._meter = meter

    def __getitem__(self, kind: str) -> UtilizationTracker:
        kinds = self._meter._kind_counts
        if kind not in kinds:
            raise KeyError(kind)
        return self._meter._fold(list(kinds).index(kind) + 1)

    def __contains__(self, kind: object) -> bool:
        return kind in self._meter._kind_counts

    def __iter__(self) -> Iterator[str]:
        return iter(self._meter._kind_counts)

    def __len__(self) -> int:
        return len(self._meter._kind_counts)


class UsageMeter:
    """Usage of one :class:`BandwidthResource`, attached by its reader
    (``UsageMeter(resource)``, while the resource is idle).

    :attr:`utilization` is the *aggregate* rate over time, so peak usage
    and per-window transfer volumes (Fig. 10) fall out directly;
    :attr:`utilization_by_kind` splits it by traffic kind and
    :attr:`bytes_by_tag` the bytes moved by flow tag.

    Series *i* of the rate log's notes is the aggregate for ``i == 0``
    and the *i*-th kind seen otherwise; each series folds the notes from
    its own cursor on, when it is read.
    """

    __slots__ = ("_kind_counts", "_rate_log", "_folded", "_merge_notes",
                 "_series", "_cursors", "bytes_by_tag")

    def __init__(self, resource: "BandwidthResource") -> None:
        if resource.meter is not None or resource.active_flows:
            raise SimulationError(f"{resource.name}: a meter attaches once, to an idle resource")
        #: live flows per traffic kind, in first-seen order; a kind
        #: stays (at 0) once seen, like its series
        self._kind_counts: Dict[str, int] = {}
        #: rate changes as ``(time, per-flow rate, (flows, *per-kind
        #: flows), touched)``; series *i* has folded ``_rate_log[:_cursors[i]]``
        #: and ``_folded`` is the largest cursor: a note before it is in
        #: some series already, so nothing merges into it
        self._rate_log: List[Tuple[float, float, Tuple[int, ...], int]] = []
        self._folded = 0
        #: cleared for good by the first rate so small that the series'
        #: "unchanged" tolerance stops meaning "equal"
        self._merge_notes = True
        #: per series, its tracker (made when first read) and cursor
        self._series: List[Optional[UtilizationTracker]] = [None]
        self._cursors: List[int] = [0]
        self.bytes_by_tag: Dict[str, float] = {}
        resource.meter = self

    @property
    def utilization(self) -> UtilizationTracker:
        """Aggregate rate over time.  Reading it folds every series and
        trims the log to the one note the next merge is checked against."""
        for i in range(len(self._series)):
            self._fold(i)
        log = self._rate_log
        del log[:-1]
        self._folded = len(log)
        self._cursors = [self._folded] * len(self._series)
        return self._series[0]  # type: ignore[return-value]

    @property
    def utilization_by_kind(self) -> Mapping[str, UtilizationTracker]:
        """Per traffic kind (tag suffix) rate series, for filtered usage
        timelines like Fig. 10's checkpoint-only traffic."""
        return _KindSeries(self)

    def join(self, flow: FlowHandle) -> None:
        # traffic kind: the part after ':' in "<rank>:<kind>" tags
        # (app / lckpt / precopy / rckpt / rprecopy / restart / ...)
        tag = flow.tag
        flow.kind = kind = tag.rsplit(":", 1)[-1] if tag else ""
        counts = self._kind_counts
        if kind in counts:
            counts[kind] += 1
        else:
            # a new series, born in the next note, which no series has
            # folded yet
            counts[kind] = 1
            self._series.append(None)
            self._cursors.append(self._folded)

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

    def _fold(self, i: int) -> UtilizationTracker:
        """Bring series *i* up to date: replay the notes from its cursor
        on through :meth:`UtilizationTracker.record`, ``count *
        per_flow``, in the order the notes were taken."""
        tracker = self._series[i]
        if tracker is None:
            tracker = self._series[i] = UtilizationTracker()
        log = self._rate_log
        if self._cursors[i] < len(log):
            samples, bit = tracker.samples, 1 << i
            for at in range(self._cursors[i], len(log)):
                now, per_flow, counts, touched = log[at]
                if i < len(counts):  # else the kind is not born yet
                    value = counts[i] * per_flow
                    tracker.record(now, value)
                    if touched & bit and samples[-1][0] != now:
                        samples.append((now, value))
            self._cursors[i] = self._folded = len(log)
        return tracker


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
        #: :mod:`repro.memory.bandwidth`).
        self.capacity_fn = capacity_fn
        self.name = name
        self._rates: Dict[int, float] = {}
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
        ev = TransferEvent(self, nbytes)
        self.transfer_into(ev, nbytes, tag)
        return ev

    def transfer_into(self, event: Any, nbytes: float, tag: str = "") -> None:
        """Start moving *nbytes* as a flow that ends into *event*: the
        resource calls ``event._flow_ended(elapsed, None)`` when the
        flow completes and ``event._flow_ended(_PENDING, exc)`` when it
        is cancelled.  A :class:`TransferEvent` triggers itself there
        (:meth:`transfer`); a fabric transfer counts its two link flows
        down there instead of joining two events."""
        if not 0 <= nbytes < inf:
            raise SimulationError(f"cannot transfer {nbytes} bytes: not finite and non-negative")
        if nbytes < _EPSILON_BYTES:
            event._flow_ended(0.0, None)
            return
        self._advance()
        self._join(event, nbytes, tag)
        self._reschedule()

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
            self._join(ev, nbytes, tag)
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
            f.event._flow_ended(
                _PENDING, TransferCancelled(f"transfer {f.flow_id} ({f.tag!r}) cancelled")
            )
        if doomed:
            self._reschedule()
        return len(doomed)

    # -- internals --------------------------------------------------------------

    def _flow_rate(self, n_flows: int) -> float:
        """The per-flow rate with *n_flows* flows; memoised by flow
        count, as ``capacity_fn`` is a pure function of it."""
        rate = self._rates.get(n_flows)
        if rate is None:
            cap = self.capacity_fn(n_flows) if self.capacity_fn else self.capacity
            rate = cap / n_flows
            if self.per_flow_cap is not None:
                rate = min(self.per_flow_cap, rate)
            self._rates[n_flows] = rate
        return rate

    def _join(self, event: Any, nbytes: float, tag: str) -> None:
        fid = self._next_id
        self._next_id += 1
        flow = FlowHandle(fid, float(nbytes), event, tag, self.engine.now)
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
            f.event._flow_ended(now - f.started_at, None)

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
                f.event._flow_ended(now - f.started_at, None)
