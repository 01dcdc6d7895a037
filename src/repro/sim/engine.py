"""The discrete-event engine: virtual clock, event queue, processes.

Processes are plain generators that ``yield`` :class:`Event` objects::

    def worker(engine):
        yield engine.timeout(1.0)          # sleep 1 virtual second
        done = engine.event()
        ...                                 # hand `done` to someone
        value = yield done                  # wait for it

    engine = Engine()
    engine.process(worker(engine))
    engine.run()

The engine is strictly deterministic: ties in time are broken by a
monotone sequence number, and no wall-clock or OS entropy is consulted.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import count
from typing import Any, Callable, Generator, Iterable, Optional

from ..errors import ProcessKilled, SimulationError
from .events import AllOf, AnyOf, Event, Timeout

__all__ = ["Engine", "Process"]

ProcessGen = Generator[Event, Any, Any]


class Process(Event):
    """A running simulated process.

    A ``Process`` *is* an event: it fires (with the generator's return
    value) when the generator finishes, so processes can wait on each
    other by yielding a ``Process``.
    """

    __slots__ = ("_gen", "_waiting_on", "_alive")

    def __init__(self, engine: "Engine", gen: ProcessGen, name: str = "") -> None:
        super().__init__(engine, name=name or getattr(gen, "__name__", "process"))
        self._gen = gen
        self._waiting_on: Optional[Event] = None
        self._alive = True
        # bootstrap: resume on the next engine step
        engine._queue_callback(lambda: self._resume(None, None))

    # -- lifecycle ----------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._alive

    def kill(self, exc: Optional[BaseException] = None) -> None:
        """Forcibly terminate the process by throwing *exc* (default
        :class:`ProcessKilled`) into its generator at the next step.

        Used by failure injection: a node crash kills every process on
        the node regardless of what event it was waiting for.
        """
        if not self._alive:
            return
        if exc is None:
            exc = ProcessKilled(f"process {self.name} killed")
        self.engine._queue_callback(lambda: self._resume(None, exc, forced=True))

    def abort(self) -> None:
        """Instantly mark the process dead, *synchronously*.

        Unlike :meth:`kill` (which schedules an exception delivery and
        lets already-queued same-tick events resume the generator one
        more time), ``abort`` guarantees the generator never runs
        another instruction — power-loss semantics for crash-point
        fault injection.  The Process event never triggers.
        """
        if not self._alive:
            return
        self._alive = False
        self._waiting_on = None
        try:
            self._gen.close()
        except Exception:
            # the generator is mid-frame (the crash originated inside
            # it); the propagating exception is its teardown
            pass

    # -- internals ------------------------------------------------------------

    def _on_event(self, ev: Event) -> None:
        if not self._alive:
            return
        if self._waiting_on is not ev:
            # stale wakeup (e.g. the process was killed and moved on)
            return
        self._waiting_on = None
        if ev._exc is None:  # a dispatched event has triggered: this is ev.ok
            self._resume(ev._value, None)
        else:
            self._resume(None, ev._exc)

    def _resume(self, value: Any, exc: Optional[BaseException], forced: bool = False) -> None:
        if not self._alive:
            return
        if forced:
            self._waiting_on = None
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self._alive = False
            self.succeed(stop.value)
            return
        except ProcessKilled as killed:
            self._alive = False
            self.fail(killed)
            return
        except BaseException as err:
            self._alive = False
            self.fail(err)
            return
        if not isinstance(target, Event):
            self._alive = False
            err = SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Event objects"
            )
            self.fail(err)
            return
        self._waiting_on = target
        target.add_callback(self._on_event)


class Engine:
    """Virtual-time event loop."""

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = count()
        # heap entries: (time, seq, kind, payload); kind 0 = event
        # dispatch, kind 1 = bare callback.
        self._heap: list[tuple[float, int, int, Any]] = []
        # zero-delay fast lane: items scheduled *at* the current time.
        # Virtual time never decreases and seq is monotone, so FIFO
        # appends keep this deque sorted by (time, seq) — the run loop
        # merges it with the heap on exactly that key, preserving the
        # single-heap total order while the (dominant) zero-delay
        # traffic skips the O(log n) sift entirely.
        self._ready: deque[tuple[float, int, int, Any]] = deque()
        self._running = False
        #: total items dispatched by run() over the engine's lifetime
        #: (events + callbacks) — the denominator of events/sec
        self.events_processed = 0

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # -- event construction ----------------------------------------------------

    def event(self, name: str = "") -> Event:
        """A fresh, untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` virtual seconds from now."""
        return Timeout(self, delay, value)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def process(self, gen: ProcessGen, name: str = "") -> Process:
        """Start a generator as a simulated process."""
        return Process(self, gen, name=name)

    # -- scheduling (engine-internal API used by events/resources) -------------

    def _queue_event(self, ev: Event, delay: float = 0.0) -> None:
        if delay == 0.0:
            self._ready.append((self._now, next(self._seq), 0, ev))
        else:
            heapq.heappush(self._heap, (self._now + delay, next(self._seq), 0, ev))

    def _queue_callback(self, fn: Callable[[], None], delay: float = 0.0) -> None:
        if delay == 0.0:
            self._ready.append((self._now, next(self._seq), 1, fn))
        else:
            heapq.heappush(self._heap, (self._now + delay, next(self._seq), 1, fn))

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        """Run *fn* at absolute virtual time *when* (>= now)."""
        if when < self._now - 1e-12:
            raise SimulationError(f"call_at({when}) is in the past (now={self._now})")
        if when <= self._now:
            self._ready.append((self._now, next(self._seq), 1, fn))
        else:
            heapq.heappush(self._heap, (when, next(self._seq), 1, fn))

    # -- main loop ---------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or virtual time reaches *until*.

        Returns the final virtual time.  Re-entrancy is an error.
        """
        if self._running:
            raise SimulationError("engine.run() is not re-entrant")
        self._running = True
        ready, heap = self._ready, self._heap
        dispatched = 0
        try:
            while ready or heap:
                # merge the two lanes on (time, seq) — identical total
                # order to the historical single heap.  The entries
                # compare as they are: seq is unique, so tuple order
                # never reaches kind or payload.
                from_ready = bool(ready) and (not heap or ready[0] < heap[0])
                when, _, kind, payload = ready[0] if from_ready else heap[0]
                if until is not None and when > until:
                    self._now = until
                    break
                if from_ready:
                    ready.popleft()
                else:
                    heapq.heappop(heap)
                self._now = when
                dispatched += 1
                if kind == 0:
                    ev: Event = payload
                    ev._scheduled = False
                    callbacks, ev.callbacks = ev.callbacks, []
                    for cb in callbacks:
                        cb(ev)
                else:
                    payload()
            else:
                if until is not None and until > self._now:
                    self._now = until
        finally:
            self._running = False
            self.events_processed += dispatched
        return self._now

    def peek(self) -> float:
        """Time of the next scheduled item, or ``inf`` if none."""
        times = []
        if self._ready:
            times.append(self._ready[0][0])
        if self._heap:
            times.append(self._heap[0][0])
        return min(times) if times else float("inf")
