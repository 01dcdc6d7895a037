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

The engine is strictly deterministic: every queued item carries
``(time, seq)`` with a monotone sequence number, items run in that
order, and no wall-clock or OS entropy is consulted.  A queue entry is
``(time, seq, kind, ...)`` of one of three kinds:

* ``EVENT`` — deliver a triggered event to its callbacks;
* ``CALL`` — call a bare function;
* ``WAKEUP`` — ``(resource, token)``: a bandwidth resource's next flow
  completion, run only if the token is still the resource's current
  one (a join, leave or cancel since then makes it stale, and the loop
  drops it without a call).

A waiting process is one callback in its event's list, bound once when
the process starts; delivering the event runs the generator's next step
right there.  Items due *now* skip the heap (see :class:`Engine`).
"""

from __future__ import annotations

import heapq
from collections import deque
from functools import partial
from itertools import count
from math import inf
from types import GeneratorType
from typing import Any, Callable, Generator, Iterable, Optional

from ..errors import ProcessKilled, SimulationError
from .events import _DISPATCHED, CALL, EVENT, WAKEUP, AllOf, AnyOf, Event, Timeout, Wake

__all__ = ["Engine", "Process"]

ProcessGen = Generator[Event, Any, Any]


class Process(Event):
    """A running simulated process.

    A ``Process`` *is* an event: it fires (with the generator's return
    value) when the generator finishes, so processes can wait on each
    other by yielding a ``Process``.
    """

    __slots__ = ("_gen", "_send", "_wake", "_waiting_on", "_alive")

    def __init__(self, engine: "Engine", gen: ProcessGen, name: str = "") -> None:
        if not isinstance(gen, GeneratorType):
            raise TypeError(f"a process runs a generator, not {type(gen).__name__}")
        super().__init__(engine, name=name or gen.__name__)
        self._gen = gen
        self._send = gen.send
        #: the callback this process leaves on the event it waits for
        self._wake = self._on_event
        self._waiting_on: Optional[Event] = None
        self._alive = True
        # bootstrap: resume on the next engine step
        engine._queue_callback(partial(self._resume, None, None))

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
        self.engine._queue_callback(partial(self._resume, None, exc, True))

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
        if self._waiting_on is not ev:
            return  # stale: killed and moved on, or dead (waits on nothing)
        self._waiting_on = None
        try:
            if ev._exc is None:
                target = self._send(ev._value)
            else:
                target = self._gen.throw(ev._exc)
        except BaseException as err:
            self._end(err)
            return
        # the common case inline: a live process waits on a pending event
        if isinstance(target, Event) and self._alive and target.callbacks is not _DISPATCHED:
            self._waiting_on = target
            target.callbacks.append(self._wake)
        else:
            self._wait(target)

    def _resume(self, value: Any, exc: Optional[BaseException], forced: bool = False) -> None:
        if not self._alive:
            return
        if forced:
            self._waiting_on = None
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._send(value)
        except BaseException as err:
            self._end(err)
            return
        self._wait(target)

    def _wait(self, target: Any) -> None:
        if not isinstance(target, Event):
            self._alive = False
            self.fail(SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Event objects"
            ))
            return
        if self._alive:  # an abort from inside the frame leaves it waiting on nothing
            self._waiting_on = target
        target.add_callback(self._wake)

    def _end(self, err: BaseException) -> None:
        """The generator returned (``StopIteration``) or raised."""
        self._alive = False
        if isinstance(err, StopIteration):
            self.succeed(err.value)
        else:
            self.fail(err)


class Engine:
    """Virtual-time event loop.

    :attr:`now` is the current virtual time in seconds; only
    :meth:`run` writes it.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._seq = count()
        self._heap: list[tuple] = []
        # zero-delay fast lane: items scheduled *at* the current time.
        # Virtual time never decreases and seq is monotone, so FIFO
        # appends keep this deque sorted by (time, seq) — the run loop
        # merges it with the heap on exactly that key, preserving the
        # single-heap total order while the (dominant) zero-delay
        # traffic skips the O(log n) sift entirely.  Time does not move
        # while it holds anything, so every entry in it is due *now*.
        self._ready: deque[tuple] = deque()
        self._running = False
        #: total items dispatched by run() over the engine's lifetime
        #: (events + callbacks + wakeups) — the denominator of events/sec
        self.events_processed = 0

    # -- event construction ----------------------------------------------------

    def event(self, name: str = "") -> Event:
        """A fresh, untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` virtual seconds from now."""
        return Timeout(self, delay, value)

    def wake(self, delay: Optional[float] = None) -> Wake:
        """A sleep that ends at :meth:`Wake.kick` or, given *delay*,
        that many virtual seconds from now — whichever comes first."""
        return Wake(self, delay)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def process(self, gen: ProcessGen, name: str = "") -> Process:
        """Start a generator as a simulated process (anything else is a
        ``TypeError``)."""
        return Process(self, gen, name=name)

    # -- scheduling (engine-internal API used by events/resources) -------------

    def _queue_callback(self, fn: Callable[[], None]) -> None:
        self._ready.append((self.now, next(self._seq), CALL, fn))

    def _schedule_wakeup(self, when: float, resource: Any, token: int) -> None:
        """Queue *resource*'s completion wakeup at *when* (>= now): the
        loop runs ``resource._advance(); resource._reschedule()`` then,
        if ``resource._completion_token`` is still *token*."""
        if when <= self.now:
            self._ready.append((self.now, next(self._seq), WAKEUP, resource, token))
        else:
            heapq.heappush(self._heap, (when, next(self._seq), WAKEUP, resource, token))

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        """Run *fn* at absolute virtual time *when* (>= now, finite)."""
        now = self.now
        if not now - 1e-12 <= when < inf:
            raise SimulationError(f"call_at({when}) is not a finite time from now={now} on")
        if when <= now:
            self._ready.append((now, next(self._seq), CALL, fn))
        else:
            heapq.heappush(self._heap, (when, next(self._seq), CALL, fn))

    # -- main loop ---------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or virtual time reaches *until*
        (which may not lie before :attr:`now`).

        Returns the final virtual time.  Re-entrancy is an error.
        """
        if self._running:
            raise SimulationError("engine.run() is not re-entrant")
        if until is not None and not until >= self.now:
            raise SimulationError(f"run(until={until}) would move the clock back from {self.now}")
        self._running = True
        ready, heap = self._ready, self._heap
        popleft, heappop = ready.popleft, heapq.heappop
        bound = inf if until is None else until
        dispatched = 0
        try:
            while ready or heap:
                # merge the two lanes on (time, seq) — identical total
                # order to a single heap.  Entries compare as they are:
                # seq is unique, so tuple order never reaches the kind.
                if ready and not (heap and heap[0] < ready[0]):
                    entry = popleft()
                else:
                    entry = heap[0]
                    when = entry[0]
                    if when > bound:
                        self.now = bound
                        break
                    heappop(heap)
                    self.now = when
                dispatched += 1
                kind = entry[2]
                if kind == EVENT:
                    ev = entry[3]
                    callbacks = ev.callbacks
                    ev.callbacks = _DISPATCHED
                    for cb in callbacks:
                        cb(ev)
                elif kind == CALL:
                    entry[3]()
                else:
                    resource = entry[3]
                    if entry[4] == resource._completion_token:
                        resource._advance()
                        resource._reschedule()
            else:
                if until is not None and until > self.now:
                    self.now = until
        finally:
            self._running = False
            self.events_processed += dispatched
        return self.now

    def peek(self) -> float:
        """Time of the next scheduled item, or ``inf`` if none."""
        if self._ready:
            return self._ready[0][0]
        return self._heap[0][0] if self._heap else inf
