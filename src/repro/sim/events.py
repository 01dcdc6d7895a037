"""Event primitives for the discrete-event engine.

An :class:`Event` is a one-shot synchronization object.  Processes wait
on events by ``yield``-ing them; the engine resumes the process when the
event fires.  Events may *succeed* (carrying a value) or *fail*
(carrying an exception that is re-raised inside the waiting process).

Triggering an event queues its delivery on the engine's ready lane;
delivery hands the event to every callback in its list and replaces the
list with the shared empty tuple ``_DISPATCHED``.  A callback added
after that runs as a queued call of its own at the next step.
Subclasses created per flow or per sleep (:class:`Timeout`,
:class:`Wake`, ``TransferEvent``, ``FabricTransfer``) set their slots
directly rather than through ``__init__`` chains.
"""

from __future__ import annotations

import heapq
from functools import partial
from math import inf
from typing import Any, Callable, Iterable, Optional, TYPE_CHECKING

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Engine

__all__ = ["Event", "Timeout", "Wake", "AllOf", "AnyOf"]

_PENDING = object()
#: the callback "list" of a delivered event
_DISPATCHED: tuple = ()
#: kinds of engine queue entries (see :mod:`repro.sim.engine`)
EVENT, CALL, WAKEUP = 0, 1, 2


class Event:
    """A one-shot event.

    States: *pending* -> (*succeeded* | *failed*).  Once triggered the
    value/exception is frozen; triggering twice is an error (it would
    hide scheduling bugs).
    """

    __slots__ = ("engine", "callbacks", "_value", "_exc", "_triggered", "name")

    def __init__(self, engine: "Engine", name: str = "") -> None:
        self.engine = engine
        self.name = name
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = _PENDING
        self._exc: Optional[BaseException] = None
        self._triggered = False

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` was called."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        return self._triggered and self._exc is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError(f"event {self!r} has no value yet")
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc

    # -- triggering --------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Mark the event successful and schedule its callbacks *now*."""
        self._trigger(value, None)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Mark the event failed; waiters will re-raise *exc*."""
        if not isinstance(exc, BaseException):
            raise TypeError("fail() needs an exception instance")
        self._trigger(_PENDING, exc)
        return self

    def _trigger(self, value: Any, exc: Optional[BaseException]) -> None:
        if self._triggered:
            raise SimulationError(f"event {self!r} triggered twice")
        self._triggered = True
        self._value = value
        self._exc = exc
        # delivery is always "now": straight onto the engine's ready lane
        engine = self.engine
        engine._ready.append((engine.now, next(engine._seq), EVENT, self))

    # -- callbacks ---------------------------------------------------------

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run *fn(event)* when the event fires.  If the event has
        already been dispatched, run at the next engine step."""
        if self.callbacks is _DISPATCHED:
            self.engine._queue_callback(partial(fn, self))
        else:
            self.callbacks.append(fn)

    def _label(self) -> str:
        """What :meth:`__repr__` calls this event.  Events created per
        flow or per sleep derive it here instead of carrying a
        formatted ``name`` nobody else reads."""
        return self.name or self.__class__.__name__

    def __repr__(self) -> str:
        state = "pending"
        if self._triggered:
            state = "ok" if self._exc is None else f"failed({self._exc!r})"
        return f"<{self._label()} {state}>"


class Timeout(Event):
    """An event that fires after a fixed virtual-time delay."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        if not 0.0 <= delay < inf:
            raise SimulationError(f"timeout delay {delay} is not finite and non-negative")
        self.engine = engine
        self.name = ""
        self.callbacks = []
        self._exc = None
        # A timeout is born triggered; it is delivered after `delay`.
        self._triggered = True
        self._value = value
        self.delay = delay
        if delay == 0.0:
            engine._ready.append((engine.now, next(engine._seq), EVENT, self))
        else:
            heapq.heappush(engine._heap, (engine.now + delay, next(engine._seq), EVENT, self))

    def _label(self) -> str:
        return f"timeout({self.delay:g})"


class Wake(Event):
    """A sleep that ends on the first of :meth:`kick` or an optional
    deadline *delay* virtual seconds from now.

    It stands in for ``any_of([event, timeout(delay)])`` and keeps that
    join's queue footprint: the deadline entry takes its ``seq`` here,
    where the timeout did, and whichever cause is dispatched first
    queues the delivery one step later, where the join's own delivery
    went.  The loser's entry is dispatched and does nothing; a kick
    after that, or a second kick, queues nothing.  The value is
    ``None``.
    """

    __slots__ = ("_kicked",)

    def __init__(self, engine: "Engine", delay: Optional[float] = None) -> None:
        self.engine = engine
        self.name = ""
        self.callbacks = []
        self._value = _PENDING
        self._exc = None
        self._triggered = False
        self._kicked = False
        if delay is None:
            return
        if not 0.0 <= delay < inf:
            raise SimulationError(f"wake delay {delay} is not finite and non-negative")
        if delay == 0.0:
            engine._ready.append((engine.now, next(engine._seq), CALL, self._fire))
        else:
            heapq.heappush(engine._heap, (engine.now + delay, next(engine._seq), CALL, self._fire))

    def kick(self) -> None:
        """End the sleep now (a no-op once kicked or fired)."""
        if self._kicked or self._triggered:
            return
        self._kicked = True
        engine = self.engine
        engine._ready.append((engine.now, next(engine._seq), CALL, self._fire))

    def _fire(self) -> None:
        # the first cause to be dispatched delivers; the other is a no-op
        if not self._triggered:
            self._trigger(None, None)


class AllOf(Event):
    """Fires when every child event has fired; value is the list of
    child values (in construction order).  Fails fast on first failure."""

    __slots__ = ("_children", "_remaining")

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        super().__init__(engine, name="all_of")
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for ev in self._children:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self._triggered:
            return
        if not ev.ok:
            self.fail(ev.exception)  # type: ignore[arg-type]
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c._value for c in self._children])


class AnyOf(Event):
    """Fires when the first child fires; value is ``(index, value)``.

    One bound callback serves every child; when a child wins, it is
    taken off the children that lost and are still pending."""

    __slots__ = ("_children",)

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        super().__init__(engine, name="any_of")
        self._children = list(events)
        if not self._children:
            raise SimulationError("AnyOf needs at least one event")
        on_child = self._on_child
        for ev in self._children:
            ev.add_callback(on_child)

    def _on_child(self, ev: Event) -> None:
        if self._triggered:
            return
        on_child = self._on_child
        for child in self._children:
            if child.callbacks is not _DISPATCHED:
                child.callbacks = [cb for cb in child.callbacks if cb != on_child]
        if ev._exc is not None:
            self.fail(ev._exc)
            return
        # the first registration of the winner is the one that ran
        self.succeed((self._children.index(ev), ev._value))
