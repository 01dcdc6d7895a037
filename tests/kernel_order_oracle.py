"""The simulation kernel written plainly, as the order reference.

One heap of ``(time, seq, kind, payload)`` entries (kind 0 delivers an
event to its callbacks, kind 1 calls a bare function); a process
resumes through ``add_callback`` on whatever it yielded; ``AnyOf``
registers one lambda per child; a bandwidth resource schedules its
next completion as a ``functools.partial`` of its wakeup method, which
checks a token; a fabric transfer joins its egress and ingress flows
with ``AllOf`` and schedules its arrival ``rdma_latency`` after that
join has been delivered.

``tests/test_kernel_order.py`` runs seeded programs on this and on
:mod:`repro.sim` / :mod:`repro.net.interconnect` and requires the same
resume log.  Nothing here is tuned: it exists to be obviously right
about the order in which things happen.
"""

from __future__ import annotations

import heapq
from functools import partial
from itertools import count

from repro.errors import ProcessKilled, SimulationError, TransferCancelled

_PENDING = object()
_EPSILON_BYTES = 1e-6
_EPSILON_SECONDS = 1e-9


class Engine:
    def __init__(self):
        self.now = 0.0
        self._seq = count()
        self._heap = []

    def _push(self, when, kind, payload):
        heapq.heappush(self._heap, (when, next(self._seq), kind, payload))

    def event(self, name=""):
        return Event(self)

    def timeout(self, delay, value=None):
        return Timeout(self, delay, value)

    def all_of(self, events):
        return AllOf(self, events)

    def any_of(self, events):
        return AnyOf(self, events)

    def process(self, gen, name=""):
        return Process(self, gen)

    def call_at(self, when, fn):
        if when < self.now - 1e-12:
            raise SimulationError("call_at in the past")
        self._push(max(when, self.now), 1, fn)

    def run(self):
        while self._heap:
            when, _, kind, payload = heapq.heappop(self._heap)
            self.now = when
            if kind == 0:
                payload.dispatched = True
                callbacks, payload.callbacks = payload.callbacks, []
                for cb in callbacks:
                    cb(payload)
            else:
                payload()
        return self.now


class Event:
    def __init__(self, engine):
        self.engine = engine
        self.callbacks = []
        self.value = _PENDING
        self.exc = None
        self.triggered = False
        self.dispatched = False

    @property
    def ok(self):
        return self.triggered and self.exc is None

    def succeed(self, value=None):
        self._trigger(value, None)
        return self

    def fail(self, exc):
        self._trigger(_PENDING, exc)
        return self

    def _trigger(self, value, exc):
        if self.triggered:
            raise SimulationError("event triggered twice")
        self.triggered = True
        self.value, self.exc = value, exc
        self.engine._push(self.engine.now, 0, self)

    def add_callback(self, fn):
        if self.dispatched:
            self.engine._push(self.engine.now, 1, lambda: fn(self))
        else:
            self.callbacks.append(fn)


class Timeout(Event):
    def __init__(self, engine, delay, value=None):
        if delay < 0:
            raise SimulationError("negative delay")
        super().__init__(engine)
        self.triggered = True
        self.value = value
        engine._push(engine.now + delay, 0, self)


class AllOf(Event):
    def __init__(self, engine, events):
        super().__init__(engine)
        self.children = list(events)
        self.remaining = len(self.children)
        if not self.children:
            self.succeed([])
        for ev in self.children:
            ev.add_callback(self._on_child)

    def _on_child(self, ev):
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.exc)
            return
        self.remaining -= 1
        if self.remaining == 0:
            self.succeed([c.value for c in self.children])


class AnyOf(Event):
    def __init__(self, engine, events):
        super().__init__(engine)
        self.children = list(events)
        for i, ev in enumerate(self.children):
            ev.add_callback(lambda e, i=i: self._on_child(i, e))

    def _on_child(self, index, ev):
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.exc)
            return
        self.succeed((index, ev.value))


class Process(Event):
    def __init__(self, engine, gen):
        super().__init__(engine)
        self.gen = gen
        self.waiting_on = None
        self.alive = True
        engine._push(engine.now, 1, lambda: self._resume(None, None))

    def kill(self):
        if self.alive:
            exc = ProcessKilled("killed")
            self.engine._push(self.engine.now, 1, lambda: self._resume(None, exc, True))

    def abort(self):
        if not self.alive:
            return
        self.alive = False
        self.waiting_on = None
        try:
            self.gen.close()
        except Exception:
            pass

    def _on_event(self, ev):
        if not self.alive or self.waiting_on is not ev:
            return
        self.waiting_on = None
        self._resume(ev.value if ev.exc is None else None, ev.exc)

    def _resume(self, value, exc, forced=False):
        if not self.alive:
            return
        if forced:
            self.waiting_on = None
        try:
            target = self.gen.throw(exc) if exc is not None else self.gen.send(value)
        except StopIteration as stop:
            self.alive = False
            self.succeed(stop.value)
            return
        except BaseException as err:
            self.alive = False
            self.fail(err)
            return
        if not isinstance(target, Event):
            self.alive = False
            self.fail(SimulationError("yielded a non-event"))
            return
        self.waiting_on = target
        target.add_callback(self._on_event)


class _Flow:
    def __init__(self, fid, nbytes, event, tag, now):
        self.fid, self.remaining, self.event, self.tag, self.started_at = (
            fid, float(nbytes), event, tag, now
        )


class BandwidthResource:
    def __init__(self, engine, capacity, per_flow_cap=None, capacity_fn=None):
        self.engine = engine
        self.capacity = float(capacity)
        self.per_flow_cap = per_flow_cap
        self.capacity_fn = capacity_fn
        self.flows = {}
        self.next_id = 0
        self.last_update = engine.now
        self.token = 0

    def _rate(self, n):
        cap = self.capacity_fn(n) if self.capacity_fn else self.capacity
        share = cap / n
        return share if self.per_flow_cap is None else min(self.per_flow_cap, share)

    def transfer(self, nbytes, tag=""):
        return self.transfer_many([(nbytes, tag)])[0]

    def transfer_many(self, requests):
        if any(nbytes < 0 for nbytes, _ in requests):
            raise SimulationError("negative byte count")
        events, joined = [], False
        for nbytes, tag in requests:
            ev = Event(self.engine)
            events.append(ev)
            if nbytes < _EPSILON_BYTES:
                ev.succeed(0.0)
                continue
            if not joined:
                self._advance()
                joined = True
            self.flows[self.next_id] = _Flow(self.next_id, nbytes, ev, tag, self.engine.now)
            self.next_id += 1
        if joined:
            self._reschedule()
        return events

    def cancel_matching(self, predicate):
        self._advance()
        doomed = [f for f in self.flows.values() if predicate(f.tag)]
        for f in doomed:
            del self.flows[f.fid]
            f.event.fail(TransferCancelled(f.tag))
        if doomed:
            self._reschedule()
        return len(doomed)

    def _advance(self):
        now = self.engine.now
        dt, self.last_update = now - self.last_update, now
        if dt <= 0 or not self.flows:
            return
        rate = self._rate(len(self.flows))
        moved = rate * dt
        for f in list(self.flows.values()):
            f.remaining -= moved
            if f.remaining <= _EPSILON_BYTES and f.remaining <= rate * _EPSILON_SECONDS:
                del self.flows[f.fid]
                f.event.succeed(now - f.started_at)

    def _reschedule(self):
        self.token += 1
        now = self.engine.now
        while self.flows:
            rate = self._rate(len(self.flows))
            nearest = min(f.remaining for f in self.flows.values())
            if not nearest / rate < _EPSILON_SECONDS:
                self.engine.call_at(now + nearest / rate, partial(self._on_wakeup, self.token))
                return
            for f in [f for f in self.flows.values() if f.remaining / rate < _EPSILON_SECONDS]:
                del self.flows[f.fid]
                f.event.succeed(now - f.started_at)

    def _on_wakeup(self, token):
        if token == self.token:
            self._advance()
            self._reschedule()


class Fabric:
    """Egress and ingress links per node; checkpoint-kind flows are torn
    down by an outage and refused while it lasts."""

    def __init__(self, engine, n_nodes, bandwidth, latency, checkpoint_kinds):
        self.engine = engine
        self.links = [
            (BandwidthResource(engine, bandwidth), BandwidthResource(engine, bandwidth))
            for _ in range(n_nodes)
        ]
        self.latency = latency
        self.checkpoint_kinds = checkpoint_kinds
        self.outage = set()

    def _is_ckpt(self, tag):
        return tag.rsplit(":", 1)[-1] in self.checkpoint_kinds

    def begin_outage(self, node):
        self.outage.add(node)
        egress, ingress = self.links[node]
        return egress.cancel_matching(self._is_ckpt) + ingress.cancel_matching(self._is_ckpt)

    def end_outage(self, node):
        self.outage.discard(node)

    def transfer(self, src, dst, nbytes, tag=""):
        if self._is_ckpt(tag) and self.outage & {src, dst}:
            return Event(self.engine).fail(TransferCancelled("checkpoint path down"))
        both = self.engine.all_of([
            self.links[src][0].transfer(nbytes, tag),
            self.links[dst][1].transfer(nbytes, tag),
        ])
        done = Event(self.engine)

        def _finish(ev):
            if not ev.ok:
                done.fail(ev.exc)
                return
            self.engine.call_at(self.engine.now + self.latency, lambda: done.succeed(None))

        both.add_callback(_finish)
        return done
