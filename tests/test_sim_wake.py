"""A :class:`repro.sim.events.Wake` resumes its sleeper exactly where
the ``any_of([event, timeout(delay)])`` join it replaced did.

Every program below runs twice on a fresh engine: once with sleepers
that wait on ``engine.wake(delay)`` and kick it, once with sleepers
that wait on the join and succeed its event — the way the pre-copy
engine and the remote stream slept before.  Each process logs
``(time, name)`` every time it resumes; the two logs must be equal.
A kicker takes the sleeper's kick out of a shared slot before calling
it, as the owners do, so a second kick of one sleep never happens in
either version.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine


def join_sleep(engine, delay):
    """The join the wake replaced: its event, and how a kick ends it."""
    event = engine.event()
    waits = [event] if delay is None else [event, engine.timeout(delay)]

    def kick():
        if not event.triggered:
            event.succeed()

    return engine.any_of(waits), kick


def wake_sleep(engine, delay):
    wake = engine.wake(delay)
    return wake, wake.kick


def run(program, sleep):
    engine = Engine()
    log = []
    kicks = {}
    program(engine, log, kicks, lambda delay: sleep(engine, delay))
    engine.run()
    return log, engine.events_processed


def sleeper(engine, log, kicks, sleep, name, delay, at=0.0):
    if at:
        yield engine.timeout(at)
    waitable, kick = sleep(delay)
    kicks[name] = kick
    yield waitable
    kicks.pop(name, None)
    log.append((engine.now, name))


def kicker(engine, log, kicks, name, at, target, after=3):
    """Kick *target* at *at*, then take *after* zero-delay steps, so the
    log shows how many queued steps the delivery took."""
    yield engine.timeout(at)
    kick = kicks.pop(target, None)
    if kick is not None:
        kick()
    log.append((engine.now, name))
    for i in range(after):
        yield engine.timeout(0.0)
        log.append((engine.now, f"{name}+{i}"))


def ticker(engine, log, name, at, steps=4):
    yield engine.timeout(at)
    log.append((engine.now, name))
    for i in range(steps):
        yield engine.timeout(0.0)
        log.append((engine.now, f"{name}+{i}"))


def kick_only(engine, log, kicks, sleep):
    engine.process(ticker(engine, log, "early", 1.0))
    engine.process(sleeper(engine, log, kicks, sleep, "s", None))
    engine.process(kicker(engine, log, kicks, "k", 1.0, "s"))
    engine.process(ticker(engine, log, "late", 1.0))


def deadline_only(engine, log, kicks, sleep):
    engine.process(ticker(engine, log, "before", 2.0))
    engine.process(sleeper(engine, log, kicks, sleep, "s", 2.0))
    engine.process(ticker(engine, log, "after", 2.0))


def kick_wins_over_a_later_deadline(engine, log, kicks, sleep):
    engine.process(sleeper(engine, log, kicks, sleep, "s", 2.0))
    engine.process(kicker(engine, log, kicks, "k", 1.0, "s"))
    engine.process(ticker(engine, log, "at-deadline", 2.0))


def kick_queued_before_the_deadline(engine, log, kicks, sleep):
    # the kicker's timeout takes its seq before the sleeper's deadline,
    # so at t=2 the kick is called first and its entry waits behind the
    # deadline's
    engine.process(kicker(engine, log, kicks, "k", 2.0, "s"))
    engine.process(sleeper(engine, log, kicks, sleep, "s", 2.0))
    engine.process(ticker(engine, log, "t", 2.0))


def kick_queued_after_the_deadline(engine, log, kicks, sleep):
    # the deadline is dispatched first; the kick comes after it fired
    # and before its delivery
    engine.process(sleeper(engine, log, kicks, sleep, "s", 2.0))
    engine.process(kicker(engine, log, kicks, "k", 2.0, "s"))
    engine.process(ticker(engine, log, "t", 2.0))


def kick_after_fire_from_a_same_instant_chain(engine, log, kicks, sleep):
    # the kicker reaches t=2 through zero-delay steps queued after the
    # deadline fired, and kicks while the delivery is still queued
    engine.process(sleeper(engine, log, kicks, sleep, "s", 2.0))

    def late_kicker():
        yield engine.timeout(2.0)
        log.append((engine.now, "k"))
        yield engine.timeout(0.0)
        kick = kicks.pop("s", None)
        if kick is not None:
            kick()
        log.append((engine.now, "k+0"))
        yield engine.timeout(0.0)
        log.append((engine.now, "k+1"))

    engine.process(late_kicker())


def zero_delay_deadline_and_a_kick(engine, log, kicks, sleep):
    engine.process(ticker(engine, log, "t", 1.0))
    engine.process(sleeper(engine, log, kicks, sleep, "s", 0.0, at=1.0))
    engine.process(kicker(engine, log, kicks, "k", 1.0, "s"))


CASES = [
    kick_only,
    deadline_only,
    kick_wins_over_a_later_deadline,
    kick_queued_before_the_deadline,
    kick_queued_after_the_deadline,
    kick_after_fire_from_a_same_instant_chain,
    zero_delay_deadline_and_a_kick,
]


@pytest.mark.parametrize("program", CASES, ids=[c.__name__ for c in CASES])
def test_wake_resumes_where_the_join_did(program):
    want, join_dispatches = run(program, join_sleep)
    got, wake_dispatches = run(program, wake_sleep)
    assert got == want
    assert "s" in {name for _, name in got}
    # only dispatches that do nothing may go: a kick after the deadline
    # fired queues nothing
    assert join_dispatches - 1 <= wake_dispatches <= join_dispatches


def test_a_kick_after_the_deadline_fired_queues_nothing():
    engine = Engine()
    wake = engine.wake(1.0)
    seen = []

    def late():
        # dispatched after the deadline (its timeout took a later seq),
        # before the delivery the deadline queued
        yield engine.timeout(1.0)
        queued = len(engine._ready)
        wake.kick()
        wake.kick()
        seen.append((wake.triggered, wake.callbacks == [], queued, len(engine._ready)))

    engine.process(late())
    engine.run()
    fired, undelivered, before, after = seen[0]
    assert fired and undelivered and after == before
    assert wake.ok and wake.value is None


def test_a_second_kick_is_a_no_op():
    engine = Engine()
    wake = engine.wake()
    wake.kick()
    wake.kick()
    engine.run()
    assert wake.ok
    assert engine.events_processed == 2  # the kick, then the delivery


@pytest.mark.parametrize("delay", [-1.0, float("inf"), float("nan")])
def test_deadline_must_be_finite_and_non_negative(delay):
    with pytest.raises(SimulationError):
        Engine().wake(delay)


DELAYS = (None, None, 0.0, 0.5, 1.0, 1.0, 2.0)
STEPS = (0.0, 0.0, 0.5, 1.0, 1.0, 1.5)


def seeded_program(seed):
    """Three sleepers, three kickers and a ticker with pre-drawn
    scripts on a coarse time grid, so kicks, deadlines and ticks keep
    meeting at one instant.  A sleeper nobody kicks again just stays
    asleep, in both versions."""
    rng = random.Random(seed)
    sleeps = {f"s{i}": [rng.choice(DELAYS) for _ in range(6)] for i in range(3)}
    kicks_of = {
        f"k{i}": [(rng.choice(STEPS), rng.choice(sorted(sleeps)), rng.randrange(3))
                  for _ in range(8)]
        for i in range(3)
    }
    ticks = [rng.choice(STEPS) for _ in range(10)]

    def program(engine, log, kicks, sleep):
        def sleeper_loop(name, delays):
            for delay in delays:
                waitable, kick = sleep(delay)
                kicks[name] = kick
                yield waitable
                kicks.pop(name, None)
                log.append((engine.now, name))

        def kicker_loop(name, script):
            for step, target, zeros in script:
                yield engine.timeout(step)
                kick = kicks.pop(target, None)
                if kick is not None:
                    kick()
                log.append((engine.now, name))
                for _ in range(zeros):
                    yield engine.timeout(0.0)
                    log.append((engine.now, f"{name}+"))

        def ticker_loop():
            for step in ticks:
                yield engine.timeout(step)
                log.append((engine.now, "tick"))

        for name, delays in sleeps.items():
            engine.process(sleeper_loop(name, delays))
        for name, script in kicks_of.items():
            engine.process(kicker_loop(name, script))
        engine.process(ticker_loop())

    return program


@pytest.mark.parametrize("seed", range(120))
def test_seeded_programs_resume_in_the_join_order(seed):
    program = seeded_program(seed)
    want, _ = run(program, join_sleep)
    got, _ = run(program, wake_sleep)
    assert got == want
