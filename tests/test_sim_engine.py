"""Discrete-event engine: clock, events, processes, determinism."""

import pytest

from repro.errors import ProcessKilled, SimulationError
from repro.sim import Engine


class TestClock:
    def test_starts_at_zero(self, engine):
        assert engine.now == 0.0

    def test_run_empty_returns_now(self, engine):
        assert engine.run() == 0.0

    def test_run_until_advances_clock_with_empty_heap(self, engine):
        engine.run(until=10.0)
        assert engine.now == 10.0

    def test_timeout_advances_clock(self, engine):
        def p():
            yield engine.timeout(5.0)
        engine.process(p())
        engine.run()
        assert engine.now == 5.0

    def test_run_until_stops_before_future_events(self, engine):
        fired = []

        def p():
            yield engine.timeout(100.0)
            fired.append(engine.now)

        engine.process(p())
        engine.run(until=10.0)
        assert engine.now == 10.0
        assert not fired
        engine.run()  # resume
        assert fired == [100.0]

    def test_negative_timeout_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.timeout(-1.0)

    @pytest.mark.parametrize("delay", [float("nan"), float("inf")])
    def test_non_finite_timeout_rejected(self, engine, delay):
        with pytest.raises(SimulationError):
            engine.timeout(delay)
        assert engine.peek() == float("inf")

    def test_run_until_before_now_rejected(self, engine):
        engine.run(until=10.5)
        with pytest.raises(SimulationError):
            engine.run(until=5.0)
        assert engine.now == 10.5
        assert engine.run(until=10.5) == 10.5

    def test_run_until_nan_rejected(self, engine):
        fired = []

        def p():
            yield engine.timeout(3.0)
            fired.append(engine.now)

        engine.process(p())
        with pytest.raises(SimulationError):
            engine.run(until=float("nan"))
        assert engine.now == 0.0 and not fired


class TestEvents:
    def test_succeed_delivers_value(self, engine):
        ev = engine.event()
        got = []

        def p():
            got.append((yield ev))

        engine.process(p())
        ev.succeed(42)
        engine.run()
        assert got == [42]

    def test_fail_raises_in_waiter(self, engine):
        ev = engine.event()

        def p():
            with pytest.raises(RuntimeError, match="boom"):
                yield ev
            return "handled"

        proc = engine.process(p())
        ev.fail(RuntimeError("boom"))
        engine.run()
        assert proc.value == "handled"

    def test_double_trigger_is_error(self, engine):
        ev = engine.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_value_before_trigger_is_error(self, engine):
        ev = engine.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_fail_requires_exception_instance(self, engine):
        ev = engine.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")  # type: ignore[arg-type]

    def test_callback_after_dispatch_still_fires(self, engine):
        ev = engine.event()
        ev.succeed("x")
        engine.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        engine.run()
        assert seen == ["x"]


class TestCombinators:
    def test_all_of_collects_values_in_order(self, engine):
        def p():
            t1 = engine.timeout(2.0, value="b")
            t2 = engine.timeout(1.0, value="a")
            vals = yield engine.all_of([t1, t2])
            return vals

        proc = engine.process(p())
        engine.run()
        assert proc.value == ["b", "a"]
        assert engine.now == 2.0

    def test_all_of_empty_fires_immediately(self, engine):
        def p():
            return (yield engine.all_of([]))

        proc = engine.process(p())
        engine.run()
        assert proc.value == []

    def test_any_of_returns_first_index_and_value(self, engine):
        def p():
            slow = engine.timeout(5.0, value="slow")
            fast = engine.timeout(1.0, value="fast")
            return (yield engine.any_of([slow, fast]))

        proc = engine.process(p())
        engine.run()
        assert proc.value == (1, "fast")

    def test_any_of_requires_events(self, engine):
        with pytest.raises(SimulationError):
            engine.any_of([])

    def test_all_of_fails_fast(self, engine):
        ev = engine.event()

        def p():
            with pytest.raises(ValueError):
                yield engine.all_of([ev, engine.timeout(100.0)])
            return engine.now

        proc = engine.process(p())
        ev.fail(ValueError("nope"))
        engine.run()
        # failure propagated immediately, not at t=100
        assert proc.value == 0.0


class TestProcesses:
    def test_process_is_waitable(self, engine):
        def child():
            yield engine.timeout(3.0)
            return "done"

        def parent():
            return (yield engine.process(child()))

        proc = engine.process(parent())
        engine.run()
        assert proc.value == "done"

    @pytest.mark.parametrize("body", [iter([]), [], lambda: None], ids=["iterator", "list", "function"])
    def test_process_needs_a_generator(self, engine, body):
        with pytest.raises(TypeError):
            engine.process(body)
        assert engine.peek() == float("inf")

    def test_yielding_non_event_fails_the_process(self, engine):
        def bad():
            yield 42  # type: ignore[misc]

        proc = engine.process(bad())
        engine.run()
        assert proc.triggered and not proc.ok
        assert isinstance(proc.exception, SimulationError)

    def test_exception_in_process_propagates_to_waiter(self, engine):
        def bad():
            yield engine.timeout(1.0)
            raise KeyError("broken")

        def parent():
            with pytest.raises(KeyError):
                yield engine.process(bad())
            return "caught"

        proc = engine.process(parent())
        engine.run()
        assert proc.value == "caught"

    def test_kill_injects_process_killed(self, engine):
        progress = []

        def victim():
            yield engine.timeout(10.0)
            progress.append("survived")

        proc = engine.process(victim())
        engine.run(until=1.0)
        proc.kill()
        engine.run()
        assert not progress
        assert not proc.ok
        assert isinstance(proc.exception, ProcessKilled)

    def test_kill_finished_process_is_noop(self, engine):
        def quick():
            yield engine.timeout(1.0)
            return 7

        proc = engine.process(quick())
        engine.run()
        proc.kill()
        engine.run()
        assert proc.value == 7

    def test_killed_process_ignores_stale_event(self, engine):
        ev = engine.event()

        def victim():
            yield ev

        proc = engine.process(victim())
        engine.run()
        proc.kill()
        engine.run()
        ev.succeed("late")  # must not resurrect the process
        engine.run()
        assert not proc.alive


class TestDeterminism:
    def test_fifo_tie_breaking(self, engine):
        order = []

        def p(name):
            yield engine.timeout(1.0)
            order.append(name)

        for name in "abc":
            engine.process(p(name))
        engine.run()
        assert order == ["a", "b", "c"]

    @pytest.mark.parametrize("when", [float("nan"), float("inf")])
    def test_call_at_non_finite_rejected(self, engine, when):
        with pytest.raises(SimulationError):
            engine.call_at(when, lambda: None)
        assert engine.peek() == float("inf")

    def test_call_at_past_rejected(self, engine):
        def p():
            yield engine.timeout(5.0)

        engine.process(p())
        engine.run()
        with pytest.raises(SimulationError):
            engine.call_at(1.0, lambda: None)

    def test_run_not_reentrant(self, engine):
        def p():
            engine.run()
            yield engine.timeout(1.0)

        proc = engine.process(p())
        engine.run()
        assert isinstance(proc.exception, SimulationError)

    def test_peek(self, engine):
        assert engine.peek() == float("inf")
        engine.timeout(3.0)
        assert engine.peek() == pytest.approx(3.0)
