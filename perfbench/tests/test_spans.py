"""Span arithmetic, generator transparency, install/uninstall identity."""

import sys
import types

import pytest

from perfbench.layers import LAYERS, flat_targets
from perfbench.spans import Tracer


class ScriptedClock:
    """A clock that only moves when the code under test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def program():
    """A two-module fake program under the ``fakeprog`` prefix."""
    root = types.ModuleType("fakeprog")
    leaf = types.ModuleType("fakeprog.leaf")
    user = types.ModuleType("fakeprog.user")
    exec(
        "def helper(x):\n"
        "    return x + 1\n"
        "class Thing:\n"
        "    def method(self, x):\n"
        "        return helper(x) * 2\n"
        "    @staticmethod\n"
        "    def static(x):\n"
        "        return x\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls()\n",
        vars(leaf),
    )
    user.helper = leaf.helper  # ``from fakeprog.leaf import helper``
    user.renamed = leaf.helper  # ``... import helper as renamed``
    modules = {"fakeprog": root, "fakeprog.leaf": leaf, "fakeprog.user": user}
    sys.modules.update(modules)
    yield types.SimpleNamespace(root=root, leaf=leaf, user=user)
    for name in modules:
        del sys.modules[name]


def test_self_time_is_duration_minus_children():
    clock = ScriptedClock()
    tracer = Tracer(["outer", "inner"], clock=clock)

    def inner():
        clock.spend(3.0)

    inner = tracer.wrap(inner, 1)

    def outer():
        clock.spend(1.0)
        inner()
        clock.spend(0.5)
        inner()

    outer = tracer.wrap(outer, 0)

    def whole_pass():
        clock.spend(0.25)  # nobody's: the root span's own time
        outer()

    _, spans = tracer.trace(whole_pass)
    assert spans.wall_s == pytest.approx(7.75)
    assert spans.root_self_s == pytest.approx(0.25)
    assert spans.self_s == pytest.approx([1.5, 6.0])
    assert spans.spans == [1, 2]
    assert spans.invocations == [1, 2]
    assert spans.root_self_s + sum(spans.self_s) == pytest.approx(spans.wall_s)


def test_self_time_survives_an_exception():
    clock = ScriptedClock()
    tracer = Tracer(["boom"], clock=clock)

    def boom():
        clock.spend(2.0)
        raise KeyError("x")

    boom = tracer.wrap(boom, 0)

    def whole_pass():
        with pytest.raises(KeyError):
            boom()
        clock.spend(1.0)

    _, spans = tracer.trace(whole_pass)
    assert spans.self_s == pytest.approx([2.0])
    assert spans.root_self_s == pytest.approx(1.0)


def test_trace_resets_between_passes():
    clock = ScriptedClock()
    tracer = Tracer(["f"], clock=clock)
    f = tracer.wrap(lambda: clock.spend(1.0), 0)
    tracer.trace(f)
    _, spans = tracer.trace(f)
    assert spans.self_s == pytest.approx([1.0]) and spans.spans == [1]


def _process(clock, log):
    """A DES-style process body: yields requests, receives answers."""
    clock.spend(1.0)
    got = yield "first"
    log.append(("sent", got))
    clock.spend(2.0)
    try:
        yield "second"
    except ValueError as exc:
        log.append(("thrown", str(exc)))
        clock.spend(4.0)
        yield "recovered"
    return "done"


def test_generator_is_timed_per_resumption_and_stays_a_generator():
    clock = ScriptedClock()
    tracer = Tracer(["proc"], clock=clock)
    log = []
    wrapped = tracer.wrap(_process, 0)

    def whole_pass():
        gen = wrapped(clock, log)
        assert isinstance(gen, types.GeneratorType)
        assert next(gen) == "first"
        clock.spend(100.0)  # suspended: must be nobody's but the root's
        assert gen.send("hello") == "second"
        assert gen.throw(ValueError("bad")) == "recovered"
        with pytest.raises(StopIteration) as stop:
            next(gen)
        return stop.value.value

    result, spans = tracer.trace(whole_pass)
    assert result == "done"
    assert log == [("sent", "hello"), ("thrown", "bad")]
    assert spans.self_s == pytest.approx([7.0])  # 1 + 2 + 4, not the 100
    assert spans.spans == [4]  # four resumptions ...
    assert spans.invocations == [1]  # ... of one process
    assert spans.root_self_s == pytest.approx(100.0)


def test_generator_return_value_crosses_yield_from():
    tracer = Tracer(["proc"], clock=ScriptedClock())
    wrapped = tracer.wrap(_process, 0)

    def parent():
        value = yield from wrapped(ScriptedClock(), [])
        return ("parent saw", value)

    gen = parent()
    assert next(gen) == "first"
    assert gen.send(None) == "second"
    assert gen.throw(ValueError("x")) == "recovered"
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    assert stop.value.value == ("parent saw", "done")


def test_generator_close_runs_the_finally_block_once():
    tracer = Tracer(["proc"], clock=ScriptedClock())
    closed = []

    def proc():
        try:
            yield 1
            yield 2
        finally:
            closed.append(True)

    gen = tracer.wrap(proc, 0)()
    assert next(gen) == 1
    gen.close()
    assert closed == [True]
    with pytest.raises(StopIteration):
        next(gen)


def test_exception_raised_by_the_generator_propagates():
    tracer = Tracer(["proc"], clock=ScriptedClock())

    def proc():
        yield 1
        raise RuntimeError("inside")

    gen = tracer.wrap(proc, 0)()
    next(gen)
    with pytest.raises(RuntimeError, match="inside"):
        next(gen)


def test_function_returning_a_generator_is_driven_too():
    clock = ScriptedClock()
    tracer = Tracer(["entry"], clock=clock)

    def _private_body():
        clock.spend(5.0)
        yield "x"
        clock.spend(6.0)

    def entry(blocking):
        return None if blocking else _private_body()

    entry = tracer.wrap(entry, 0)
    _, spans = tracer.trace(lambda: list(entry(False)))
    assert spans.self_s == pytest.approx([11.0])
    assert spans.invocations == [1]
    assert entry(True) is None


def test_observe_sums_a_probe_over_return_values():
    tracer = Tracer(["f"], observe={"f": len}, clock=ScriptedClock())
    f = tracer.wrap(lambda n: "x" * n, 0)
    _, spans = tracer.trace(lambda: (f(2), f(3)))
    assert spans.observed == {"f": 5.0}


def test_missing_targets_are_skipped_and_listed(program):
    tracer = Tracer(
        [
            "fakeprog.leaf:helper",
            "fakeprog.leaf:gone",
            "fakeprog.leaf:Thing.gone",
            "fakeprog.leaf:Gone.method",
            "fakeprog.nowhere:f",
            "fakeprog.leaf:Thing.method",
        ],
        prefix="fakeprog",
    )
    tracer.install()
    try:
        assert tracer.missing == [
            "fakeprog.leaf:gone",
            "fakeprog.leaf:Thing.gone",
            "fakeprog.leaf:Gone.method",
            "fakeprog.nowhere:f",
        ]
        _, spans = tracer.trace(lambda: program.leaf.Thing().method(1))
        assert spans.invocations == [1, 0, 0, 0, 0, 1]
    finally:
        tracer.uninstall()


def test_install_patches_every_namespace_and_uninstall_restores_identity(program):
    leaf, user = program.leaf, program.user
    before = {
        "helper": leaf.helper,
        "method": leaf.Thing.__dict__["method"],
        "static": leaf.Thing.__dict__["static"],
        "make": leaf.Thing.__dict__["make"],
    }
    tracer = Tracer(
        [
            "fakeprog.leaf:helper",
            "fakeprog.leaf:Thing.method",
            "fakeprog.leaf:Thing.static",
            "fakeprog.leaf:Thing.make",
        ],
        prefix="fakeprog",
    )
    tracer.install()
    assert leaf.helper is not before["helper"]
    assert user.helper is leaf.helper and user.renamed is leaf.helper
    assert isinstance(leaf.Thing.__dict__["static"], staticmethod)
    assert isinstance(leaf.Thing.__dict__["make"], classmethod)
    _, spans = tracer.trace(
        lambda: (leaf.Thing.make().method(1), leaf.Thing.static(7), user.renamed(1))
    )
    assert spans.invocations == [2, 1, 1, 1]
    with pytest.raises(RuntimeError):
        tracer.install()
    tracer.uninstall()
    assert leaf.helper is before["helper"]
    assert user.helper is before["helper"] and user.renamed is before["helper"]
    for name in ("method", "static", "make"):
        assert leaf.Thing.__dict__[name] is before[name]


def test_layer_table_names_only_public_targets_once():
    targets, owners = flat_targets()
    assert len(targets) == len(set(targets)) == len(owners)
    for spec in targets:
        module, _, qualified = spec.partition(":")
        assert module.startswith("repro")
        assert not any(part.startswith("_") for part in qualified.split("."))


def test_every_layer_target_resolves_at_this_commit_and_is_restored():
    import importlib

    targets, _ = flat_targets()
    originals = []
    for spec in targets:
        module, _, qualified = spec.partition(":")
        owner = importlib.import_module(module)
        head, dot, meth = qualified.partition(".")
        originals.append(
            vars(getattr(owner, head))[meth] if dot else vars(owner)[head]
        )
    tracer = Tracer(targets)
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    for spec, original in zip(targets, originals):
        module, _, qualified = spec.partition(":")
        owner = importlib.import_module(module)
        head, dot, meth = qualified.partition(".")
        now = vars(getattr(owner, head))[meth] if dot else vars(owner)[head]
        assert now is original, spec
    assert set(LAYERS) >= {"sim.engine", "core.codec", "exec", "replay"}
