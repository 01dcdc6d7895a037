"""Outside-in span tracing: wrap public callables, account self time.

The traced run of a workload needs "how much host time did each layer
spend itself" without editing the program.  A :class:`Tracer` replaces
the public functions and methods named in :mod:`perfbench.layers` with
thin wrappers that open a span on entry and close it on exit.  A span's
*self time* is its duration minus the part its child spans cover, so
every nanosecond of a traced pass lands in exactly one place: a
target's self time, or the root span's (work no wrapped callable saw).

Generator targets (DES process bodies such as ``PrecopyEngine.run``)
are timed **per resumption**: each ``send``/``throw``/``close`` is one
span, the time the process spends suspended is nobody's.  A plain
function that returns a generator object is treated the same way.  The wrapper
is itself a real generator, so ``yield from`` delegation, ``send``
values, thrown exceptions, ``close()`` and the return value behave
exactly as on the undecorated generator.

Wrappers exist only between :meth:`Tracer.install` and
:meth:`Tracer.uninstall`; uninstall puts back the very objects it
replaced, so the timed (untraced) run never executes through one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from types import GeneratorType
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Tracer", "PassSpans", "span_cost_us"]

_MISSING = object()


class PassSpans:
    """What one traced pass measured, indexed like ``Tracer.targets``."""

    __slots__ = ("wall_s", "root_self_s", "self_s", "spans", "invocations", "observed")

    def __init__(self, wall_s, root_self_s, self_s, spans, invocations, observed) -> None:
        self.wall_s: float = wall_s
        #: time inside the pass that no wrapped callable covered
        self.root_self_s: float = root_self_s
        self.self_s: List[float] = self_s
        #: spans closed (a generator counts one per resumption)
        self.spans: List[int] = spans
        #: calls of the callable (a generator counts one per creation)
        self.invocations: List[int] = invocations
        #: target spec -> sum of its probe over the calls of this pass
        self.observed: Dict[str, float] = observed


class Tracer:
    """Span wrappers over ``"module:Class.method"`` / ``"module:function"``
    targets.

    ``targets`` is the ordered list of specs; every per-target list the
    tracer reports is aligned with it.  Specs that do not resolve are
    collected in :attr:`missing` at install time and simply skipped.
    ``observe`` maps a target spec to a probe called with each return
    value of that target; the probe's results are summed per pass (how
    a count the program only exposes on a result object is read).
    ``clock`` is the time source (tests substitute a scripted one).
    """

    def __init__(
        self,
        targets: Sequence[str],
        *,
        prefix: str = "repro",
        observe: Optional[Dict[str, Callable[[Any], float]]] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.targets: List[str] = list(targets)
        self.missing: List[str] = []
        self._prefix = prefix
        self._clock = clock
        self._observe = dict(observe or {})
        self._observed = {spec: 0.0 for spec in self._observe}
        n = len(self.targets)
        self._self_s = [0.0] * n
        self._spans = [0] * n
        self._invocations = [0] * n
        # frame = [child seconds]; the bottom frame is the pass itself
        self._stack: List[List[float]] = [[0.0]]
        #: (owner, attribute, original) for every replaced attribute
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- wrappers ------------------------------------------------------

    def wrap(self, fn: Callable, index: int) -> Callable:
        """The span wrapper of *fn*, booking to target *index*."""
        stack, self_s, spans = self._stack, self._self_s, self._spans
        invocations, clock = self._invocations, self._clock
        spec = self.targets[index]
        probe = self._observe.get(spec)
        if probe is not None:
            observed, inner = self._observed, fn

            @functools.wraps(inner)
            def fn(*args, **kwargs):
                result = inner(*args, **kwargs)
                observed[spec] += probe(result)
                return result

        def drive(gen):
            resume, arg = gen.send, None
            while True:
                frame = [0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    item = resume(arg)
                except StopIteration as stop:
                    return stop.value
                finally:
                    dt = clock() - t0
                    stack.pop()
                    self_s[index] += dt - frame[0]
                    spans[index] += 1
                    stack[-1][0] += dt
                try:
                    arg = yield item
                    resume = gen.send
                except GeneratorExit:
                    resume, arg = _close, gen
                except BaseException as exc:
                    resume, arg = gen.throw, exc

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                invocations[index] += 1
                return drive(fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[index] += dt - frame[0]
                spans[index] += 1
                invocations[index] += 1
                stack[-1][0] += dt
            # a plain function handing back a generator object (e.g.
            # ``CheckpointEngine.checkpoint(blocking=False)``) is a
            # generator entry point too
            if type(result) is GeneratorType:
                return drive(result)
            return result

        return wrapper

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        """Replace every resolvable target with its wrapper."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for spec in self.targets:  # load first, so the index below is complete
            try:
                importlib.import_module(spec.partition(":")[0])
            except ImportError:
                pass
        # ``from x import f`` copies the reference, so a function is
        # patched in every namespace of the program holding that object
        holders: Dict[int, List[Tuple[Any, str]]] = {}
        for name, module in list(sys.modules.items()):
            if module is not None and (
                name == self._prefix or name.startswith(self._prefix + ".")
            ):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value):
                        holders.setdefault(id(value), []).append((module, attr))
        self.missing = [
            spec
            for index, spec in enumerate(self.targets)
            if not self._install_one(spec, index, holders)
        ]

    def _install_one(self, spec: str, index: int, holders) -> bool:
        mod_name, _, qual = spec.partition(":")
        module = sys.modules.get(mod_name)
        if module is None:
            return False
        cls_name, dot, meth = qual.partition(".")
        if not dot:
            fn = getattr(module, qual, _MISSING)
            if not inspect.isfunction(fn):
                return False
            wrapped = self.wrap(fn, index)
            for owner, attr in holders.get(id(fn), [(module, qual)]):
                self._replace(owner, attr, wrapped)
            return True
        cls = getattr(module, cls_name, _MISSING)
        if not inspect.isclass(cls):
            return False
        raw = cls.__dict__.get(meth, _MISSING)
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped: Any = type(raw)(self.wrap(raw.__func__, index))
        elif inspect.isfunction(raw):
            wrapped = self.wrap(raw, index)
        else:
            return False
        self._replace(cls, meth, wrapped)
        return True

    def _replace(self, owner: Any, attr: str, new: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        """Put back every original, newest replacement first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- one traced pass -----------------------------------------------

    def trace(self, fn: Callable[[], Any]) -> Tuple[Any, PassSpans]:
        """Run ``fn()`` as the root span and return its result with the
        per-target accounting of exactly that call."""
        n = len(self.targets)
        self._self_s[:] = [0.0] * n
        self._spans[:] = [0] * n
        self._invocations[:] = [0] * n
        for spec in self._observed:
            self._observed[spec] = 0.0
        del self._stack[1:]
        root = self._stack[0]
        root[0] = 0.0
        t0 = self._clock()
        result = fn()
        wall = self._clock() - t0
        return result, PassSpans(
            wall_s=wall,
            root_self_s=wall - root[0],
            self_s=list(self._self_s),
            spans=list(self._spans),
            invocations=list(self._invocations),
            observed=dict(self._observed),
        )


def span_cost_us(calls: int = 20000) -> float:
    """Measured cost of one span in microseconds: the same no-op called
    *calls* times through a wrapper and bare."""

    def noop() -> None:
        return None

    wrapped = Tracer(["<calibration>"]).wrap(noop, 0)
    seconds = []
    for candidate in (noop, wrapped):
        t0 = time.perf_counter()
        for _ in range(calls):
            candidate()
        seconds.append(time.perf_counter() - t0)
    return max(0.0, seconds[1] - seconds[0]) / calls * 1e6


def _close(gen) -> None:
    """Resume step that closes the wrapped generator and then ends the
    driver the way a closed generator ends."""
    gen.close()
    raise GeneratorExit
