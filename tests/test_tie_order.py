"""Same-instant dispatch order must decide no record.

The kernel runs entries due at the same virtual instant in ``seq``
order: FIFO, by the order they were queued.  Nothing in the model says
which of two same-instant entries comes first, so no run record may
depend on it.  This test replaces the kernel's ``seq`` counter
(``repro.sim.engine.count``, the one ``Engine`` draws its sequence
numbers from) with a seeded stream of random floats.  That permutes
ties among timers and between the timer heap and the now-lane; order
inside the now-lane stays FIFO.  Each cell is run once as is and under
three such permutations, and every ``RunResult.to_dict()`` must equal
the canonical run's.

The hook is test-only: no option, flag or config field exposes it.
"""

from __future__ import annotations

import random

import pytest

from repro.sim import engine as engine_mod

from tests.test_record_digests import CELLS, ELASTIC_CELL, LINK_FLAP_CELL, cell_record, gen

#: seeds of the permuted orders
PERMUTATIONS = (1, 2, 3)

_FAILURES = gen.TRACE_CELLS["synthetic-failures"]
assert _FAILURES[-2] == "--seed"

#: name -> experiment argv
TIE_CELLS = {
    **CELLS,
    "link-flap": LINK_FLAP_CELL,
    **{
        f"synthetic-failures-seed{seed}": _FAILURES[:-1] + [str(seed)]
        for seed in (2, 3, 4)
    },
    "gtc-small-chunks-96": gen.TRACE_CELLS["gtc-small-chunks-96"],
    "dcpcp-remote-precopy": gen.TRACE_CELLS["dcpcp-remote-precopy"],
}

_ELASTIC_TIE = pytest.mark.xfail(
    strict=True,
    reason=(
        "ROADMAP item 15: every retried send of elastic-full-resync is "
        "issued at t = 140 s, the instant of its second hard failure, and "
        "the order of the entries due then decides how many are retried"
    ),
)


def _permuted_record(argv, seed: int, monkeypatch) -> dict:
    with monkeypatch.context() as m:
        # each Engine draws a fresh stream from the same seed
        m.setattr(engine_mod, "count", lambda: iter(random.Random(seed).random, None))
        return cell_record(argv)


@pytest.mark.parametrize(
    "argv",
    [
        *(pytest.param(argv, id=name) for name, argv in TIE_CELLS.items()),
        pytest.param(ELASTIC_CELL, id="elastic-full-resync", marks=_ELASTIC_TIE),
    ],
)
def test_record_does_not_depend_on_same_instant_order(argv, monkeypatch):
    canonical = cell_record(argv)
    for seed in PERMUTATIONS:
        assert _permuted_record(argv, seed, monkeypatch) == canonical, (
            f"record moved under tie permutation {seed}"
        )


def test_the_hook_reorders_ties(monkeypatch):
    """The patched counter does reorder same-instant entries, so the
    equalities above are not vacuous."""

    def order():
        eng = engine_mod.Engine()
        fired = []
        for i in range(8):
            eng.call_at(1.0, lambda i=i: fired.append(i))
        eng.run()
        return fired

    assert order() == list(range(8))
    with monkeypatch.context() as m:
        m.setattr(engine_mod, "count", lambda: iter(random.Random(1).random, None))
        assert order() != list(range(8))
