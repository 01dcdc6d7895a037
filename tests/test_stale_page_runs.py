"""The run-list ``StalePageMap`` must answer every question the bitmap
map it replaced answered, the same way: seeded programs mix marks,
aligned and unaligned clears, whole-slot clears, read-and-reset reads,
slot growth, full re-staling and resizes over ragged region sizes and
odd page sizes, and after every step each slot's ``extents`` and
``stale_bytes`` must equal the bitmap oracle's
(``tests/stale_map_oracle.py``).  The oracle is given unaligned clears
already rounded inward, the rule the run map applies itself."""

import random

import pytest

from repro.errors import InvalidAddress
from repro.memory.page import StalePageMap
from repro.units import pages_of

from tests.stale_map_oracle import StalePageMap as BitmapMap
from tests.stale_map_oracle import covered_runs

PAGE_SIZES = (48, 64, 100, 4096)


def ragged_size(rng: random.Random, page_size: int) -> int:
    """A region of 0-40 pages whose last page is usually partial."""
    n_pages = rng.choice((0, 1, 2, 3, 7, 17, 40))
    if n_pages == 0:
        return 0
    return n_pages * page_size - rng.choice((0, 1, page_size // 3, page_size - 1))


def byte_range(rng: random.Random, nbytes: int, page_size: int):
    """An in-range ``(offset, nbytes)``: whole region, page-aligned,
    a single byte, empty, or anything."""
    if nbytes == 0:
        return (0, 0)
    kind = rng.randrange(6)
    if kind == 0:
        return (0, nbytes)
    if kind == 1:
        first = rng.randrange(pages_of(nbytes, page_size))
        off = first * page_size
        return (off, min(nbytes - off, rng.randint(1, 4) * page_size))
    if kind == 2:
        return (rng.randrange(nbytes), 1)
    if kind == 3:
        return (rng.randrange(nbytes + 1), 0)
    off = rng.randrange(nbytes)
    return (off, rng.randint(1, nbytes - off))


def assert_same(runs: StalePageMap, oracle: BitmapMap, where: str) -> None:
    assert runs.n_slots == oracle.n_slots, where
    assert (runs.nbytes, runs.n_pages) == (oracle.nbytes, oracle.n_pages), where
    for slot in range(oracle.n_slots):
        assert runs.extents(slot) == oracle.extents(slot), f"{where}: slot {slot}"
        assert runs.stale_bytes(slot) == oracle.stale_bytes(slot), f"{where}: slot {slot}"


def run_program(seed: int) -> dict:
    """One seeded program on both maps; returns how often each
    operation ran (for the coverage check)."""
    rng = random.Random(seed)
    page_size = PAGE_SIZES[seed % len(PAGE_SIZES)]
    nbytes = ragged_size(rng, page_size)
    n_slots = rng.randint(1, 3)
    runs = StalePageMap(nbytes, n_slots, page_size=page_size)
    oracle = BitmapMap(nbytes, n_slots, page_size=page_size)
    assert_same(runs, oracle, "fresh")
    ops = dict.fromkeys(
        ("mark", "clear-aligned", "clear-unaligned", "clear_all", "extents-clear",
         "ensure_slots", "mark_all", "resize", "out-of-range", "straddling"),
        0,
    )
    for step in range(rng.randint(20, 60)):
        slot = rng.randrange(oracle.n_slots)
        draw = rng.random()
        if draw < 0.40:
            op = "mark"
            off, n = byte_range(rng, oracle.nbytes, page_size)
            runs.mark(off, n)
            oracle.mark(off, n)
        elif draw < 0.55:
            op = "clear-aligned"
            # what a copy does: clear some of the runs the slot reported
            pending = oracle.extents(slot)
            chosen = [e for e in pending if rng.random() < 0.7]
            runs.clear_extents(slot, chosen)
            oracle.clear_extents(slot, chosen)
        elif draw < 0.70:
            op = "clear-unaligned"
            chosen = [byte_range(rng, oracle.nbytes, page_size) for _ in range(rng.randint(1, 3))]
            inward = covered_runs(chosen, oracle.nbytes, page_size)
            runs.clear_extents(slot, chosen)
            oracle.clear_extents(slot, inward)
            # a clear covering some page only in part
            ops["straddling"] += any(
                sum(k for _, k in covered_runs([e], oracle.nbytes, page_size)) < e[1]
                for e in chosen
            )
        elif draw < 0.76:
            op = "clear_all"
            runs.clear_all(slot)
            oracle.clear_all(slot)
        elif draw < 0.84:
            op = "extents-clear"
            assert runs.extents(slot, clear=True) == oracle.extents(slot, clear=True)
        elif draw < 0.88:
            op = "ensure_slots"
            k = rng.randint(1, oracle.n_slots + 2)
            runs.ensure_slots(k)
            oracle.ensure_slots(k)
        elif draw < 0.91:
            op = "mark_all"
            runs.mark_all()
            oracle.mark_all()
        elif draw < 0.95:
            op = "resize"
            new = ragged_size(rng, page_size)
            runs.resize(new)
            oracle.resize(new)
        else:
            op = "out-of-range"
            off = rng.choice((-1, oracle.nbytes, oracle.nbytes + page_size))
            for m in (runs, oracle):
                with pytest.raises(InvalidAddress):
                    m.mark(off, rng.randint(1, page_size))
        ops[op] += 1
        assert_same(runs, oracle, f"seed {seed} step {step} after {op}")
    return ops


@pytest.mark.parametrize("seed", range(400))
def test_runs_answer_like_the_bitmap(seed):
    run_program(seed)


def test_programs_cover_every_operation():
    totals: dict = {}
    for seed in range(400):
        for op, n in run_program(seed).items():
            totals[op] = totals.get(op, 0) + n
    assert min(totals.values()) >= 200, totals

