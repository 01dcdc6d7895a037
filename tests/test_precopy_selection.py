"""The pre-copy engine's ready index: it must name the chunk the old
linear scan named (``tests/linear_scan_oracle.py``) after any sequence
of events, drop deleted chunks, pick up late allocations, survive a
stop/start — and cost what it picks, not what is dirty."""

import dataclasses
import random

import pytest

from repro.alloc import NVAllocator
from repro.alloc.chunk import Chunk, ChunkState
from repro.config import CheckpointConfig, PrecopyPolicy
from repro.core import NVMCheckpoint, PrecopyEngine, make_standalone_context
from repro.core import policy as policy_mod
from repro.core.precopy import ReadyIndex
from repro.core.prediction import PredictionTable
from repro.core.threshold import ThresholdEstimator
from repro.exec.cell import run_cell
from repro.faults import crashpoints
from repro.units import KB

from tests.conftest import gtc_cell
from tests.linear_scan_oracle import LinearScanOracle

MODES = ("none", "cpc", "dcpc", "dcpcp")
#: few distinct sizes, so most picks are decided by the tie-break
SIZES = (KB(64), KB(64), KB(64), KB(128), KB(128), KB(256))
STATES = (ChunkState.IDLE, ChunkState.PRECOPYING, ChunkState.CHECKPOINTING)


class Rig:
    """A standalone engine (its loop not running) with the oracle
    shadowing it; ``step`` applies one event, ``check`` is one wake-up
    — events pile up between wake-ups, as they do between the steps
    of the engine's process."""

    def __init__(self, mode: str, n_chunks: int) -> None:
        self.ctx = make_standalone_context(name="sel")
        self.alloc = NVAllocator(
            "p0", self.ctx.nvmm, self.ctx.dram, phantom=True,
            clock=lambda: self.ctx.engine.now,
        )
        # both estimators from the start, whatever the mode, so the
        # interval and threshold ops act on every program (a mode that
        # reads neither ignores them)
        self.threshold = ThresholdEstimator(self.ctx.effective_nvm_bw_per_core())
        self.prediction = PredictionTable()
        self.engine = PrecopyEngine(
            self.ctx,
            chunks=self.alloc.persistent_chunks,
            policy=PrecopyPolicy(mode=mode),
            threshold=self.threshold,
            prediction=self.prediction,
        )
        self.oracle = LinearScanOracle(self.engine)
        self.alloc.on_delete.append(self.engine.drop_chunk)
        self.alloc.on_delete.append(self.oracle.drop)
        self.names = []
        self._serial = 0
        for i in range(n_chunks):
            self.nvalloc(i)

    def nvalloc(self, a: int) -> None:
        name = f"c{self._serial}"
        self._serial += 1
        self.alloc.nvalloc(name, SIZES[a % len(SIZES)])
        self.names.append(name)
        self.engine.wire_chunks()
        self.oracle.wire(self.alloc.persistent_chunks())

    def chunk(self, a: int) -> Chunk:
        return self.alloc.chunk(self.names[a % len(self.names)])

    def select(self):
        now = self.ctx.engine.now
        return self.engine._next_eligible(now, self.engine.threshold_time())

    def check(self) -> None:
        got = self.select()
        want = self.oracle.next_eligible(self.ctx.engine.now)
        assert got is want, f"index picked {got!r}, linear scan {want!r}"

    def step(self, op: int, a: int, b: int) -> None:
        now = self.ctx.engine.now
        if op == 0:  # application write
            self.chunk(a).touch()
        elif op == 1:  # the selected chunk's pre-copy completes
            # (the oracle scans at this wake-up too: it is the scan
            # that drops clean candidates)
            picked = self.select()
            self.oracle.next_eligible(now)
            if picked is not None:
                picked.set_state("local", ChunkState.PRECOPYING)
                picked.set_state("local", ChunkState.IDLE)
                picked.mark_precopied("local")
        elif op == 2:  # ... or is torn by a write mid-copy
            picked = self.select()
            self.oracle.next_eligible(now)
            if picked is not None:
                picked.set_state("local", ChunkState.PRECOPYING)
                picked.touch()
                picked.set_state("local", ChunkState.IDLE)
        elif op == 3:  # the coordinated step cleans a chunk
            self.chunk(a).mark_precopied("local")
        elif op == 4:  # stream state moves under the engine
            self.chunk(a).set_state("local", STATES[b % 3])
        elif op == 5:  # interval turns (as CheckpointEngine._finish_interval)
            self.threshold.observe_interval(4.0 + b % 7, self.alloc.checkpoint_bytes)
            self.prediction.end_interval()
            self.engine.begin_interval()
        elif op == 6:  # time passes
            self.ctx.engine.run(until=now + (b % 40) / 4.0)
        elif op == 7:  # the threshold moves
            if b % 2 == 0:
                self.threshold.observe_interval(3.0 + b % 9, self.alloc.checkpoint_bytes)
            else:
                self.threshold.update_bandwidth(
                    self.ctx.effective_nvm_bw_per_core() * (1 + b % 5) / 3.0
                )
        elif op == 8:
            self.nvalloc(a)
        elif op == 9:
            if len(self.names) > 1:
                self.alloc.nvdelete(self.names.pop(a % len(self.names)))
        elif op == 10:
            self.alloc.nvrealloc(self.chunk(a).name, SIZES[b % len(SIZES)])
        else:  # the engine wakes up
            self.check()


# wake-ups, writes and completions dominate, as in a run
OPS = [0, 0, 0, 0, 1, 1, 1, 2, 3, 3, 3, 4, 5, 6, 6, 7, 8, 9, 10] + [11] * 10


@pytest.mark.parametrize("block", range(6))
def test_index_and_linear_scan_name_the_same_chunk(block):
    """Seeded random programs over all four modes (hypothesis' list
    strategy rarely builds the clean / re-dirty / wake-up interleavings
    that tell the two apart; 6 x 50 programs of 250 events do)."""
    for seed in range(50 * block, 50 * (block + 1)):
        rnd = random.Random(seed)
        rig = Rig(rnd.choice(MODES), rnd.randint(1, 12))
        for n in range(250):
            try:
                rig.step(rnd.choice(OPS), rnd.randrange(64), rnd.randrange(64))
            except AssertionError as err:
                raise AssertionError(f"seed {seed}, event {n}: {err}") from None
        rig.check()


class TestTieBreak:
    """Equal sizes: first into the index goes first; a chunk keeps its
    place until a wake-up has seen it clean."""

    def rig(self):
        rig = Rig("cpc", 0)
        for _ in range(3):
            rig.nvalloc(0)  # three 64 KiB chunks: c0, c1, c2
        return rig, [rig.alloc.chunk(n) for n in rig.names]

    def test_entry_order_decides(self):
        rig, (c0, c1, c2) = self.rig()
        assert rig.select() is c0
        c0.mark_precopied("local")
        assert rig.select() is c1
        c0.touch()  # back in — behind c1 and c2 now
        c1.mark_precopied("local")
        assert rig.select() is c2

    def test_redirtied_before_the_next_wakeup_keeps_its_place(self):
        rig, (c0, c1, c2) = self.rig()
        assert rig.select() is c0
        c0.mark_precopied("local")
        c0.touch()  # no wake-up saw it clean
        assert rig.select() is c0

    def test_larger_goes_first_and_a_resize_reorders(self):
        rig, (c0, c1, c2) = self.rig()
        rig.alloc.nvrealloc(c2.name, KB(128))
        assert rig.select() is c2
        rig.alloc.nvrealloc(c2.name, KB(32))
        assert rig.select() is c0

    def test_busy_chunk_is_passed_over_not_forgotten(self):
        rig, (c0, c1, c2) = self.rig()
        c0.set_state("local", ChunkState.CHECKPOINTING)
        assert rig.select() is c1
        c0.set_state("local", ChunkState.IDLE)
        assert rig.select() is c0

    def test_clean_behind_the_observers_back_is_dropped(self):
        rig, (c0, c1, c2) = self.rig()
        c0.dirty_local = False  # plain attribute write, no on_clean
        assert rig.select() is c1
        assert len(rig.engine._index) == 2


class TestReadyIndex:
    def chunks(self, *sizes):
        return [Chunk(i, f"k{i}", n, phantom=True) for i, n in enumerate(sizes)]

    def test_iterates_largest_first_ties_by_entry(self):
        a, b, c, d = self.chunks(10, 30, 10, 30)
        index = ReadyIndex()
        for chunk in (a, b, c, d):
            index.add(chunk)
        assert list(index) == [b, d, a, c]
        assert len(index) == 4

    def test_parked_member_is_skipped_until_rearmed_or_written(self):
        a, b, c = self.chunks(30, 20, 10)
        index = ReadyIndex()
        for chunk in (a, b, c):
            index.add(chunk)
        index.park(a)
        index.park(b)
        assert list(index) == [c] and len(index) == 3
        index.add(b)  # written again
        assert list(index) == [b, c]
        index.rearm()
        assert list(index) == [a, b, c]

    def test_discard_forgets_the_position(self):
        a, b = self.chunks(10, 10)
        index = ReadyIndex()
        index.add(a)
        index.add(b)
        index.discard(a)
        index.discard(a)  # idempotent
        index.add(a)
        assert list(index) == [b, a]

    def test_discard_of_a_predecessor_spares_the_successor(self):
        old, = self.chunks(10)
        new = Chunk(old.chunk_id, old.name, 10, phantom=True)
        index = ReadyIndex()
        index.add(new)
        index.discard(old)
        assert list(index) == [new]


# ----------------------------------------------------------------------
# Regressions through the public API.
# ----------------------------------------------------------------------


def cpc_handle() -> NVMCheckpoint:
    cfg = CheckpointConfig()
    cfg = dataclasses.replace(cfg, precopy=dataclasses.replace(cfg.precopy, mode="cpc"))
    return NVMCheckpoint(checkpoint_config=cfg)


class TestMembership:
    def test_deleted_chunk_is_not_scheduled(self):
        """It used to be copied first (largest-first) into unmapped
        regions; the pre-copy process died on it and the live chunk
        was never pre-copied."""
        h = cpc_handle()
        a = h.nvalloc("a", KB(64))
        b = h.nvalloc("b", KB(128))
        h.start_background()
        a.write(0, b"x" * 16)
        b.write(0, b"y" * 16)
        h.nvdelete("b")
        h.advance(5.0)
        stats = h.checkpointer.precopy.stats
        assert (stats.copies, stats.bytes_copied) == (1, KB(64))
        assert not a.dirty_local
        assert h.checkpointer._precopy_proc.alive

    def test_name_reused_after_delete_is_scheduled_again(self):
        h = cpc_handle()
        h.nvalloc("a", KB(64))
        h.start_background()
        h.advance(1.0)
        h.nvdelete("a")
        again = h.nvalloc("a", KB(32))  # same name, same id, new chunk
        h.nvchkptall()  # the interval turns: late allocations are wired
        again.write(0, b"z" * 16)
        h.advance(5.0)
        assert not again.dirty_local
        assert h.checkpointer.precopy.stats.bytes_copied == KB(64) + KB(32)

    def test_chunk_allocated_after_start_is_wired_at_the_next_interval(self):
        h = cpc_handle()
        h.nvalloc("a", KB(64))
        h.start_background()
        h.advance(1.0)
        late = h.nvalloc("late", KB(32))
        h.advance(1.0)
        assert late.dirty_local  # nobody has wired it yet
        h.nvchkptall()
        late.write(0, b"w" * 16)
        h.advance(5.0)
        assert not late.dirty_local
        assert h.checkpointer.precopy.stats.copies == 2


class TestRestart:
    def test_precopy_resumes_after_stop_and_start(self):
        h = cpc_handle()
        a = h.nvalloc("a", KB(64))
        h.start_background()
        h.advance(1.0)
        assert h.checkpointer.precopy.stats.copies == 1
        h.stop_background()
        h.advance(1.0)
        h.start_background()
        a.write(0, b"x" * 16)
        h.advance(5.0)
        assert h.checkpointer.precopy.stats.copies == 2
        assert not a.dirty_local

    def test_back_to_back_stop_start_waits_for_the_old_loop(self):
        h = cpc_handle()
        a = h.nvalloc("a", KB(64))
        h.start_background()
        h.advance(1.0)
        h.stop_background()
        h.start_background()  # the stopped loop has not run a step yet
        a.write(0, b"x" * 16)
        h.advance(5.0)
        assert h.checkpointer.precopy.stats.copies == 2
        assert h.checkpointer._precopy_proc.alive


# ----------------------------------------------------------------------
# Scaling guards: counts, not seconds.
# ----------------------------------------------------------------------


class _FinalizeCounter(crashpoints.FaultInjector):
    """Passive observer: counts completed pre-copies, the hits of
    ``precopy.finalize.after`` (fired once per finalized chunk)."""

    def __init__(self) -> None:
        self.hits = 0

    def on_fire(self, name, info):
        if name == "precopy.finalize.after":
            self.hits += 1


def count_decides(monkeypatch, small_chunks: int):
    """(policy consultations, completed pre-copies) of one GTC cell."""
    counts = {"decide": 0}
    for cls in set(policy_mod.POLICIES.values()):
        original = cls.decide

        def counted(self, chunk, clock, _original=original):
            counts["decide"] += 1
            return _original(self, chunk, clock)

        monkeypatch.setattr(cls, "decide", counted)
    with crashpoints.install(_FinalizeCounter()) as finalized:
        run_cell(gtc_cell(small_chunks))
    return counts["decide"], finalized.hits


def test_policy_is_asked_about_what_it_can_pick_not_about_every_dirty_chunk(monkeypatch):
    decides, precopied = count_decides(monkeypatch, 96)
    assert precopied > 100
    assert decides <= 2 * precopied  # the linear scan asked 81 times per pre-copy


def test_policy_consultations_grow_linearly_with_the_chunk_count(monkeypatch):
    with monkeypatch.context() as m:
        d96, _ = count_decides(m, 96)
    with monkeypatch.context() as m:
        d192, _ = count_decides(m, 192)
    assert d192 <= 2.5 * d96


@pytest.mark.parametrize("mode", ["cpc", "dcpc", "dcpcp"])
def test_engine_loop_agrees_with_the_oracle_on_a_cell(mode, monkeypatch):
    """End to end: inside a running cell, every wake-up of every
    engine picks what the linear scan would have picked."""
    oracles = {}
    original = PrecopyEngine._next_eligible

    def checked(self, now, t_ready):
        oracle = oracles.get(id(self))
        if oracle is None:
            oracle = oracles[id(self)] = LinearScanOracle(self)
        oracle.wire(self._chunks())
        got = original(self, now, t_ready)
        assert got is oracle.next_eligible(now)
        return got

    monkeypatch.setattr(PrecopyEngine, "_next_eligible", checked)
    run_cell(gtc_cell(24, mode))
    assert oracles
