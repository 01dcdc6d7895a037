"""Page-granular incremental copy: extents move fewer bytes, commit
identical content.

The stale-page maps are per (stream, version slot): under two-version
shadow buffering the in-progress slot is *two* checkpoints stale, so a
naive "dirty since last checkpoint" bitmap would under-copy.  Both
slots start fully stale, hence savings begin at the third checkpoint of
a chunk — these tests pin that schedule, the byte accounting, the trace
fields, and the acceptance criterion on the pinned 16-cell bench grid.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CheckpointConfig, PrecopyPolicy
from repro.core import NVMCheckpoint
from repro.faults.checker import ConsistencyChecker, payload_digest
from repro.memory import InMemoryStore
from repro.metrics.trace import BUS, RingBufferSink
from tests.golden.generate_fixtures import TRACE_CELLS

PAGE = 4096
A_BYTES = 32 * PAGE
B_BYTES = 8 * PAGE

#: per-round writes: (chunk, page_offset, page_count, fill); every
#: round ends with one coordinated checkpoint.  Round 0 initializes
#: fully; later rounds dirty small page runs.
SCRIPT = [
    [("a", 0, 32, 0x10), ("b", 0, 8, 0x80)],
    [("a", 4, 2, 0x11), ("b", 0, 1, 0x81)],
    [("a", 4, 2, 0x12), ("b", 0, 1, 0x82)],
    [("a", 20, 1, 0x13)],
]


def _run_script(granularity: str, store=None):
    """Run SCRIPT under one copy granularity; returns
    ``(app, per-checkpoint stats, per-checkpoint committed digests)``."""
    cfg = CheckpointConfig(
        precopy=PrecopyPolicy(mode="none", copy_granularity=granularity)
    )
    app = NVMCheckpoint("p", store=store or InMemoryStore(), checkpoint_config=cfg)
    app.nvalloc("a", A_BYTES)
    app.nvalloc("b", B_BYTES)
    stats, digests = [], []
    for writes in SCRIPT:
        for name, page_off, n_pages, fill in writes:
            app.chunk(name).write(
                page_off * PAGE, np.full(n_pages * PAGE, fill, dtype=np.uint8)
            )
        stats.append(app.nvchkptall())
        digests.append({
            name: payload_digest(
                app.chunk(name).committed_region().read(0, app.chunk(name).nbytes)
            )
            for name in ("a", "b")
        })
    return app, stats, digests


class TestCommittedContent:
    def test_digests_identical_across_granularities(self):
        """The incremental pipeline must commit byte-identical content
        to whole-chunk copies at every checkpoint."""
        _, _, chunk_digests = _run_script("chunk")
        _, _, page_digests = _run_script("page")
        assert chunk_digests == page_digests

    def test_savings_start_at_third_checkpoint(self):
        _, chunk_stats, _ = _run_script("chunk")
        _, page_stats, _ = _run_script("page")
        # both version slots start all-stale: the first two checkpoints
        # move the same bytes either way
        assert page_stats[0].bytes_copied == chunk_stats[0].bytes_copied
        assert page_stats[1].bytes_copied == chunk_stats[1].bytes_copied
        # checkpoint 2 re-stages slot 0, whose stale set is the union
        # of rounds 1 and 2: pages {4,5} of a and {0} of b
        assert chunk_stats[2].bytes_copied == A_BYTES + B_BYTES
        assert page_stats[2].bytes_copied == 3 * PAGE
        # checkpoint 3 re-stages slot 1 (stale = rounds 2+3: a pages
        # {4,5,20}, b page {0} from round 2).  Without pre-copy there
        # is no dirty tracking, so chunk-granular re-copies b whole
        # even though round 3 never wrote it
        assert chunk_stats[3].bytes_copied == A_BYTES + B_BYTES
        assert page_stats[3].bytes_copied == 4 * PAGE

    def test_restart_recovers_incremental_commits(self):
        store = InMemoryStore()
        app, _, digests = _run_script("page", store=store)
        a_view = np.asarray(app.chunk("a").view(np.uint8)).copy()
        app.crash()
        app2, _ = NVMCheckpoint.restart("p", store)
        assert np.array_equal(np.asarray(app2.chunk("a").view(np.uint8)), a_view)
        d = payload_digest(app2.chunk("a").committed_region().read(0, A_BYTES))
        assert d == digests[-1]["a"]


class TestConsistencyOracle:
    def test_checker_digests_match_across_granularities(self):
        """ConsistencyChecker's durable-state walk (the restart oracle)
        sees identical committed payloads under both granularities."""
        stores = {}
        oracle = {}
        for gran in ("chunk", "page"):
            store = InMemoryStore()
            app, _, digests = _run_script(gran, store=store)
            app.crash()
            stores[gran] = store
            oracle[gran] = digests[-1]
        assert oracle["chunk"] == oracle["page"]
        for gran, store in stores.items():
            report = ConsistencyChecker(store).check_process(
                "p", expected={k: {v} for k, v in oracle[gran].items()}
            )
            assert not report.violations, (gran, report.violations)
            assert not report.checksum_failures, (gran, report.checksum_failures)
            assert report.committed_chunks == 2


class TestTraceFields:
    def test_chunk_copied_events_carry_pages_and_bytes_saved(self):
        sink = RingBufferSink()
        BUS.attach(sink)
        try:
            _run_script("page")
        finally:
            BUS.detach(sink)
        copies = sink.of_kind("chunk.copied")
        assert copies, "no chunk.copied events emitted"
        for ev in copies:
            assert ev.pages > 0
            assert ev.bytes_saved >= 0
            # nbytes + bytes_saved reconstructs the chunk size
            assert ev.nbytes + ev.bytes_saved in (A_BYTES, B_BYTES)
        partial = [e for e in copies if e.bytes_saved > 0]
        assert partial, "no partial (extent) copy was ever traced"
        # chunk a's partial copies: 2 pages at checkpoint 2, 3 at 3
        a_partial = [e for e in partial if e.chunk == "a"]
        assert {(e.pages, e.nbytes) for e in a_partial} == {
            (2, 2 * PAGE), (3, 3 * PAGE)
        }

    def test_chunk_granular_events_report_zero_saved(self):
        sink = RingBufferSink()
        BUS.attach(sink)
        try:
            _run_script("chunk")
        finally:
            BUS.detach(sink)
        for ev in sink.of_kind("chunk.copied"):
            assert ev.bytes_saved == 0
            assert ev.pages * PAGE >= ev.nbytes


class TestPrecopyIncremental:
    def _standalone(self, granularity: str):
        from repro.alloc import NVAllocator
        from repro.core import LocalCheckpointer, make_standalone_context
        from repro.units import MB

        ctx = make_standalone_context(name=f"inc-{granularity}")
        alloc = NVAllocator(
            "p0", ctx.nvmm, ctx.dram, phantom=True, clock=lambda: ctx.engine.now
        )
        big = alloc.nvalloc("big", MB(8))
        small = alloc.nvalloc("small", MB(2))
        ck = LocalCheckpointer(
            ctx, alloc, PrecopyPolicy(mode="cpc", copy_granularity=granularity)
        )
        ck.start_background()

        def app():
            for _ in range(4):
                # one-page writes at fixed offsets: tiny extents
                big.touch(PAGE, offset=PAGE)
                small.touch(PAGE, offset=0)
                yield ctx.engine.timeout(5.0)
                yield from ck.checkpoint(blocking=False)
            ck.stop_background()

        ctx.engine.process(app(), name="app")
        ctx.engine.run()
        return ck

    def test_cpc_precopy_moves_fewer_bytes_page_granular(self):
        chunk_ck = self._standalone("chunk")
        page_ck = self._standalone("page")
        assert chunk_ck.checkpoints_done == page_ck.checkpoints_done == 4
        assert page_ck.total_bytes_to_nvm < chunk_ck.total_bytes_to_nvm
        # and the pre-copy stream itself went extent-granular
        assert (
            page_ck.precopy.stats.bytes_copied < chunk_ck.precopy.stats.bytes_copied
        )


def _maps(chunk) -> frozenset:
    """The streams *chunk* keeps a stale page map for."""
    return frozenset(chunk._stale)


#: a LAMMPS 2×2 cell whose remote rounds adopt every chunk
_LAMMPS_2X2 = ["--app", "lammps", "--nodes", "2", "--ranks-per-node", "2",
               "--iterations", "4"]
#: the failure-heavy trace cell: two hard failures replace nodes 0 and
#: 3, whose ranks are rebuilt on fresh hardware
_HARD_FAILURES = TRACE_CELLS["synthetic-failures"]


def _cell_maps(argv):
    """``(hard failures, {(node, incarnation, rank): {maps per chunk}})``
    at the end of one cluster cell."""
    from repro.exec.cell import build_parser, resolve_config, run_collected

    def summarize(result):
        return result.hard_failures, {
            (node.node_id, node.incarnation, s.rank): {
                _maps(c) for c in s.allocator.chunks()
            }
            for node in result.cluster.nodes
            for s in node.ranks
        }

    return run_collected(resolve_config(build_parser().parse_args(argv)), summarize)


class TestStaleMapLifecycle:
    """A chunk keeps a stale page map only for a stream whose copies
    read page extents; the stream's owner decides, for every chunk the
    rank has or will have."""

    @pytest.mark.parametrize(
        "extra, kept",
        [
            ([], frozenset()),
            (["--copy-granularity", "page"], frozenset({"local", "remote"})),
            # the wire entropy stage makes the remote stream whole-chunk
            (["--copy-granularity", "page", "--compress-ratio", "0.6"],
             frozenset({"local"})),
        ],
        ids=["chunk", "page", "page-compressed-remote"],
    )
    def test_every_chunk_of_a_cell_keeps_the_maps_its_streams_read(self, extra, kept):
        _, ranks = _cell_maps(_LAMMPS_2X2 + extra)
        assert len(ranks) == 4
        assert all(maps == {kept} for maps in ranks.values())

    @pytest.mark.parametrize("granularity", ["chunk", "page"])
    def test_ranks_rebuilt_after_a_hard_failure_follow_the_rule(self, granularity):
        hard, ranks = _cell_maps(_HARD_FAILURES + ["--copy-granularity", granularity])
        assert hard > 0
        assert any(incarnation > 0 for _, incarnation, _ in ranks)
        kept = frozenset({"local", "remote"}) if granularity == "page" else frozenset()
        assert all(maps == {kept} for maps in ranks.values())

    @pytest.mark.parametrize("granularity", ["chunk", "page"])
    def test_chunk_allocated_after_the_engine(self, granularity):
        """``NVMCheckpoint`` builds its engine first, so every chunk is
        a late allocation: it follows the engine's granularity, and a
        page-granular one starts all-stale."""
        cfg = CheckpointConfig(
            precopy=PrecopyPolicy(mode="none", copy_granularity=granularity)
        )
        app = NVMCheckpoint("p", store=InMemoryStore(), checkpoint_config=cfg)
        a = app.nvalloc("a", A_BYTES)
        a.write(4 * PAGE, np.full(PAGE, 0x11, dtype=np.uint8))
        if granularity == "chunk":
            assert _maps(a) == frozenset()
            with pytest.raises(ValueError, match="no 'local' stale map"):
                a.copy_extents("local")
        else:
            assert _maps(a) == {"local"}
            assert a.copy_extents("local") == [(0, A_BYTES)]
        assert app.nvchkptall().bytes_copied == A_BYTES

    @pytest.mark.parametrize("granularity", ["chunk", "page"])
    def test_chunk_allocated_after_the_remote_helper(self, granularity):
        from repro.alloc import NVAllocator
        from repro.core import make_standalone_context
        from repro.core.remote import RemoteHelper
        from repro.net.interconnect import Fabric
        from repro.sim.engine import Engine

        engine = Engine()
        src = make_standalone_context(name="n0", engine=engine)
        dst = make_standalone_context(name="n1", engine=engine)
        alloc = NVAllocator("r0", src.nvmm, src.dram, phantom=True,
                            clock=lambda: engine.now)
        helper = RemoteHelper(
            0, src, Fabric(engine, 2), 1, dst, [alloc],
            CheckpointConfig(
                remote_precopy=False, remote_interval=30.0,
                precopy=PrecopyPolicy(copy_granularity=granularity),
            ),
        )
        x = alloc.nvalloc("x", A_BYTES)
        engine.process(helper.run())
        engine.run(until=35.0)
        helper.stop()
        assert helper.copier.accounting.remote_round_bytes == A_BYTES
        if granularity == "chunk":
            with pytest.raises(ValueError, match="no 'remote' stale map"):
                x.copy_extents("remote")
        else:
            # the round refreshed slot 0; slot 1 is still all-stale
            assert x.copy_extents("remote", slot=0) == []
            assert x.copy_extents("remote", slot=1) == [(0, A_BYTES)]


class TestPinnedGridAcceptance:
    """Acceptance: incremental mode on the pinned 16-cell bench grid
    moves strictly fewer checkpoint bytes than chunk-granular on every
    cell (LAMMPS' STAGED chunks give each cell partial-chunk dirtiness
    by the third local checkpoint) without changing the workload."""

    @pytest.fixture(scope="class")
    def paired_grids(self):
        from repro.exec.grid import parse_sweeps, run_grid
        from repro.tools.bench import PINNED_GRID

        base, axes_specs = PINNED_GRID
        axes = parse_sweeps(list(axes_specs))
        chunk = run_grid(base, axes, workers=1, cache=None)
        page = run_grid(
            base + ["--copy-granularity", "page"], axes, workers=1, cache=None
        )
        return chunk.records, page.records

    @staticmethod
    def _ckpt_gb(rec: dict) -> float:
        return (
            rec["local.coordinated_gb"]
            + rec["local.precopy_gb"]
            + rec["remote.round_gb"]
            + rec["remote.stream_gb"]
        )

    def test_every_cell_moves_strictly_fewer_bytes(self, paired_grids):
        chunk_recs, page_recs = paired_grids
        assert len(chunk_recs) == len(page_recs) == 16
        for c_rec, p_rec in zip(chunk_recs, page_recs):
            coords = (c_rec["sweep.mode"], c_rec["sweep.nvm-gbps"])
            assert coords == (p_rec["sweep.mode"], p_rec["sweep.nvm-gbps"])
            assert self._ckpt_gb(p_rec) < self._ckpt_gb(c_rec), (
                f"cell {coords}: incremental moved no fewer bytes"
            )

    def test_workload_unchanged_by_granularity(self, paired_grids):
        """Copy granularity changes the bytes moved, never the work
        simulated: iteration counts, checkpoint counts and failure
        schedules stay identical cell-for-cell."""
        chunk_recs, page_recs = paired_grids
        for c_rec, p_rec in zip(chunk_recs, page_recs):
            for key in (
                "n_ranks", "local.checkpoints", "remote.rounds",
                "failures.soft", "failures.hard",
            ):
                assert c_rec[key] == p_rec[key], (key, c_rec["sweep.mode"])
