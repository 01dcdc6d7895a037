"""The parallel cached execution engine (repro.exec)."""

from __future__ import annotations

import io
import json
import os

import pytest

from repro import __version__
from repro.exec import (
    ExecutionReport,
    GridSpec,
    ResultCache,
    WorkerPool,
    WorkerPoolError,
    build_parser,
    cache_key,
    derive_cell_seed,
    expand_grid,
    flatten_record,
    parse_sweeps,
    resolve_config,
    resolve_workers,
    run_grid,
)
from repro.exec.grid import _batch_indexes, collect_fields, write_csv
from repro.exec.pool import _run_one
from repro.metrics.trace import BUS, CommitEvent, RingBufferSink

#: a fast, fully deterministic base cell (no remote tier, tiny sizes)
BASE = [
    "--app", "synthetic", "--nodes", "2", "--ranks-per-node", "2",
    "--iterations", "2", "--local-interval", "10", "--remote-interval", "30",
    "--checkpoint-mb", "40", "--chunk-mb", "10", "--no-remote",
]
THREE_AXES = ["nvm-gbps=1.0,2.0", "mode=none,dcpcp", "ranks-per-node=1,2"]

HOST_CPUS = max(1, os.cpu_count() or 1)


def _batches(payloads, n_batches):
    """``(index, payload)`` batches the way ``run_grid`` cuts them."""
    return [
        [(i, payloads[i]) for i in batch]
        for batch in _batch_indexes(range(len(payloads)), n_batches)
    ]


def _square(payload):
    """Module-level so the fork/spawn pool can pickle it."""
    return {"value": payload["x"] ** 2}


def _boom(payload):
    """Module-level failing cell for error-propagation tests."""
    if payload["x"] == 2:
        raise RuntimeError("cell 2 exploded")
    return {"value": payload["x"]}


def _emit(payload):
    """Emit ``x`` commit events, then fail if the payload says so."""
    for n in range(payload["x"]):
        BUS.emit(CommitEvent(t=float(n), actor=f"r{payload['x']}", chunks_committed=n,
                             bytes_committed=n, flush_cost=0.0))
    if payload.get("boom"):
        raise RuntimeError("cell exploded mid-capture")
    return {"value": payload["x"]}


def _pid(payload):
    """Report which worker process ran the cell."""
    return {"pid": os.getpid(), "x": payload["x"]}


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key({"a": 1}, __version__)
        assert cache.get(key) is None
        cache.put(key, {"out": 2.5}, config={"a": 1})
        assert cache.get(key) == {"out": 2.5}
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1
        assert len(cache) == 1

    def test_key_is_content_addressed(self):
        k1 = cache_key({"a": 1, "b": 2}, "1.0.0")
        k2 = cache_key({"b": 2, "a": 1}, "1.0.0")  # order-independent
        k3 = cache_key({"a": 1, "b": 3}, "1.0.0")
        k4 = cache_key({"a": 1, "b": 2}, "1.0.1")  # version busts
        assert k1 == k2
        assert k1 != k3
        assert k1 != k4

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key({"a": 1}, __version__)
        cache.put(key, {"out": 1})
        path = tmp_path / key[:2] / f"{key}.json"
        path.write_text("{not json")
        assert cache.get(key) is None

    @pytest.mark.parametrize("body", ["null", "[]", "3", '"x"', '{"result": 1}'])
    def test_entry_that_parses_but_holds_no_record_is_a_miss(self, tmp_path, body):
        """Corrupt and still valid JSON: ``payload["result"]`` used to
        raise TypeError out of ``get`` (or serve ``1`` as a record)."""
        cache = ResultCache(tmp_path)
        key = cache_key({"a": 1}, __version__)
        cache.put(key, {"out": 1})
        (tmp_path / key[:2] / f"{key}.json").write_text(body)
        assert cache.get(key) is None
        assert cache.stats()["misses"] == 1 and cache.stats()["hits"] == 0
        cache.put(key, {"out": 2})  # the re-run overwrites the bad entry
        assert cache.get(key) == {"out": 2}

    def test_grid_reruns_exactly_the_clobbered_cell(self, tmp_path):
        axes = ["mode=none,dcpcp", "nvm-gbps=1.0,2.0"]
        first = run_grid(BASE, axes, cache=str(tmp_path))
        victim = first.cells[2].key
        (tmp_path / victim[:2] / f"{victim}.json").write_text("null")
        again = run_grid(BASE, axes, cache=str(tmp_path))
        assert again.execution.cells_executed == 1
        assert again.execution.cache_hits == 3
        assert again.records == first.records
        healed = run_grid(BASE, axes, cache=str(tmp_path))
        assert healed.execution.cells_executed == 0


class TestWorkerPool:
    """The persistent pool itself, straight against ``run_batches``."""

    def test_batched_dispatch_reassembles_submission_order(self):
        payloads = [{"x": i} for i in range(10)]
        pool = WorkerPool(2)
        try:
            answered = pool.run_batches(_square, _batches(payloads, 8))
        finally:
            pool.close()
        assert [answered[i][0]["value"] for i in range(10)] == [
            i * i for i in range(10)
        ]
        assert all(events is None for _, events in answered.values())

    def test_workers_persist_across_runs(self):
        """The second grid reuses the same worker processes — no
        per-grid interpreter forks."""
        payloads = [{"x": i} for i in range(8)]
        pool = WorkerPool(2)
        try:
            first = pool.run_batches(_pid, _batches(payloads, 8))
            workers_first = {p.pid for p in pool._procs}
            second = pool.run_batches(_pid, _batches(payloads, 8))
            workers_second = {p.pid for p in pool._procs}
        finally:
            pool.close()
        pids_first = {r["pid"] for r, _ in first.values()}
        pids_second = {r["pid"] for r, _ in second.values()}
        parent = os.getpid()
        assert parent not in pids_first  # really ran out-of-process
        # spawned once, reused.  Compared against the pool's own worker
        # set, not run against run: with trivial cells one worker can
        # drain a whole grid, so either run may see only one of them
        assert workers_second == workers_first
        assert pids_first | pids_second <= workers_first

    def test_cell_error_propagates_and_pool_survives(self):
        pool = WorkerPool(2)
        try:
            with pytest.raises(RuntimeError, match="cell 2 exploded"):
                pool.run_batches(_boom, _batches([{"x": i} for i in range(6)], 6))
            # the pool is still serviceable after a cell failure
            answered = pool.run_batches(
                _square, _batches([{"x": i} for i in range(4)], 4)
            )
            assert [answered[i][0]["value"] for i in range(4)] == [0, 1, 4, 9]
        finally:
            pool.close()

    def test_capture_answers_each_cell_with_its_finished_lines(self):
        payloads = [{"x": i} for i in range(1, 5)]
        pool = WorkerPool(2)
        try:
            captured = pool.run_batches(_emit, _batches(payloads, 4), capture=True)
            plain = pool.run_batches(_emit, _batches(payloads, 4), capture=False)
        finally:
            pool.close()
        for i, payload in enumerate(payloads):
            result, lines = captured[i]
            assert result == {"value": payload["x"]}
            assert type(lines) is list and len(lines) == payload["x"]
            assert all(type(line) is str and line.endswith("\n") for line in lines)
            records = [json.loads(line) for line in lines]
            assert [r["kind"] for r in records] == ["commit"] * payload["x"]
            assert {r["actor"] for r in records} == {f"r{payload['x']}"}
            assert plain[i] == (result, None)

    def test_cell_raising_mid_capture_leaves_the_bus_as_it_was(self):
        """In-process capture (the ``workers=1`` path) shares the bus
        with whatever the caller attached."""
        with BUS.capture(RingBufferSink()) as mine:
            before = list(BUS._sinks)
            with pytest.raises(RuntimeError, match="mid-capture"):
                _run_one(_emit, {"x": 3, "boom": True}, True)
            assert BUS._sinks == before == [mine]
        assert [e.chunks_committed for e in mine.events] == [0, 1, 2]
        assert not BUS.active

    def test_dead_pool_rejects_work(self):
        pool = WorkerPool(1)
        pool.close()
        with pytest.raises(WorkerPoolError):
            pool.run_batches(_square, [[(0, {"x": 1})]])

    def test_batch_indexes_cover_exactly_once(self):
        for n, b in [(1, 4), (7, 3), (16, 16), (5, 100)]:
            batches = _batch_indexes(list(range(n)), b)
            flat = [i for batch in batches for i in batch]
            assert flat == list(range(n))
            assert len(batches) <= max(1, min(b, n))


class TestParallelExecutor:
    """``run_grid``'s own dispatch: the cache probe, the worker count,
    and the in-process vs pooled choice."""

    AXES = ["nvm-gbps=1.0,2.0", "mode=none,dcpcp"]

    def test_results_in_submission_order(self, wide_host):
        result = run_grid(BASE, self.AXES, workers=4)
        assert result.execution.batches > 1  # really went through the pool
        assert result.execution.cells_executed == 4
        assert [(r["sweep.nvm-gbps"], r["sweep.mode"]) for r in result.records] == [
            ("1.0", "none"), ("1.0", "dcpcp"), ("2.0", "none"), ("2.0", "dcpcp"),
        ]
        assert [r["policy"] for r in result.records] == ["none", "dcpcp"] * 2

    def test_serial_equals_parallel(self, wide_host):
        serial = run_grid(BASE, self.AXES, workers=1)
        parallel = run_grid(BASE, self.AXES, workers=4)
        assert serial.execution.batches == 0 < parallel.execution.batches
        assert serial.execution.results == parallel.execution.results

    def test_cache_short_circuits(self, tmp_path, wide_host):
        cache = ResultCache(tmp_path)
        first = run_grid(BASE, self.AXES, workers=2, cache=cache)
        assert first.execution.cells_executed == 4
        assert first.execution.cache_hits == 0
        second = run_grid(BASE, self.AXES, workers=2, cache=cache)
        assert second.execution.cells_executed == 0
        assert second.execution.cache_hits == 4
        assert second.execution.cache_hit_rate == 1.0
        assert second.execution.batches == 0  # hits never reach a worker
        assert second.execution.results == first.execution.results

    def test_resolve_workers_clamps_to_host(self):
        """The host_cpus=1 bugfix: requesting more workers than CPUs
        must not oversubscribe (that is how the original bench lost
        wall-clock at 'workers: 4' on a 1-CPU box)."""
        assert resolve_workers(1) == 1
        assert resolve_workers(HOST_CPUS + 3) == HOST_CPUS
        assert resolve_workers("auto") == HOST_CPUS
        assert resolve_workers(None) == HOST_CPUS
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_report_records_requested_and_effective(self):
        report = run_grid(BASE, ["mode=none"], workers=HOST_CPUS + 7).execution
        assert report.workers == HOST_CPUS
        assert report.workers_requested == HOST_CPUS + 7
        auto = run_grid(BASE, ["mode=none"], workers="auto").execution
        assert auto.workers == auto.workers_requested == HOST_CPUS


class TestGrid:
    def test_expand_grid_cross_product(self):
        cells = expand_grid(BASE, parse_sweeps(THREE_AXES))
        assert len(cells) == 8
        assert cells[0].overrides == (
            ("nvm-gbps", "1.0"), ("mode", "none"), ("ranks-per-node", "1"),
        )
        # every cell resolved to a full picklable/JSON-able config
        json.dumps(cells[0].config)

    def test_gridspec_normalizes_both_axis_shapes(self):
        from_specs = GridSpec.of(BASE, THREE_AXES)  # "name=v1,v2" strings
        from_pairs = GridSpec.of(BASE, parse_sweeps(THREE_AXES))
        assert from_specs == from_pairs
        assert len(expand_grid(from_specs)) == 8
        assert expand_grid(from_specs) == expand_grid(BASE, parse_sweeps(THREE_AXES))

    def test_cell_seeds_are_derived_and_stable(self):
        cells = expand_grid(BASE, parse_sweeps(THREE_AXES))
        again = expand_grid(BASE, parse_sweeps(THREE_AXES))
        assert [c.config["seed"] for c in cells] == [c.config["seed"] for c in again]
        assert len({c.config["seed"] for c in cells}) == len(cells)  # decorrelated

    def test_seed_derivation_is_axis_order_independent(self):
        assert derive_cell_seed(1, [("a", "1"), ("b", "2")]) == derive_cell_seed(
            1, [("b", "2"), ("a", "1")]
        )
        assert derive_cell_seed(1, [("a", "1")]) != derive_cell_seed(2, [("a", "1")])

    def test_swept_seed_axis_wins_over_derivation(self):
        cells = expand_grid(BASE, parse_sweeps(["seed=7,8"]))
        assert [c.config["seed"] for c in cells] == [7, 8]

    def test_flatten_record(self):
        assert flatten_record({"a": {"b": 1, "c": {"d": 2}}, "e": 3}) == {
            "a.b": 1, "a.c.d": 2, "e": 3,
        }


class TestGridDeterminism:
    """The tentpole acceptance tests."""

    def test_parallel_equals_serial_three_axis_grid(self, wide_host):
        axes = parse_sweeps(THREE_AXES)
        serial = run_grid(BASE, axes, workers=1)
        parallel = run_grid(BASE, axes, workers=4)
        assert parallel.execution.batches > 1  # the real multiprocess pool
        assert serial.records == parallel.records
        # and the CSVs are byte-identical, not merely equal as dicts
        a, b = io.StringIO(), io.StringIO()
        write_csv(serial.records, axes, a)
        write_csv(parallel.records, axes, b)
        assert a.getvalue() == b.getvalue()

    def test_warm_cache_executes_zero_cells(self, tmp_path):
        axes = parse_sweeps(["nvm-gbps=1.0,2.0", "mode=none,dcpcp"])
        cold = run_grid(BASE, axes, workers=2, cache=ResultCache(tmp_path))
        assert cold.execution.cells_executed == 4
        # cache accepts a plain path too (facade convenience)
        warm = run_grid(BASE, axes, workers=2, cache=str(tmp_path))
        assert warm.execution.cells_executed == 0
        assert warm.execution.cache_hits == 4
        assert warm.records == cold.records
        # served in the key order they were produced in, so the CSV's
        # first-seen columns — the whole file — do not depend on the cache
        a, b = io.StringIO(), io.StringIO()
        write_csv(cold.records, axes, a)
        write_csv(warm.records, axes, b)
        assert a.getvalue() == b.getvalue()

    def test_cache_keyed_by_config_executes_only_changed_cells(self, tmp_path):
        axes = parse_sweeps(["nvm-gbps=1.0,2.0"])
        run_grid(BASE, axes, workers=1, cache=ResultCache(tmp_path))
        grown = parse_sweeps(["nvm-gbps=1.0,2.0,4.0"])
        second = run_grid(BASE, grown, workers=1, cache=ResultCache(tmp_path))
        assert second.execution.cache_hits == 2
        assert second.execution.cells_executed == 1  # only the new cell

    def test_parallel_no_slower_than_serial_on_clamped_host(self):
        """Regression pin for the oversubscription bug: with clamping,
        a 'parallel' cold run of an 8-cell grid must not lose
        wall-clock vs serial (the legacy fork pool ran at 0.45x)."""
        axes = parse_sweeps(THREE_AXES)
        serial = run_grid(BASE, axes, workers=1)
        cold = run_grid(BASE, axes, workers=4)  # clamps to HOST_CPUS
        assert cold.records == serial.records
        assert cold.execution.workers == HOST_CPUS
        assert cold.execution.workers_requested == 4
        # generous bound: catches the 2x pathology, tolerates jitter
        assert cold.execution.wall_s <= serial.execution.wall_s * 1.5 + 0.5


class TestRunGridFacade:
    def test_gridspec_run_equals_legacy_form(self):
        spec = GridSpec.of(BASE, ["mode=none,dcpcp"])
        a = run_grid(spec)
        b = run_grid(BASE, ["mode=none,dcpcp"])
        assert a.records == b.records
        assert [c.key for c in a.cells] == [c.key for c in b.cells]

    def test_grid_result_write_csv(self):
        result = run_grid(BASE, ["mode=none"])
        out = io.StringIO()
        result.write_csv(out)
        lines = out.getvalue().splitlines()
        assert lines[0].startswith("sweep.mode")
        assert len(lines) == 2

    def test_trace_kwarg_writes_versioned_jsonl(self, tmp_path):
        trace = tmp_path / "grid.jsonl"
        result = run_grid(BASE, ["mode=none,dcpcp"], trace=str(trace))
        assert result.trace_path == str(trace)
        lines = trace.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "trace.header"
        assert header["meta"]["source"] == "repro.exec.run_grid"
        assert len(header["meta"]["cells"]) == 2
        events = [json.loads(line) for line in lines[1:]]
        assert events  # executed cells really shipped their events
        assert all("kind" in e for e in events)

    def test_trace_capture_works_across_the_pool(self, tmp_path, wide_host):
        """Worker-side capture: events emitted in a worker process ride
        back with the cell's result."""
        serial = tmp_path / "serial.jsonl"
        pooled = tmp_path / "pooled.jsonl"
        run_grid(BASE, ["mode=none,dcpcp"], trace=str(serial))
        result = run_grid(BASE, ["mode=none,dcpcp"], trace=str(pooled), workers=2)
        assert result.execution.batches == 2
        assert serial.read_text() == pooled.read_text()


AXIS_POOL = {
    "nvm-gbps": ["0.5", "1.0", "2.0"],
    "mode": ["none", "cpc", "dcpc", "dcpcp"],
    "ranks-per-node": ["1", "2"],
    "local-interval": ["8", "12"],
}


def _axes_strategy():
    """Random 1-2 axis grids (<= 4 cells) over the experiment surface."""
    from hypothesis import strategies as st

    def axis(name):
        values = AXIS_POOL[name]
        return st.lists(
            st.sampled_from(values), min_size=1, max_size=2, unique=True
        ).map(lambda vs: (name, vs))

    return (
        st.lists(st.sampled_from(sorted(AXIS_POOL)), min_size=1, max_size=2,
                 unique=True)
        .flatmap(lambda names: st.tuples(*(axis(n) for n in names)))
        .map(list)
    )


class TestGridProperty:
    """Property test: serial, persistent-pool parallel, and a
    differently batched pooled run agree byte-for-byte on random grids."""

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_three_execution_shapes_agree(self, wide_host):
        from hypothesis import HealthCheck, given, settings

        @settings(max_examples=4, deadline=None,
                  suppress_health_check=list(HealthCheck))
        @given(axes=_axes_strategy())
        def check(axes):
            self._assert_shapes_agree(axes)

        check()

    def _assert_shapes_agree(self, axes):
        serial = run_grid(BASE, axes, workers=1)
        pooled = run_grid(BASE, axes, workers=2)
        # a different pool width (hence batching shape) must not leak
        # into the output
        wide = run_grid(BASE, axes, workers=3)
        assert serial.records == pooled.records == wide.records
        # identical content-addressed cache keys across all three
        keys = [[c.key for c in r.cells] for r in (serial, pooled, wide)]
        assert keys[0] == keys[1] == keys[2]
        # and byte-identical CSVs
        csvs = []
        for r in (serial, pooled, wide):
            out = io.StringIO()
            write_csv(r.records, axes, out)
            csvs.append(out.getvalue())
        assert csvs[0] == csvs[1] == csvs[2]


class TestDynamicCsvColumns:
    def test_union_of_keys_no_silent_drops(self):
        axes = [("x", ["1", "2"])]
        records = [
            {"sweep.x": "1", "total_time_s": 1.0, "novel.metric": 42},
            {"sweep.x": "2", "total_time_s": 2.0, "other.metric": 7},
        ]
        fields = collect_fields(records, axes)
        assert fields[0] == "sweep.x"
        assert "novel.metric" in fields and "other.metric" in fields
        out = io.StringIO()
        write_csv(records, axes, out)
        header = out.getvalue().splitlines()[0]
        assert "novel.metric" in header

    def test_preferred_ordering_respected(self):
        axes = [("x", ["1"])]
        records = [{"sweep.x": "1", "overhead_fraction": 0.1, "app": "a",
                    "zz.extra": 1}]
        fields = collect_fields(records, axes)
        assert fields.index("app") < fields.index("overhead_fraction") < fields.index("zz.extra")

    def test_sweep_records_carry_new_metrics_end_to_end(self):
        axes = parse_sweeps(["mode=none"])
        records = run_grid(BASE, axes, workers=1).records
        fields = collect_fields(records, axes)
        # failures.iterations_recomputed is absent from the legacy
        # hardcoded list; the dynamic union must surface it
        assert "failures.iterations_recomputed" in fields


@pytest.mark.bench
class TestEngineThroughput:
    """Slow-ish engine checks; kept under the bench marker."""

    def test_bench_smoke(self):
        from repro.tools.bench import run_smoke

        assert run_smoke(["exec"]) == 0

    def test_execution_report_rates(self):
        report = ExecutionReport(cells_total=10, cache_hits=5, wall_s=2.0)
        assert report.cache_hit_rate == 0.5
        assert report.cells_per_sec == 5.0


class TestCellMemory:
    def test_finished_cell_leaves_no_testbed_behind(self):
        """A testbed is one cyclic graph; ``run_cell`` must free it
        itself instead of leaving it to the collector's schedule (the
        next cell would run on top of it)."""
        import gc

        from repro.alloc.chunk import Chunk
        from repro.exec.cell import build_parser, resolve_config, run_cell

        def live_chunks():
            return sum(isinstance(o, Chunk) for o in gc.get_objects())

        config = resolve_config(build_parser().parse_args(BASE))
        gc.collect()
        before = live_chunks()
        gc.disable()  # whatever is freed now, the cell freed
        try:
            run_cell(config)
            assert live_chunks() == before
            assert gc.get_freeze_count() == 0
        finally:
            gc.enable()

    @pytest.fixture
    def cell_passes(self, monkeypatch):
        """Run ``run_cell`` on the base cell with the collector's
        threshold at 10 allocations; returns, per collector pass, whether
        it started while ``run_experiment`` was running."""
        import gc

        from repro.exec import cell

        inside, passes = [False], []
        inner = cell.run_experiment

        def watched(args):
            inside[0] = True
            try:
                return inner(args)
            finally:
                inside[0] = False

        def on_gc(phase, info):
            if phase == "start":
                passes.append(inside[0])

        monkeypatch.setattr(cell, "run_experiment", watched)
        config = resolve_config(build_parser().parse_args(BASE))

        def run():
            threshold = gc.get_threshold()
            gc.set_threshold(10)
            gc.callbacks.append(on_gc)
            try:
                cell.run_cell(config)
            finally:
                gc.callbacks.remove(on_gc)
                gc.set_threshold(*threshold)
            return passes

        return run

    def test_no_automatic_collection_inside_a_cell(self, cell_passes):
        import gc

        assert gc.isenabled()
        passes = cell_passes()
        assert passes and True not in passes  # only the end-of-cell collection
        assert gc.isenabled()

    def test_a_caller_with_the_collector_off_keeps_it_off(self, cell_passes):
        import gc

        gc.disable()
        try:
            assert cell_passes() == [False]
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_collector_state_restored_after_a_failing_cell(self, monkeypatch):
        import gc

        from repro.exec import cell

        def boom(args):
            assert not gc.isenabled()
            raise RuntimeError("cell failed")

        monkeypatch.setattr(cell, "run_experiment", boom)
        config = resolve_config(build_parser().parse_args(BASE))
        for enabled in (True, False):
            if not enabled:
                gc.disable()
            try:
                with pytest.raises(RuntimeError, match="cell failed"):
                    cell.run_cell(config)
                assert gc.isenabled() is enabled
                assert gc.get_freeze_count() == 0
            finally:
                gc.enable()
