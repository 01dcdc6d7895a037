"""Application workload models: chunk layouts (Table IV), write
schedules, iteration behaviour, MADBench calibration."""

import pytest

from repro.apps import (
    ApplicationModel,
    CM1Model,
    ChunkSpec,
    GTCModel,
    LammpsModel,
    MADBench,
    RankBinding,
    SyntheticModel,
    WritePattern,
)
from repro.alloc import NVAllocator
from repro.alloc.chunk import Chunk, batch_commit
from repro.core import make_standalone_context
from repro.exec.cell import APPS, build_parser
from repro.net.interconnect import Fabric
from repro.units import MB


ALL_MODELS = [GTCModel, LammpsModel, CM1Model]


class TestChunkLayouts:
    @pytest.mark.parametrize("model_cls", ALL_MODELS)
    def test_total_matches_declared_checkpoint_size(self, model_cls):
        m = model_cls()
        total = m.checkpoint_bytes()
        assert total == pytest.approx(MB(m.checkpoint_mb_per_rank), rel=0.02)

    @pytest.mark.parametrize("model_cls", ALL_MODELS)
    def test_unique_chunk_names(self, model_cls):
        specs = model_cls().chunk_specs()
        names = [s.name for s in specs]
        assert len(names) == len(set(names))

    @pytest.mark.parametrize("model_cls", ALL_MODELS)
    def test_positive_sizes(self, model_cls):
        assert all(s.nbytes > 0 for s in model_cls().chunk_specs())

    def test_gtc_large_bucket_share(self):
        d = GTCModel().chunk_size_distribution()
        # Table IV: GTC ~45% above 100MB
        assert 35 <= d["above 100MB"] + d["50-100MB"] <= 60

    def test_gtc_has_write_once_large_chunk(self):
        """'few large chunks are modified only once' (Fig. 8 analysis)."""
        specs = GTCModel().chunk_specs()
        once = [s for s in specs if s.pattern == WritePattern.WRITE_ONCE]
        assert once and max(s.nbytes for s in once) >= MB(50)

    def test_lammps_31_chunks(self):
        assert len(LammpsModel().chunk_specs()) == 31

    def test_lammps_has_hot_chunk(self):
        """The 3-D molecular position array is hot (Fig. 6)."""
        specs = LammpsModel().chunk_specs()
        hot = [s for s in specs if s.pattern == WritePattern.HOT]
        assert len(hot) == 1
        assert hot[0].nbytes > MB(100)
        assert max(hot[0].write_fractions(1)) >= 0.95

    def test_cm1_no_chunk_above_100mb(self):
        """Table IV: CM1 has (almost) nothing above 100MB — the reason
        pre-copy helps it < 5%."""
        d = CM1Model().chunk_size_distribution()
        assert d["above 100MB"] <= 5

    def test_cm1_dominated_by_mid_bucket(self):
        d = CM1Model().chunk_size_distribution()
        assert d["50-100MB"] >= 40

    def test_small_chunks_override(self):
        few = GTCModel(small_chunks=10).chunk_specs()
        many = GTCModel().chunk_specs()
        assert len(few) < len(many)

    def test_specs_cached(self):
        m = GTCModel()
        assert m.chunk_specs() is m.chunk_specs()


class TestWriteSchedules:
    def test_write_once_only_in_iteration_zero(self):
        spec = ChunkSpec("x", 100, WritePattern.WRITE_ONCE)
        assert spec.write_fractions(0)
        assert spec.write_fractions(1) == ()

    def test_custom_fractions_override(self):
        spec = ChunkSpec("x", 100, WritePattern.PER_ITER, fractions=(0.5,))
        assert spec.write_fractions(3) == (0.5,)

    def test_default_fractions_by_pattern(self):
        for pattern in (WritePattern.PER_ITER, WritePattern.STAGED, WritePattern.HOT):
            spec = ChunkSpec("x", 100, pattern)
            assert spec.write_fractions(1)

    def test_hot_writes_near_interval_end(self):
        spec = ChunkSpec("x", 100, WritePattern.HOT)
        assert max(spec.write_fractions(1)) > 0.9


class TestIterationExecution:
    def _binding(self, model, ctx):
        alloc = NVAllocator("r0", ctx.nvmm, ctx.dram, phantom=True, clock=lambda: ctx.engine.now)
        binding = RankBinding(rank="r0", node_id=0, allocator=alloc, engine=ctx.engine)
        model.allocate(binding)
        return binding

    def test_iteration_takes_at_least_compute_time(self):
        ctx = make_standalone_context(name="app")
        m = SyntheticModel(checkpoint_mb_per_rank=20, chunk_mb=10, iteration_compute_time=8.0)
        binding = self._binding(m, ctx)
        proc = ctx.engine.process(m.compute_iteration(binding, 0))
        ctx.engine.run()
        assert proc.ok
        assert ctx.engine.now >= 8.0

    def test_iteration_dirties_chunks(self):
        ctx = make_standalone_context(name="app")
        m = SyntheticModel(checkpoint_mb_per_rank=20, chunk_mb=10, iteration_compute_time=5.0)
        binding = self._binding(m, ctx)
        for c in binding.allocator.chunks():
            c.dirty_local = False
        ctx.engine.process(m.compute_iteration(binding, 0))
        ctx.engine.run()
        assert all(c.dirty_local for c in binding.allocator.chunks())

    def test_write_once_chunk_untouched_after_iteration_zero(self):
        ctx = make_standalone_context(name="app")
        m = SyntheticModel(
            checkpoint_mb_per_rank=20, chunk_mb=10,
            write_once_fraction=0.5, iteration_compute_time=5.0,
        )
        binding = self._binding(m, ctx)
        ctx.engine.process(m.compute_iteration(binding, 0))
        ctx.engine.run()
        once_chunk = binding.allocator.chunk("chunk_0")
        once_chunk.dirty_local = False
        proc = ctx.engine.process(m.compute_iteration(binding, 1))
        ctx.engine.run()
        assert proc.ok
        assert not once_chunk.dirty_local

    def test_fault_costs_extend_iteration(self):
        ctx = make_standalone_context(name="app")
        m = SyntheticModel(checkpoint_mb_per_rank=10, chunk_mb=10, iteration_compute_time=5.0)
        binding = self._binding(m, ctx)
        chunk = binding.allocator.chunk("chunk_0")
        chunk.mark_precopied("local")  # protected: next write faults
        ctx.engine.process(m.compute_iteration(binding, 0))
        ctx.engine.run()
        assert binding.fault_time > 0
        assert ctx.engine.now > 5.0

    def test_lazily_restored_chunk_charges_migration(self):
        ctx = make_standalone_context(name="app")
        m = SyntheticModel(checkpoint_mb_per_rank=10, chunk_mb=10, iteration_compute_time=5.0)
        binding = self._binding(m, ctx)
        chunk = binding.allocator.chunk("chunk_0")
        chunk.stage_to_nvm()
        batch_commit([chunk])
        chunk.restore_lazy()  # NVM-resident: the next write migrates
        ctx.engine.process(m.compute_iteration(binding, 0))
        ctx.engine.run()
        assert not chunk.nvm_resident
        assert binding.migration_time == chunk.nbytes / binding.migration_rate
        assert ctx.engine.now == pytest.approx(
            5.0 + binding.fault_time + binding.migration_time
        )


def reference_iteration(app, binding, iteration):
    """One compute interval derived step by step, as the model did
    before its schedule was compiled: rebuild and sort the write list,
    resolve each chunk, take each extent at the chunk's current size."""
    engine = binding.engine
    interval = app.iteration_compute_time
    events = []
    for spec in app.chunk_specs():
        for k, frac in enumerate(spec.write_fractions(iteration)):
            events.append((frac * interval, "write", (spec, k)))
    if app.comm_bytes_per_iteration > 0 and binding.fabric is not None and binding.neighbors:
        per_burst = app.comm_bytes_per_iteration / app.comm_bursts
        for b in range(app.comm_bursts):
            events.append(((b + 0.5) / app.comm_bursts * interval, "comm", per_burst))
    events.sort(key=lambda e: (e[0], e[1]))
    position = 0.0
    for at, kind, payload in events:
        if at > position:
            yield engine.timeout(at - position)
            position = at
        if kind == "write":
            spec, widx = payload
            chunk = binding.chunk(spec.name)
            off, n = spec.write_extent(widx, chunk.nbytes)
            cost = binding.charge_fault(chunk.touch(n, offset=off))
            cost += binding.charge_migration(chunk.take_migration_bytes())
            if cost > 0:
                yield engine.timeout(cost)
        else:
            n_nb = max(1, len(binding.neighbors))
            yield engine.all_of([
                binding.fabric.transfer(binding.node_id, nb, payload / n_nb, tag=f"{binding.rank}:app")
                for nb in binding.neighbors
            ])
    if interval > position:
        yield engine.timeout(interval - position)


def record_rank(monkeypatch, app, rank_index, iterations, run_iteration):
    """Run *iterations* of one rank (protecting every other chunk before
    each, so faults shift later steps) and return what it did: every
    write and burst with its virtual time, and the rank's totals."""
    ctx = make_standalone_context(name=f"sched{rank_index}")
    engine = ctx.engine
    fabric = Fabric(engine, 2)
    alloc = NVAllocator(f"r{rank_index}", ctx.nvmm, ctx.dram, phantom=True,
                        clock=lambda: engine.now)
    binding = RankBinding(rank=f"r{rank_index}", node_id=0, allocator=alloc,
                          engine=engine, fabric=fabric, neighbors=[1])
    app.allocate(binding)
    seen = []
    touch, transfer = Chunk.touch, fabric.transfer

    def recording_touch(chunk, nbytes=None, offset=0):
        seen.append((engine.now, "write", chunk.name, offset, nbytes))
        return touch(chunk, nbytes, offset)

    def recording_transfer(src, dst, nbytes, tag=""):
        seen.append((engine.now, "comm", dst, tag, nbytes))
        return transfer(src, dst, nbytes, tag=tag)

    monkeypatch.setattr(Chunk, "touch", recording_touch)
    fabric.transfer = recording_transfer

    def rank():
        for it in iterations:
            for chunk in alloc.chunks()[::2]:
                chunk.mark_precopied("local")
            yield from run_iteration(binding, it)

    proc = engine.process(rank())
    engine.run()
    monkeypatch.setattr(Chunk, "touch", touch)
    assert proc.ok
    return seen, engine.now, binding.fault_time, binding.migration_time


class TestCompiledSchedule:
    @pytest.mark.parametrize("rank_index", [0, 1, 2, 3])
    @pytest.mark.parametrize("app_name", sorted(APPS))
    def test_iterations_match_the_reference_derivation(self, monkeypatch, app_name, rank_index):
        args = build_parser().parse_args(["--app", app_name])
        fresh = lambda: APPS[app_name](args)  # noqa: E731
        iterations = [0, 1, 2, 1, 0]  # revisits hit the compiled cache
        compiled = fresh()
        got = record_rank(monkeypatch, compiled, rank_index, iterations,
                          compiled.compute_iteration)
        ref_app = fresh()
        want = record_rank(monkeypatch, ref_app, rank_index, iterations,
                           lambda binding, it: reference_iteration(ref_app, binding, it))
        assert got == want
        seen = got[0]
        assert any(kind == "comm" for _, kind, *_ in seen)
        assert got[2] > 0  # protected chunks faulted

    @pytest.mark.parametrize("app_name", sorted(APPS))
    def test_every_rank_shares_one_layout_and_schedule(self, monkeypatch, app_name):
        app = APPS[app_name](build_parser().parse_args(["--app", app_name]))
        specs = app.chunk_specs()
        for rank_index in range(4):
            record_rank(monkeypatch, app, rank_index, [0, 1], app.compute_iteration)
        assert app.chunk_specs() is specs
        # iteration 0 and a later one, each compiled once for all ranks
        assert len(app._schedules) == 2

    def test_resized_chunk_takes_extents_at_its_current_size(self, monkeypatch):
        app = LammpsModel()
        spec = next(s for s in app.chunk_specs() if s.pattern == WritePattern.STAGED)
        new_size = spec.nbytes // 3 + 12345

        def run_twice(binding, it):
            yield from app.compute_iteration(binding, it)
            binding.allocator.nvrealloc(spec.name, new_size)
            yield from app.compute_iteration(binding, it)

        seen, *_ = record_rank(monkeypatch, app, 0, [1], run_twice)
        writes = [(off, n) for _, kind, name, off, n in seen if kind == "write" and name == spec.name]
        n_writes = len(spec.write_fractions(1))
        assert writes[:n_writes] == [spec.write_extent(k, spec.nbytes) for k in range(n_writes)]
        # the realloc's own whole-chunk touch, then the resized extents
        assert writes[n_writes] == (0, None)
        assert writes[n_writes + 1:] == [spec.write_extent(k, new_size) for k in range(n_writes)]
        assert writes[n_writes + 1:] != writes[:n_writes]


class TestSyntheticModel:
    def test_chunk_count_scales(self):
        m = SyntheticModel(checkpoint_mb_per_rank=100, chunk_mb=10)
        assert len(m.chunk_specs()) == 10

    def test_hot_and_once_fractions(self):
        m = SyntheticModel(
            checkpoint_mb_per_rank=100, chunk_mb=10,
            hot_fraction=0.2, write_once_fraction=0.3,
        )
        specs = m.chunk_specs()
        assert sum(1 for s in specs if s.pattern == WritePattern.HOT) == 2
        assert sum(1 for s in specs if s.pattern == WritePattern.WRITE_ONCE) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticModel(chunk_mb=0)
        with pytest.raises(ValueError):
            SyntheticModel(hot_fraction=0.8, write_once_fraction=0.5)


class TestMADBench:
    def test_46_percent_at_300mb(self):
        r = MADBench().run_point(300, writers=12)
        assert r.slowdown == pytest.approx(0.46, abs=0.04)

    def test_3x_sync_calls(self):
        r = MADBench().run_point(300, writers=12)
        assert r.sync_call_ratio == pytest.approx(3.0, rel=0.01)

    def test_31_percent_more_lock_wait_at_300mb(self):
        r = MADBench().run_point(300, writers=12)
        assert r.lock_wait_ratio == pytest.approx(1.31, abs=0.08)

    def test_gap_widens_with_size(self):
        results = MADBench().sweep([50, 150, 300])
        slowdowns = [r.slowdown for r in results]
        assert slowdowns == sorted(slowdowns)

    def test_ramdisk_always_slower(self):
        for r in MADBench().sweep():
            assert r.ramdisk.total > r.memory.total

    def test_multi_phase_scales_linearly(self):
        one = MADBench(phases=1).run_point(100)
        two = MADBench(phases=2).run_point(100)
        assert two.memory.total == pytest.approx(2 * one.memory.total)
