"""Figure 6 — the DCPCP prediction state machine, learned from the
LAMMPS workload.

Runs a rank through several compute intervals with the pre-copy engine
attached, then dumps the learned per-chunk modification counts and a
slice of the modification-order state machine (the paper shows 3 of
Lammps' 31 chunks)."""

from conftest import once

from repro.alloc import NVAllocator
from repro.apps import LammpsModel, RankBinding
from repro.config import PrecopyPolicy
from repro.core import LocalCheckpointer, make_standalone_context
from repro.metrics import Table


def test_fig6_prediction_state_machine(benchmark, report):
    def experiment():
        ctx = make_standalone_context(name="fig6")
        alloc = NVAllocator("r0", ctx.nvmm, ctx.dram, phantom=True,
                            clock=lambda: ctx.engine.now)
        app = LammpsModel()
        binding = RankBinding(rank="r0", node_id=0, allocator=alloc, engine=ctx.engine)
        app.allocate(binding)
        ck = LocalCheckpointer(ctx, alloc, PrecopyPolicy(mode="dcpcp"))
        ck.start_background()

        def driver():
            for it in range(5):
                yield from app.compute_iteration(binding, it)
                yield from ck.checkpoint(blocking=False)
            ck.stop_background()

        ctx.engine.process(driver())
        ctx.engine.run()
        return ck, alloc

    ck, alloc = once(benchmark, experiment)
    pred = ck.prediction
    assert pred is not None
    snapshot = pred.snapshot()
    names = {c.chunk_id: c.name for c in alloc.chunks()}

    # the three chunks the paper's figure shows: the hot result array
    # and two staged companions
    table = Table(
        "Figure 6 — learned chunk modification counts (LAMMPS, 5 intervals)",
        ["chunk", "pattern size (MB)", "expected mods/interval", "next (state machine)"],
    )
    shown = ["x_positions", "f_forces", "neigh_list", "aux_0", "aux_10"]
    for name in shown:
        chunk = alloc.chunk(name)
        nxt = pred.machine.predict_next(chunk.chunk_id)
        table.add_row(
            name,
            f"{chunk.nbytes / 2**20:.0f}",
            f"{snapshot.get(chunk.chunk_id, 0.0):.1f}",
            names.get(nxt, "-"),
        )
    table.add_note(f"prediction accuracy over the run: {pred.accuracy()*100:.0f}%")
    table.add_note("DOT rendering of the full machine available via "
                   "PredictionTable.machine.to_dot()")
    dot = pred.machine.to_dot(names)
    report(table.render(),
           "state machine (first lines of DOT):\n" + "\n".join(dot.splitlines()[:8]) + "\n...")

    # the hot chunk's count matches its 4 writes per interval
    hot = alloc.chunk("x_positions")
    assert snapshot[hot.chunk_id] == 4.0
    # post-learning prediction holds copies until the final write:
    # accuracy well above a no-prediction strawman
    assert pred.accuracy() >= 0.6
    assert len(pred.machine.transitions) > 10
