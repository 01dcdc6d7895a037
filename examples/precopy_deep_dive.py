#!/usr/bin/env python3
"""Inside the pre-copy machinery: thresholds, prediction, hot chunks.

Drives one rank with a LAMMPS-style mix (staged chunks + one hot
chunk) under each pre-copy variant and shows what the runtime learns:
the DCPC threshold T_p = I - D/NVMBW, the DCPCP prediction table
(Fig. 6), and where the bytes moved — background pre-copy vs the
blocking coordinated step.

Run:  python examples/precopy_deep_dive.py
"""

from repro.alloc import NVAllocator
from repro.apps import LammpsModel, RankBinding
from repro.config import PrecopyPolicy
from repro.core import LocalCheckpointer, make_standalone_context
from repro.units import GB_per_sec, to_MB


def run_variant(mode: str, intervals: int = 5):
    ctx = make_standalone_context(name=mode, nvm_write_bandwidth=GB_per_sec(1.0))
    alloc = NVAllocator("r0", ctx.nvmm, ctx.dram, phantom=True,
                        clock=lambda: ctx.engine.now)
    app = LammpsModel()
    binding = RankBinding(rank="r0", node_id=0, allocator=alloc, engine=ctx.engine)
    app.allocate(binding)
    ck = LocalCheckpointer(ctx, alloc, PrecopyPolicy(mode=mode))
    ck.start_background()

    def driver():
        for it in range(intervals):
            yield from app.compute_iteration(binding, it)
            yield from ck.checkpoint(blocking=False)
        ck.stop_background()

    ctx.engine.process(driver())
    ctx.engine.run()
    return ctx, alloc, ck, binding


def main() -> None:
    app = LammpsModel()
    print(f"workload: LAMMPS model, {len(app.chunk_specs())} chunks, "
          f"{app.checkpoint_mb_per_rank:.0f} MB/rank, hot chunk = x_positions")
    header = (f"{'variant':>8} | {'exec (s)':>9} | {'coord avg (s)':>13} | "
              f"{'precopy (MB)':>12} | {'coord (MB)':>10} | {'redundant':>9} | "
              f"{'faults':>6}")
    print("\n" + header)
    print("-" * len(header))
    for mode in ("none", "cpc", "dcpc", "dcpcp"):
        ctx, alloc, ck, binding = run_variant(mode)
        pc = ck.precopy.stats if ck.precopy else None
        print(f"{mode:>8} | {ctx.engine.now:9.1f} | {ck.total_checkpoint_time / 5:13.2f} | "
              f"{to_MB(ck.total_precopy_bytes):12.0f} | "
              f"{to_MB(ck.total_coordinated_bytes):10.0f} | "
              f"{(pc.redundant_copies + pc.stale_copies) if pc else 0:9d} | "
              f"{sum(c.fault_count for c in alloc.chunks()):6d}")
        if mode == "dcpc" and ck.threshold is not None:
            print(f"{'':>8}   learned: interval I = {ck.threshold.interval_estimate:.1f} s, "
                  f"T_c = {ck.threshold.copy_time():.1f} s, "
                  f"threshold T_p = {ck.threshold.threshold():.1f} s")
        if mode == "dcpcp" and ck.prediction is not None:
            hot = alloc.chunk("x_positions")
            print(f"{'':>8}   prediction: x_positions expected "
                  f"{ck.prediction.expected_mods(hot):.0f} mods/interval, "
                  f"table accuracy {ck.prediction.accuracy()*100:.0f}%")
            nxt = ck.prediction.machine.predict_next(hot.chunk_id)
            names = {c.chunk_id: c.name for c in alloc.chunks()}
            print(f"{'':>8}   state machine: after x_positions the next write "
                  f"is usually {names.get(nxt, '?')} (Fig. 6)")

    print("\nreading the table: 'none' copies everything in the blocking step; "
          "CPC moves it early but re-copies chunks the app re-writes; DCPC "
          "waits until T_p; DCPCP additionally holds each chunk until its "
          "predicted last write — fewest redundant copies and faults.")


if __name__ == "__main__":
    main()
