#!/usr/bin/env python3
"""The payload codec layer: delta + content-addressed dedup end to end.

Walks `docs/ARCHITECTURE.md` §16 in three steps, numbered 2-4:

2. **codec checkpoints** — two `codec="auto"` checkpoints of real
   content through the normal engine walk: the first ships everything
   (and seeds the digest index), the second re-dirties one page and
   ships a fraction of its dirty evidence, with every per-chunk choice
   announced as a `codec.decision` trace event;
3. **crash + verified restart** — power-loss the node and restart
   through the block store: every restored block is re-digested
   against the committed slot map before the application sees it;
4. **what-if** — none of this requires re-running an app to price:
   `repro-sweep --replay trace.jsonl --sweep codec=raw,auto` models
   codec yield from any captured trace (see
   examples/replay_whatif_demo.py).

Run:  PYTHONPATH=src python examples/dedup_demo.py
"""

import numpy as np

from repro.alloc import NVAllocator
from repro.config import PrecopyPolicy
from repro.core import LocalCheckpointer, RestartManager, make_standalone_context
from repro.core.codec import DEFAULT_BLOCK
from repro.metrics.trace import BUS, CallbackSink, CodecDecisionEvent
from repro.sim import Engine
from repro.units import to_MB


def codec_checkpoints():
    print("== 2. auto-codec checkpoints over real content ==")
    decisions: list[CodecDecisionEvent] = []
    sink = BUS.attach(CallbackSink(decisions.append, kinds=["codec.decision"]))
    engine = Engine()
    ctx = make_standalone_context(name="n0", engine=engine)
    alloc = NVAllocator("r0", ctx.nvmm, ctx.dram, phantom=False, clock=lambda: engine.now)
    ck = LocalCheckpointer(ctx, alloc, PrecopyPolicy(mode="none", codec="auto"))
    sent = ck.copier.accounting
    rng = np.random.default_rng(7)

    a = alloc.nvalloc("a", 256 * 1024)  # incompressible
    a.write(0, rng.integers(0, 255, size=256 * 1024, dtype=np.uint8))
    b = alloc.nvalloc("b", 128 * 1024)  # self-similar: all zero blocks
    b.write(0, np.zeros(128 * 1024, dtype=np.uint8))

    engine.process(ck.checkpoint(blocking=False))
    engine.run()
    print(
        f"  ckpt 1: {to_MB(sent.codec_logical_bytes):.2f} MB dirty -> "
        f"{to_MB(sent.codec_wire_bytes):.2f} MB wire "
        f"(store holds {ck.destination.block_store.unique_blocks} unique blocks)"
    )

    # one re-dirtied page on `a`, `b` rewritten with identical zeros
    a.write(0, rng.integers(0, 255, size=DEFAULT_BLOCK, dtype=np.uint8))
    b.write(0, np.zeros(128 * 1024, dtype=np.uint8))
    engine.process(ck.checkpoint(blocking=False))
    engine.run()
    print(
        f"  ckpt 2: {to_MB(sent.codec_logical_bytes):.2f} MB dirty -> "
        f"{to_MB(sent.codec_wire_bytes):.2f} MB wire cumulative "
        f"({to_MB(sent.codec_saved_bytes):.2f} MB kept off the wire)"
    )
    for ev in decisions:
        print(
            f"    codec.decision {ev.chunk!r}: chose {ev.chosen} "
            f"(raw {ev.raw_bytes} / delta {ev.delta_bytes} / dedup {ev.dedup_bytes} B)"
        )
    BUS.detach(sink)
    return engine, ctx, ck


def verified_restart(engine, ctx, ck) -> None:
    print("\n== 3. crash + digest-verified restart ==")
    ctx.nvmm.store.crash()
    ctx.nvmm.crash_process("r0")
    report = RestartManager(ctx).restart_process_sync(
        "r0", block_store=ck.destination.block_store
    )
    print(
        f"  restored {report.chunks_local} chunks, verified "
        f"{report.blocks_verified} content blocks against the committed "
        f"digest maps, {report.digest_failures} mismatches"
    )
    assert report.digest_failures == 0


def main() -> None:
    verified_restart(*codec_checkpoints())
    print("\n(see `repro-sweep --replay ... --sweep codec=...` and "
          "`python -m repro.tools.bench --smoke dedup` for the modelled "
          "and CI-sized versions of the same story)")


if __name__ == "__main__":
    main()
