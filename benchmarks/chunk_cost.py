"""Host cost of one chunk on the checkpoint path, per operation.

A standalone phantom rank with the LAMMPS layout (31 chunks, the
paper's Rhodo count) on its own node context.  Four operations, each
timed over many fresh repetitions; the median is printed in host
microseconds:

* ``nvalloc``: one allocation through the Table-III interface, with
  its share (1/31) of the store flush that makes the rank's 31
  allocations durable;
* ``buddy first contact``: one chunk's first
  :meth:`~repro.core.remote.RemoteTarget.ensure_chunk` on a fresh
  buddy target (two remote regions mapped), per chunk;
* ``coordinated checkpoint``: one blocking ``nvchkptall`` of all 31
  dirty chunks (copy, stage, flush, commit, metadata, flush) under
  mode ``none`` on a rank-local engine;
* ``commit metadata``: the commit half of that step alone — flip the
  31 staged versions, persist the chunk table, flush.

Nothing is gated; the numbers are for the record.  To compare with a
parent commit, ``make chunk-cost BASE=<git-ref>`` alternates ten runs
of this file per side, on the parent's ``src/`` (a ``git archive``
export) and on this tree's, and prints each operation's quartiles of
the run medians, the runs won and the claim rule of ``make perf-pairs``
(``benchmarks/chunk_cost_pairs.py``); one run alone says little, the
wall is noisy.

    make chunk-cost [BASE=<git-ref>]
    PYTHONPATH=src python benchmarks/chunk_cost.py [--repeat N]
"""

import argparse
import statistics
import time

from repro.alloc.nvmalloc import NVAllocator
from repro.apps.lammps import LammpsModel
from repro.config import PrecopyPolicy
from repro.core import LocalCheckpointer
from repro.core.context import make_standalone_context
from repro.core.remote import RemoteTarget

SPECS = [(s.name, s.nbytes) for s in LammpsModel().chunk_specs()]


def _rank(name="r0"):
    ctx = make_standalone_context(name=f"cost-{name}")
    return ctx, NVAllocator(name, ctx.nvmm, ctx.dram, phantom=True,
                            clock=lambda: ctx.engine.now)


def _allocated(name="r0"):
    ctx, alloc = _rank(name)
    chunks = [alloc.nvalloc(n, b) for n, b in SPECS]
    ctx.nvmm.cache_flush()
    return ctx, alloc, chunks


def nvalloc_us():
    ctx, alloc = _rank()
    t0 = time.perf_counter()
    for name, nbytes in SPECS:
        alloc.nvalloc(name, nbytes)
    ctx.nvmm.cache_flush()
    return (time.perf_counter() - t0) / len(SPECS)


def first_contact_us():
    _, _, chunks = _allocated()
    target = RemoteTarget("r0", make_standalone_context(name="cost-buddy"))
    t0 = time.perf_counter()
    for chunk in chunks:
        target.ensure_chunk(chunk)
    return (time.perf_counter() - t0) / len(chunks)


def checkpoint_us():
    ctx, alloc, _ = _allocated()
    ck = LocalCheckpointer(ctx, alloc, PrecopyPolicy(mode="none"))
    t0 = time.perf_counter()
    ck.checkpoint()
    return time.perf_counter() - t0


def commit_metadata_us():
    ctx, alloc, chunks = _allocated()
    ck = LocalCheckpointer(ctx, alloc, PrecopyPolicy(mode="none"))
    dest = ck.destination
    for chunk in chunks:
        chunk.stage_to_nvm()
    t0 = time.perf_counter()
    dest.commit(chunks, with_checksum=True)
    dest.persist_metadata()
    dest.flush()
    return time.perf_counter() - t0


OPERATIONS = {
    "nvalloc (with 1/31 of the flush)": nvalloc_us,
    "buddy first contact (per chunk)": first_contact_us,
    f"coordinated checkpoint ({len(SPECS)} chunks)": checkpoint_us,
    "commit metadata (flip + table + flush)": commit_metadata_us,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=300,
                        help="fresh repetitions per operation (default 300)")
    args = parser.parse_args(argv)
    for fn in OPERATIONS.values():
        fn()  # warm imports and first-use caches
    width = max(map(len, OPERATIONS))
    print(f"{'operation':<{width}}  median us  (n={args.repeat})")
    for label, fn in OPERATIONS.items():
        samples = [fn() for _ in range(args.repeat)]
        print(f"{label:<{width}}  {1e6 * statistics.median(samples):9.1f}")


if __name__ == "__main__":
    main()
