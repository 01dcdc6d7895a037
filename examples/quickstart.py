#!/usr/bin/env python3
"""Quickstart: the Table-III API end to end.

A tiny 'simulation' allocates persistent variables through the
NVM-checkpoint interface, computes on them in DRAM, checkpoints to
NVM, crashes, and restarts — with the committed data intact and the
virtual cost of every operation reported.  It then runs the rest of
Table III (genid, nvattach, nvrealloc, nvdelete, nvchkptid) and checks
after a second crash that each one's effect survived.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import NVMCheckpoint
from repro.memory import InMemoryStore
from repro.units import MB, to_MB


def main() -> None:
    # The store object *is* the NVM DIMM: it survives process crashes.
    store = InMemoryStore()

    # -- a process starts and declares its checkpoint state ------------
    app = NVMCheckpoint("rank0", store=store)
    temperature = app.nvalloc("temperature", MB(8))
    pressure = app.nv2dalloc("pressure", 512, 256)  # 2-D convenience
    scratch = app.nvalloc("scratch", MB(1), pflag=False)  # not persisted

    print(f"declared checkpoint state: {to_MB(app.checkpoint_bytes):.0f} MB "
          f"across {len(app.allocator.persistent_chunks())} chunks")

    # -- compute in DRAM ------------------------------------------------
    t_field = np.linspace(250.0, 320.0, MB(8) // 8)
    temperature.write(0, t_field)
    pressure.write(0, np.full(512 * 256, 101_325.0))
    scratch.write(0, np.zeros(MB(1) // 8))

    # -- coordinated local checkpoint (nvchkptall) ----------------------
    stats = app.nvchkptall()
    print(f"checkpoint: {stats.chunks_copied} chunks, "
          f"{to_MB(stats.bytes_copied):.0f} MB in {stats.duration*1000:.1f} ms "
          f"of virtual time (PCM write bandwidth, Table I)")

    # -- keep computing; this work will be lost --------------------------
    temperature.write(0, np.zeros(1000))
    print("overwrote data after the checkpoint (will be rolled back)")

    # -- crash: DRAM and unflushed NVM writes die ------------------------
    app.crash()
    print("process crashed")

    # -- restart from NVM -------------------------------------------------
    app2, report = NVMCheckpoint.restart("rank0", store)
    print(f"restart: {report.chunks_local} chunks, "
          f"{to_MB(report.bytes_local):.0f} MB read back in "
          f"{report.duration*1000:.1f} ms of virtual time")

    recovered = app2.chunk("temperature").view(np.float64)
    assert np.array_equal(recovered, t_field), "committed data must survive"
    assert not app2.allocator.has_chunk("scratch"), "pflag=False is not persisted"
    print(f"temperature[0]={recovered[0]:.1f} K ... "
          f"temperature[-1]={recovered[-1]:.1f} K — intact")

    # -- the runtime keeps working after restart -------------------------
    app2.chunk("pressure").write(0, np.full(100, 99_000.0))
    stats2 = app2.nvchkptall()
    print(f"post-restart checkpoint: {stats2.chunks_copied} dirty chunk(s) "
          f"copied, {stats2.chunks_skipped} clean chunk(s) skipped")

    # -- the rest of Table III -------------------------------------------
    # genid: a variable's stable integer id; every verb takes it or the name
    pressure_id = NVMCheckpoint.genid("pressure")
    assert app2.chunk(pressure_id) is app2.chunk("pressure"), "genid names the chunk"

    # nvattach: shadow an array the application already holds (a
    # checkpoint size not known up front), then nvrealloc: it grows
    energy = np.linspace(0.0, 1.0, 4096)
    app2.nvattach("energy", energy)
    app2.nvrealloc("energy", MB(1))
    # nvdelete: pressure is no longer needed, NVM versions and all
    app2.nvdelete(pressure_id)
    # nvchkptid: checkpoint the one chunk that changed
    stats3 = app2.nvchkptid("energy")
    assert stats3.chunks_copied == 1, "nvchkptid copies one chunk"
    print(f"nvattach + nvrealloc + nvdelete, then nvchkptid: "
          f"{to_MB(stats3.bytes_copied):.0f} MB copied")
    print("summary:", app2.stats_summary())

    app2.crash()
    app3, report = NVMCheckpoint.restart("rank0", store)
    grown = app3.chunk("energy")
    assert grown.nbytes == MB(1), "nvrealloc's size survives the crash"
    assert np.array_equal(grown.view(np.float64)[:4096], energy), "nvattach's data survives"
    assert not app3.allocator.has_chunk(pressure_id), "nvdelete survives the crash"
    print(f"second restart: {report.chunks_local} chunks — energy grown to "
          f"{to_MB(grown.nbytes):.0f} MB and intact, pressure gone")


if __name__ == "__main__":
    main()
