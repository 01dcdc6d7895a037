"""Table IV — checkpoint chunk size distribution per application.

Regenerates the byte-share distribution across the paper's size
buckets from the workload models' actual chunk layouts."""

from conftest import once

from repro.apps import CM1Model, GTCModel, LammpsModel
from repro.metrics import Table

PAPER = {
    # the paper's rows (weights; LAMMPS's row does not sum to 100 —
    # we normalize byte-shares over the listed buckets)
    "cm1": {"500K-1MB": 40, "10-20MB": 0, "50-100MB": 54, "above 100MB": 4},
    "gtc": {"500K-1MB": 45, "10-20MB": 9, "50-100MB": 0, "above 100MB": 45},
    "lammps": {"500K-1MB": 15, "10-20MB": 0, "50-100MB": 20, "above 100MB": 25},
}


def test_table4_chunk_distribution(benchmark, report):
    def experiment():
        out = {}
        for model in (CM1Model(), GTCModel(), LammpsModel()):
            out[model.name] = (
                model.chunk_size_distribution(),
                len(model.chunk_specs()),
                model.checkpoint_bytes(),
            )
        return out

    measured = once(benchmark, experiment)
    table = Table(
        "Table IV — chunk size distribution (byte shares, %)",
        ["application", "bucket", "paper", "ours", "chunks", "D/rank (MB)"],
    )
    for app, (dist, n_chunks, total) in measured.items():
        paper_row = PAPER[app]
        norm = 100.0 / max(1, sum(paper_row.values()))
        for bucket in ("500K-1MB", "10-20MB", "50-100MB", "above 100MB"):
            table.add_row(
                app,
                bucket,
                f"{paper_row[bucket] * norm:.0f}",
                f"{dist.get(bucket, 0):.0f}",
                n_chunks,
                f"{total / 2**20:.0f}",
            )
        if dist.get("other", 0):
            table.add_row(app, "other", "-", f"{dist['other']:.0f}", n_chunks,
                          f"{total / 2**20:.0f}")
    table.add_note("paper column normalized over listed buckets; 'ours' from the "
                   "generated layouts (LAMMPS 'other' = the 28 staged aux chunks, "
                   "~3.7MB each — the paper's own LAMMPS row sums to 60).")
    report(table.render())

    # shape assertions: the properties the evaluation relies on
    cm1 = measured["cm1"][0]
    gtc = measured["gtc"][0]
    lammps = measured["lammps"][0]
    assert cm1["above 100MB"] <= 5          # CM1: pre-copy helps < 5%
    # GTC: large chunks dominate (zion >100MB plus the equilibrium
    # profile just under; together ~45% of bytes)
    assert gtc["above 100MB"] >= 20
    assert gtc["above 100MB"] + gtc["50-100MB"] >= 40
    assert lammps["above 100MB"] >= 30      # LAMMPS: hot 3-D array
    assert measured["lammps"][1] == 31      # the paper's 31 chunks
