"""The shared ``chunk.copied`` field contract of the one copy step.

Four sites emit ``chunk.copied`` — the coordinated local step, the
local pre-copy engine, the remote stream and the remote round — and all
of them land through :class:`repro.core.copystep.CopyStep`.  Whatever
the site and whatever the payload path (whole chunks, page extents,
the auto codec), every event obeys the same arithmetic, carries its
owner's tenant, and the stream as a whole replays to the live run's
byte accounting exactly.
"""

import pytest

from repro.apps import SyntheticModel
from repro.cluster import Cluster, ClusterRunner
from repro.config import CheckpointConfig, ClusterConfig, PrecopyPolicy
from repro.metrics.trace import BUS
from repro.replay.divergence import accounting_from_events, compare_to_run
from repro.units import GB_per_sec

#: (stream, phase) of each emit site
SITES = {
    "coordinated": ("local", "coordinated"),
    "precopy": ("local", "precopy"),
    "remote-stream": ("remote", "precopy"),
    "remote-round": ("remote", "coordinated"),
}
VARIANTS = {
    "whole-chunk": {},
    "incremental": {"copy_granularity": "page"},
    "codec-auto": {"copy_granularity": "page", "codec": "auto"},
}
TENANCY = {f"r{i}": ("gold" if i % 2 else "bronze") for i in range(4)}


@pytest.fixture(scope="module", params=sorted(VARIANTS))
def run(request):
    cluster = Cluster(
        ClusterConfig(nodes=2), nvm_write_bandwidth=GB_per_sec(1.0), seed=3
    )
    app = SyntheticModel(
        checkpoint_mb_per_rank=40,
        chunk_mb=10,
        iteration_compute_time=10.0,
        comm_mb_per_iteration=5,
        hot_fraction=0.25,
    )
    config = CheckpointConfig(
        local_interval=10.0,
        remote_interval=30.0,
        precopy=PrecopyPolicy(mode="dcpcp", **VARIANTS[request.param]),
    )
    cluster.build(app, config, ranks_per_node=2, tenancy=TENANCY)
    with BUS.capture() as sink:
        result = ClusterRunner(cluster).run(8)
    sizes = {
        chunk.name: chunk.nbytes
        for state in cluster.all_ranks()
        for chunk in state.allocator.persistent_chunks()
    }
    return request.param, cluster, result, list(sink.events), sizes


@pytest.mark.parametrize("site", sorted(SITES))
def test_chunk_copied_field_contract(run, site):
    variant, _, _, events, sizes = run
    stream, phase = SITES[site]
    copies = [
        ev
        for ev in events
        if ev.kind == "chunk.copied" and (ev.stream, ev.phase) == (stream, phase)
    ]
    assert copies, f"site {site} emitted nothing under {variant}"
    for ev in copies:
        assert ev.logical_bytes + ev.bytes_saved == sizes[ev.chunk]
        # no wire compression in these runs: the accounted bytes equal
        # the logical bytes exactly when the payload shipped raw
        assert (ev.nbytes == ev.logical_bytes) == (ev.codec == "raw")
        assert ev.nbytes <= ev.logical_bytes
        assert ev.tenant in ("gold", "bronze")
        assert ev.start <= ev.t
    if variant == "whole-chunk":
        assert all(ev.bytes_saved == 0 and ev.codec == "raw" for ev in copies)
    if variant == "codec-auto" and phase == "precopy":
        # the coordinated sites only run in the learning interval here,
        # with no committed base to delta or dedup against yet
        assert any(ev.codec != "raw" for ev in copies)


def test_commits_and_metering_carry_each_ranks_tenant(run):
    _, _, result, events, _ = run
    commits = [ev for ev in events if ev.kind == "commit"]
    assert commits
    assert all(ev.tenant == TENANCY[ev.actor] for ev in commits)
    tenants = result.to_dict()["tenants"]
    assert sorted(tenants) == ["bronze", "gold"]
    assert all(tenants[name]["checkpoints"] > 0 for name in tenants)


def test_stream_replays_to_the_live_accounting(run):
    _, cluster, result, events, _ = run
    report = compare_to_run(accounting_from_events(events), result, cluster=cluster)
    assert report.matches, report.describe()
