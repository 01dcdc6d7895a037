"""The shared ``chunk.copied`` field contract of the one copy step.

Four sites emit ``chunk.copied`` — the coordinated local step, the
local pre-copy engine, the remote stream and the remote round — and all
of them land through :class:`repro.core.copystep.CopyStep`.  Whatever
the site and whatever the payload path (whole chunks, page extents,
the auto codec), every event obeys the same arithmetic, and the stream
as a whole replays to the live run's byte accounting exactly.
"""

import pytest

from repro.apps import SyntheticModel
from repro.cluster import Cluster, ClusterRunner
from repro.config import CheckpointConfig, ClusterConfig, PrecopyPolicy
from repro.core.copystep import COUNTERS, PAYLOAD_ONLY
from repro.exec.cell import build_parser, run_experiment
from repro.metrics.trace import BUS, RingBufferSink
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
    cluster.build(app, config, ranks_per_node=2)
    with BUS.capture() as sink:
        result = ClusterRunner(cluster).run(8)
    sizes = {
        chunk.name: chunk.nbytes
        for state in cluster.all_ranks()
        for chunk in state.allocator.persistent_chunks()
    }
    return request.param, result, list(sink.events), sizes


@pytest.mark.parametrize("site", sorted(SITES))
def test_chunk_copied_field_contract(run, site):
    variant, _, events, sizes = run
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
        assert ev.start <= ev.t
    if variant == "whole-chunk":
        assert all(ev.bytes_saved == 0 and ev.codec == "raw" for ev in copies)
    if variant == "codec-auto" and phase == "precopy":
        # the coordinated sites only run in the learning interval here,
        # with no committed base to delta or dedup against yet
        assert any(ev.codec != "raw" for ev in copies)


def test_stream_replays_to_the_live_accounting(run):
    _, result, events, _ = run
    report = compare_to_run(accounting_from_events(events), result)
    assert report.matches, report.describe()


#: a page-granular auto-codec cell with the remote tier on: every
#: counter of the accounting moves, the codec totals included
CODEC_CELL = [
    "--app", "synthetic", "--nodes", "2", "--ranks-per-node", "2",
    "--iterations", "6", "--local-interval", "10", "--remote-interval", "30",
    "--mode", "dcpcp", "--copy-granularity", "page", "--codec", "auto",
]


def test_accounting_does_not_depend_on_tracing():
    """The live run counts each copy where it lands, sink or no sink,
    and a trace of the same run rebuilds the same accounting."""
    bare = run_experiment(build_parser().parse_args(CODEC_CELL)).accounting
    with BUS.capture(RingBufferSink(capacity=None)) as sink:
        traced = run_experiment(build_parser().parse_args(CODEC_CELL)).accounting
    assert traced == bare
    replayed = accounting_from_events(list(sink.events))
    for name in COUNTERS:
        expected = 0 if name in PAYLOAD_ONLY else getattr(traced, name)
        assert getattr(replayed, name) == expected, name
    assert replayed.commit_ordering() == traced.commit_ordering()
    assert replayed.blocking_s == pytest.approx(traced.blocking_s)
    # the cell exercised what it is meant to: both tiers and the codec
    assert traced.local_precopy_bytes and traced.remote_precopy_bytes
    assert traced.coordinated_bytes and traced.remote_round_bytes
    assert traced.codec_wire_bytes < traced.codec_logical_bytes
    assert traced.codec_blocks_new


def test_raw_whole_copies_share_one_payload_per_size():
    """A raw whole-chunk payload depends on the chunk size alone: every
    whole copy of that size reads the same values from one object, and
    a page-granular copy still gets its own."""
    from repro.alloc import NVAllocator
    from repro.core import make_standalone_context
    from repro.core.copystep import CopyStep
    from repro.core.destination import NVMArenaDestination

    ctx = make_standalone_context(name="raw-share")
    alloc = NVAllocator("r0", ctx.nvmm, ctx.dram, phantom=True)
    dest = NVMArenaDestination(ctx, alloc)
    a, b, c = (alloc.nvalloc(n, s) for n, s in (("a", 8192), ("b", 8192), ("c", 4096)))
    whole = CopyStep(ctx, PrecopyPolicy(mode="none"), actor="r0")
    plans = [whole.plan(chunk, dest) for chunk in (a, b, c)]
    assert plans[0].payload is plans[1].payload
    assert plans[0].payload is not plans[2].payload
    assert plans[0].payload is whole.plan_whole(a).payload
    for plan in plans:
        n = plan.chunk.nbytes
        assert (plan.payload.kind, plan.payload.codec, plan.payload.extents) == ("full", "raw", None)
        assert (plan.logical_bytes, plan.nbytes, plan.bytes_saved) == (n, n, 0)
        assert (plan.payload.blocks, plan.payload.blocks_new, plan.payload.blocks_ref) == (0, 0, 0)
        assert plan.payload.density == 1.0
    paged = CopyStep(ctx, PrecopyPolicy(mode="none", copy_granularity="page"), actor="r0")
    a.stage_to_nvm()
    a.touch(4096)
    first, again = paged.plan(a, dest), paged.plan(a, dest)
    assert first.payload is not again.payload
    assert first.extents == [(0, 4096)] and first.nbytes == 4096
