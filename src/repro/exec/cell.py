"""One experiment cell: option surface, config resolution, execution.

This module is the single owner of what an *experiment cell* is — the
argparse option surface, the resolution of parsed options into the
canonical semantic config dict (the cache-key input and worker
payload), and the cell execution path that builds the simulated testbed
and runs it.  ``repro.tools.experiment`` is a thin CLI wrapper over it,
and :mod:`repro.exec.grid` expands and dispatches sweep grids over the
same surface — neither owns any config-resolution logic of its own.

A scripted run — the elastic failover story, the link-flap demo — is
a cell too: ``--scenario NAME`` picks an entry of :data:`SCENARIOS`
(spare nodes and scripted failures), so the sweep tool, the cache and
the trace see it like any other run.

Every run is deterministic for a given ``seed``.  A cell runs with the
automatic cycle collector off and ends with one collection of what it
left behind (:func:`run_collected`).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import math
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..apps import CM1Model, GTCModel, LammpsModel, SyntheticModel
from ..cluster import (
    Cluster,
    ClusterRunner,
    FailureEvent,
    RunResult,
    ScriptedInjector,
)
from ..config import (
    CheckpointConfig,
    ClusterConfig,
    FailureConfig,
    PrecopyPolicy,
)
from ..errors import ConfigError
from ..units import GB, GB_per_sec

__all__ = [
    "APPS",
    "ARCHIVE_INTERVAL_S",
    "ARCHIVE_PFS_GBPS",
    "NON_SEMANTIC_OPTIONS",
    "SCENARIOS",
    "SMALL_CHUNK_APPS",
    "Scenario",
    "build_parser",
    "check_combination",
    "resolve_config",
    "run_cell",
    "run_collected",
    "run_experiment",
    "result_to_dict",
]

#: options that shape *output*, not the experiment itself — excluded
#: from the resolved config so they never perturb cache keys
NON_SEMANTIC_OPTIONS = frozenset({"json", "timeline", "trace"})

#: ``--archive``'s third checkpoint level (X5): every buddy-committed
#: chunk version drains to a PFS this often, through this share of it
ARCHIVE_INTERVAL_S = 150.0
ARCHIVE_PFS_GBPS = 1.5

APPS = {
    "gtc": lambda args: GTCModel(small_chunks=args.small_chunks),
    "lammps": lambda args: LammpsModel(),
    "cm1": lambda args: CM1Model(small_chunks=args.small_chunks),
    "synthetic": lambda args: SyntheticModel(
        checkpoint_mb_per_rank=args.checkpoint_mb,
        chunk_mb=args.chunk_mb,
        hot_fraction=args.hot_fraction,
        write_once_fraction=args.write_once_fraction,
        iteration_compute_time=args.local_interval,
        comm_mb_per_iteration=args.comm_mb,
    ),
}


class Scenario(NamedTuple):
    """A scripted run: what ``--scenario`` adds to the cell's testbed."""

    #: computing nodes the schedule was written for (``--nodes`` must match)
    nodes: int
    #: nodes beyond ``--nodes`` with NVM and fabric but no ranks and no
    #: pairing.  They still shape the topology (racks and the static
    #: ring the pairing follows), so they are part of the scenario's
    #: testbed: dropping ``elastic-full-resync``'s two would move its
    #: record.  A scripted failure may name one
    spares: int = 0
    failures: Tuple[FailureEvent, ...] = ()


#: the scripted runs, on the ring pairing 0->1->2->3->0.  In
#: ``elastic-full-resync`` node 2's early death re-pairs its orphan
#: (node 1) onto node 0, overloading it; node 1 dies late and its
#: orphan (node 0) re-pairs onto node 3.  Each failover re-sends a full
#: footprint: a new buddy holds none of the orphan's copies.
SCENARIOS: Dict[str, Scenario] = {
    "elastic-full-resync": Scenario(4, 2, failures=(
        FailureEvent(35.0, node=2, kind="hard"),
        FailureEvent(140.0, node=1, kind="hard"),
    )),
    # a link flap, then a hard failure of the same node.  The flap is
    # mid-stream only at the degraded demo's 10 s/30 s intervals (window
    # [50, 60) s); at the default 40 s/120 s the first stream window
    # opens at 200 s, so the 52-58 s flap hits only heartbeats
    "link-flap": Scenario(4, failures=(
        FailureEvent(52.0, node=1, kind="transient", duration=6.0),
        FailureEvent(75.0, node=1, kind="hard"),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro.tools.experiment",
        description="Run one NVM-checkpoints experiment on the simulated testbed.",
    )
    p.add_argument("--app", choices=sorted(APPS), default="lammps")
    p.add_argument("--mode", choices=["none", "cpc", "dcpc", "dcpcp"],
                   default="dcpcp", help="local pre-copy policy")
    p.add_argument("--granularity", choices=["chunk", "page"], default="chunk",
                   help="dirty-tracking granularity")
    p.add_argument("--copy-granularity", choices=["chunk", "page"], default="chunk",
                   help="copy granularity: 'page' moves only the stale "
                        "dirty-page extents (incremental checkpoints)")
    p.add_argument("--codec", choices=["raw", "delta", "dedup", "auto"],
                   default="raw",
                   help="payload representation on the copy path: 'raw' "
                        "ships bytes as-is (golden default); 'delta' XORs "
                        "against the committed shadow version; 'dedup' "
                        "references the content-addressed block store; "
                        "'auto' picks the cheapest per chunk")
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--ranks-per-node", type=int, default=12)
    p.add_argument("--iterations", type=int, default=6)
    p.add_argument("--nvm-gbps", type=float, default=2.0,
                   help="NVM device write bandwidth (Table I default: 2.0)")
    p.add_argument("--nvm-capacity-gb", type=float, default=None,
                   help="per-node NVM capacity (default: Table I's 24 GB part)")
    p.add_argument("--local-interval", type=float, default=40.0)
    p.add_argument("--remote-interval", type=float, default=120.0)
    p.add_argument("--no-remote", action="store_true",
                   help="disable remote (buddy) checkpointing")
    p.add_argument("--pfs-gbps", type=float, default=None,
                   help="checkpoint to a shared PFS at this aggregate GB/s "
                        "instead of node-local NVM (implies --no-remote)")
    p.add_argument("--no-remote-precopy", action="store_true",
                   help="asynchronous no-pre-copy remote baseline")
    p.add_argument("--ideal", action="store_true",
                   help="the paper's ideal runtime: no local checkpoints "
                        "and no remote tier")
    p.add_argument("--archive", action="store_true",
                   help=f"archive the buddy copies to a {ARCHIVE_PFS_GBPS} GB/s "
                        f"PFS every {ARCHIVE_INTERVAL_S:.0f} s (the third "
                        "checkpoint level)")
    p.add_argument("--compress-ratio", type=float, default=None,
                   help="compress remote checkpoint traffic at this "
                        "compressed/original ratio (mcrengine-style)")
    p.add_argument("--mtbf-local", type=float, default=None,
                   help="per-node soft-failure MTBF (s); enables failure injection")
    p.add_argument("--mtbf-remote", type=float, default=None,
                   help="per-node hard-failure MTBF (s)")
    p.add_argument("--scenario", choices=sorted(SCENARIOS), default=None,
                   help="play a scripted run: spare nodes and scripted "
                        "failures")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--timeline", action="store_true",
                   help="print the phase timeline (Fig. 5 style)")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="write the result as JSON to PATH ('-' for stdout)")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="stream the run's trace events to PATH as "
                        "versioned Jsonl (replayable with sweep --replay)")
    # synthetic-model knobs
    p.add_argument("--checkpoint-mb", type=float, default=400.0)
    p.add_argument("--chunk-mb", type=float, default=25.0)
    p.add_argument("--hot-fraction", type=float, default=0.0)
    p.add_argument("--write-once-fraction", type=float, default=0.0)
    p.add_argument("--comm-mb", type=float, default=100.0)
    p.add_argument("--small-chunks", type=int, default=24,
                   help="small-bucket chunk count for gtc/cm1 (0 = faithful)")
    return p


def _positive(value: float) -> bool:
    return value > 0 and math.isfinite(value)


#: option -> (test its value must pass when given, what the refusal
#: says the option takes)
OPTION_DOMAINS: Dict[str, Tuple[Callable[[Any], bool], str]] = {
    **dict.fromkeys(
        ("--nvm-gbps", "--pfs-gbps", "--nvm-capacity-gb", "--local-interval",
         "--remote-interval", "--checkpoint-mb", "--chunk-mb"),
        (_positive, "must be positive and finite"),
    ),
    **dict.fromkeys(("--mtbf-local", "--mtbf-remote"),
                    (_positive, "must be a positive, finite MTBF")),
    **dict.fromkeys(("--nodes", "--ranks-per-node", "--iterations"),
                    (lambda n: n >= 1, "must be at least 1")),
    "--compress-ratio": (lambda r: 0 < r <= 1,
                         "must be a compressed/original ratio in (0, 1]"),
    **dict.fromkeys(("--hot-fraction", "--write-once-fraction"),
                    (lambda f: 0 <= f <= 1, "must be a fraction in [0, 1]")),
    "--comm-mb": (lambda mb: 0 <= mb < math.inf, "must be non-negative and finite"),
    "--small-chunks": (lambda n: n >= 0, "must be at least 0"),
}

#: the synthetic model's own options: no other app reads them
SYNTHETIC_OPTIONS = (
    "--checkpoint-mb", "--chunk-mb", "--hot-fraction", "--write-once-fraction", "--comm-mb",
)
#: the apps whose chunk layout ``--small-chunks`` sets
SMALL_CHUNK_APPS = ("gtc", "cm1")


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


@functools.lru_cache(maxsize=1)
def _defaults() -> Dict[str, Any]:
    return vars(build_parser().parse_args([]))


def _given(args: argparse.Namespace, *flags: str) -> List[str]:
    """Those of *flags* set away from their defaults."""
    return [f for f in flags if getattr(args, _dest(f)) != _defaults()[_dest(f)]]


def check_combination(args: argparse.Namespace) -> None:
    """Refuse values and option combinations the cell would silently
    ignore or cannot honour: a value outside its option's domain
    (:data:`OPTION_DOMAINS`), byte shares of more than the whole
    footprint, an app option the chosen app does not read, a payload
    codec beside a compression model, whatever ``--ideal`` would
    discard, the options that act on a remote tier when ``--no-remote``
    or ``--pfs-gbps`` turns it off (a hard failure would fetch from a
    buddy that holds no copy), and whatever would change a scenario's
    testbed or failure schedule."""
    for flag, (ok, domain) in OPTION_DOMAINS.items():
        value = getattr(args, _dest(flag))
        if value is not None and not ok(value):
            raise ConfigError(f"{flag} {domain}, not {value}")
    if args.hot_fraction + args.write_once_fraction > 1:
        raise ConfigError(
            "--hot-fraction and --write-once-fraction together exceed the "
            "whole footprint"
        )
    ignored = [] if args.app == "synthetic" else _given(args, *SYNTHETIC_OPTIONS)
    if args.app not in SMALL_CHUNK_APPS:
        ignored += _given(args, "--small-chunks")
    if ignored:
        raise ConfigError(f"--app {args.app} does not read {', '.join(ignored)}")
    if args.codec != "raw" and args.compress_ratio is not None:
        raise ConfigError(
            f"--codec {args.codec} and --compress-ratio both define the wire "
            "volume; run one of them"
        )
    discarded = _given(
        args, "--mtbf-local", "--mtbf-remote", "--archive", "--compress-ratio",
        "--pfs-gbps", "--codec", "--copy-granularity",
    )
    if args.ideal and discarded:
        raise ConfigError(
            f"--ideal runs without checkpoints; it would discard {', '.join(discarded)}"
        )
    off = _given(args, "--no-remote", "--pfs-gbps")
    needs_remote = _given(args, "--compress-ratio", "--mtbf-remote", "--archive")
    if off and needs_remote:
        raise ConfigError(
            f"{', '.join(needs_remote)} acts on the remote tier, which {off[0]} turns off"
        )
    scenario = SCENARIOS.get(args.scenario)
    if scenario is not None:
        clashes = _given(args, "--mtbf-local", "--mtbf-remote", "--no-remote",
                         "--pfs-gbps", "--ideal")
        if clashes:
            raise ConfigError(
                f"--scenario {args.scenario} scripts its own failures over the "
                f"remote tier; it cannot run with {', '.join(clashes)}"
            )
        if args.nodes != scenario.nodes:
            raise ConfigError(
                f"--scenario {args.scenario} is written for --nodes "
                f"{scenario.nodes}, not {args.nodes}"
            )


def resolve_config(args: argparse.Namespace) -> dict:
    """The canonical resolved configuration of one experiment cell:
    every semantic option after argparse defaulting, sorted by name.
    This dict is the cache-key input and the worker payload of the
    execution engine (JSON-serializable and picklable by design).
    Raises :class:`~repro.errors.ConfigError` for a combination
    :func:`check_combination` refuses."""
    check_combination(args)
    return {
        k: v for k, v in sorted(vars(args).items()) if k not in NON_SEMANTIC_OPTIONS
    }


def run_collected(config: dict, summarize: Callable[[RunResult], Any]) -> Any:
    """Run one resolved cell and return ``summarize(result)``, leaving
    no testbed behind.

    A finished testbed is one cyclic object graph (ranks, chunks,
    engines and processes point at each other) that only the cycle
    collector can free, and left to the collector's own schedule the
    next cell runs on top of it.  The cell therefore ends with a full
    collection; freezing what was alive before the cell keeps that
    collection to what the cell left behind (~1 ms instead of ~10 ms
    for the interpreter's whole heap).  The :class:`RunResult` points
    at its cluster and runner (``result.cluster`` / ``result.runner``,
    which *summarize* may read), so only *summarize*'s return value
    leaves here.

    While the cell runs the automatic collector is off (the caller's
    setting is restored afterwards): its passes re-scan a testbed that
    is still alive and find next to nothing.  Measured (CPython 3.11),
    a cell's passes freed 0–16 objects in all on four perfbench
    workloads and about 1.8 k on ``synthetic-failures-restart``; on an
    8×12 GTC cell (``make paper-scale``) 1,576 passes freed 384
    objects, cost a quarter of the cell's wall time, and the end-of-cell
    collection then freed 440 k — it frees the testbed either way.
    """
    args = argparse.Namespace(**dict(config))
    enabled = gc.isenabled()
    gc.disable()
    gc.freeze()
    try:
        return summarize(run_experiment(args))
    finally:
        gc.collect()
        gc.unfreeze()
        if enabled:
            gc.enable()


def run_cell(config: dict) -> dict:
    """Execute one resolved cell and return its summary dict.

    Module-level and dict-in/dict-out so the worker pool can ship it
    across process boundaries; the input is copied, so a cell can never
    leak mutations — nor memory — into its siblings.
    """
    return run_collected(config, result_to_dict)


def run_experiment(args: argparse.Namespace) -> RunResult:
    resolved = resolve_config(args)
    if args.small_chunks == 0:
        args.small_chunks = None  # faithful layouts
    app = APPS[args.app](args)
    app.iteration_compute_time = args.local_interval
    scenario = SCENARIOS[args.scenario] if args.scenario else Scenario(args.nodes)
    config = CheckpointConfig(
        local_interval=args.local_interval,
        remote_interval=args.remote_interval,
        precopy=PrecopyPolicy(
            mode=args.mode,
            granularity=args.granularity,
            copy_granularity=args.copy_granularity,
            codec=args.codec,
        ),
        remote_precopy=not args.no_remote_precopy,
    )
    cluster_config = ClusterConfig(nodes=args.nodes + scenario.spares)
    if args.nvm_capacity_gb is not None:
        node = cluster_config.node
        nvm = dataclasses.replace(node.nvm, capacity=GB(args.nvm_capacity_gb))
        cluster_config = dataclasses.replace(
            cluster_config, node=dataclasses.replace(node, nvm=nvm)
        )
    cluster = Cluster(
        cluster_config,
        nvm_write_bandwidth=GB_per_sec(args.nvm_gbps),
        seed=args.seed,
    )
    pfs = None
    if args.pfs_gbps is not None:
        from ..baselines import PfsModel

        pfs = PfsModel(cluster.engine, aggregate_bandwidth=GB_per_sec(args.pfs_gbps))
        args.no_remote = True
    compression = None
    if args.compress_ratio is not None:
        from ..core import CompressionModel

        compression = CompressionModel(phantom_ratio=args.compress_ratio)
    cluster.build(
        app, config, ranks_per_node=args.ranks_per_node, n_nodes_used=args.nodes,
        with_remote=not (args.no_remote or args.ideal), pfs=pfs,
        compression=compression,
    )
    archive = None
    if args.archive:
        from ..baselines import PfsModel
        from ..core import ArchiveTier

        archive_pfs = PfsModel(
            cluster.engine, aggregate_bandwidth=GB_per_sec(ARCHIVE_PFS_GBPS)
        )
        archive = ArchiveTier(
            cluster.engine, cluster.helpers(), archive_pfs, interval=ARCHIVE_INTERVAL_S
        )
    failure_config: Optional[FailureConfig] = None
    if args.mtbf_local is not None or args.mtbf_remote is not None:
        # an unset MTBF means "never fails"; 0 is an error, not unset
        failure_config = FailureConfig(
            mtbf_local=1e12 if args.mtbf_local is None else args.mtbf_local,
            mtbf_remote=1e12 if args.mtbf_remote is None else args.mtbf_remote,
            seed=args.seed,
        )
    runner = ClusterRunner(
        cluster,
        local_checkpoints=not args.ideal,
        failure_config=failure_config,
        archive=archive,
        injector=ScriptedInjector(scenario.failures) if scenario.failures else None,
    )
    trace_path = getattr(args, "trace", None)
    sink = None
    if trace_path:
        from ..metrics.trace import BUS, JsonlSink

        sink = BUS.attach(JsonlSink(trace_path, meta={"config": resolved}))
    try:
        result = runner.run(args.iterations)
    finally:
        if sink is not None:
            BUS.detach(sink)
            sink.close()
    result.cluster = cluster  # type: ignore[attr-defined]
    result.runner = runner  # type: ignore[attr-defined]
    return result


def result_to_dict(result: RunResult) -> dict:
    """JSON-friendly summary of a run (see :meth:`RunResult.to_dict`)."""
    return result.to_dict()
