"""The six workloads: generated inputs, one pass, and its checks.

A *pass* is one fixed list of experiment cells pushed through the
program's public entry points — ``repro.run_grid`` for every workload,
plus ``repro.replay.capture_cell`` / ``ReplayEngine`` for
``grid-trace-replay``.  The program only ever sees the argv generated
here.  Why each workload exists is recorded in ``BENCHMARK.json``
(``workloads[].why``) and in the README; the argv below is the final,
contract-sized form (cells shortened so that 40+ passes fit one run).

Inputs and the seed
-------------------
``--seed N`` is passed to every cell as ``--seed``, and that is all it
does.  The LAMMPS and GTC models draw nothing from it, so their
simulated results are the same for every seed.  One workload departs:
``synthetic-failures-restart`` pins its cells' ``--seed`` to
:data:`FAILURE_SCHEDULE_SEED`.  There the cell seed *is* the failure
schedule, and across seeds 1..5 that schedule moves the simulated
overhead from 0.43 to 4.4 and the pass wall-clock by 3x.  The driver
takes a metric's spread over runs that each have another seed, so no
bound could hold over it: the schedule is part of the workload's
definition.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "FAILURE_SCHEDULE_SEED",
    "Workload",
    "WORKLOADS",
    "Inputs",
    "PassOutcome",
    "make_inputs",
    "make_pass",
    "check_pass",
    "record_digest",
]

#: the pinned failure schedule of ``synthetic-failures-restart``
FAILURE_SCHEDULE_SEED = 1

REPLAY_MODES = ("none", "cpc", "dcpc", "dcpcp")

_LAMMPS = ("--app", "lammps", "--local-interval", "20")


@dataclass(frozen=True)
class Workload:
    """One named workload: cell argv (without ``--seed``), the swept
    axes, and what a correct pass looks like."""

    name: str
    base: Tuple[str, ...]
    axes: Tuple[str, ...] = ()
    #: ``--seed`` every cell gets instead of the benchmark seed
    cell_seed: Optional[int] = None
    #: the cells inject failures (checkpoint counts then include redone work)
    failures: bool = False
    #: the cells run a non-raw codec (wire bytes must undercut logical)
    codec: bool = False
    #: the pass also runs the cache, the trace file and the replay engine
    replay: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="lammps-precopy-remote",
            base=_LAMMPS + ("--nvm-gbps", "1.0", "--nodes", "2",
                            "--ranks-per-node", "2", "--iterations", "2",
                            "--remote-interval", "40"),
            axes=("mode=cpc,dcpc,dcpcp",),
        ),
        Workload(
            name="lammps-nopolicy-local",
            base=_LAMMPS + ("--nodes", "2", "--ranks-per-node", "2",
                            "--iterations", "4", "--mode", "none", "--no-remote"),
            axes=("nvm-gbps=0.5,1.0,2.0,4.0",),
        ),
        Workload(
            name="lammps-codec-page",
            base=_LAMMPS + ("--nvm-gbps", "1.0", "--nodes", "2",
                            "--ranks-per-node", "1", "--iterations", "2",
                            "--remote-interval", "40", "--mode", "dcpcp",
                            "--copy-granularity", "page", "--codec", "auto"),
            codec=True,
        ),
        Workload(
            name="gtc-manychunk",
            base=("--app", "gtc", "--nodes", "2", "--ranks-per-node", "1",
                  "--iterations", "3", "--local-interval", "20",
                  "--remote-interval", "60", "--mode", "dcpcp",
                  "--nvm-gbps", "1.0", "--small-chunks", "96"),
        ),
        Workload(
            name="synthetic-failures-restart",
            base=("--app", "synthetic", "--nodes", "4", "--ranks-per-node", "2",
                  "--iterations", "10", "--local-interval", "15",
                  "--remote-interval", "45", "--checkpoint-mb", "80",
                  "--chunk-mb", "10", "--mtbf-local", "200",
                  "--mtbf-remote", "600", "--mode", "dcpcp",
                  "--nvm-gbps", "2.0"),
            cell_seed=FAILURE_SCHEDULE_SEED,
            failures=True,
        ),
        Workload(
            name="grid-trace-replay",
            base=_LAMMPS + ("--nodes", "2", "--ranks-per-node", "2",
                            "--iterations", "2", "--remote-interval", "60",
                            "--no-remote"),
            axes=("mode=none,dcpcp", "nvm-gbps=1.0,2.0"),
            replay=True,
        ),
    )
}

#: the cell of ``grid-trace-replay`` that is captured and replayed
_CAPTURED_CELL = {"mode": "dcpcp", "nvm_gbps": 1.0}


# ---------------------------------------------------------------------------
# Inputs.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Inputs:
    """The generated argv of one (workload, seed): what the program sees."""

    base: Tuple[str, ...]
    axes: Tuple[str, ...]


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Same seed, same argv — nothing else feeds the program."""
    cell_seed = seed if workload.cell_seed is None else workload.cell_seed
    return Inputs(base=workload.base + ("--seed", str(cell_seed)), axes=workload.axes)


# ---------------------------------------------------------------------------
# One pass.
# ---------------------------------------------------------------------------


@dataclass
class PassOutcome:
    """What one pass produced (timing is the caller's business)."""

    records: List[Dict[str, Any]]
    #: host seconds of named parts of the pass (replay workload only)
    segments: Dict[str, float] = field(default_factory=dict)
    #: counts the pass observed about itself (replay workload only)
    facts: Dict[str, float] = field(default_factory=dict)
    #: workload-specific checks that failed inside the pass
    problems: List[str] = field(default_factory=list)
    #: further deterministic output that belongs in the digest
    extra: List[Dict[str, Any]] = field(default_factory=list)


def make_pass(
    workload: Workload, inputs: Inputs, workdir: str
) -> Callable[[], PassOutcome]:
    """The zero-argument pass function of *workload* on *inputs*.

    ``repro`` is imported here, not at module import, so that importing
    the benchmark costs nothing and set-up time is measured around it.
    The entry points are looked up on their modules at every call: the
    traced run replaces them there, and a pass must then run through
    the replacements.
    """
    import repro
    import repro.replay

    base, axes = list(inputs.base), list(inputs.axes)
    if not workload.replay:

        def grid_pass() -> PassOutcome:
            result = repro.run_grid(base, axes, workers=1, cache=None)
            return PassOutcome(records=result.records)

        return grid_pass

    workers = min(os.cpu_count() or 1, 2)
    counter = itertools.count()

    def replay_pass() -> PassOutcome:
        scratch = os.path.join(workdir, f"pass-{next(counter)}")
        os.makedirs(scratch)
        try:
            return _replay_pass_in(scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    def _replay_pass_in(scratch: str) -> PassOutcome:
        cache_dir = os.path.join(scratch, "cache")
        clock = time.perf_counter
        t0 = clock()
        cold = repro.run_grid(base, axes, workers=workers, cache=cache_dir,
                              trace=os.path.join(scratch, "cold.jsonl"))
        t1 = clock()
        warm = repro.run_grid(base, axes, workers=workers, cache=cache_dir,
                              trace=os.path.join(scratch, "warm.jsonl"))
        t2 = clock()
        cell = next(
            c for c in cold.cells
            if all(c.config[k] == v for k, v in _CAPTURED_CELL.items())
        )
        capture = repro.replay.capture_cell(cell.config)
        t3 = clock()
        engine = capture.engine()
        report = repro.replay.compare_to_run(engine.faithful(), capture.result)
        t4 = clock()
        replays = [engine.replay(mode) for mode in REPLAY_MODES]
        t5 = clock()
        problems = []
        if warm.execution.cells_executed != 0:
            problems.append(
                f"warm grid executed {warm.execution.cells_executed} cells"
            )
        if warm.records != cold.records:
            problems.append("warm-cache records differ from the cold run")
        if not report.matches:
            problems.append(f"faithful replay diverges: {report.describe()}")
        return PassOutcome(
            records=cold.records,
            segments={
                "exec.grid_cold_s": t1 - t0,
                "exec.grid_warm_s": t2 - t1,
                "replay.capture_s": t3 - t2,
                "replay.faithful_s": t4 - t3,
                "replay.whatif_s": t5 - t4,
            },
            facts={
                "exec.cache_hit_rate": warm.execution.cache_hit_rate,
                "replay.cells_exact": 1.0 if report.matches else 0.0,
                "metrics.trace.events": float(len(capture.events)),
            },
            problems=problems,
            extra=replays,
        )

    return replay_pass


# ---------------------------------------------------------------------------
# Checks.
# ---------------------------------------------------------------------------


def record_digest(outcome: PassOutcome) -> str:
    """Digest of the pass's canonical-JSON output (records + replays)."""
    canon = json.dumps(
        {"records": outcome.records, "extra": outcome.extra},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.blake2b(canon.encode("utf-8"), digest_size=16).hexdigest()


def _option(argv: Sequence[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def check_pass(
    workload: Workload, outcome: PassOutcome, digest: str, first_digest: str
) -> List[str]:
    """Every way this pass is wrong (empty when it is correct)."""
    problems = list(outcome.problems)
    if digest != first_digest:
        problems.append(f"record digest {digest} != first pass {first_digest}")
    iterations = int(_option(workload.base, "--iterations"))
    for record in outcome.records:
        where = ",".join(
            f"{k[6:]}={v}" for k, v in record.items() if k.startswith("sweep.")
        ) or "cell"
        if record["iterations"] != iterations:
            problems.append(
                f"{where}: completed {record['iterations']} of {iterations} iterations"
            )
        if workload.failures:
            if record["failures.soft"] + record["failures.hard"] <= 0:
                problems.append(f"{where}: no failure was injected")
        elif record["local.checkpoints"] != record["n_ranks"] * iterations:
            problems.append(
                f"{where}: {record['local.checkpoints']} local checkpoints, "
                f"expected {record['n_ranks'] * iterations}"
            )
        if workload.codec and not record["codec.wire_gb"] < record["codec.logical_gb"]:
            problems.append(f"{where}: codec wire bytes do not undercut logical bytes")
    return problems
