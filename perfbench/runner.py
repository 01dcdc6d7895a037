"""Spawn measuring processes, pool their samples, report.

:func:`measure` is one benchmark run of one workload — the unit the
driver invokes (``python3 -m perfbench measure --workload ...``) and
the unit :func:`run_all` loops over for the human command
(``python -m perfbench run``).  It never runs the program itself: every
measurement happens in a fresh child interpreter
(:mod:`perfbench.child`), one after another, never concurrently.

An untraced run uses :data:`CHILDREN` children.  Each sets up once, so
``setup_s`` is the median of that many set-ups; the timed passes of all
children are pooled into one sample (at least :data:`MIN_PASSES`), which
also averages over what each process happened to see of the host.  A
traced run is one child.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import metrics
from .workloads import WORKLOADS

__all__ = ["measure", "run_all", "result_line", "CHILDREN", "MIN_PASSES"]

ROOT = Path(__file__).resolve().parent.parent

#: child processes (= set-ups) per untraced run
CHILDREN = 3
#: pooled timed passes an untraced run needs: p75 has ten samples beyond it
MIN_PASSES = 40
#: untimed passes that end set-up (lazy imports, memoised curves, pool spawn)
WARMUP = 2
#: reference and traced passes a traced run needs at least
TRACED_PASSES = 8
#: a child that takes longer than this is stuck
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    """A measuring process exited non-zero or printed no result."""


def _spawn(name: str, seed: int, *, seconds: float, min_passes: int,
           warmup: int, trace: bool) -> Dict[str, Any]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    # numpy must not fan a single-process measurement out over threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # one str-hash layout for every child: set iteration order and dict
    # collisions then do not differ from process to process
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, "-m", "perfbench", "child",
        "--workload", name, "--seed", str(seed),
        "--seconds", repr(float(seconds)), "--min-passes", str(min_passes),
        "--warmup", str(warmup), "--trace", str(int(trace)),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{name}: child exited {proc.returncode}")
    return json.loads(lines[-1])


def measure(
    name: str, seed: int, seconds: float, trace: bool, *, smoke: bool = False
) -> Dict[str, Any]:
    """One run of workload *name*: ``{"attempted", "failed", "correct",
    "metrics": {name: value}, ...}`` with the end-to-end metrics
    (untraced) or the per-layer metrics (traced).  A *smoke* run is one
    child doing 2 timed passes (untraced) or 1 traced pass."""
    children, min_passes, warmup, traced_passes = CHILDREN, MIN_PASSES, WARMUP, TRACED_PASSES
    if smoke:
        children, min_passes, warmup, traced_passes, seconds = 1, 2, 1, 1, 0.0
    if trace:
        raw = _spawn(name, seed, seconds=seconds, min_passes=traced_passes,
                     warmup=warmup, trace=True)
        values = raw["layers"]
        if values is not None:
            metrics.check_names("per_layer", values)
        return {
            "workload": name, "seed": seed, "argv": raw["argv"],
            "attempted": raw["attempted"], "failed": raw["failed"],
            "correct": raw["failed"] == 0 and values is not None,
            "problems": raw["problems"], "digest": raw.get("digest"),
            "metrics": values or {},
            "missing_targets": raw["missing_targets"],
            "traced_passes": raw.get("traced_passes", 0),
        }
    raws = [
        _spawn(name, seed, seconds=seconds / children,
               min_passes=-(-min_passes // children), warmup=warmup, trace=False)
        for _ in range(children)
    ]
    raw_walls = [w for raw in raws for w in raw["pass_wall_s"]]
    walls = [
        w / f for raw in raws for w, f in zip(raw["pass_wall_s"], raw["pass_speed"])
    ]
    digests = {raw.get("digest") for raw in raws}
    problems = [p for raw in raws for p in raw["problems"]]
    if len(digests) > 1:
        problems.append(f"record digests differ between processes: {sorted(map(str, digests))}")
    simulated = raws[0].get("simulated") or {}
    values = {
        "setup_s": statistics.median(
            raw["setup_s"] / raw["setup_speed"] for raw in raws
        ),
        **metrics.percentile_metrics("pass_wall_s", walls),
        "peak_rss_mb": statistics.median(raw["peak_rss_mb"] for raw in raws),
        **{k: simulated[k] for k in metrics.SIMULATED if k in simulated},
    }
    failed = sum(raw["failed"] for raw in raws)
    return {
        "workload": name, "seed": seed, "argv": raws[0]["argv"],
        "attempted": sum(raw["attempted"] for raw in raws), "failed": failed,
        "correct": failed == 0 and len(digests) == 1 and None not in digests,
        "problems": problems, "digest": raws[0].get("digest"),
        "samples": len(walls), "metrics": values,
        # as the stopwatch read them, before dividing by the host speed factor
        "raw": {
            "setup_s": statistics.median(raw["setup_s"] for raw in raws),
            "pass_wall_s.p50": metrics.percentile(raw_walls, 50),
            "host_speed_factor": statistics.median(
                f for raw in raws for f in raw["pass_speed"]
            ),
        },
    }


def result_line(kind: str, run: Dict[str, Any]) -> str:
    """The driver's result object for *run*: every metric of *kind*
    (``end_to_end`` or ``per_layer``) with its unit."""
    spec = metrics.load_spec()
    metrics.check_names(kind, run["metrics"], spec)
    units = {m["name"]: m["unit"] for m in spec[kind]}
    return json.dumps({
        "correct": bool(run["correct"]),
        "attempted": int(run["attempted"]),
        "failed": int(run["failed"]),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in run["metrics"].items()
        },
    })


# ---------------------------------------------------------------------------
# The human command: all workloads, table, result file.
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _fidelity(
    run: Dict[str, Any], expected: Optional[Dict[str, Any]], bounds: Dict[str, float]
) -> str:
    """``same`` / ``changed`` against the recorded digest and simulated
    metrics of this seed, or ``unrecorded`` when there is no record."""
    want = (expected or {}).get(run["workload"])
    if want is None:
        return "unrecorded"
    same = run["digest"] == want["digest"] and all(
        abs(run["metrics"][k] - v) <= bounds[k] * abs(v)
        for k, v in want["simulated"].items()
    )
    return "same" if same else "changed"


def _expected_path(seed: int) -> Path:
    return Path(__file__).resolve().parent / "expected" / f"seed{seed}.json"


def _write_expected(seed: int, result: Dict[str, Any]) -> None:
    """Record this run's digests and simulated metrics as the reference
    ``fidelity`` compares against (a benchmark-maintenance action)."""
    expected = {
        name: {
            "digest": runs["end_to_end"]["digest"],
            "simulated": {
                k: runs["end_to_end"]["metrics"][k] for k in metrics.SIMULATED
            },
        }
        for name, runs in result["workloads"].items()
    }
    path = _expected_path(seed)
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"expected record written to {path}")


def load_expected(seed: int) -> Optional[Dict[str, Any]]:
    path = _expected_path(seed)
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_all(
    *,
    seed: int,
    trace: bool,
    smoke: bool,
    out_path: Optional[str] = None,
    write_expected: bool = False,
) -> int:
    """Run every workload for ``run_seconds`` of ``BENCHMARK.json``,
    print every metric, write the result file.  Returns the process
    exit code (non-zero on any failed check)."""
    spec = metrics.load_spec()
    units = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer") for m in spec[kind]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = float(spec["run_seconds"])
    expected = load_expected(seed)
    names = list(WORKLOADS)
    result: Dict[str, Any] = {
        "seed": seed, "smoke": smoke, "host": _host(), "workloads": {},
    }
    ok = True
    print(f"perfbench: seed {seed}, "
          + ("smoke sizes" if smoke
             else f"{seconds:g} s and {CHILDREN} processes per run"))
    for name in names:
        run = measure(name, seed, seconds, False, smoke=smoke)
        ok &= run["correct"]
        run["fidelity"] = _fidelity(run, expected, bounds)
        result["workloads"][name] = {"end_to_end": run}
        share = run["failed"] / run["attempted"]
        print(f"\n{name}  [{run['samples']} timed passes, failed_share "
              f"{share:g}, fidelity: {run['fidelity']}]")
        for metric, value in run["metrics"].items():
            print(f"  {metric:<24}{_fmt(value):>14} {units[metric]}")
        raw = run["raw"]
        print(f"  (stopwatch: setup {_fmt(raw['setup_s'])} s, pass p50 "
              f"{_fmt(raw['pass_wall_s.p50'])} s, host speed factor "
              f"{_fmt(raw['host_speed_factor'])})")
        for problem in run["problems"]:
            print(f"  ! {problem}")
    if trace:
        traced = {}
        for name in names:
            run = measure(name, seed, seconds, True, smoke=smoke)
            ok &= run["correct"]
            result["workloads"][name]["per_layer"] = run
            traced[name] = run
            for problem in run["problems"]:
                print(f"  ! {name} (traced): {problem}")
        _print_layers(traced, units)
    if write_expected:
        _write_expected(seed, result)
    if out_path is None:
        out_dir = Path(__file__).resolve().parent / "results"
        out_dir.mkdir(exist_ok=True)
        out_path = str(out_dir / f"run-seed{seed}{'-smoke' if smoke else ''}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"\nresult written to {out_path}; "
          f"{'all checks passed' if ok else 'CHECKS FAILED'}")
    return 0 if ok else 1


def _print_layers(traced: Dict[str, Dict[str, Any]], units: Dict[str, str]) -> None:
    """One row per per-layer metric, one column per workload; rows that
    are zero everywhere are folded into one closing line."""
    names = list(traced)
    print("\nper-layer metrics (traced run; columns = workloads in the order "
          + ", ".join(f"{i + 1}:{n}" for i, n in enumerate(names)) + ")")
    quiet = []
    first = traced[names[0]]["metrics"]
    for metric in first:
        row = [traced[n]["metrics"].get(metric, 0.0) for n in names]
        if not any(row):
            quiet.append(metric)
            continue
        cells = "".join(f"{_fmt(v):>12}" for v in row)
        print(f"  {metric:<38}{cells}  {units[metric]}")
    if quiet:
        print("  zero on every workload: " + ", ".join(quiet))
    for name in names:
        missing = traced[name]["missing_targets"]
        if missing:
            print(f"  {name}: missing_targets = {missing}")


def _host() -> Dict[str, Any]:
    import platform

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
    }
