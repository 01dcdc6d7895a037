"""Metric definitions: what is computed from passes, records and spans.

Names, units, directions and bounds live in ``BENCHMARK.json`` (the one
file the driver and :mod:`perfbench.compare` both read); this module
holds how each value is *computed*, and checks on every run that the
two agree.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

from .layers import DECIDE_TARGETS, LAYERS, UNATTRIBUTED, flat_targets

__all__ = [
    "SIMULATED",
    "load_spec",
    "allowed_percentiles",
    "percentile",
    "percentile_metrics",
    "simulated_metrics",
    "layer_metrics",
    "layer_names",
    "check_names",
]

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: end-to-end metrics that are simulated quantities: the seed does not
#: move them, so any two runs of one commit must agree to rounding
SIMULATED = ("sim_overhead_fraction", "sim_blocking_s", "sim_ckpt_gb")

#: the percentiles ``BENCHMARK.json`` declares for a timing
PERCENTILES = (50, 75)


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Timings.
# ---------------------------------------------------------------------------


def allowed_percentiles(n: int) -> List[int]:
    """The median, plus p75 once ten samples lie beyond it: 40 samples
    allow p75, 20 allow p50 only.  However many samples a long run or a
    fast host collects, no percentile outside :data:`PERCENTILES` is
    reported — the result must name exactly what ``BENCHMARK.json``
    declares."""
    return [p for p in PERCENTILES if p == 50 or n * (100 - p) >= 1000]


def percentile(samples: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile (``p`` in 0..100)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    at = (len(ordered) - 1) * p / 100.0
    lo = math.floor(at)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (at - lo)


def percentile_metrics(prefix: str, samples: Sequence[float]) -> Dict[str, float]:
    """``<prefix>.pNN`` for every percentile the sample count allows."""
    return {
        f"{prefix}.p{p}": percentile(samples, p)
        for p in allowed_percentiles(len(samples))
    }


# ---------------------------------------------------------------------------
# Simulated quantities (from the pass's records).
# ---------------------------------------------------------------------------


def _ckpt_gb(record: Dict[str, Any]) -> float:
    return (
        record["local.coordinated_gb"]
        + record["local.precopy_gb"]
        + record["remote.round_gb"]
        + record["remote.stream_gb"]
    )


def simulated_metrics(records: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Simulated metrics aggregated over one pass's cells: mean for
    fractions and seconds, sum for volumes and counts, max for the peak.
    The first three are end-to-end; the rest feed per-layer metrics."""
    n = len(records)
    logical = sum(r.get("codec.logical_gb", 0.0) for r in records)
    wire = sum(r.get("codec.wire_gb", 0.0) for r in records)
    refs = sum(r.get("codec.blocks_ref", 0) for r in records)
    blocks = refs + sum(r.get("codec.blocks_new", 0) for r in records)
    return {
        "sim_overhead_fraction": sum(r["overhead_fraction"] for r in records) / n,
        "sim_blocking_s": sum(r["local.avg_blocking_s"] for r in records) / n,
        "sim_ckpt_gb": sum(_ckpt_gb(r) for r in records),
        "net.sim_ckpt_peak_1s_mb": max(r["fabric.ckpt_peak_1s_mb"] for r in records),
        "core.restart.sim_recovery_s": sum(r["failures.recovery_s"] for r in records) / n,
        "resilience.retries": float(
            sum(r["resilience.transfer_retries"] for r in records)
        ),
        # raw codec: every byte ships as it is
        "core.codec.wire_over_logical": wire / logical if logical else 1.0,
        "core.codec.dedup_hit_rate": refs / blocks if blocks else 0.0,
    }


# ---------------------------------------------------------------------------
# Per-layer metrics (from the traced passes).
# ---------------------------------------------------------------------------

#: ``metric -> targets`` whose invocations it sums
_COUNTS = {
    "core.precopy.copies": ("repro.alloc.chunk:Chunk.mark_precopied",),
    "memory.persistence.meta_ops": tuple(
        t for t in LAYERS["memory.persistence"] if t.endswith("_meta")
    ),
    "memory.persistence.flushes": tuple(
        t for t in LAYERS["memory.persistence"] if t.endswith(".flush")
    ),
    # a cluster run recovers through cluster.phases (phantom chunks,
    # rank objects reused); the object-level RestartManager is the
    # functional-API path — count a recovery whichever way it starts
    "core.restart.restarts": (
        "repro.cluster.phases:recover_soft",
        "repro.cluster.phases:recover_hard",
        *(t for t in LAYERS["core.restart"] if ":RestartManager." in t),
    ),
}

EVENTS_TARGET = "repro.cluster.runner:ClusterRunner.run"

#: metrics only ``grid-trace-replay`` produces; zero on the other five
REPLAY_ONLY = (
    "exec.grid_cold_s", "exec.grid_warm_s", "exec.cache_hit_rate",
    "exec.parallel_speedup", "replay.capture_s", "replay.faithful_s",
    "replay.whatif_s", "replay.cells_exact", "metrics.trace.events",
    "metrics.trace.capture_overhead_ratio",
)


def layer_names() -> List[str]:
    return [layer for layer in LAYERS if layer != UNATTRIBUTED]


def layer_metrics(
    passes: Sequence[Any],
    *,
    reference_wall_s: Sequence[float],
    event_wall_s: float,
    span_cost_us: float,
    simulated: Dict[str, float],
    segments: Dict[str, float],
    facts: Dict[str, float],
    extras: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric of one traced run.

    *passes* are the :class:`~perfbench.spans.PassSpans` of the traced
    passes (with ``observed`` event counts).  ``self_s`` and counts are
    medians over passes; ``share`` is the layer's part of *all* traced
    pass time, so the shares and ``trace.unattributed_share`` add up to
    exactly one.  *event_wall_s* is the untraced host time the
    simulated events of a pass took.
    """
    targets, owners = flat_targets()
    index_of = {spec: i for i, spec in enumerate(targets)}
    total_wall = sum(p.wall_s for p in passes)

    def per_pass(indexes: Iterable[int], column: str) -> List[float]:
        picked = list(indexes)
        return [sum(getattr(p, column)[i] for i in picked) for p in passes]

    def invocations(specs: Iterable[str]) -> float:
        return statistics.median(
            per_pass((index_of[s] for s in specs), "invocations")
        )

    out: Dict[str, float] = {}
    for layer in layer_names():
        mine = [i for i, owner in enumerate(owners) if owner == layer]
        self_s = per_pass(mine, "self_s")
        out[f"{layer}.self_s"] = statistics.median(self_s)
        out[f"{layer}.calls"] = statistics.median(per_pass(mine, "spans"))
        out[f"{layer}.share"] = sum(self_s) / total_wall
    kernel = per_pass(
        (i for i, owner in enumerate(owners) if owner == UNATTRIBUTED), "self_s"
    )
    unattributed = sum(kernel) + sum(p.root_self_s for p in passes)
    out["trace.unattributed_share"] = unattributed / total_wall
    out["trace.overhead_ratio"] = statistics.median(
        p.wall_s for p in passes
    ) / statistics.median(reference_wall_s)
    out["trace.span_cost_us"] = span_cost_us

    events = statistics.median(p.observed[EVENTS_TARGET] for p in passes)
    out["sim.engine.events"] = events
    out["sim.engine.host_us_per_event"] = (
        event_wall_s * 1e6 / events if events else 0.0
    )
    for name, specs in _COUNTS.items():
        out[name] = invocations(specs)
    copies = out["core.precopy.copies"]
    out["core.policy.decides_per_precopy"] = (
        invocations(DECIDE_TARGETS) / copies if copies else 0.0
    )
    for name, value in simulated.items():
        if name not in SIMULATED:
            out[name] = value
    out.update(dict.fromkeys(REPLAY_ONLY, 0.0))
    out.update(segments)
    out.update(facts)
    out.update(extras)
    return out


def check_names(kind: str, computed: Iterable[str], spec: Optional[dict] = None) -> None:
    """Raise unless *computed* is exactly the ``BENCHMARK.json`` list."""
    declared = {m["name"] for m in (spec or load_spec())[kind]}
    computed = set(computed)
    if computed != declared:
        raise RuntimeError(
            f"{kind} metrics disagree with BENCHMARK.json: "
            f"undeclared {sorted(computed - declared)}, "
            f"not computed {sorted(declared - computed)}"
        )
