"""Multi-tenant QoS scenario: the bench's ``qos`` block.

Runs the pinned checkpoint-as-a-service scenario from
:mod:`repro.tenancy` — three tenants sized from the paper's workload
models sharing one NVM device through per-tenant partitions, a
weighted-fair bandwidth bus and an admission controller — and distills
it into the ``qos`` block of ``BENCH_baseline.json``:

* per-tenant SLO attainment (checkpoint-interval and RPO), throttle
  time, admission/queue/reject counts and preemptions;
* a ``tenant.*`` trace-event census proving the admission and
  preemption decisions are observable on the bus, not just counted;
* a small tenant-labelled cluster run proving checkpoint traffic is
  attributable end-to-end (every rank's ``chunk.copied``/``commit``
  carries its tenant, and :class:`~repro.cluster.runner.RunResult`
  meters bytes per tenant);
* the acceptance booleans the CI smoke gates on: the guaranteed
  tenant meets its targets *under contention* (best-effort tenants
  demonstrably throttled, queueing and preemption both exercised)
  and the whole scenario is a pure function of its seed.

``repro.tools.bench`` registers :func:`run_qos_block` with
:func:`qos_gate` (``--block`` prints the record, ``--smoke`` exits
nonzero when any acceptance bound fails).
"""

from __future__ import annotations

import time
from typing import Dict, List

from ..apps import SyntheticModel
from ..baselines import precopy_config
from ..cluster import Cluster, ClusterRunner
from ..config import ClusterConfig
from ..metrics.trace import BUS, CounterSink
from ..tenancy import run_scenario
from ..units import GB_per_sec

__all__ = [
    "ATTAINMENT_TARGET",
    "run_attribution_check",
    "run_qos_block",
    "qos_gate",
    "qos_summary",
]

#: minimum per-SLO attainment the guaranteed tenant must hold on the
#: pinned scenario (1.0 is what it actually achieves; the target leaves
#: headroom for future profile retuning without moving the goalposts)
ATTAINMENT_TARGET = 0.95

#: pinned scenario coordinates
QOS_SEED = 7
QOS_DURATION = 600.0


def _scenario_with_census(seed: int, duration: float):
    """One scenario run with a trace census attached; returns
    ``(report, tenant.* event counts)``."""
    counter = CounterSink()
    BUS.attach(counter)
    try:
        report = run_scenario(seed=seed, duration=duration)
    finally:
        BUS.detach(counter)
    tenant_events = {
        kind: n
        for kind, n in sorted(counter.by_kind.items())
        if kind.startswith("tenant.")
    }
    return report, tenant_events


def run_attribution_check(seed: int = 11) -> dict:
    """Small tenant-labelled cluster run: two tenants on a 2-node
    testbed, every checkpoint event must carry its tenant label and
    the run result must meter bytes per tenant."""
    app = SyntheticModel(
        checkpoint_mb_per_rank=20,
        chunk_mb=5,
        iteration_compute_time=10.0,
        comm_mb_per_iteration=5,
    )
    cluster = Cluster(
        ClusterConfig(nodes=2, racks=1),
        nvm_write_bandwidth=GB_per_sec(2.0),
        seed=seed,
    )
    labelled: List[str] = []
    unlabelled = [0]

    def _observe(event) -> None:
        tenant = getattr(event, "tenant", "")
        if tenant:
            labelled.append(tenant)
        else:
            unlabelled[0] += 1

    sub = BUS.subscribe(_observe, kinds=["chunk.copied", "commit"])
    try:
        cluster.build(
            app,
            precopy_config(10, 30),
            ranks_per_node=2,
            tenancy={"r0": "prod", "r1": "prod", "r2": "batch", "r3": "batch"},
        )
        res = ClusterRunner(cluster).run(6)
    finally:
        BUS.unsubscribe(sub)
    tenants = res.to_dict().get("tenants", {})
    return {
        "tenants": tenants,
        "events_labelled": len(labelled),
        "events_unlabelled": unlabelled[0],
        "all_attributed": unlabelled[0] == 0
        and len(labelled) > 0
        and set(labelled) == {"prod", "batch"}
        and set(tenants) == {"prod", "batch"}
        and all(m["checkpoints"] > 0 for m in tenants.values()),
    }


def run_qos_block() -> dict:
    """The ``qos`` block of the bench baseline."""
    t0 = time.perf_counter()
    report, tenant_events = _scenario_with_census(QOS_SEED, QOS_DURATION)
    report2, tenant_events2 = _scenario_with_census(QOS_SEED, QOS_DURATION)
    deterministic = report == report2 and tenant_events == tenant_events2

    tenants: Dict[str, dict] = report["tenants"]  # type: ignore[assignment]
    guaranteed = {n: t for n, t in tenants.items() if t["guaranteed"]}
    best_effort = {n: t for n, t in tenants.items() if not t["guaranteed"]}
    totals: Dict[str, int] = report["totals"]  # type: ignore[assignment]

    guaranteed_slo_met = bool(guaranteed) and all(
        t["interval_attainment"] >= ATTAINMENT_TARGET
        and t["rpo_attainment"] >= ATTAINMENT_TARGET
        for t in guaranteed.values()
    )
    best_effort_throttled = bool(best_effort) and all(
        t["throttle_time_s"] > 0.0 for t in best_effort.values()
    )
    attribution = run_attribution_check()
    wall = time.perf_counter() - t0
    return {
        "scenario": report,
        "tenant_events": tenant_events,
        "attribution": attribution,
        # the tentpole's acceptance bounds
        "attainment_target": ATTAINMENT_TARGET,
        "guaranteed_slo_met": guaranteed_slo_met,
        "best_effort_throttled": best_effort_throttled,
        "queueing_exercised": totals["queued"] > 0,
        "preemption_exercised": totals["preemptions"] > 0,
        "deterministic": deterministic,
        "wall_s": round(wall, 4),
    }


def qos_gate(block: dict) -> bool:
    """The acceptance check: on the pinned scenario the guaranteed
    tenant must hold both SLOs while every best-effort tenant is
    throttled, queueing and preemption must both have been exercised
    (and be visible as ``tenant.*`` trace events), tenant attribution
    must hold end-to-end through the cluster path, and the whole block
    must be deterministic."""
    events: Dict[str, int] = block["tenant_events"]
    return bool(
        block["guaranteed_slo_met"]
        and block["best_effort_throttled"]
        and block["queueing_exercised"]
        and block["preemption_exercised"]
        and block["deterministic"]
        and block["attribution"]["all_attributed"]
        and events.get("tenant.admission", 0) > 0
        and events.get("tenant.preempt", 0) > 0
        and events.get("tenant.throttle", 0) > 0
        and events.get("tenant.slo", 0) > 0
    )


def qos_summary(block: dict) -> str:
    tenants: Dict[str, dict] = block["scenario"]["tenants"]
    g = next(t for t in tenants.values() if t["guaranteed"])
    throttled = sum(
        t["throttle_time_s"] for t in tenants.values() if not t["guaranteed"]
    )
    totals = block["scenario"]["totals"]
    return (
        f"guaranteed interval/rpo attainment "
        f"{g['interval_attainment']:.2f}/{g['rpo_attainment']:.2f} "
        f"(target {block['attainment_target']:.2f}), best-effort "
        f"throttled {throttled:.1f}s across {totals['throttle_spans']} "
        f"spans, {totals['queued']} queued / {totals['preemptions']} "
        f"preempted / {totals['rejected']} rejected of "
        f"{totals['jobs_submitted']} jobs, "
        f"attribution={'OK' if block['attribution']['all_attributed'] else 'FAIL'}, "
        f"deterministic={block['deterministic']}"
    )
