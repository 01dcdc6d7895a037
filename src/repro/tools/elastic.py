"""Elastic grow/shrink-under-load scenario: the bench's ``elastic`` block.

One deterministic story, told three times over the same application
(half the footprint is write-once, so most committed chunks never
re-commit — the raw material of incremental failover):

* **clean** — no failures, no membership changes; calibrates the
  per-interval coordinated-checkpoint latency the cluster achieves
  undisturbed.
* **full-resync baseline** — two hard failures, no elasticity.  The
  early one (node 2) orphans node 1, which re-pairs and re-sends its
  full footprint; the late one kills node 1's *new* buddy and the
  classic failover path re-sends a full footprint again.  Its worst
  coordinated latency also calibrates the elastic arm's SLO: failures
  alone may spike checkpoints, and the SLO bound must separate
  migration pressure from failure noise.
* **elastic** — the same early failure, then a spare *joins* the buddy
  pool (the planner offloads the overloaded survivor onto it in
  bounded batches, interleaved with the live pre-copy stream and
  throttled against the SLO), the replaced node *drains* and departs,
  and finally the newcomer dies hard: the orphan fails over *back* to
  its pre-migration buddy, whose copies are still current for every
  chunk that did not re-commit — the re-sync sends only the delta.

The record compares total failover re-sync bytes: the elastic arm
(one full early re-sync + one incremental late one) must land strictly
below the baseline (two full re-syncs), and the elastic arm must hold
every coordinated checkpoint within the SLO while migrating.
``repro.tools.bench`` registers :func:`run_elastic_block` with
:func:`elastic_gate` (``--block`` prints the record, ``--smoke`` exits
nonzero when either acceptance bound fails).
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Optional

from ..apps import SyntheticModel
from ..baselines import precopy_config
from ..cluster import Cluster, ClusterRunner, FailureEvent, ScriptedInjector
from ..cluster.membership import MembershipEvent
from ..config import ClusterConfig, MigrationConfig
from ..units import GB_per_sec, to_GB

__all__ = [
    "build_elastic_cluster",
    "run_clean",
    "run_elastic",
    "run_full_resync_baseline",
    "run_elastic_block",
    "elastic_gate",
    "elastic_summary",
]

#: scenario schedule (seconds of virtual time).  The early failure of
#: node 2 re-pairs its orphan (node 1) onto node 0, overloading it —
#: the imbalance the join rebalances away.
EARLY_FAIL_AT = 35.0
JOIN_AT = 60.0
DRAIN_AT = 95.0
LATE_FAIL_AT = 140.0
ITERATIONS = 16

#: slack over the calibration runs' worst coordinated latency
SLO_HEADROOM = 1.15


def scenario_app() -> SyntheticModel:
    return SyntheticModel(
        checkpoint_mb_per_rank=20,
        chunk_mb=5,
        iteration_compute_time=10.0,
        comm_mb_per_iteration=5,
        write_once_fraction=0.5,
    )


def build_elastic_cluster(
    *,
    seed: int = 11,
    migration: Optional[MigrationConfig] = None,
) -> Cluster:
    """6-node/2-rack testbed with 4 nodes computing and 2 spares: the
    spares have NVM and fabric connectivity but no ranks — the join
    candidates."""
    cluster = Cluster(
        ClusterConfig(nodes=6, racks=2),
        nvm_write_bandwidth=GB_per_sec(2.0),
        seed=seed,
    )
    cfg = precopy_config(10, 30)
    if migration is not None:
        cfg = replace(cfg, resilience=replace(cfg.resilience, migration=migration))
    cluster.build(scenario_app(), cfg, ranks_per_node=2, n_nodes_used=4)
    return cluster


def run_clean(seed: int = 11):
    """Undisturbed run; returns (result, worst coordinated latency)."""
    cluster = build_elastic_cluster(seed=seed)
    res = ClusterRunner(cluster).run(ITERATIONS)
    return res, _worst_latency(cluster)


def _worst_latency(cluster: Cluster) -> float:
    return max(
        (
            s.duration
            for state in cluster.all_ranks()
            for s in state.checkpointer.history
        ),
        default=0.0,
    )


def run_elastic(slo: float, seed: int = 11):
    """Early failure + join + drain + newcomer hard-death, migration on.

    On this ring pairing (0->1->2->3->0) the early death of node 2
    re-pairs node 1 onto node 0 (full re-sync #1) and leaves node 0
    hosting two sources.  The join of spare node 4 offloads node 1's
    copies onto it live; the replaced node 2 then drains out of the
    buddy pool and departs.  When node 4 dies, node 1 fails over *back*
    to node 0 — incrementally, because node 0 still holds every chunk
    that did not re-commit since the migration cutover."""
    migration = MigrationConfig(
        enabled=True,
        batch_bytes=8 * 1024 * 1024,
        slo_checkpoint_latency=slo,
    )
    cluster = build_elastic_cluster(seed=seed, migration=migration)
    runner = ClusterRunner(
        cluster,
        injector=ScriptedInjector(
            [
                FailureEvent(time=EARLY_FAIL_AT, node=2, kind="hard"),
                FailureEvent(time=LATE_FAIL_AT, node=4, kind="hard"),
            ]
        ),
        membership=[
            MembershipEvent(time=JOIN_AT, node=4, action="join"),
            MembershipEvent(time=DRAIN_AT, node=2, action="drain"),
        ],
    )
    return cluster, runner, runner.run(ITERATIONS)


def run_full_resync_baseline(seed: int = 11):
    """The same early failure with no elasticity, then node 1's (new)
    buddy dies late: both failovers re-send a full footprint."""
    cluster = build_elastic_cluster(seed=seed)
    runner = ClusterRunner(
        cluster,
        injector=ScriptedInjector(
            [
                FailureEvent(time=EARLY_FAIL_AT, node=2, kind="hard"),
                FailureEvent(time=LATE_FAIL_AT, node=1, kind="hard"),
            ]
        ),
    )
    return cluster, runner, runner.run(ITERATIONS)


def run_elastic_block() -> dict:
    """The ``elastic`` block of the bench baseline."""
    t0 = time.perf_counter()
    clean_res, clean_worst = run_clean()
    b_cluster, b_runner, b_res = run_full_resync_baseline()
    slo = SLO_HEADROOM * max(clean_worst, _worst_latency(b_cluster))
    _, e_runner, e_res = run_elastic(slo)
    wall = time.perf_counter() - t0
    ctrl = e_runner.membership_controller
    guard = e_runner.slo_guard
    return {
        "iterations": ITERATIONS,
        "slo_checkpoint_latency_s": round(slo, 6),
        "clean_max_ckpt_latency_s": round(clean_worst, 6),
        "elastic": {
            "total_time_s": round(e_res.total_time, 4),
            "joins": e_res.membership_joins,
            "drains": e_res.membership_drains,
            "departs": e_res.membership_departs,
            "migrations_completed": e_res.migrations_completed,
            "migrations_aborted": e_res.migrations_aborted,
            "migration_batches": e_res.migration_batches,
            "migration_gb": to_GB(e_res.migration_bytes),
            "slo_pauses": e_res.migration_slo_pauses,
            "throttled_batches": e_res.migration_throttled_batches,
            "max_ckpt_latency_s": round(e_res.migration_max_ckpt_latency, 6),
            "within_slo": guard.within_slo if guard is not None else False,
            "failover_resync_gb": to_GB(e_res.resync_bytes),
        },
        "baseline": {
            "total_time_s": round(b_res.total_time, 4),
            "failover_resync_gb": to_GB(b_res.resync_bytes),
        },
        # the tentpole's acceptance bounds
        "incremental_failover": 0 < e_res.resync_bytes < b_res.resync_bytes,
        "slo_held": guard.within_slo if guard is not None else False,
        "moves_failed": ctrl.moves_failed if ctrl is not None else -1,
        "wall_s": round(wall, 4),
    }


def elastic_gate(block: dict) -> bool:
    """The acceptance check: the elastic arm must keep every
    coordinated checkpoint within the SLO while migrating, and its
    failovers must re-send strictly fewer bytes than the full-resync
    baseline's."""
    return bool(
        block["incremental_failover"]
        and block["slo_held"]
        and block["elastic"]["migrations_completed"] >= 1
        and block["elastic"]["departs"] >= 1
        and block["moves_failed"] == 0
    )


def elastic_summary(block: dict) -> str:
    return (
        f"failover resync "
        f"{block['elastic']['failover_resync_gb']:.4f} GB vs full "
        f"{block['baseline']['failover_resync_gb']:.4f} GB, "
        f"max ckpt latency {block['elastic']['max_ckpt_latency_s']:.3f}s "
        f"vs SLO {block['slo_checkpoint_latency_s']:.3f}s, "
        f"{block['elastic']['migrations_completed']} migration(s) in "
        f"{block['elastic']['migration_batches']} batches"
    )
