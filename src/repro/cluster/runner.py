"""End-to-end experiment runner.

Drives a built :class:`~repro.cluster.cluster.Cluster` through N
application iterations with coordinated local checkpoints, background
remote checkpointing, and (optionally) injected failures with full
recovery:

* **soft failure** — the node's volatile state dies; after a reboot
  delay every rank reloads its committed checkpoint from node-local
  NVM (transfers simulated on the NVM buses) and the run rolls back to
  the last locally-committed iteration;
* **hard failure** — the node is replaced with fresh hardware; its
  ranks' state is fetched from the buddy's committed remote copies
  over the fabric, survivors reload locally, and the run rolls back to
  the last *remotely*-captured iteration (the K(I+t_lcl)/2 recompute
  term of §III);
* **transient failure** — a scripted link flap: the node's
  checkpoint-path connectivity drops for the event's outage window and
  heals on its own.  No state is lost and the application keeps
  computing, but in-flight remote transfers tear down and the
  resilience layer (:mod:`repro.resilience`) must retry them.

When failures are injected (or a membership schedule plays) on a
cluster with remote helpers, the runner wires the resilience layer
in: per-node retrying transports around the helpers' RDMA sends (one
default :class:`~repro.resilience.retry.RetryPolicy`), buddy heartbeat
monitors, a live :class:`~repro.resilience.directory.BuddyDirectory`
that re-pairs orphaned nodes, paced background re-sync of committed
chunks to the new buddy, and per-node degraded-mode controllers that
drop to local-only checkpointing while a node has no healthy remote
target.  The interval a controller re-solves from the §III model is
written to the helper's config, where it sets only the helper's pace
(the re-sync's, while degraded); the ranks' local checkpoint interval
does not change.

Simulation-scale note: in cluster runs chunks are *phantom* (sizes and
dirty state, no payloads) and soft restart reuses the in-memory rank
objects, charging the restart transfers; the object-level
crash-and-rebuild path is exercised by the functional API tests
instead.  Timing, traffic and rollback behaviour — what the paper's
evaluation measures — are fully simulated here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..config import FailureConfig, PrecopyPolicy
from ..core.copystep import CopyAccounting
from ..errors import ClusterError, ProcessKilled
from ..sim.rng import RngStreams
from . import phases
from .cluster import Cluster
from .failures import FailureEvent, FailureInjector
from .mpi import Barrier
from .node import ClusterNode

__all__ = ["ClusterRunner", "RunResult"]


@dataclass
class RunResult:
    """Everything a benchmark needs from one run."""

    app_name: str = ""
    policy_mode: str = ""
    remote_precopy: bool = False
    n_ranks: int = 0
    n_nodes: int = 0
    iterations: int = 0
    total_time: float = 0.0
    #: pure-compute seconds per iteration (the app model's target)
    compute_per_iteration: float = 0.0

    #: where the checkpoint bytes went: the sum of the current ranks'
    #: and helpers' copy-step accountings
    accounting: CopyAccounting = field(default_factory=CopyAccounting)

    # -- local checkpointing --
    local_ckpt_time_avg: float = 0.0  # mean coordinated duration per rank-ckpt
    local_checkpoints: int = 0
    fault_time_total: float = 0.0

    # -- remote checkpointing --
    remote_rounds: int = 0
    helper_utilization: float = 0.0

    # -- fabric --
    #: peak per-window volume of checkpoint traffic only (Fig. 10)
    fabric_ckpt_peak_window_bytes: float = 0.0
    fabric_app_bytes: float = 0.0
    fabric_ckpt_bytes: float = 0.0

    # -- failures --
    soft_failures: int = 0
    hard_failures: int = 0
    transient_failures: int = 0
    recovery_time: float = 0.0
    iterations_recomputed: int = 0

    # -- resilience layer --
    #: retried transfer attempts across all node transports
    transfer_retries: int = 0
    #: transfers that exhausted their retry budget
    transfers_abandoned: int = 0
    heartbeats_sent: int = 0
    #: buddy down-transitions observed by the health monitors
    buddy_down_detections: int = 0
    #: orphan re-pairings performed by the buddy directory
    buddy_repairs: int = 0
    resyncs_completed: int = 0
    resync_bytes: int = 0
    degraded_entries: int = 0
    degraded_time_total: float = 0.0

    # -- payload codec (delta/dedup representation layer) --
    #: set when a non-raw codec was configured; gates the extra
    #: ``codec`` block in :meth:`to_dict` so raw runs (goldens, caches,
    #: sweeps) stay byte-identical
    codec: bool = False
    codec_name: str = "raw"

    # -- elastic membership / live migration --
    #: set when the run had a membership schedule; gates the extra
    #: ``membership`` block in :meth:`to_dict` so runs without elastic
    #: membership (goldens, caches, sweeps) stay byte-identical
    elastic: bool = False
    membership_joins: int = 0
    membership_drains: int = 0
    membership_departs: int = 0
    migrations_planned: int = 0
    migrations_completed: int = 0
    migrations_aborted: int = 0
    migration_batches: int = 0
    migration_bytes: int = 0
    #: re-sync tasks that exhausted their failure budget (node left
    #: degraded) — also surfaced as ``resync.aborted`` trace events
    resyncs_aborted: int = 0

    # -- PFS checkpoint path and archive tier --
    #: bytes written through the PFS checkpoint path; ``None`` (no PFS
    #: path) leaves the ``pfs`` block out of :meth:`to_dict`, so runs on
    #: node-local NVM (goldens, caches, sweeps) stay byte-identical
    pfs_bytes: Optional[float] = None
    pfs_file_ops: int = 0
    #: bytes the archive tier shipped to its PFS; ``None`` (no archive
    #: tier) leaves the ``archive`` block out of :meth:`to_dict`
    archive_bytes: Optional[int] = None

    # -- engine throughput --
    #: DES items (events + callbacks) the engine dispatched for this
    #: run.  Host-dependent denominator for the bench ``scale`` block;
    #: deliberately NOT part of ``to_dict()`` so cached records, sweep
    #: CSVs and golden fixtures stay byte-identical across hosts.
    sim_events: int = 0

    @property
    def ideal_time(self) -> float:
        """Lower bound: compute only, no checkpoints/contention."""
        return self.iterations * self.compute_per_iteration

    def efficiency_vs(self, ideal: "RunResult") -> float:
        """The paper's efficiency metric: ideal runtime / actual."""
        if self.total_time <= 0:
            return 0.0
        return ideal.total_time / self.total_time

    @property
    def checkpoint_overhead_fraction(self) -> float:
        """(actual - ideal) / ideal against the analytic lower bound."""
        ideal = self.ideal_time
        if ideal <= 0:
            return 0.0
        return (self.total_time - ideal) / ideal

    def to_dict(self) -> dict:
        """JSON-friendly summary of the run — the canonical record the
        execution engine caches, shards and flattens into sweep CSVs."""
        from ..units import to_GB, to_MB

        acc = self.accounting
        out = {
            "app": self.app_name,
            "policy": self.policy_mode,
            "remote_precopy": self.remote_precopy,
            "n_nodes": self.n_nodes,
            "n_ranks": self.n_ranks,
            "iterations": self.iterations,
            "total_time_s": self.total_time,
            "ideal_time_s": self.ideal_time,
            "overhead_fraction": self.checkpoint_overhead_fraction,
            "local": {
                "checkpoints": self.local_checkpoints,
                "avg_blocking_s": self.local_ckpt_time_avg,
                "coordinated_gb": to_GB(acc.coordinated_bytes),
                "precopy_gb": to_GB(acc.local_precopy_bytes),
                "saved_gb": to_GB(acc.bytes_saved),
                "fault_time_s": self.fault_time_total,
            },
            "remote": {
                "rounds": self.remote_rounds,
                "round_gb": to_GB(acc.remote_round_bytes),
                "stream_gb": to_GB(acc.remote_precopy_bytes),
                "helper_utilization": self.helper_utilization,
            },
            "fabric": {
                "ckpt_peak_1s_mb": to_MB(self.fabric_ckpt_peak_window_bytes),
                "app_gb": to_GB(self.fabric_app_bytes),
                "ckpt_gb": to_GB(self.fabric_ckpt_bytes),
            },
            "failures": {
                "soft": self.soft_failures,
                "hard": self.hard_failures,
                "transient": self.transient_failures,
                "recovery_s": self.recovery_time,
                "iterations_recomputed": self.iterations_recomputed,
            },
            "resilience": {
                "transfer_retries": self.transfer_retries,
                "transfers_abandoned": self.transfers_abandoned,
                "heartbeats": self.heartbeats_sent,
                "buddy_down_detections": self.buddy_down_detections,
                "buddy_repairs": self.buddy_repairs,
                "resyncs_completed": self.resyncs_completed,
                "resync_gb": to_GB(self.resync_bytes),
                "degraded_entries": self.degraded_entries,
                "degraded_time_s": self.degraded_time_total,
            },
        }
        if self.codec:
            blocks = acc.codec_blocks_new + acc.codec_blocks_ref
            out["codec"] = {
                "name": self.codec_name,
                "logical_gb": to_GB(acc.codec_logical_bytes),
                "wire_gb": to_GB(acc.codec_wire_bytes),
                "saved_gb": to_GB(acc.codec_saved_bytes),
                "delta_changed_gb": to_GB(acc.codec_delta_bytes),
                "blocks_new": acc.codec_blocks_new,
                "blocks_ref": acc.codec_blocks_ref,
                "dedup_hit_rate": acc.codec_blocks_ref / blocks if blocks else 0.0,
            }
        if self.elastic:
            out["membership"] = {
                "joins": self.membership_joins,
                "drains": self.membership_drains,
                "departs": self.membership_departs,
                "migrations_planned": self.migrations_planned,
                "migrations_completed": self.migrations_completed,
                "migrations_aborted": self.migrations_aborted,
                "migration_batches": self.migration_batches,
                "migration_gb": to_GB(self.migration_bytes),
                "resyncs_aborted": self.resyncs_aborted,
            }
        if self.pfs_bytes is not None:
            out["pfs"] = {"gb": to_GB(self.pfs_bytes), "file_ops": self.pfs_file_ops}
        if self.archive_bytes is not None:
            out["archive"] = {"gb": to_GB(self.archive_bytes)}
        return out


class ClusterRunner:
    """Drives one cluster through one experiment."""

    def __init__(
        self,
        cluster: Cluster,
        *,
        local_checkpoints: bool = True,
        failure_config: Optional[FailureConfig] = None,
        fail_until_iteration: Optional[int] = None,
        archive=None,
        injector=None,
        membership=None,
    ) -> None:
        if cluster.app is None or cluster.ckpt_config is None:
            raise ClusterError("cluster must be built before running")
        self.cluster = cluster
        self.app = cluster.app
        self.ckpt_config = cluster.ckpt_config
        self.local_checkpoints = local_checkpoints
        self.failure_config = failure_config
        self.fail_until_iteration = fail_until_iteration
        #: optional third-tier archiver (repro.core.archive.ArchiveTier)
        self.archive = archive
        #: ``injector`` accepts any object with the FailureInjector
        #: surface (peek/next_failure/injected) — e.g. a
        #: :class:`~repro.cluster.failures.ScriptedInjector`
        self.injector = injector
        if self.injector is None and failure_config is not None:
            self.injector = FailureInjector(
                failure_config,
                len(cluster.active_nodes),
                RngStreams(failure_config.seed),
            )
        self.barrier = Barrier(cluster.engine, cluster.n_ranks, name="ckpt-barrier")
        self.committed_iteration = 0
        self._committed_log: List[Tuple[float, int]] = [(0.0, 0)]
        #: the run's record: created by :meth:`run`, counted into as the
        #: run goes, completed by :meth:`_collect`
        self.result: Optional[RunResult] = None
        self._end_time = None
        self._bg_procs = []
        # -- resilience layer (wired in _start_background when enabled) --
        self.directory = None
        self.transports: Dict[int, object] = {}
        self.monitors: Dict[int, object] = {}
        self.controllers: Dict[int, object] = {}
        self._resyncing: Dict[int, object] = {}
        self._deferred_orphans: List[int] = []
        #: cached peeked failure so interleaved segment restarts never
        #: skip or duplicate an injector event
        self._pending_failure: Optional[FailureEvent] = None
        # -- elastic membership / live migration --
        #: planned join/drain schedule (sequence of MembershipEvent)
        self._membership_schedule = list(membership) if membership else []
        self.membership_controller = None
        self._migrations: List = []

    @property
    def resilience_active(self) -> bool:
        """The resilience layer only activates for runs that inject
        failures or play a membership schedule: without either there is
        nothing to survive or rebalance and the run stays byte-identical
        to the pre-resilience runner."""
        return (
            (self.injector is not None or bool(self._membership_schedule))
            and any(n.helper is not None for n in self.cluster.active_nodes)
        )

    # ------------------------------------------------------------------
    # Public entry point.
    # ------------------------------------------------------------------

    def run(self, iterations: int) -> RunResult:
        engine = self.cluster.engine
        self.result = RunResult(
            app_name=self.app.name,
            policy_mode=self.ckpt_config.precopy.mode,
            remote_precopy=self.ckpt_config.remote_precopy,
            iterations=iterations,
            compute_per_iteration=self.app.iteration_compute_time,
        )
        self._start_background()
        job = engine.process(self._job(iterations), name="job")
        # if the job dies (bug or unhandled failure), make sure the
        # background timers stop so engine.run() can drain
        job.add_callback(lambda ev: self._stop_background())
        engine.run()
        if not job.ok:
            raise job.exception  # type: ignore[misc]
        for proc in self._bg_procs:
            if proc.triggered and not proc.ok and not isinstance(
                proc.exception, ProcessKilled
            ):
                raise proc.exception  # a background helper died
        return self._collect()

    # ------------------------------------------------------------------
    # Background machinery.
    # ------------------------------------------------------------------

    def start_nodes(self, nodes: List[ClusterNode]) -> None:
        """Start *nodes*' run-time machinery: each rank's pre-copy
        engine, then each helper's transport, rounds process and place
        in the archive's view.  Run start passes
        every active node, hard-failure recovery the replacement;
        phase-major, so run start spawns every pre-copy engine before
        any helper."""
        engine = self.cluster.engine
        ranks = [state for node in nodes for state in node.ranks]
        if self.local_checkpoints:
            for state in ranks:
                state.checkpointer.start_background()
        helpers = [node.helper for node in nodes if node.helper is not None]
        for helper in helpers:
            helper.resilience = self.transports.get(helper.node_id, helper.resilience)
            self._bg_procs.append(
                engine.process(helper.run(), name=f"{helper.owner}:rounds")
            )
        if self.archive is not None:
            # rebound, not mutated: an archive round in flight keeps
            # iterating the list it started with
            self.archive.helpers = self.archive.helpers + [
                h for h in helpers if h not in self.archive.helpers
            ]

    def stop_nodes(self, nodes: List[ClusterNode]) -> None:
        """Stop what :meth:`start_nodes` started on *nodes* — at run
        end, and for a node that failed hard."""
        for node in nodes:
            for state in node.ranks:
                state.checkpointer.stop_background()
        helpers = [node.helper for node in nodes if node.helper is not None]
        for helper in helpers:
            helper.stop()
        if self.archive is not None:
            self.archive.helpers = [
                h for h in self.archive.helpers if h not in helpers
            ]

    def _start_background(self) -> None:
        engine = self.cluster.engine
        if self.resilience_active:
            self._start_resilience()
        self.start_nodes(self.cluster.active_nodes)
        for nid, monitor in self.monitors.items():
            self._bg_procs.append(engine.process(monitor.run(), name=f"n{nid}:hb"))
        if self._membership_schedule and self.directory is not None:
            self._start_membership()
        if self.archive is not None:
            self._bg_procs.append(engine.process(self.archive.run(), name="archive"))

    def _start_resilience(self) -> None:
        """Build the resilience layer's per-node parts; their processes
        start in :meth:`_start_background`, after the nodes'."""
        from ..resilience import (
            BuddyDirectory,
            DegradedModeController,
            HealthMonitor,
            ResilientTransport,
            RetryPolicy,
        )

        engine = self.cluster.engine
        policy = RetryPolicy()
        participants = [
            n.node_id for n in self.cluster.active_nodes if n.helper is not None
        ]
        self.directory = BuddyDirectory(self.cluster.topology, participants)
        for node in self.cluster.active_nodes:
            if node.helper is None:
                continue
            nid = node.node_id
            self.directory.bind(nid, node.helper.buddy_id)
            self.transports[nid] = ResilientTransport(nid, self.cluster.rng, policy)
            self.controllers[nid] = DegradedModeController(
                nid,
                clock=lambda: engine.now,
                normal_interval=self.ckpt_config.local_interval,
                solve_interval=self._make_degraded_solver(nid),
                on_enter=self._make_interval_hook(nid),
                on_exit=self._make_interval_hook(nid),
            )
            self.monitors[nid] = HealthMonitor(
                nid,
                node.helper.buddy_id,
                self.cluster.fabric,
                on_down=self._make_on_down(nid),
                on_up=self._make_on_up(nid),
            )

    def _start_membership(self) -> None:
        from ..resilience.migration import MigrationPlanner
        from .membership import MembershipController

        engine = self.cluster.engine
        planner = MigrationPlanner(
            self.directory,
            fits=lambda orphan, cand, pending: phases.buddy_capacity_ok(
                self, orphan, cand, pending
            ),
        )
        self.membership_controller = MembershipController(
            engine,
            self.directory,
            self._membership_schedule,
            planner,
            lambda plan, done: phases.start_migration(self, plan, done),
        )
        self._bg_procs.append(
            engine.process(self.membership_controller.run(), name="membership")
        )

    def _make_interval_hook(self, node_id: int):
        """Apply a (degraded or restored) interval to the node's helper
        config.  Its one reader there is
        :attr:`~repro.core.remote.RemoteHelper.stream_window`, so the
        interval sets the helper's pace (the re-sync's, while degraded);
        the ranks' local checkpoint interval does not change."""

        def apply(interval: float) -> None:
            node = self.cluster.nodes[node_id]
            if node.helper is not None:
                node.helper.config = replace(
                    node.helper.config, local_interval=interval
                )

        return apply

    def _make_degraded_solver(self, node_id: int):
        """Re-solve the local interval for local-only operation from
        the §III model with this run's actual parameters."""

        from ..models.notation import ModelParams
        from ..resilience.degraded import (
            DEGRADED_MIN_INTERVAL,
            degraded_local_interval,
        )

        def solve() -> float:
            normal = self.ckpt_config.local_interval
            node = self.cluster.nodes[node_id]
            try:
                fc = self.failure_config
                ckpt_bytes = max(
                    (s.allocator.checkpoint_bytes for s in node.ranks), default=0
                )
                nvm_bw = (
                    node.nvm_write_bandwidth
                    or self.cluster.config.node.nvm.write_bandwidth
                )
                params = ModelParams(
                    compute_time=max(1.0, self.app.iteration_compute_time) * 100.0,
                    checkpoint_bytes=max(1.0, float(ckpt_bytes)),
                    nvm_bw_per_core=nvm_bw,
                    remote_bw=self.cluster.config.interconnect.effective_bandwidth,
                    local_interval=normal,
                    remote_interval=self.ckpt_config.remote_interval,
                    mtbf_local=fc.mtbf_local if fc is not None else 3600.0,
                    mtbf_remote=fc.mtbf_remote if fc is not None else 14400.0,
                )
                return degraded_local_interval(params)
            except (ValueError, ZeroDivisionError):
                return max(DEGRADED_MIN_INTERVAL, normal / 2.0)

        return solve

    def _make_on_down(self, node_id: int):
        """Heartbeat monitor declared the buddy unreachable: drop to
        local-only checkpointing until it comes back or a re-pair +
        re-sync completes.  Idempotent vs. the runner's own (omniscient)
        hard-failure handling."""

        def on_down(buddy_id: int) -> None:
            ctrl = self.controllers.get(node_id)
            if ctrl is not None:
                ctrl.enter("buddy-unreachable")
            helper = self.cluster.nodes[node_id].helper
            if helper is not None:
                helper.pause_rounds()

        return on_down

    def _make_on_up(self, node_id: int):
        def on_up(buddy_id: int) -> None:
            if node_id in self._resyncing:
                # a re-sync owns the recovery; it exits degraded mode
                # itself when the chunks are re-covered
                return
            ctrl = self.controllers.get(node_id)
            if ctrl is not None:
                ctrl.exit()
            helper = self.cluster.nodes[node_id].helper
            if helper is not None:
                helper.resume_rounds()

        return on_up

    def _stop_background(self) -> None:
        self.stop_nodes(self.cluster.active_nodes)
        for monitor in self.monitors.values():
            monitor.stop()
        if self.archive is not None:
            self.archive.stop()

    # ------------------------------------------------------------------
    # The job loop.
    # ------------------------------------------------------------------

    def _job(self, iterations: int):
        engine = self.cluster.engine
        it = 0
        while it < iterations:
            procs = [
                engine.process(phases.segment(self, state, it), name=f"{state.rank}.it{it}")
                for state in self.cluster.all_ranks()
            ]
            seg_done = engine.all_of(procs)
            restart_segment = False
            while not restart_segment:
                waits = [seg_done]
                next_fail: Optional[FailureEvent] = None
                if self.injector is not None and (
                    self.fail_until_iteration is None or it < self.fail_until_iteration
                ):
                    # cache the peeked event: segment restarts and
                    # transient handling must neither skip nor
                    # duplicate injector draws
                    if self._pending_failure is None:
                        self._pending_failure = self.injector.peek()
                    next_fail = self._pending_failure
                    if not math.isfinite(next_fail.time):
                        # ScriptedInjector exhausted: never arm a timer
                        # at t=inf (it would drag the engine clock out)
                        next_fail = None
                    elif next_fail.time > engine.now:
                        waits.append(engine.timeout(next_fail.time - engine.now))
                    # a failure "due" in the past fires immediately
                    else:
                        waits.append(engine.timeout(0.0))
                idx, _ = yield engine.any_of(waits)
                if idx == 0:
                    it += 1
                    if self.local_checkpoints:
                        self.committed_iteration = it
                        self._committed_log.append((engine.now, it))
                    break
                assert next_fail is not None
                self.injector.next_failure()  # consume the event
                self._pending_failure = None
                if next_fail.is_transient:
                    # the application keeps computing through a link
                    # flap; only the checkpoint path is affected
                    phases.apply_transient(self, next_fail)
                    continue
                yield from phases.handle_failure(self, next_fail, procs)
                it = self.committed_iteration
                restart_segment = True
        for ctrl in self.controllers.values():
            ctrl.finalize()
        # record the finish line *before* winding background timers
        # down (their final timer ticks advance virtual time past the
        # application's end otherwise)
        self._end_time = self.cluster.engine.now
        self._stop_background()
        return it

    # ------------------------------------------------------------------
    # Result collection.
    # ------------------------------------------------------------------

    def _collect(self) -> RunResult:
        """Complete the run's record with the end-of-run fold over
        component state."""
        cluster = self.cluster
        engine = cluster.engine
        ranks = cluster.all_ranks()
        res = self.result
        res.n_ranks = len(ranks)
        res.n_nodes = len(cluster.active_nodes)
        res.total_time = t_end = engine.now if self._end_time is None else self._end_time
        res.sim_events = engine.events_processed
        helpers = cluster.helpers()
        # bytes: every current rank's local stream and helper's remote
        # stream counted its own copies
        copiers = [state.checkpointer.copier for state in ranks] + [
            h.copier for h in helpers
        ]
        res.accounting = CopyAccounting.total(c.accounting for c in copiers)
        codec = next((c.codec for c in copiers if c.codec is not None), None)
        if codec is not None:
            res.codec = True
            res.codec_name = codec.name
        # local
        all_stats = [s for state in ranks for s in state.checkpointer.history]
        res.local_checkpoints = len(all_stats)
        if all_stats:
            res.local_ckpt_time_avg = sum(s.duration for s in all_stats) / len(all_stats)
        res.fault_time_total = sum(state.binding.fault_time for state in ranks)
        # remote
        res.remote_rounds = sum(len(h.history) for h in helpers)
        if helpers and t_end > 0:
            res.helper_utilization = sum(
                h.helper_utilization(t_end) for h in helpers
            ) / len(helpers)
        # fabric
        CKPT_KINDS = ["rckpt", "rprecopy", "rfetch", "resync", "migrate"]
        res.fabric_ckpt_peak_window_bytes = cluster.fabric.peak_window_usage(
            1.0, t_end, kinds=CKPT_KINDS
        )
        res.fabric_app_bytes = cluster.fabric.total_bytes(":app")
        res.fabric_ckpt_bytes = (
            cluster.fabric.total_bytes(":rckpt") + cluster.fabric.total_bytes(":rprecopy")
        )
        # PFS checkpoint path and archive tier
        if cluster.pfs is not None:
            res.pfs_bytes = cluster.pfs.total_bytes
            res.pfs_file_ops = cluster.pfs.file_ops
        if self.archive is not None:
            res.archive_bytes = self.archive.total_bytes
        # resilience
        for transport in self.transports.values():
            res.transfer_retries += transport.stats.retries
            res.transfers_abandoned += transport.stats.abandoned
        for monitor in self.monitors.values():
            res.heartbeats_sent += monitor.stats.beats
            res.buddy_down_detections += monitor.stats.detections
        for ctrl in self.controllers.values():
            res.degraded_entries += ctrl.entries
            res.degraded_time_total += ctrl.degraded_time
        if self.directory is not None:
            res.buddy_repairs = len(self.directory.repairs)
        # elastic membership / live migration
        ctrl = self.membership_controller
        if ctrl is not None:
            res.elastic = True
            res.membership_joins = ctrl.joins
            res.membership_drains = ctrl.drains
            res.membership_departs = ctrl.departs
            res.migrations_planned = ctrl.plans_issued
        res.migration_batches = sum(t.batches for t in self._migrations)
        return res
