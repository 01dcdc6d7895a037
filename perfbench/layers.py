"""The layer table: which public callables of ``src/repro`` make a layer.

One entry per layer, named after the module(s) it covers; each target
is ``"module:Class.method"`` or ``"module:function"`` and is public (no
leading underscore anywhere in the qualified name).  Methods are listed
on the class that *defines* them, so an override is its own target.
Trivial accessors on hot paths (``Chunk.get_state``, estimator
properties) are left out on purpose: a span costs about as much as they
do, and their time is then simply their caller's self time.

``Engine.run`` is the DES kernel loop.  Its self time is heap/deque
dispatch plus every private callback it invokes directly
(``Process._resume``, ``BandwidthResource._advance``, ...) — work that
cannot be told apart from outside — so it is booked to
:data:`UNATTRIBUTED` together with the root span's own self time, and
reported as ``trace.unattributed_share`` rather than credited to a
layer.

This directory cannot be edited by a change that claims a gain, so a
target deleted or renamed by such a change must not break the
benchmark: unresolvable targets are skipped and listed under
``missing_targets`` in the traced output.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["LAYERS", "UNATTRIBUTED", "DECIDE_TARGETS", "flat_targets"]

#: pseudo-layer for kernel-loop self time (see module docstring)
UNATTRIBUTED = "trace.unattributed"


def _methods(module: str, cls: str, names: str) -> List[str]:
    return [f"{module}:{cls}.{name}" for name in names.split()]


def _functions(module: str, names: str) -> List[str]:
    return [f"{module}:{name}" for name in names.split()]


_STORE_METHODS = (
    "create resize delete exists size list_regions write read flush crash "
    "corrupt put_meta get_meta delete_meta list_meta"
)
_DESTINATION_METHODS = (
    "write write_at write_payload ensure_block_store codec_slots "
    "pending_extents stage flush commit persist_metadata read capacity"
)
_CODEC_METHODS = "encode_bytes decode_bytes plan"

LAYERS: Dict[str, List[str]] = {
    UNATTRIBUTED: ["repro.sim.engine:Engine.run"],
    "sim.engine": [
        *_methods("repro.sim.engine", "Engine",
                  "event timeout all_of any_of process call_at peek"),
        *_methods("repro.sim.engine", "Process", "kill abort"),
        *_methods("repro.sim.events", "Event", "succeed fail add_callback"),
        *_methods("repro.sim.rng", "RngStreams", "stream spawn exponential"),
    ],
    "sim.resources": [
        *_methods("repro.sim.resources", "UtilizationTracker",
                  "record value_at integral peak windowed_series"),
        *_methods("repro.sim.resources", "Resource", "request release use"),
        *_methods("repro.sim.resources", "CpuCores",
                  "charge busy busy_time total_busy_time"),
        *_methods("repro.sim.resources", "BandwidthResource",
                  "current_rate transfer transfer_many cancel_tag "
                  "cancel_matching estimate_duration"),
    ],
    "memory.persistence": [
        *_methods("repro.memory.persistence", "InMemoryStore", _STORE_METHODS),
        *_methods("repro.memory.persistence", "FileStore", _STORE_METHODS),
    ],
    "memory.nvmm": [
        *_methods("repro.memory.nvmm", "NvmRegion", "write write_phantom read"),
        *_methods("repro.memory.nvmm", "NVMKernelManager",
                  "nvmmap nvmunmap nvmrealloc region process_regions "
                  "crash_process load_process known_processes cache_flush "
                  "take_accrued_cost"),
        *_methods("repro.memory.device", "MemoryDevice",
                  "allocate release allocated_by write_time read_time "
                  "record_write record_read"),
        *_methods("repro.memory.bandwidth", "CoreContentionModel",
                  "effective_capacity per_core_rate aggregate_rate copy_time "
                  "percore_curve"),
        *_functions("repro.memory.bandwidth", "make_device_bus"),
    ],
    "memory.page": [
        *_methods("repro.memory.page", "PageTable",
                  "resize protect_all unprotect_all is_protected any_protected "
                  "record_fault mark_nvdirty mark_all_nvdirty collect_nvdirty "
                  "nvdirty_bytes clear_nvdirty clear_nvdirty_range "
                  "nvdirty_extents"),
        *_methods("repro.memory.page", "StalePageMap",
                  "ensure_slots mark mark_all extents clear_extents clear_all "
                  "stale_bytes resize"),
    ],
    "alloc.chunk": [
        *_methods("repro.alloc.chunk", "Chunk",
                  "write touch read view inprogress_region committed_region "
                  "ensure_remote_slots mark_all_stale resize_stale_maps "
                  "copy_extents mark_extents_copied stale_bytes stage_to_nvm "
                  "payload_checksum commit verify_checksum "
                  "restore_from_committed restore_lazy take_migration_bytes "
                  "set_state begin_interval mark_precopied"),
        *_functions("repro.alloc.chunk", "batch_commit"),
    ],
    "alloc.nvmalloc": [
        *_methods("repro.alloc.nvmalloc", "NVAllocator",
                  "chunk has_chunk chunks persistent_chunks nvalloc nv2dalloc "
                  "nvattach nvrealloc nvdelete restart"),
        *_functions("repro.alloc.nvmalloc", "genid"),
        *_methods("repro.alloc.arena", "Arena",
                  "alloc free internal_fragmentation check_invariants release"),
    ],
    "core.policy": [
        *_methods("repro.core.policy", "CheckpointPolicy", "decide ready_time"),
        *_methods("repro.core.policy", "NonePolicy", "decide"),
        *_methods("repro.core.policy", "PrecopyPolicy", "decide"),
        *_methods("repro.core.policy", "DelayedPrecopyPolicy", "decide ready_time"),
        *_methods("repro.core.policy", "PredictivePolicy", "decide"),
        *_functions("repro.core.policy", "policy_class resolve_policy"),
        *_methods("repro.core.threshold", "ThresholdEstimator",
                  "observe_interval update_bandwidth nudge_margin copy_time "
                  "threshold"),
        *_methods("repro.core.prediction", "ModificationStateMachine",
                  "observe reset_position successors predict_next"),
        *_methods("repro.core.prediction", "PredictionTable",
                  "begin_interval observe end_interval expected_mods "
                  "mods_so_far remaining_mods eligible record_outcome accuracy "
                  "snapshot"),
        *_methods("repro.core.autotune", "OnlinePolicyTuner",
                  "attach detach interval_cost observe choose"),
    ],
    "core.precopy": _methods(
        "repro.core.precopy", "PrecopyEngine",
        "wire_chunks adopt_policy begin_interval pause resume drain stop "
        "threshold_time run"),
    "core.engine": [
        *_methods("repro.core.engine", "CheckpointEngine",
                  "start_background stop_background set_policy checkpoint "
                  "plan_payload account_payload publish_payload fault_overhead"),
        *_methods("repro.core.context", "NodeContext",
                  "copy_to_nvm effective_nvm_bw_per_core"),
        *_methods("repro.core.transparent", "TransparentCheckpointer",
                  "mark_activity checkpoint fault_overhead"),
    ],
    "core.codec": [
        *_functions("repro.core.codec",
                    "content_digest block_digests blocks_of_extents "
                    "covered_bytes current_digests ensure_content_model "
                    "resolve_codec"),
        *_methods("repro.core.codec", "ContentModel", "record_write digests"),
        *_methods("repro.core.codec", "EntropyProbe", "ratio_for forget"),
        *_methods("repro.core.codec", "BlockStore",
                  "has refcount contains slot_digests begin_round stage abort "
                  "commit rebuild drop_chunk put_bytes get_bytes"),
        *_methods("repro.core.codec", "RawCodec", _CODEC_METHODS),
        *_methods("repro.core.codec", "DeltaCodec", _CODEC_METHODS),
        *_methods("repro.core.codec", "DedupCodec", _CODEC_METHODS),
        *_methods("repro.core.codec", "AutoCodec", _CODEC_METHODS),
        *_methods("repro.core.compression", "CompressionModel",
                  "ratio_for wire_bytes compress_cost decompress_cost"),
    ],
    "core.destination": [
        *_functions("repro.core.destination", "validate_extents"),
        *_methods("repro.core.destination", "Destination", _DESTINATION_METHODS),
        *_methods("repro.core.destination", "NVMArenaDestination",
                  "write write_at write_payload codec_slots stage flush commit "
                  "persist_metadata read capacity"),
        *_methods("repro.core.destination", "PfsDestination",
                  "write write_at write_payload flush persist_metadata read"),
        *_methods("repro.core.destination", "RamdiskDestination",
                  "write write_at write_payload read capacity"),
        *_methods("repro.core.destination", "RemoteBuddyDestination",
                  "retarget " + _DESTINATION_METHODS),
    ],
    "core.remote": [
        *_methods("repro.core.remote", "RemoteTarget",
                  "ensure_block_store codec_slots ensure_chunk stage commit "
                  "committed_chunks fetch verify reattach"),
        *_methods("repro.core.remote", "RemoteHelper",
                  "notify_local_checkpoint enqueue_all enqueue_unreplicated "
                  "pause_rounds resume_rounds retarget start_background stop "
                  "run remote_checkpoint helper_utilization"),
    ],
    "core.restart": [
        *_methods("repro.core.restart", "RestartManager",
                  "restart_process restart_process_sync restart_from_remote"),
        *_methods("repro.core.scrub", "Scrubber", "scan scan_sync stop run"),
    ],
    "net": [
        *_methods("repro.net.interconnect", "Fabric",
                  "outage_active begin_outage end_outage transfer egress_of "
                  "total_bytes windowed_usage peak_window_usage peak_rate"),
        *_functions("repro.net.rdma", "rdma_put rdma_get cancel_rdma"),
        *_methods("repro.net.topology", "Topology",
                  "rack_of nodes_in_rack buddy_of buddies neighbors"),
    ],
    "resilience": [
        *_functions("repro.resilience.retry", "resilient_put resilient_get"),
        *_methods("repro.resilience.retry", "RetryPolicy", "backoff_delay"),
        *_methods("repro.resilience.retry", "ResilientTransport", "put get"),
        *_methods("repro.resilience.health", "HealthMonitor", "stop retarget run"),
        *_methods("repro.resilience.directory", "BuddyDirectory",
                  "buddy_of orphans_of is_healthy mark_failed mark_recovered "
                  "admit retire depart rebind candidates_for repair "
                  "check_invariants"),
        *_functions("repro.resilience.degraded", "degraded_local_interval"),
        *_methods("repro.resilience.degraded", "DegradedModeController",
                  "enter exit finalize"),
        *_methods("repro.resilience.resync", "ResyncTask", "run"),
        *_methods("repro.resilience.migration", "MigrationPlanner",
                  "plan_join plan_drain"),
        *_methods("repro.resilience.migration", "MigrationTask", "run"),
    ],
    "metrics.trace": [
        *_methods("repro.metrics.trace", "TraceBus",
                  "emit attach detach subscribe unsubscribe capture"),
        *_methods("repro.metrics.trace", "TraceEvent", "to_record"),
        *_functions("repro.metrics.trace", "event_from_record read_trace"),
        *_methods("repro.metrics.trace", "RingBufferSink", "handle of_kind"),
        *_methods("repro.metrics.trace", "JsonlSink", "handle close"),
        *_methods("repro.metrics.trace", "CounterSink", "handle"),
        *_methods("repro.metrics.trace", "CallbackSink", "handle"),
        *_methods("repro.metrics.trace", "TimelineSink", "handle"),
        *_methods("repro.metrics.timeline", "Timeline",
                  "record begin end total count for_actor span overlap"),
        *_methods("repro.metrics.collectors", "InterconnectUsage",
                  "series peak_rate peak_window_volume total_bytes"),
        *_methods("repro.metrics.collectors", "CpuUtilization",
                  "utilization node_utilization by_owner"),
        *_methods("repro.metrics.collectors", "DataVolume",
                  "by_tag total matching suffix"),
    ],
    "cluster": [
        *_methods("repro.cluster.runner", "ClusterRunner", "run"),
        *_methods("repro.cluster.runner", "RunResult", "efficiency_vs to_dict"),
        *_functions("repro.cluster.phases",
                    "segment apply_transient handle_failure buddy_capacity_ok "
                    "orphan_failover repair_orphan resync_proc start_migration "
                    "migration_proc recover_soft fetch_source_for recover_hard"),
        *_methods("repro.cluster.cluster", "Cluster",
                  "build all_ranks node_of_rank helpers total_bytes_to_nvm "
                  "total_remote_bytes checkpoint_bytes"),
        *_methods("repro.cluster.node", "ClusterNode",
                  "add_rank replace_hardware crash_volatile total_bytes_to_nvm "
                  "total_coordinated_bytes total_precopy_bytes"),
        *_methods("repro.cluster.failures", "FailureInjector",
                  "next_failure peek schedule_until expected_failures"),
        *_methods("repro.cluster.mpi", "Barrier", "wait break_all reset"),
        *_methods("repro.cluster.membership", "MembershipController", "run apply"),
    ],
    "apps": [
        *_methods("repro.apps.base", "ChunkSpec", "write_fractions write_extent"),
        *_methods("repro.apps.base", "RankBinding",
                  "chunk charge_fault charge_migration"),
        *_methods("repro.apps.base", "ApplicationModel",
                  "chunk_specs allocate checkpoint_bytes chunk_size_distribution "
                  "compute_iteration"),
        *_methods("repro.apps.lammps", "LammpsModel", "chunk_specs"),
        *_methods("repro.apps.gtc", "GTCModel", "chunk_specs"),
        *_methods("repro.apps.cm1", "CM1Model", "chunk_specs"),
        *_methods("repro.apps.synthetic", "SyntheticModel", "chunk_specs"),
    ],
    "exec": [
        *_functions("repro.exec.grid",
                    "run_grid expand_grid flatten_record derive_cell_seed "
                    "parse_sweeps"),
        *_methods("repro.exec.grid", "GridSpec", "of"),
        *_functions("repro.exec.cell",
                    "build_parser resolve_config run_cell run_experiment "
                    "result_to_dict"),
        *_methods("repro.exec.executor", "ParallelExecutor", "run close"),
        *_functions("repro.exec.executor", "resolve_workers"),
        *_methods("repro.exec.pool", "WorkerPool", "run_batches close"),
        *_functions("repro.exec.pool", "shared_pool"),
        *_functions("repro.exec.cache", "cache_key"),
        *_methods("repro.exec.cache", "ResultCache", "get put stats"),
    ],
    "replay": [
        *_functions("repro.replay.capture", "capture_cell"),
        *_methods("repro.replay.capture", "CapturedRun", "engine write_jsonl"),
        *_functions("repro.replay.divergence",
                    "accounting_from_events live_commit_ordering "
                    "compare_accounting compare_to_run"),
        *_functions("repro.replay.reader", "load_source"),
        *_functions("repro.replay.reconstruct", "reconstruct"),
        *_functions("repro.replay.whatif", "run_whatif"),
        *_methods("repro.replay.whatif", "CodecEstimator", "ship"),
        *_methods("repro.replay", "ReplayEngine",
                  "faithful whatif matches_captured replay"),
    ],
}

#: policy entry points counted by ``core.policy.decides_per_precopy``
DECIDE_TARGETS: Tuple[str, ...] = tuple(
    target for target in LAYERS["core.policy"] if target.endswith(".decide")
)


def flat_targets() -> Tuple[List[str], List[str]]:
    """``(targets, layer_of_target)`` in table order, aligned."""
    targets: List[str] = []
    owners: List[str] = []
    for layer, specs in LAYERS.items():
        for spec in specs:
            targets.append(spec)
            owners.append(layer)
    return targets, owners
