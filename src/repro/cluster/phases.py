"""Per-phase logic of a cluster run.

The orchestration shell — process lifecycle, the job loop, background
machinery, result collection — lives in
:mod:`repro.cluster.runner`.  This module holds what happens *inside*
a run: the compute/barrier/checkpoint segment every rank executes each
iteration, and the failure phases (transient outage, soft reboot, hard
replace, orphan re-pairing and background re-sync).

Every function takes the :class:`~repro.cluster.runner.ClusterRunner`
as its first argument and operates on its state.  Generator functions
are DES fragments — drive them with ``yield from``.  Nothing here
builds a rank or a helper, or starts or stops one: a replacement node
is populated by the same :class:`~repro.cluster.cluster.Cluster`
methods that built the original, and started and stopped by the same
:class:`~repro.cluster.runner.ClusterRunner` pair,
:meth:`~repro.cluster.runner.ClusterRunner.start_nodes` /
:meth:`~repro.cluster.runner.ClusterRunner.stop_nodes`.
"""

from __future__ import annotations

from typing import Optional

from ..core.remote import RemoteTarget
from ..metrics import timeline as tl
from ..metrics.trace import emit_phase
from .failures import FailureEvent
from .node import ClusterNode, RankState

__all__ = [
    "SOFT_REBOOT_DELAY",
    "HARD_REPLACE_DELAY",
    "segment",
    "apply_transient",
    "handle_failure",
    "drop_uncommitted_on",
    "buddy_capacity_ok",
    "repair_pairing",
    "orphan_failover",
    "repair_orphan",
    "resync_proc",
    "start_migration",
    "recover_soft",
    "fetch_source_for",
    "recover_hard",
]

#: seconds a node takes to reboot after a soft failure before it can
#: fetch its checkpoint (OS + process respawn).
SOFT_REBOOT_DELAY = 5.0
#: seconds to swap in replacement hardware after a hard failure.
HARD_REPLACE_DELAY = 30.0


# ----------------------------------------------------------------------
# The per-iteration segment.
# ----------------------------------------------------------------------


def segment(runner, state: RankState, iteration: int):
    """One rank's iteration: compute (+writes +communication), a
    global barrier, then the coordinated local checkpoint."""
    t0 = runner.cluster.engine.now
    yield from runner.app.compute_iteration(state.binding, iteration)
    emit_phase(state.rank, tl.COMPUTE, t0, runner.cluster.engine.now)
    yield runner.barrier.wait()
    if runner.local_checkpoints:
        yield from state.checkpointer.checkpoint(blocking=False)


# ----------------------------------------------------------------------
# Failure phases.
# ----------------------------------------------------------------------


def apply_transient(runner, ev: FailureEvent) -> None:
    """A link flap on one node's checkpoint path: fail its in-flight
    checkpoint transfers, fail-fast new ones, and schedule the heal."""
    engine = runner.cluster.engine
    fabric = runner.cluster.fabric
    runner.result.transient_failures += 1
    node_id = ev.node
    fabric.begin_outage(node_id)
    end = engine.now + ev.duration
    engine.call_at(end, lambda: fabric.end_outage(node_id))
    emit_phase(f"n{node_id}", tl.OUTAGE, engine.now, end, t=engine.now)


def handle_failure(runner, ev: FailureEvent, procs):
    engine = runner.cluster.engine
    t0 = engine.now
    node = runner.cluster.nodes[ev.node]
    # stop the world: kill rank processes, break the barrier, tear
    # down in-flight traffic
    for p in procs:
        p.kill()
    runner.barrier.reset()
    for n in runner.cluster.active_nodes:
        n.ctx.nvm_bus.cancel_matching(None)
    for lp in runner.cluster.fabric.links:
        lp.egress.cancel_matching(None)
        lp.ingress.cancel_matching(None)
    for state in runner.cluster.all_ranks():
        if state.checkpointer.precopy is not None:
            state.checkpointer.precopy.pause()
    if ev.kind == "soft":
        runner.result.soft_failures += 1
        drop_uncommitted_on(runner, node.node_id)
        yield from recover_soft(runner, node)
        rollback = runner.committed_iteration
    else:
        runner.result.hard_failures += 1
        if runner.directory is not None:
            runner.directory.mark_failed(node.node_id)
            # until the replacement boots, the node is unreachable
            # on the checkpoint path (heartbeats to it fail fast)
            runner.cluster.fabric.begin_outage(node.node_id)
            orphan_failover(runner, node)
        rollback = yield from recover_hard(runner, node)
    runner.result.iterations_recomputed += max(0, runner.committed_iteration - rollback)
    runner.committed_iteration = rollback
    # reset chunk dirty state: DRAM now matches the rollback point.  A
    # chunk whose current buddy holds its latest commit generation is
    # *provably* still covered (rollback restores committed state, which
    # is exactly what was streamed), so only generation-mismatched
    # chunks re-dirty — the incremental-failover saving
    for state in runner.cluster.all_ranks():
        helper = runner.cluster.nodes[state.node_id].helper
        for chunk in state.allocator.chunks():
            fresh = chunk.committed_version < 0
            if fresh:
                chunk.dirty_local = True
            else:
                chunk.mark_clean("local")
            chunk.dirty_remote = helper is None or not helper.holds_current(
                state.rank, chunk
            )
            chunk.protected = not fresh
            chunk.begin_interval()
        if state.checkpointer.precopy is not None:
            state.checkpointer.precopy.begin_interval()
            state.checkpointer.precopy.resume()
        state.checkpointer.last_checkpoint_end = engine.now
    # the dirty-state reset above re-dirtied chunks; nodes mid-re-sync
    # must re-cover them through the same drain
    for nid in runner._resyncing:
        h = runner.cluster.nodes[nid].helper
        if h is not None:
            h.enqueue_unreplicated()
    runner.result.recovery_time += engine.now - t0
    emit_phase(f"n{ev.node}", tl.RESTART, t0, engine.now)


def drop_uncommitted_on(runner, node_id: int) -> None:
    """Node *node_id* reboots and loses its unflushed writes: no helper
    or migration may later commit, or count as held, a copy it staged
    there since its last commit."""
    for n in runner.cluster.active_nodes:
        if n.helper is not None:
            n.helper.drop_uncommitted(node_id)
    for task in runner._migrations:
        if task.plan.to_buddy == node_id and not (task.completed or task.aborted):
            task.drop_uncommitted()


def _versions(allocators) -> int:
    """NVM bytes the two versions of *allocators*' chunks claim."""
    return RemoteTarget.n_versions * sum(
        sum(c.nbytes for c in a.persistent_chunks()) for a in allocators
    )


def buddy_capacity_ok(runner, orphan_id: int, candidate_id: int, pending=()) -> bool:
    """Can the candidate's NVM hold the orphan's remote copies on
    top of what it already owes?  The gate reserves rather than reads
    ``device.free``: remote targets and second version slots map
    lazily, so free space overstates the room.  The candidate owes
    two versions of its own ranks' chunks and of every source whose
    helper already points at it.  ``pending`` names sources a planner
    sweep has already routed onto the candidate; they move with the
    orphan, so the gate must hold for the combined footprint."""
    nodes = runner.cluster.nodes
    movers = (orphan_id, *pending)
    owed = _versions(s.allocator for s in nodes[candidate_id].ranks)
    needed = 0
    for node in nodes:
        helper = node.helper
        if helper is None:
            continue
        if node.node_id in movers:
            needed += _versions(helper.ranks)
        elif helper.buddy_id == candidate_id:
            owed += _versions(helper.ranks)
    return nodes[candidate_id].ctx.nvmm.device.capacity - owed >= needed


def repair_pairing(runner, node_id: int) -> Optional[int]:
    """The directory's new buddy for *node_id*, among candidates with
    room for its copies; None when no candidate fits."""
    return runner.directory.repair(
        node_id, fits=lambda o, c: buddy_capacity_ok(runner, o, c)
    )


def orphan_failover(runner, dead: ClusterNode) -> None:
    """Nodes whose buddy just died hard: enter degraded mode, then
    re-pair to a healthy neighbor where one exists (a re-sync
    rebuilds protection in the background).  With no healthy
    candidate (2-node cluster) the repair waits for the
    replacement hardware."""
    for n in runner.cluster.active_nodes:
        h = n.helper
        if n is dead or h is None or h.buddy_id != dead.node_id:
            continue
        ctrl = runner.controllers.get(n.node_id)
        if ctrl is not None:
            ctrl.enter("buddy-failed")
        h.pause_rounds()
        new_buddy = repair_pairing(runner, n.node_id)
        if new_buddy is None:
            runner._deferred_orphans.append(n.node_id)
        else:
            repair_orphan(runner, n.node_id, new_buddy)


def repair_orphan(runner, orphan_id: int, new_buddy: int) -> None:
    """Re-point an orphan's helper (and monitor) at its new buddy
    and start the background re-sync of committed chunks."""
    from ..resilience import ResyncTask

    engine = runner.cluster.engine
    node = runner.cluster.nodes[orphan_id]
    helper = node.helper
    if helper is None:
        return
    # failing over to a buddy that was streamed to before (on the same
    # hardware) re-sends only the chunks whose commit generation moved
    helper.retarget(new_buddy, runner.cluster.nodes[new_buddy].ctx)
    monitor = runner.monitors.get(orphan_id)
    if monitor is not None:
        monitor.retarget(new_buddy)
    task = ResyncTask(helper)
    runner._resyncing[orphan_id] = task
    runner._bg_procs.append(
        engine.process(
            resync_proc(runner, orphan_id, task), name=f"n{orphan_id}:resync"
        )
    )


def resync_proc(runner, node_id: int, task):
    try:
        yield from task.run()
    finally:
        if runner._resyncing.get(node_id) is task:
            del runner._resyncing[node_id]
    if task.completed:
        runner.result.resyncs_completed += 1
        runner.result.resync_bytes += task.bytes_sent
        ctrl = runner.controllers.get(node_id)
        if ctrl is not None:
            ctrl.exit()
    elif task.send_failed:
        # a send failed (not a newer retarget): the node is still
        # unprotected — keep it in degraded mode until a later repair
        # or recovery succeeds
        runner.result.resyncs_aborted += 1
        ctrl = runner.controllers.get(node_id)
        if ctrl is not None:
            ctrl.enter("resync-aborted")


def start_migration(runner, plan, done) -> bool:
    """Launch a bounded-batch live migration for one plan (the
    membership controller's hook).  Returns False when the plan can no
    longer start — source helper gone, or its pairing already moved on
    from what the planner saw."""
    from ..resilience.migration import MigrationTask

    engine = runner.cluster.engine
    node = runner.cluster.nodes[plan.node]
    helper = node.helper
    if helper is None or helper.buddy_id != plan.from_buddy:
        return False
    if plan.node in runner._resyncing:
        # a re-sync owns the helper's queue right now; migrating the
        # pairing out from under it would race the drain
        return False

    def on_cutover(task) -> None:
        runner.result.migrations_completed += 1
        runner.result.migration_bytes += task.bytes_sent
        runner.directory.rebind(plan.node, plan.to_buddy)
        monitor = runner.monitors.get(plan.node)
        if monitor is not None:
            monitor.retarget(plan.to_buddy)
        done(plan, True)

    def on_abort(task) -> None:
        runner.result.migrations_aborted += 1
        done(plan, False)

    task = MigrationTask(
        helper,
        plan,
        runner.cluster.nodes[plan.to_buddy].ctx,
        on_cutover=on_cutover,
        on_abort=on_abort,
    )
    runner._migrations.append(task)
    runner._bg_procs.append(
        engine.process(task.run(), name=f"n{plan.node}:migrate->{plan.to_buddy}")
    )
    return True


def recover_soft(runner, node: ClusterNode):
    """Reboot + all ranks reload their committed local checkpoint."""
    engine = runner.cluster.engine
    node.ctx.nvmm.store.crash()  # unflushed writes die with the node
    yield engine.timeout(SOFT_REBOOT_DELAY)
    fetches = []
    for n in runner.cluster.active_nodes:
        fetches.extend(
            n.ctx.nvm_bus.transfer_many(
                [
                    (state.allocator.checkpoint_bytes, f"{state.rank}:restart")
                    for state in n.ranks
                ]
            )
        )
    if fetches:
        yield engine.all_of(fetches)


def fetch_source_for(runner, node: ClusterNode, old_helper) -> int:
    """Which node holds the dead node's remote copies (and becomes
    the replacement's buddy)?  The live directory when the run has
    helpers; otherwise the helper's own pairing, falling back to the
    topology — never an index into ``active_nodes`` (which can
    self-pair or point at a dead slot)."""
    if runner.directory is not None:
        repaired = repair_pairing(runner, node.node_id)
        if repaired is not None:
            return repaired
    if old_helper is not None:
        return old_helper.buddy_id
    return runner.cluster.topology.buddy_among(
        node.node_id, [n.node_id for n in runner.cluster.active_nodes]
    )


def recover_hard(runner, node: ClusterNode):
    """Replace the node, refetch its ranks' state from the buddy,
    survivors reload locally; roll back to the remote capture."""
    cluster = runner.cluster
    engine = cluster.engine
    # which iteration did the buddy last capture for this node?
    rollback = 0
    if not node.ranks:
        # a rank-less buddy host (a spare admitted via membership) lost
        # no application state: survivors keep their committed progress
        # and only the copies it hosted must be re-covered (failover)
        rollback = runner.committed_iteration
    elif node.helper is not None and node.helper.history:
        last_start = node.helper.history[-1].start
        for t, it in runner._committed_log:
            if t <= last_start:
                rollback = it
    old_helper = node.helper
    old_rank_indices = [s.rank_index for s in node.ranks]
    # a rank-less node has no state to fetch — and asking the directory
    # would spuriously re-pair it as a source
    buddy_id = fetch_source_for(runner, node, old_helper) if node.ranks else None
    runner.stop_nodes([node])
    # replacement hardware
    yield engine.timeout(HARD_REPLACE_DELAY)
    node.replace_hardware()
    if runner.directory is not None:
        runner.directory.mark_recovered(node.node_id)
        cluster.fabric.end_outage(node.node_id)
    cluster.populate(node, old_rank_indices)
    # fetch the dead node's state from the buddy; survivors reload locally
    fetches = []
    for state in node.ranks:
        fetches.append(
            cluster.fabric.transfer(
                buddy_id,
                node.node_id,
                state.allocator.checkpoint_bytes,
                tag=f"{state.rank}:rfetch",
            )
        )
    for n in cluster.active_nodes:
        if n is node:
            continue
        fetches.extend(
            n.ctx.nvm_bus.transfer_many(
                [
                    (state.allocator.checkpoint_bytes, f"{state.rank}:restart")
                    for state in n.ranks
                ]
            )
        )
    if fetches:
        yield engine.all_of(fetches)
    if old_helper is not None:
        cluster.attach_helper(node, buddy_id)
        if runner.directory is not None:
            runner.directory.bind(node.node_id, buddy_id)
            monitor = runner.monitors.get(node.node_id)
            if monitor is not None:
                # retarget resets health silently (no up-transition
                # fires), so leave degraded mode explicitly: the
                # replacement has a healthy buddy again
                monitor.retarget(buddy_id)
            ctrl = runner.controllers.get(node.node_id)
            if ctrl is not None:
                ctrl.exit()
    runner.start_nodes([node])
    if runner.directory is not None:
        # orphans that had no healthy re-pair candidate wait for
        # the replacement: repair them now (typically back onto the
        # replacement hardware)
        deferred, runner._deferred_orphans = runner._deferred_orphans, []
        for orphan_id in deferred:
            new_buddy = repair_pairing(runner, orphan_id)
            if new_buddy is not None:
                repair_orphan(runner, orphan_id, new_buddy)
            else:
                runner._deferred_orphans.append(orphan_id)
    return rollback
