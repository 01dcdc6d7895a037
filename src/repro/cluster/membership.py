"""Planned cluster membership: joins and drains, alongside crash
failures (:mod:`repro.cluster.failures`).

A :class:`MembershipEvent` is an *operator action*, not a fault: a node
**joins** the buddy pool (new capacity — remote copies rebalance onto
it) or **drains** for decommission (its hosted copies evacuate first;
it departs only once nothing checkpoints to it anymore).  The
:class:`MembershipController` DES process replays a scripted schedule
against the live :class:`~repro.resilience.directory.BuddyDirectory`,
asks the :class:`~repro.resilience.migration.MigrationPlanner` for the
per-node moves each event implies, and hands the plans to the runner's
migration launcher.  Ownership changes happen at migration *cutover* —
never here — so a failed or aborted migration leaves the old pairing
protecting the source.

Membership is checkpoint-layer elasticity: application ranks stay where
they are; what moves is the buddy-hosting role (who holds whose remote
copies).  A spare node built with ``n_nodes_used < nodes`` is the
natural join candidate — it has NVM and fabric connectivity but no
ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from ..errors import ClusterError
from ..metrics.trace import BUS, MembershipChangeEvent

__all__ = ["JOIN", "DRAIN", "MembershipEvent", "MembershipController"]

JOIN = "join"
DRAIN = "drain"


@dataclass(frozen=True)
class MembershipEvent:
    """One planned membership change."""

    time: float
    node: int
    action: str  # "join" | "drain"

    def __post_init__(self) -> None:
        if self.action not in (JOIN, DRAIN):
            raise ClusterError(
                f"unknown membership action {self.action!r} (join|drain)"
            )


class MembershipController:
    """Replays a membership schedule against the live directory.

    *planner* (a :class:`~repro.resilience.migration.MigrationPlanner`)
    turns each event into per-node moves.  ``launch_migration(plan,
    done)`` is the runner's hook: it must
    either start a :class:`~repro.resilience.migration.MigrationTask`
    for the plan and arrange for ``done(plan, completed)`` to be called
    exactly once when the task cuts over or aborts, or return ``False``
    when the plan cannot start (source helper gone / already
    retargeted) — the controller then counts the move as failed.
    """

    def __init__(
        self,
        engine,
        directory,
        schedule: Sequence[MembershipEvent],
        planner,
        launch_migration: Callable,
    ) -> None:
        self.engine = engine
        self.directory = directory
        self.schedule: List[MembershipEvent] = sorted(
            schedule, key=lambda e: (e.time, e.node, e.action)
        )
        self.planner = planner
        self.launch_migration = launch_migration
        self.joins = 0
        self.drains = 0
        self.departs = 0
        self.plans_issued = 0
        self.moves_completed = 0
        self.moves_failed = 0
        #: draining node -> outstanding evacuation migrations
        self._pending_drains: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # The DES process.
    # ------------------------------------------------------------------

    def run(self):
        for ev in self.schedule:
            if ev.time > self.engine.now:
                yield self.engine.timeout(ev.time - self.engine.now)
            self.apply(ev)

    def apply(self, ev: MembershipEvent) -> None:
        if ev.action == JOIN:
            self._join(ev)
        else:
            self._drain(ev)

    # ------------------------------------------------------------------
    # Event handlers.
    # ------------------------------------------------------------------

    def _emit(self, node: int, action: str, moves: int) -> None:
        if BUS.active:
            BUS.emit(
                MembershipChangeEvent(
                    t=self.engine.now,
                    actor="membership",
                    node=node,
                    action=action,
                    moves=moves,
                )
            )

    def _launch(self, plans) -> int:
        started = 0
        for plan in plans:
            self.plans_issued += 1
            if self.launch_migration(plan, self._move_done):
                started += 1
            else:
                self.moves_failed += 1
        return started

    def _join(self, ev: MembershipEvent) -> None:
        self.directory.admit(ev.node)
        self.joins += 1
        started = self._launch(self.planner.plan_join(ev.node))
        self._emit(ev.node, JOIN, started)

    def _drain(self, ev: MembershipEvent) -> None:
        self.directory.retire(ev.node)
        self.drains += 1
        started = self._launch(self.planner.plan_drain(ev.node))
        if started:
            self._pending_drains[ev.node] = started
        else:
            self._try_depart(ev.node)
        self._emit(ev.node, DRAIN, started)

    # ------------------------------------------------------------------
    # Migration completion plumbing.
    # ------------------------------------------------------------------

    def _move_done(self, plan, completed: bool) -> None:
        """Called once per launched plan, at cutover or abort."""
        if completed:
            self.moves_completed += 1
        else:
            self.moves_failed += 1
        if plan.reason == "drain" and plan.from_buddy in self._pending_drains:
            self._pending_drains[plan.from_buddy] -= 1
            if self._pending_drains[plan.from_buddy] <= 0:
                del self._pending_drains[plan.from_buddy]
                self._try_depart(plan.from_buddy)

    def _try_depart(self, node: int) -> None:
        """Depart once nothing checkpoints to the node anymore.  An
        aborted evacuation leaves an orphan behind: the node stays
        retired (hosting, but no new pairings) rather than abandoning
        the copies."""
        if self.directory.depart(node):
            self.departs += 1
            self._emit(node, "depart", 0)
