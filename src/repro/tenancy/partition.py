"""NVM virtualization: per-tenant capacity partitions and weighted
fair bandwidth sharing over one contended device.

:class:`NvmPartition` is the capacity half: a byte quota carved out of
the device for one tenant, with reserve/release accounting (admission
rejects what doesn't fit — the quota is a hard wall, never borrowed).

:class:`WeightedFairBus` is the bandwidth half.  The device's usable
aggregate rate still comes from the paper's Fig. 4 contention curve
(:class:`~repro.memory.bandwidth.CoreContentionModel`: capacity shrinks
as concurrent writers are added, each flow obeys the single-core cap),
but instead of splitting it equally per flow, the bus splits it across
*tenants* by weighted water-filling:

* each active tenant (>= 1 in-flight flow) gets capacity proportional
  to its configured share weight;
* a tenant's allocation is capped at its *demand* — ``n_flows x
  single-core cap`` — and surplus is redistributed over the remaining
  tenants (**work-conserving**: idle or demand-capped share is borrowed
  by whoever can use it, so a lone tenant on an idle device runs at
  full device speed regardless of its weight);
* a tenant allocated less than its demand is *throttled*: the bus
  accrues per-tenant throttle time and emits one
  ``tenant.throttle`` trace event per contiguous throttled span.

Flows therefore progress at per-tenant rates, and completion wakeups
follow the earliest finisher across heterogeneous rates — the same
advance/reschedule discipline as
:class:`~repro.sim.resources.BandwidthResource`, generalized to
non-uniform per-flow rates.
"""

from __future__ import annotations

from math import inf
from typing import Dict, List, Optional

from ..errors import SimulationError, TransferCancelled
from ..memory.bandwidth import CoreContentionModel
from ..metrics.trace import BUS, TenantThrottleEvent
from ..sim.engine import Engine
from ..sim.events import Event
from ..sim.resources import TransferEvent

__all__ = ["NvmPartition", "WeightedFairBus"]

#: see :mod:`repro.sim.resources` — same dust thresholds, same meaning
_EPSILON_BYTES = 1e-6
_EPSILON_SECONDS = 1e-9
#: allocations within this relative slack of demand don't count as
#: throttled (float noise from the water-filling redistribution)
_THROTTLE_SLACK = 1e-9


class NvmPartition:
    """One tenant's capacity slice of the NVM device.

    Capacity is a hard quota: :meth:`reserve` fails (returns ``False``)
    rather than borrowing from neighbours — checkpoint data is durable
    state, and capacity lent out cannot be reclaimed without deleting a
    tenant's recovery copy.  Bandwidth, by contrast, is work-conserving
    and borrowed freely (see :class:`WeightedFairBus`).
    """

    def __init__(
        self,
        tenant: str,
        capacity_bytes: int,
        *,
        share: float = 1.0,
        guaranteed: bool = False,
    ) -> None:
        if capacity_bytes <= 0:
            raise SimulationError("partition capacity must be positive")
        if share <= 0:
            raise SimulationError("partition share weight must be positive")
        self.tenant = tenant
        self.capacity_bytes = int(capacity_bytes)
        self.share = float(share)
        self.guaranteed = guaranteed
        self.used_bytes = 0
        #: high-water mark, for the QoS report
        self.peak_used_bytes = 0
        self.reserve_failures = 0

    @property
    def available_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def can_reserve(self, nbytes: int) -> bool:
        return nbytes <= self.available_bytes

    def reserve(self, nbytes: int) -> bool:
        """Claim *nbytes* of the quota; ``False`` (and a counted
        failure) when it doesn't fit."""
        if nbytes < 0:
            raise SimulationError("cannot reserve a negative byte count")
        if nbytes > self.available_bytes:
            self.reserve_failures += 1
            return False
        self.used_bytes += nbytes
        self.peak_used_bytes = max(self.peak_used_bytes, self.used_bytes)
        return True

    def release(self, nbytes: int) -> None:
        if nbytes < 0 or nbytes > self.used_bytes:
            raise SimulationError(
                f"partition {self.tenant!r}: release({nbytes}) with "
                f"{self.used_bytes} reserved"
            )
        self.used_bytes -= nbytes


class _TenantFlow:
    """One in-flight transfer on the :class:`WeightedFairBus`."""

    __slots__ = ("flow_id", "tenant", "nbytes", "remaining", "event", "tag", "rate", "started_at")

    def __init__(
        self, flow_id: int, tenant: str, nbytes: float, event: Event, tag: str, now: float
    ) -> None:
        self.flow_id = flow_id
        self.tenant = tenant
        self.nbytes = nbytes
        self.remaining = nbytes
        self.event = event
        self.tag = tag
        self.rate = 0.0  # set by _recompute_rates before first advance
        self.started_at = now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<TenantFlow {self.flow_id} {self.tenant} tag={self.tag} "
            f"{self.remaining:.0f}/{self.nbytes:.0f}B @{self.rate:.0f}B/s>"
        )


class WeightedFairBus:
    """Per-tenant weighted fair sharing of one contended NVM device."""

    def __init__(
        self,
        engine: Engine,
        contention: CoreContentionModel,
        partitions: Dict[str, NvmPartition],
        name: str = "qos-bus",
    ) -> None:
        self.engine = engine
        self.contention = contention
        self.partitions = dict(partitions)
        self.name = name
        self._flows: Dict[int, _TenantFlow] = {}
        self._next_id = 0
        self._last_update = engine.now
        self._completion_token = 0
        # -- accounting --
        self.total_bytes = 0.0
        self.bytes_by_tenant: Dict[str, float] = {}
        self.throttle_time: Dict[str, float] = {}
        self.throttle_events: int = 0
        #: tenant -> (since, share-at-entry) for open throttled spans
        self._throttled: Dict[str, tuple] = {}

    # -- public API -----------------------------------------------------------

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def transfer(self, tenant: str, nbytes: float, tag: str = "") -> Event:
        """Move *nbytes* for *tenant*; the event fires on completion."""
        if tenant not in self.partitions:
            raise SimulationError(f"unknown tenant {tenant!r} on {self.name}")
        if not 0 <= nbytes < inf:
            raise SimulationError(f"cannot transfer {nbytes} bytes: not finite and non-negative")
        ev = TransferEvent(self, nbytes)
        if nbytes < _EPSILON_BYTES:
            ev.succeed(0.0)
            return ev
        self._advance()
        fid = self._next_id
        self._next_id += 1
        self._flows[fid] = _TenantFlow(fid, tenant, float(nbytes), ev, tag, self.engine.now)
        self._recompute_rates()
        self._reschedule()
        return ev

    def cancel_tag(self, tag: str) -> int:
        """Abort in-flight flows with *tag* (preemption); their events
        fail with :class:`TransferCancelled`."""
        self._advance()
        doomed = [f for f in self._flows.values() if f.tag == tag]
        for f in doomed:
            del self._flows[f.flow_id]
            f.event.fail(TransferCancelled(f"transfer {f.flow_id} ({f.tag!r}) preempted"))
        if doomed:
            self._recompute_rates()
            self._reschedule()
        return len(doomed)

    def estimate_rate(self, tenant: str, extra_flows: int = 1) -> float:
        """The per-tenant aggregate rate *tenant* would hold if it added
        *extra_flows* flows right now — the admission controller's SLO
        estimator.  Pure function of current state; adds nothing."""
        counts = self._tenant_counts()
        counts[tenant] = counts.get(tenant, 0) + extra_flows
        shares = self._water_fill(counts)
        return shares.get(tenant, 0.0)

    def finalize(self) -> None:
        """Close open throttled spans (end-of-scenario accounting)."""
        self._advance()
        now = self.engine.now
        for tenant in list(self._throttled):
            self._end_throttle(tenant, now)

    # -- internals --------------------------------------------------------------

    def _tenant_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for f in self._flows.values():
            counts[f.tenant] = counts.get(f.tenant, 0) + 1
        return counts

    def _water_fill(self, counts: Dict[str, int]) -> Dict[str, float]:
        """Weighted water-filling of the contended device capacity.

        Returns tenant -> allocated aggregate rate.  Active tenants
        split ``C_eff(total flows)`` proportionally to their share
        weights; allocations are capped at demand (``n x single-core
        cap``) and the freed surplus re-splits over the still-unsatiated
        tenants, so any share a tenant cannot use is borrowed — the
        work-conserving half of the QoS contract."""
        total_flows = sum(counts.values())
        if total_flows == 0:
            return {}
        capacity = self.contention.effective_capacity(total_flows)
        cap_per_flow = self.contention.single_core_cap
        demand = {t: n * cap_per_flow for t, n in counts.items()}
        shares: Dict[str, float] = {}
        unsatiated = [t for t in counts]
        capacity_left = capacity
        # each pass either satiates at least one tenant or terminates,
        # so this loop runs at most len(counts) times
        while unsatiated:
            total_weight = sum(self.partitions[t].share for t in unsatiated)
            satiated: List[str] = []
            for t in unsatiated:
                alloc = capacity_left * self.partitions[t].share / total_weight
                if alloc >= demand[t] - demand[t] * _THROTTLE_SLACK:
                    satiated.append(t)
            if not satiated:
                for t in unsatiated:
                    shares[t] = capacity_left * self.partitions[t].share / total_weight
                break
            for t in satiated:
                shares[t] = demand[t]
                capacity_left -= demand[t]
                unsatiated.remove(t)
            capacity_left = max(0.0, capacity_left)
        return shares

    def _recompute_rates(self) -> None:
        counts = self._tenant_counts()
        shares = self._water_fill(counts)
        for f in self._flows.values():
            f.rate = shares[f.tenant] / counts[f.tenant]
        # throttle-span tracking: a tenant is throttled while its
        # allocation sits below its demand (capped by contention, not
        # by its own flow count)
        now = self.engine.now
        cap_per_flow = self.contention.single_core_cap
        for tenant, n in counts.items():
            demand = n * cap_per_flow
            throttled = shares[tenant] < demand * (1.0 - _THROTTLE_SLACK)
            if throttled and tenant not in self._throttled:
                self._throttled[tenant] = (now, shares[tenant] / demand)
            elif not throttled and tenant in self._throttled:
                self._end_throttle(tenant, now)
        # tenants with no flows left close their span too
        for tenant in [t for t in self._throttled if t not in counts]:
            self._end_throttle(tenant, now)

    def _end_throttle(self, tenant: str, now: float) -> None:
        since, share = self._throttled.pop(tenant)
        duration = now - since
        if duration <= 0:
            return
        self.throttle_time[tenant] = self.throttle_time.get(tenant, 0.0) + duration
        self.throttle_events += 1
        if BUS.active:
            BUS.emit(
                TenantThrottleEvent(
                    t=now,
                    actor=self.name,
                    tenant=tenant,
                    duration=duration,
                    share=share,
                )
            )

    def _advance(self) -> None:
        now = self.engine.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0 or not self._flows:
            return
        finished: List[_TenantFlow] = []
        for f in self._flows.values():
            moved = f.rate * dt
            f.remaining -= moved
            progressed = min(moved, f.remaining + moved)
            self.total_bytes += progressed
            self.bytes_by_tenant[f.tenant] = (
                self.bytes_by_tenant.get(f.tenant, 0.0) + progressed
            )
            if f.remaining <= _EPSILON_BYTES and f.remaining <= f.rate * _EPSILON_SECONDS:
                finished.append(f)
        if finished:
            for f in finished:
                del self._flows[f.flow_id]
                f.event.succeed(now - f.started_at)
            self._recompute_rates()

    def _reschedule(self) -> None:
        """Finish flows within dust of completion and schedule the
        engine's token-checked wakeup at the earliest one left."""
        self._completion_token += 1
        while self._flows:
            dust = [
                f
                for f in self._flows.values()
                if f.rate > 0 and f.remaining / f.rate < _EPSILON_SECONDS
            ]
            if not dust:
                break
            now = self.engine.now
            for f in dust:
                self.total_bytes += f.remaining
                self.bytes_by_tenant[f.tenant] = (
                    self.bytes_by_tenant.get(f.tenant, 0.0) + f.remaining
                )
                del self._flows[f.flow_id]
                f.event.succeed(now - f.started_at)
            self._recompute_rates()
        if not self._flows:
            return
        eta = self.engine.now + min(
            f.remaining / f.rate for f in self._flows.values() if f.rate > 0
        )
        self.engine._schedule_wakeup(eta, self, self._completion_token)
