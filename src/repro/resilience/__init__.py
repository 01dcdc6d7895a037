"""Resilience layer: make the remote-checkpoint path survive failures.

The rest of the library assumes every ``rdma_put``/``rdma_get``
completes; this package turns the failure *schedule* the injector
produces into failure *behaviour* the runtime tolerates:

* :mod:`~repro.resilience.retry` — :class:`RetryPolicy` plus
  :class:`ResilientTransport` ``put``/``get``: deadline + capped
  exponential backoff with jitter from named RNG streams, per-attempt
  stall timeouts that cancel and re-issue flows;
* :mod:`~repro.resilience.health` — per-node :class:`HealthMonitor`
  DES process heartbeating the buddy, detecting a dead or unreachable
  peer mid-interval;
* :mod:`~repro.resilience.directory` — :class:`BuddyDirectory`
  tracking the live pairing, re-pairing orphans to healthy topology
  neighbors;
* :mod:`~repro.resilience.resync` — :class:`ResyncTask`, the paced
  background re-send of all committed chunks to a new buddy;
* :mod:`~repro.resilience.degraded` — :class:`DegradedModeController`,
  local-only checkpointing with the interval re-solved from the §III
  model while no healthy remote target exists;
* :mod:`~repro.resilience.migration` — :class:`MigrationPlanner`,
  :class:`MigrationTask` and :class:`SloGuard`: bounded-batch live
  migration of buddy-hosted copies for planned membership changes,
  throttled against a checkpoint-latency SLO.
"""

from .degraded import DegradedModeController, degraded_local_interval
from .directory import BuddyDirectory
from .health import HealthMonitor
from .migration import MigrationPlan, MigrationPlanner, MigrationTask, SloGuard
from .resync import ResyncTask
from .retry import ResilientTransport, RetryPolicy, TransferStats

__all__ = [
    "BuddyDirectory",
    "DegradedModeController",
    "HealthMonitor",
    "MigrationPlan",
    "MigrationPlanner",
    "MigrationTask",
    "ResilientTransport",
    "ResyncTask",
    "RetryPolicy",
    "SloGuard",
    "TransferStats",
    "degraded_local_interval",
]
