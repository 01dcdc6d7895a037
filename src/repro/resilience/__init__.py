"""Resilience layer: make the remote-checkpoint path survive failures.

The rest of the library assumes every ``rdma_put``/``rdma_get``
completes; this package turns the failure *schedule* the injector
produces into failure *behaviour* the runtime tolerates:

* :mod:`~repro.resilience.retry` — :class:`RetryPolicy` plus
  :class:`ResilientTransport` ``put``/``get``: the one retry layer,
  re-issuing a transfer whose flows were cancelled, with a deadline and
  capped exponential backoff whose jitter comes from named RNG streams;
  its ``TransferFailed`` is final for every caller;
* :mod:`~repro.resilience.health` — per-node :class:`HealthMonitor`
  DES process heartbeating the buddy, detecting a dead or unreachable
  peer mid-interval;
* :mod:`~repro.resilience.directory` — :class:`BuddyDirectory`
  tracking the live pairing, re-pairing orphans to healthy topology
  neighbors;
* :mod:`~repro.resilience.resync` — :class:`ResyncTask`, the paced
  background re-send of every committed chunk to a new buddy (plus
  whatever commits while it runs), aborted by the first send that
  fails;
* :mod:`~repro.resilience.degraded` — :class:`DegradedModeController`,
  local-only operation while no healthy remote target exists; the
  interval it re-solves from the §III model sets the helper's pacing
  (so the re-sync pace), not the ranks' local checkpoint interval.
"""

from .degraded import DegradedModeController, degraded_local_interval
from .directory import BuddyDirectory
from .health import HealthMonitor
from .resync import ResyncTask
from .retry import ResilientTransport, RetryPolicy, TransferStats

__all__ = [
    "BuddyDirectory",
    "DegradedModeController",
    "HealthMonitor",
    "ResilientTransport",
    "ResyncTask",
    "RetryPolicy",
    "TransferStats",
    "degraded_local_interval",
]
