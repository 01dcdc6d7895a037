"""The paper's primary contribution: the NVM-checkpoint runtime.

* :mod:`~repro.core.context` — the node-local execution context
  (engine, NVM bus, CPU cores, kernel manager) everything runs against;
* :mod:`~repro.core.prediction` — DCPCP prediction table + chunk
  modification state machine (Fig. 6);
* :mod:`~repro.core.threshold` — DCPC pre-copy threshold estimation;
* :mod:`~repro.core.copystep` — the one chunk-copy step (plan ->
  move -> land) every copy site runs;
* :mod:`~repro.core.precopy` — the background chunk pre-copy engine;
* :mod:`~repro.core.engine` — coordinated local checkpoints (shadow
  buffering + two-version commit);
* :mod:`~repro.core.remote` — the per-node asynchronous helper doing
  remote (buddy-node) pre-copy checkpoints over RDMA;
* :mod:`~repro.core.restart` — restart/recovery with checksum checks
  and remote fetch;
* :mod:`~repro.core.api` — the synchronous Table-III facade
  (:class:`NVMCheckpoint`) for direct library use.
"""

from .context import NodeContext, make_standalone_context
from .prediction import ModificationStateMachine, PredictionTable
from .threshold import ThresholdEstimator
from .policy import (
    CheckpointPolicy,
    Decision,
    DelayedPrecopyPolicy,
    IntervalClock,
    NonePolicy,
    POLICIES,
    PredictivePolicy,
    policy_class,
    resolve_policy,
)
from .policy import PrecopyPolicy as PrecopyPolicyStrategy
from .destination import (
    Destination,
    NVMArenaDestination,
    PfsDestination,
    RamdiskDestination,
)
from .precopy import PrecopyEngine
from .engine import CheckpointEngine, CheckpointStats, LocalCheckpointer
from .remote import RemoteCheckpointStats, RemoteHelper, RemoteTarget
from .restart import RestartManager, RestartReport
from .transparent import TransparentCheckpointer
from .compression import CompressionModel
from .archive import ArchiveStats, ArchiveTier
from .autotune import IntervalTuner, OnlinePolicyTuner
from .api import NVMCheckpoint

__all__ = [
    "NodeContext",
    "make_standalone_context",
    "PredictionTable",
    "ModificationStateMachine",
    "ThresholdEstimator",
    "CheckpointPolicy",
    "Decision",
    "IntervalClock",
    "NonePolicy",
    "PrecopyPolicyStrategy",
    "DelayedPrecopyPolicy",
    "PredictivePolicy",
    "POLICIES",
    "policy_class",
    "resolve_policy",
    "Destination",
    "NVMArenaDestination",
    "PfsDestination",
    "RamdiskDestination",
    "PrecopyEngine",
    "CheckpointEngine",
    "LocalCheckpointer",
    "CheckpointStats",
    "RemoteHelper",
    "RemoteTarget",
    "RemoteCheckpointStats",
    "RestartManager",
    "RestartReport",
    "TransparentCheckpointer",
    "CompressionModel",
    "ArchiveTier",
    "ArchiveStats",
    "IntervalTuner",
    "OnlinePolicyTuner",
    "NVMCheckpoint",
]
