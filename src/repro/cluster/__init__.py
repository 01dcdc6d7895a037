"""The simulated testbed: nodes, the cluster builder, a minimal MPI-like
coordination layer (barriers for coordinated checkpoints), failure
injection and the end-to-end experiment runner.
"""

from .mpi import Barrier
from .failures import FailureEvent, FailureInjector, ScriptedInjector
from .node import ClusterNode, RankState
from .cluster import Cluster
from .runner import ClusterRunner, RunResult

__all__ = [
    "Barrier",
    "FailureEvent",
    "FailureInjector",
    "ScriptedInjector",
    "ClusterNode",
    "RankState",
    "Cluster",
    "ClusterRunner",
    "RunResult",
]
