"""NVM-checkpoints: optimizing checkpoints using NVM as virtual memory.

A full reproduction of Kannan, Gavrilovska, Schwan & Milojicic,
*"Optimizing Checkpoints Using NVM as Virtual Memory"* (IPDPS 2013):
the NVM-as-virtual-memory substrate, the Table-III allocation and
checkpoint API, shadow buffering, chunk-level pre-copy (CPC / DCPC /
DCPCP), remote (buddy-node) pre-copy checkpointing over a simulated
RDMA fabric, the §III failure/performance model, and the full §VI
evaluation harness.

Quick start (see ``examples/quickstart.py``)::

    import numpy as np
    from repro import NVMCheckpoint
    from repro.memory import InMemoryStore

    store = InMemoryStore()          # the "NVM DIMM"
    app = NVMCheckpoint("rank0", store=store)
    temp = app.nvalloc("temperature", 1 << 20)
    temp.write(0, np.linspace(0.0, 100.0, 131072))
    app.nvchkptall()                 # coordinated local checkpoint
    app.crash()                      # power loss: DRAM gone, NVM survives
    app2, report = NVMCheckpoint.restart("rank0", store)
    assert app2.chunk("temperature").view(np.float64)[0] == 0.0
"""

from typing import Any

from ._version import __version__
from .config import (
    CheckpointConfig,
    ClusterConfig,
    DeviceConfig,
    DRAM_CONFIG,
    FailureConfig,
    NodeConfig,
    PCM_CONFIG,
    PrecopyPolicy,
)
from .core import (
    CheckpointEngine,
    LocalCheckpointer,
    NVMCheckpoint,
    PrecopyEngine,
    RemoteHelper,
    RestartManager,
    make_standalone_context,
)
from .alloc import Chunk, NVAllocator, genid
from .memory import InMemoryStore, NVMKernelManager
from .cluster import Cluster, ClusterRunner, RunResult
from .models import ModelParams, MultilevelModel
from .replay import ReplayEngine
# the execution engine owns the cell surface the tools layer wraps
from .exec import GridResult, GridSpec, ResultCache, run_grid


def checkpoint(target: Any, *, blocking: bool = True, **kwargs):
    """Run one coordinated checkpoint on *target* — the stable
    entry point over every checkpointer facade.

    *target* is anything with the unified ``checkpoint()`` method
    (:class:`CheckpointEngine`, :class:`LocalCheckpointer`,
    ``TransparentCheckpointer``) or the Table-III ``nvchkptall()``
    surface (:class:`NVMCheckpoint`).  With ``blocking=True`` (the
    default) the stats are returned; ``blocking=False`` returns the DES
    generator for embedding in a simulation.
    """
    fn = getattr(target, "checkpoint", None)
    if callable(fn):
        return fn(blocking=blocking, **kwargs)
    fn = getattr(target, "nvchkptall", None)
    if callable(fn) and blocking and not kwargs:
        return fn()
    raise TypeError(
        f"{type(target).__name__} is not a checkpointer "
        "(no checkpoint()/nvchkptall() method)"
    )


__all__ = [
    "__version__",
    # configuration
    "DeviceConfig",
    "DRAM_CONFIG",
    "PCM_CONFIG",
    "NodeConfig",
    "ClusterConfig",
    "PrecopyPolicy",
    "CheckpointConfig",
    "FailureConfig",
    # core API
    "NVMCheckpoint",
    "CheckpointEngine",
    "checkpoint",
    "LocalCheckpointer",
    "PrecopyEngine",
    "RemoteHelper",
    "RestartManager",
    "make_standalone_context",
    # allocation
    "Chunk",
    "NVAllocator",
    "genid",
    # memory substrate
    "InMemoryStore",
    "NVMKernelManager",
    # cluster simulation
    "Cluster",
    "ClusterRunner",
    "RunResult",
    # execution engine
    "ResultCache",
    "GridSpec",
    "GridResult",
    "run_grid",
    # trace-driven replay
    "ReplayEngine",
    # analytic model
    "ModelParams",
    "MultilevelModel",
]
