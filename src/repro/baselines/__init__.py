"""Comparison baselines the paper evaluates against.

* :mod:`~repro.baselines.ramdisk` — the ramdisk/VFS checkpoint path
  and the plain in-memory (DRAM memcpy) path of the §IV MADBench2
  motivation study;
* blocking local checkpointing and asynchronous-without-pre-copy
  remote checkpointing are expressed through configuration
  (``PrecopyPolicy(mode="none")`` and
  ``CheckpointConfig(remote_precopy=False)``) — helpers here construct
  those configurations so benches read clearly.
"""

from .ramdisk import MemoryPathModel, RamdiskPathModel, PathCosts
from .pfs import PfsModel
from .configs import (
    async_noprecopy_config,
    blocking_local_policy,
    precopy_config,
    precopy_local_policy,
)

__all__ = [
    "RamdiskPathModel",
    "MemoryPathModel",
    "PathCosts",
    "PfsModel",
    "blocking_local_policy",
    "precopy_local_policy",
    "async_noprecopy_config",
    "precopy_config",
]
