"""Emulated memory substrate: DRAM/PCM devices, per-core bandwidth
contention, per-chunk stale page runs, the file/in-memory persistent
store, and the NVM kernel manager (the paper's Linux extension rebuilt
as a library object).
"""

from .device import MemoryDevice
from .bandwidth import CoreContentionModel, make_device_bus
from .persistence import FileStore, InMemoryStore, PersistentStore
from .page import StalePageMap
from .nvmm import NvmRegion, NVMKernelManager

__all__ = [
    "MemoryDevice",
    "CoreContentionModel",
    "make_device_bus",
    "PersistentStore",
    "InMemoryStore",
    "FileStore",
    "StalePageMap",
    "NVMKernelManager",
    "NvmRegion",
]
