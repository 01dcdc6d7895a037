"""Exception hierarchy for the NVM-checkpoints reproduction.

Every library-raised error derives from :class:`ReproError` so callers
can catch the whole family; fine-grained subclasses mirror the failure
surfaces of the real system (allocation, persistence, checkpointing,
simulation misuse).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigError(ReproError, ValueError):
    """Invalid configuration: an unknown policy/mode name, an option
    value outside its domain, or an inconsistent combination.

    Also a :class:`ValueError` so pre-existing callers validating
    config dataclasses with ``except ValueError`` keep working.
    """


# ---------------------------------------------------------------------------
# Simulation engine errors.
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Misuse of, or an inconsistency inside, the discrete-event engine."""


class ProcessKilled(SimulationError):
    """Injected into a simulated process when it is forcibly terminated
    (e.g. by a node failure).  Processes normally do not catch this."""


class TransferCancelled(SimulationError):
    """An in-flight bandwidth flow was aborted (node failure tore down
    the traffic).  Background engines catch this and carry on."""


# ---------------------------------------------------------------------------
# Memory substrate errors.
# ---------------------------------------------------------------------------


class MemoryError_(ReproError):
    """Base class for emulated-memory errors (named with a trailing
    underscore to avoid shadowing the builtin)."""


class OutOfMemory(MemoryError_):
    """A device (DRAM or NVM) ran out of capacity."""


class InvalidAddress(MemoryError_):
    """Access outside a mapped region."""


class PersistenceError(MemoryError_):
    """The file-backed persistent store is corrupt or unreadable."""


# ---------------------------------------------------------------------------
# Fault-injection errors.
# ---------------------------------------------------------------------------


class FaultInjectionError(ReproError):
    """Misuse of the crash-point fault-injection harness (unknown crash
    point, bit-rot at a point that carries no store context...)."""


class CrashInjected(ReproError):
    """Raised by an installed :class:`repro.faults.FaultPlan` when a
    scripted/random fault fires at a named crash point.

    Deliberately *not* a :class:`SimulationError` or
    :class:`CheckpointError` subclass: background engines catch those
    families to keep running, but an injected crash must unwind the
    whole process like a real power loss.
    """

    def __init__(self, message: str, point: str | None = None) -> None:
        super().__init__(message)
        self.point = point


# ---------------------------------------------------------------------------
# Allocator errors.
# ---------------------------------------------------------------------------


class AllocationError(ReproError):
    """nvmalloc-level failure (bad size, duplicate id, unknown id...)."""


class DuplicateChunkId(AllocationError):
    """A chunk id was allocated twice without an intervening delete."""


class UnknownChunkId(AllocationError, KeyError):
    """Lookup of a chunk id that was never allocated (or was deleted).

    Also a :class:`KeyError` so the Table-III facade's uniform
    key-resolution contract (``int | str`` chunk keys) can be caught
    with ``except KeyError`` by applications that treat the chunk
    registry as a mapping.
    """

    def __str__(self) -> str:  # KeyError repr-quotes its message
        return Exception.__str__(self)


# ---------------------------------------------------------------------------
# Checkpoint/restart errors.
# ---------------------------------------------------------------------------


class CheckpointError(ReproError):
    """A checkpoint operation failed."""


class ChecksumMismatch(CheckpointError):
    """Restart found a chunk whose stored checksum does not match its
    data; the restart component falls back to the remote copy."""

    def __init__(self, message: str, chunk_id: int | None = None) -> None:
        super().__init__(message)
        self.chunk_id = chunk_id


class NoCheckpointAvailable(CheckpointError):
    """Restart was requested but neither a local nor a remote committed
    version exists for the chunk/process."""


class AllReplicasLost(NoCheckpointAvailable):
    """Restart escalation exhausted every replica: the local copy is
    unusable *and* the buddy fetch failed (no buddy, nothing committed
    there, or the resilient fetch gave up).  Subclasses
    :class:`NoCheckpointAvailable` so existing handlers keep working,
    but carries structured context for operators."""

    def __init__(
        self,
        message: str,
        *,
        pid: str | None = None,
        chunk: str | None = None,
        tried: tuple[str, ...] = (),
    ) -> None:
        super().__init__(message)
        self.pid = pid
        self.chunk = chunk
        #: replica levels that were attempted, in order ("local", "buddy")
        self.tried = tried


# ---------------------------------------------------------------------------
# Cluster / network errors.
# ---------------------------------------------------------------------------


class ClusterError(ReproError):
    """Cluster-level configuration or runtime error."""


class NetworkError(ClusterError):
    """RDMA/fabric transfer failure."""


class TransferFailed(NetworkError):
    """A resilient transfer gave up: every retry attempt was cancelled
    or timed out within the policy's attempt/deadline budget.  Unlike
    :class:`TransferCancelled` (one torn flow) this is a terminal
    verdict on the whole transfer."""

    def __init__(
        self,
        message: str,
        *,
        src: int | None = None,
        dst: int | None = None,
        tag: str = "",
        attempts: int = 0,
        elapsed: float = 0.0,
    ) -> None:
        super().__init__(message)
        self.src = src
        self.dst = dst
        self.tag = tag
        self.attempts = attempts
        self.elapsed = elapsed
