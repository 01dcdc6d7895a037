"""Buddy health monitoring.

Each node runs one :class:`HealthMonitor` DES process that sends a tiny
heartbeat transfer to its buddy every ``interval`` seconds (tag kind
``hb`` — checkpoint-path traffic, so it rides the same RDMA queue
pairs as remote checkpoints and sees the same outages).  A beat that
is cancelled or fails fast counts as a miss; ``miss_threshold``
consecutive misses flip the buddy to *down* and fire ``on_down`` —
detection happens mid-interval, not at the next hard failure.  A
subsequent successful beat fires ``on_up``.

Callbacks must be idempotent: the cluster runner may already have
declared the buddy dead through its own (omniscient) failure handling
by the time the monitor notices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import TransferCancelled
from ..net.interconnect import Fabric

__all__ = ["HealthMonitor", "HeartbeatStats"]


@dataclass
class HeartbeatStats:
    beats: int = 0
    missed: int = 0
    #: down/up *transitions* observed (not individual misses)
    detections: int = 0
    recoveries: int = 0


class HealthMonitor:
    """Heartbeats from one node to its current buddy."""

    def __init__(
        self,
        node_id: int,
        buddy_id: int,
        fabric: Fabric,
        *,
        interval: float = 2.0,
        miss_threshold: int = 2,
        payload_bytes: int = 64,
        on_down: Optional[Callable[[int], None]] = None,
        on_up: Optional[Callable[[int], None]] = None,
    ) -> None:
        if miss_threshold < 1:
            raise ValueError("miss_threshold must be >= 1")
        self.node_id = node_id
        self.buddy_id = buddy_id
        self.fabric = fabric
        self.interval = interval
        self.miss_threshold = miss_threshold
        self.payload_bytes = payload_bytes
        self.on_down = on_down
        self.on_up = on_up
        self.buddy_healthy = True
        self.misses = 0
        self.stats = HeartbeatStats()
        self._stop = False
        #: pairing generation: bumped by :meth:`retarget` so a beat in
        #: flight to the *old* buddy cannot apply its outcome to the
        #: new pairing (it would spuriously flip ``buddy_healthy`` or
        #: fire ``on_down`` against a buddy it never probed)
        self._retarget_epoch = 0

    def stop(self) -> None:
        self._stop = True

    def retarget(self, new_buddy: int) -> None:
        """Point the monitor at a replacement buddy (assumed healthy
        until proven otherwise)."""
        self._retarget_epoch += 1
        self.buddy_id = new_buddy
        self.buddy_healthy = True
        self.misses = 0

    # ------------------------------------------------------------------
    # The DES process.
    # ------------------------------------------------------------------

    def run(self):
        engine = self.fabric.engine
        while not self._stop:
            yield engine.timeout(self.interval)
            if self._stop:
                break
            yield from self._beat()

    def _beat(self):
        # pin the pairing this beat probes: a retarget while the beat
        # is in flight makes its outcome meaningless for the new buddy
        epoch = self._retarget_epoch
        buddy = self.buddy_id
        ok = True
        try:
            yield self.fabric.transfer(
                self.node_id, buddy, self.payload_bytes, tag=f"n{self.node_id}:hb"
            )
        except TransferCancelled:
            ok = False
        if epoch != self._retarget_epoch:
            # retargeted mid-beat: discard the stale outcome entirely
            return
        self.stats.beats += 1
        if ok:
            self.misses = 0
            if not self.buddy_healthy:
                self.buddy_healthy = True
                self.stats.recoveries += 1
                if self.on_up is not None:
                    self.on_up(self.buddy_id)
        else:
            self.misses += 1
            self.stats.missed += 1
            if self.misses >= self.miss_threshold and self.buddy_healthy:
                self.buddy_healthy = False
                self.stats.detections += 1
                if self.on_down is not None:
                    self.on_down(self.buddy_id)
