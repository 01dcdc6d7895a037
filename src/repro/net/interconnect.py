"""The interconnect fabric: per-node full-duplex links around a
non-blocking core (the usual fat-tree abstraction for a small IB
cluster).

A transfer from node A to node B holds a flow on A's *egress* link and
B's *ingress* link simultaneously; each link is a processor-sharing
:class:`~repro.sim.resources.BandwidthResource`, so checkpoint streams
and application communication genuinely contend — the communication
noise of §IV arises here.  The Fig.-10 usage series and the per-kind
byte totals are read off the egress links, so those carry the fabric's
:class:`~repro.sim.resources.UsageMeter`; ingress links meter nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

from ..config import InterconnectConfig
from ..errors import ClusterError, TransferCancelled
from ..sim.engine import Engine
from ..sim.events import _PENDING, Event
from ..sim.resources import BandwidthResource, UsageMeter
from ..units import usec

__all__ = ["Fabric", "FabricTransfer", "LinkPair", "CHECKPOINT_KINDS", "RDMA_LATENCY"]

#: base latency of one RDMA transfer, added after its last byte lands
RDMA_LATENCY = usec(2.0)

#: traffic kinds (tag suffixes after the last ':') that ride the
#: checkpoint path's RDMA queue pairs.  A link outage tears these down
#: and fails new ones fast; application traffic (MPI on its reliable
#: transport) is modelled as unaffected by checkpoint-QP flaps.
CHECKPOINT_KINDS = frozenset(
    {"rckpt", "rprecopy", "rfetch", "resync", "hb"}
)


class FabricTransfer(Event):
    """Completion event of one fabric transfer.  Like
    :class:`~repro.sim.resources.TransferEvent` it names itself only
    when asked (``repr``), so a transfer formats nothing.

    It is its own join of the egress and ingress flows: both links end
    their flow into it (:meth:`_flow_ended`), with no event per flow.
    The first flow to complete only counts down.  The second, and every
    failed flow, queue one ready-lane call where a flow event's delivery
    would have been queued: the second completion's call schedules the
    arrival :data:`RDMA_LATENCY` later, and the first failure's fails the
    transfer one step later — the step an ``AllOf`` join would have
    taken.  Once the transfer has failed, later flow ends do nothing.
    """

    __slots__ = ("src", "dst", "nbytes", "_links")

    def __init__(self, engine: Engine, src: int, dst: int, nbytes: float) -> None:
        self.engine = engine
        self.name = ""
        self.callbacks = []
        self._value = _PENDING
        self._exc = None
        self._triggered = False
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        #: link flows still to complete; 0 once one has failed
        self._links = 2

    def _flow_ended(self, value: object, exc: Optional[BaseException]) -> None:
        links = self._links
        if exc is None:
            if links != 1:  # the first completion, or one after a failure
                if links:
                    self._links = 1
                return
            self._links = 0
            call = self._arrive
        else:
            call = partial(self._on_failed_link, exc)
        self.engine._queue_callback(call)

    def _arrive(self) -> None:
        engine = self.engine
        engine.call_at(engine.now + RDMA_LATENCY, self.succeed)

    def _on_failed_link(self, exc: BaseException) -> None:
        if self._links:
            self._links = 0
            self.engine._queue_callback(partial(self.fail, exc))

    def _label(self) -> str:
        return f"xfer {self.src}->{self.dst} {self.nbytes:.0f}B"


@dataclass
class LinkPair:
    """One node's full-duplex NIC: independent egress/ingress lanes."""

    egress: BandwidthResource
    ingress: BandwidthResource


class Fabric:
    """Per-node links + non-blocking core."""

    def __init__(self, engine: Engine, n_nodes: int, config: Optional[InterconnectConfig] = None) -> None:
        if n_nodes < 1:
            raise ClusterError("fabric needs at least one node")
        self.engine = engine
        self.config = config or InterconnectConfig()
        bw = self.config.effective_bandwidth
        self.links: List[LinkPair] = [
            LinkPair(
                egress=BandwidthResource(engine, bw, name=f"n{i}.egress"),
                ingress=BandwidthResource(engine, bw, name=f"n{i}.ingress"),
            )
            for i in range(n_nodes)
        ]
        for lp in self.links:
            UsageMeter(lp.egress)
        #: nodes whose checkpoint-path connectivity is currently down
        #: (transient link flap or a node being replaced)
        self._outage: set = set()

    @property
    def n_nodes(self) -> int:
        return len(self.links)

    # ------------------------------------------------------------------
    # Outages (transient link flaps / dead nodes).
    # ------------------------------------------------------------------

    def begin_outage(self, node: int) -> int:
        """Drop *node*'s checkpoint-path connectivity: in-flight
        checkpoint-kind flows on its links are torn down and new ones
        fail fast until :meth:`end_outage`.  Returns the number of
        flows cancelled."""
        self._check(node)
        self._outage.add(node)
        is_ckpt = lambda tag: tag.rsplit(":", 1)[-1] in CHECKPOINT_KINDS  # noqa: E731
        lp = self.links[node]
        return lp.egress.cancel_matching(is_ckpt) + lp.ingress.cancel_matching(is_ckpt)

    def end_outage(self, node: int) -> None:
        self._check(node)
        self._outage.discard(node)

    def _check(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ClusterError(f"node {node} outside [0, {self.n_nodes})")

    # ------------------------------------------------------------------
    # Transfers.
    # ------------------------------------------------------------------

    def transfer(self, src: int, dst: int, nbytes: float, tag: str = "") -> Event:
        """Move *nbytes* from *src* to *dst*; the returned event fires
        when both the egress and ingress flows complete (plus the base
        RDMA latency)."""
        self._check(src)
        self._check(dst)
        if src == dst:
            raise ClusterError("loopback transfers do not touch the fabric")
        if self._outage and tag.rsplit(":", 1)[-1] in CHECKPOINT_KINDS:
            down = self._outage.intersection((src, dst))
            if down:
                failed = self.engine.event(name=f"xfer {src}->{dst} (outage)")
                failed.fail(
                    TransferCancelled(
                        f"checkpoint path down on node(s) {sorted(down)} "
                        f"(tag {tag!r})"
                    )
                )
                return failed
        done = FabricTransfer(self.engine, src, dst, nbytes)
        self.links[src].egress.transfer_into(done, nbytes, tag)
        self.links[dst].ingress.transfer_into(done, nbytes, tag)
        return done

    # ------------------------------------------------------------------
    # Measurement (Figure 10).
    # ------------------------------------------------------------------

    def egress_of(self, node: int) -> BandwidthResource:
        self._check(node)
        return self.links[node].egress

    def total_bytes(self, tag_suffix: str = "") -> float:
        """Bytes through all egress links (optionally only tags ending
        with *tag_suffix*)."""
        total = 0.0
        for lp in self.links:
            if tag_suffix:
                total += sum(
                    v for k, v in lp.egress.bytes_by_tag.items() if k.endswith(tag_suffix)
                )
            else:
                total += lp.egress.total_bytes
        return total

    def windowed_usage(
        self,
        window: float,
        t_end: float,
        t_start: float = 0.0,
        kinds: Optional[List[str]] = None,
    ) -> List[Tuple[float, float]]:
        """Aggregate fabric usage per window across all egress links:
        ``(window_start, bytes_in_window)`` — the Fig. 10 timeline.

        ``kinds`` restricts to traffic kinds (tag suffixes), e.g.
        ``["rckpt", "rprecopy"]`` for checkpoint-only traffic."""
        out: Dict[float, float] = {}
        for lp in self.links:
            if kinds is None:
                trackers = [lp.egress.utilization]
            else:
                by_kind = lp.egress.utilization_by_kind
                trackers = [by_kind[k] for k in kinds if k in by_kind]
            for tracker in trackers:
                for t, rate in tracker.windowed_series(window, t_end, t_start):
                    out[t] = out.get(t, 0.0) + rate * window
        return sorted(out.items())

    def peak_window_usage(
        self,
        window: float,
        t_end: float,
        t_start: float = 0.0,
        kinds: Optional[List[str]] = None,
    ) -> float:
        """The paper's 'peak interconnect usage': the largest
        per-window aggregate byte volume (optionally per traffic kind)."""
        series = self.windowed_usage(window, t_end, t_start, kinds=kinds)
        return max((v for _, v in series), default=0.0)

    def peak_rate(self) -> float:
        """Peak instantaneous aggregate egress rate (bytes/s)."""
        # sum of per-link peaks is an upper bound; compute the true
        # aggregate by merging the piecewise-constant series
        events: List[Tuple[float, float]] = []
        for lp in self.links:
            samples = lp.egress.utilization.samples
            for i, (t, v) in enumerate(samples):
                prev = samples[i - 1][1] if i else 0.0
                events.append((t, v - prev))
        events.sort(key=lambda e: e[0])
        level = 0.0
        peak = 0.0
        i = 0
        while i < len(events):
            t = events[i][0]
            while i < len(events) and events[i][0] == t:
                level += events[i][1]
                i += 1
            peak = max(peak, level)
        return peak
