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

__all__ = ["Fabric", "FabricTransfer", "LinkPair", "CHECKPOINT_KINDS"]

#: traffic kinds (tag suffixes after the last ':') that ride the
#: checkpoint path's RDMA queue pairs.  A link outage tears these down
#: and fails new ones fast; application traffic (MPI on its reliable
#: transport) is modelled as unaffected by checkpoint-QP flaps.
CHECKPOINT_KINDS = frozenset(
    {"rckpt", "rprecopy", "rfetch", "resync", "migrate", "scrub-repair", "hb"}
)


class FabricTransfer(Event):
    """Completion event of one fabric transfer.  Like
    :class:`~repro.sim.resources.TransferEvent` it names itself only
    when asked (``repr``), so a transfer formats nothing.

    It is its own join of the egress and ingress flows: :meth:`_on_link`
    is the one callback on both, counting them down.  The second
    success schedules the arrival ``latency`` later; the first failure
    fails the transfer one step later — the step an ``AllOf`` join
    would have taken — and every later link delivery is ignored.
    """

    __slots__ = ("src", "dst", "nbytes", "_latency", "_links")

    def __init__(self, engine: Engine, src: int, dst: int, nbytes: float, latency: float) -> None:
        self.engine = engine
        self.name = ""
        self.callbacks = []
        self._value = _PENDING
        self._exc = None
        self._triggered = False
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self._latency = latency
        #: link flows still to complete; 0 once one has failed
        self._links = 2

    def _on_link(self, link: Event) -> None:
        if not self._links:
            return
        engine = self.engine
        if link._exc is not None:
            self._links = 0
            engine._queue_callback(partial(self.fail, link._exc))
            return
        self._links -= 1
        if not self._links:
            engine.call_at(engine.now + self._latency, self.succeed)

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
        done = FabricTransfer(self.engine, src, dst, nbytes, self.config.rdma_latency)
        self.links[src].egress.transfer(nbytes, tag=tag).callbacks.append(done._on_link)
        self.links[dst].ingress.transfer(nbytes, tag=tag).callbacks.append(done._on_link)
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
            trackers = (
                [lp.egress.utilization]
                if kinds is None
                else [
                    lp.egress.utilization_by_kind[k]
                    for k in kinds
                    if k in lp.egress.utilization_by_kind
                ]
            )
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
