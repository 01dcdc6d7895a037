"""The cluster builder: engine + topology + fabric + populated nodes.

Mirrors the paper's testbed by default (8 nodes x 12 cores, 40 Gb/s
IB) but everything scales: rank count, NVM bandwidth (the Fig. 7-9
x-axis), intervals, pre-copy policy.
"""

from __future__ import annotations

from typing import List, Optional

from ..apps.base import ApplicationModel
from ..config import CheckpointConfig, ClusterConfig
from ..core.destination import PfsDestination
from ..core.remote import RemoteHelper
from ..errors import ClusterError
from ..net.interconnect import Fabric
from ..net.topology import Topology
from ..sim.engine import Engine
from ..sim.rng import RngStreams
from .node import ClusterNode, RankState

__all__ = ["Cluster"]


class Cluster:
    """A fully wired simulated testbed."""

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        *,
        nvm_write_bandwidth: Optional[float] = None,
        seed: int = 0,
    ) -> None:
        self.config = config or ClusterConfig()
        self.engine = Engine()
        self.rng = RngStreams(seed)
        self.topology = Topology(self.config.nodes)
        self.fabric = Fabric(self.engine, self.config.nodes)
        self.nodes: List[ClusterNode] = [
            ClusterNode(
                i,
                self.engine,
                self.config.node,
                nvm_write_bandwidth=nvm_write_bandwidth,
            )
            for i in range(self.config.nodes)
        ]
        self.app: Optional[ApplicationModel] = None
        self.ckpt_config: Optional[CheckpointConfig] = None
        # the build recipe, kept so a replacement node (hard-failure
        # recovery) is populated exactly like the original
        self._n_nodes = 0
        self.pfs = None
        self._compression = None
        self._built = False

    # ------------------------------------------------------------------
    # Population.
    # ------------------------------------------------------------------

    def build(
        self,
        app: ApplicationModel,
        ckpt_config: CheckpointConfig,
        *,
        ranks_per_node: Optional[int] = None,
        n_nodes_used: Optional[int] = None,
        with_remote: bool = True,
        pfs=None,
        compression=None,
    ) -> "Cluster":
        """Distribute ranks over nodes and attach checkpoint machinery.

        ``ranks_per_node`` defaults to the node's core count, minus one
        core reserved for the checkpoint helper when remote
        checkpointing is on (the paper dedicates a core to the helper).

        ``pfs`` (a :class:`repro.baselines.pfs.PfsModel`) switches the
        coordinated checkpoints to the traditional PFS path: every rank
        writes through the globally shared I/O resource instead of its
        node-local NVM (the baseline the paper's introduction motivates
        against)."""
        if self._built:
            raise ClusterError("cluster already built")
        self.app = app
        self.ckpt_config = ckpt_config
        n_nodes = n_nodes_used or self.config.nodes
        if n_nodes > self.config.nodes:
            raise ClusterError(f"{n_nodes} nodes requested, only {self.config.nodes} exist")
        if ranks_per_node is None:
            ranks_per_node = self.config.node.cores - (1 if with_remote else 0)
        self._n_nodes = n_nodes
        self.pfs = pfs
        self._compression = compression
        for node in self.nodes[:n_nodes]:
            first = node.node_id * ranks_per_node
            self.populate(node, range(first, first + ranks_per_node))
        if with_remote:
            for node in self.nodes[:n_nodes]:
                self.attach_helper(
                    node, self.topology.buddy_among(node.node_id, range(n_nodes))
                )
        self._built = True
        return self

    def populate(self, node: ClusterNode, rank_indices) -> None:
        """Create *node*'s ranks from the build recipe — at build time,
        and again on replacement hardware after a hard failure."""
        destination_factory = None
        if self.pfs is not None:
            destination_factory = lambda ctx, rank, alloc: PfsDestination(
                self.pfs, rank, ctx, alloc
            )
        neighbors = [
            n
            for n in self.topology.neighbors(node.node_id, degree=2)
            if n < self._n_nodes
        ]
        for rank_index in rank_indices:
            node.add_rank(
                rank_index,
                self.app,
                self.ckpt_config,
                fabric=self.fabric,
                neighbors=neighbors,
                destination_factory=destination_factory,
            )

    def attach_helper(self, node: ClusterNode, buddy_id: int) -> RemoteHelper:
        """Give *node* its remote helper, paired with *buddy_id*, and
        feed the helper's stream queue from each rank's local
        checkpoints (the remote stream's prediction rhythm follows
        them)."""
        helper = node.helper = RemoteHelper(
            node.node_id,
            node.ctx,
            self.fabric,
            buddy_id,
            self.nodes[buddy_id].ctx,
            [s.allocator for s in node.ranks],
            self.ckpt_config,
            compression=self._compression,
        )
        for state in node.ranks:
            state.checkpointer.on_complete.append(
                lambda stats, rank=state.rank: helper.notify_local_checkpoint(rank)
            )
        return helper

    # ------------------------------------------------------------------
    # Access.
    # ------------------------------------------------------------------

    @property
    def active_nodes(self) -> List[ClusterNode]:
        return [n for n in self.nodes if n.ranks]

    def all_ranks(self) -> List[RankState]:
        out: List[RankState] = []
        for node in self.nodes:
            out.extend(node.ranks)
        return out

    @property
    def n_ranks(self) -> int:
        return sum(len(n.ranks) for n in self.nodes)

    def node_of_rank(self, rank: str) -> ClusterNode:
        for node in self.nodes:
            for s in node.ranks:
                if s.rank == rank:
                    return node
        raise ClusterError(f"unknown rank {rank!r}")

    def helpers(self) -> List[RemoteHelper]:
        return [n.helper for n in self.nodes if n.helper is not None]

    # ------------------------------------------------------------------
    # Aggregate accounting.
    # ------------------------------------------------------------------

    def checkpoint_bytes(self) -> int:
        return sum(n.checkpoint_bytes for n in self.nodes)
