"""Cluster topology: node/rack layout and buddy assignment.

Remote checkpoints go to a *buddy* node in a different rack (§IV,
following Zheng et al.: one extra checkpoint level on a cross-rack
buddy drives unrecoverable-failure probability to ~1e-5 %).  The
topology provides a deterministic cross-rack pairing and neighbor
lists for application communication patterns.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..errors import ClusterError

__all__ = ["Topology"]


class Topology:
    """Nodes striped across racks, with cross-rack buddy pairing."""

    def __init__(self, n_nodes: int, n_racks: int = 2) -> None:
        if n_nodes < 1:
            raise ClusterError("need at least one node")
        if n_racks < 1:
            raise ClusterError("need at least one rack")
        if n_racks > n_nodes:
            n_racks = n_nodes
        self.n_nodes = n_nodes
        self.n_racks = n_racks
        #: striped placement: node i sits in rack i % n_racks
        self._rack_of: List[int] = [i % n_racks for i in range(n_nodes)]

    def rack_of(self, node: int) -> int:
        self._check(node)
        return self._rack_of[node]

    def nodes_in_rack(self, rack: int) -> List[int]:
        return [i for i in range(self.n_nodes) if self._rack_of[i] == rack]

    def buddy_of(self, node: int) -> int:
        """The remote-checkpoint destination for *node*: the next node
        (cyclically) in a *different* rack, or simply the next node if
        only one rack exists.  Deterministic and total: every node has
        a buddy != itself for n_nodes >= 2."""
        self._check(node)
        if self.n_nodes == 1:
            raise ClusterError("a single-node cluster has no buddy to checkpoint to")
        for step in range(1, self.n_nodes):
            cand = (node + step) % self.n_nodes
            if self.n_racks == 1 or self._rack_of[cand] != self._rack_of[node]:
                return cand
        return (node + 1) % self.n_nodes  # pragma: no cover - unreachable

    def buddy_among(self, node: int, participants: Sequence[int]) -> int:
        """:meth:`buddy_of` for a run that uses only *participants*:
        the static cross-rack buddy when it takes part, else the next
        participating node, cyclically (the node itself when alone)."""
        buddy = self.buddy_of(node)
        if buddy in participants:
            return buddy
        others = [m for m in participants if m != node]
        if not others:
            return node
        return min(others, key=lambda m: (m - node) % self.n_nodes)

    def buddies(self) -> Dict[int, int]:
        return {i: self.buddy_of(i) for i in range(self.n_nodes)}

    def neighbors(self, node: int, degree: int = 2) -> List[int]:
        """Ring neighbors for halo-exchange style communication."""
        self._check(node)
        if self.n_nodes == 1:
            return []
        out = []
        for d in range(1, degree // 2 + 1):
            out.append((node - d) % self.n_nodes)
            out.append((node + d) % self.n_nodes)
        return sorted(set(out) - {node})

    def _check(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ClusterError(f"node {node} outside [0, {self.n_nodes})")
