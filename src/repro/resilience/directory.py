"""The buddy directory: who checkpoints to whom, *right now*.

:class:`~repro.net.topology.Topology` gives the static cross-rack
pairing; the directory layers live state on top — which nodes are
currently failed, which pairings have been repaired — and implements
the re-pairing policy for orphans (a node whose buddy died):

* prefer a **healthy** node in a **different rack** (the same placement
  rule the static pairing follows);
* fall back to any healthy node if no cross-rack candidate exists;
* never the node itself, never a failed node;
* among equals, prefer nodes serving the fewest source nodes (spread
  the re-paired load), then topology order — fully deterministic;
* optionally capacity-gated: hosting a second node's remote copies
  roughly doubles the buddy's NVM footprint, so callers pass a
  ``fits(orphan, candidate)`` predicate and candidates that cannot
  hold the orphan's copies are skipped.

``repair`` returns ``None`` when no healthy candidate exists (e.g. a
2-node cluster whose only peer is being replaced); callers re-try after
the replacement comes back.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..net.topology import Topology

__all__ = ["BuddyDirectory"]


class BuddyDirectory:
    """Live buddy pairing over a static topology."""

    def __init__(self, topology: Topology, nodes: Optional[List[int]] = None) -> None:
        self.topology = topology
        #: nodes participating in buddy pairing (defaults to all)
        self.nodes: List[int] = list(nodes) if nodes is not None else list(
            range(topology.n_nodes)
        )
        self._buddy: Dict[int, int] = {
            n: topology.buddy_among(n, self.nodes) for n in self.nodes
        }
        self._failed: Set[int] = set()
        #: re-pairings performed, as (orphan, old_buddy, new_buddy)
        self.repairs: List[tuple] = []

    # ------------------------------------------------------------------
    # State.
    # ------------------------------------------------------------------

    def buddy_of(self, node: int) -> int:
        return self._buddy[node]

    def orphans_of(self, node: int) -> List[int]:
        """Nodes currently checkpointing *to* the given node."""
        return sorted(n for n, b in self._buddy.items() if b == node and n != node)

    def is_healthy(self, node: int) -> bool:
        return node not in self._failed

    def mark_failed(self, node: int) -> None:
        self._failed.add(node)

    def mark_recovered(self, node: int) -> None:
        self._failed.discard(node)

    def bind(self, node: int, buddy: int) -> None:
        """Record the pairing *node*'s helper was built with — the
        helpers are the source of truth, the directory mirrors them."""
        self._buddy[node] = buddy

    # ------------------------------------------------------------------
    # Re-pairing.
    # ------------------------------------------------------------------

    def _load(self, node: int) -> int:
        return sum(1 for b in self._buddy.values() if b == node)

    def candidates_for(self, node: int) -> List[int]:
        """Healthy re-pair candidates, best first."""
        topo = self.topology
        cands = [m for m in self.nodes if m != node and self.is_healthy(m)]
        cands.sort(
            key=lambda m: (
                # cross-rack first (0 sorts before 1)
                0 if topo.rack_of(m) != topo.rack_of(node) else 1,
                self._load(m),
                (m - node) % topo.n_nodes,
            )
        )
        return cands

    def repair(self, node: int, fits=None) -> Optional[int]:
        """Re-pair *node* to the best healthy candidate; returns the new
        buddy id (possibly unchanged if the current buddy is healthy),
        or ``None`` when no healthy candidate exists (or none passes
        the optional ``fits(node, candidate)`` capacity gate)."""
        current = self._buddy.get(node)
        if current is not None and self.is_healthy(current) and current != node:
            return current
        cands = self.candidates_for(node)
        if fits is not None:
            cands = [c for c in cands if fits(node, c)]
        if not cands:
            return None
        new_buddy = cands[0]
        self.repairs.append((node, current, new_buddy))
        self._buddy[node] = new_buddy
        return new_buddy

    # ------------------------------------------------------------------
    # Invariants (the pairing property test's oracle).
    # ------------------------------------------------------------------

    def check_invariants(self) -> List[str]:
        """Structural invariants that must hold after any repair sweep:
        no node is its own buddy (unless alone), and every *healthy*
        node with a healthy candidate available is paired with a
        healthy buddy.  Returns human-readable violations."""
        problems: List[str] = []
        for n, b in self._buddy.items():
            if b == n and len(self.nodes) > 1:
                problems.append(f"node {n} is its own buddy")
        for n in self.nodes:
            if not self.is_healthy(n):
                continue
            b = self._buddy.get(n)
            if b is not None and self.is_healthy(b):
                continue
            # unpaired or paired with a failed buddy: only a violation
            # if a repair could fix it
            if self.candidates_for(n):
                problems.append(
                    f"healthy node {n} has no pairing"
                    if b is None
                    else f"healthy node {n} paired with failed buddy {b}"
                )
        return problems
