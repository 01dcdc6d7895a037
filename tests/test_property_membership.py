"""Property test: :class:`BuddyDirectory` invariants survive any
fail/recover sequence.

The directory is the single source of truth for who protects whom;
every failover path mutates it.  This drives it through arbitrary
operation sequences — mirroring how the cluster runner uses it
(orphans are repaired whenever their buddy fails) — and asserts
:meth:`BuddyDirectory.check_invariants` holds after every step: no
self-pairing, and every healthy node that *can* be protected *is*
paired with a healthy buddy.
"""

from hypothesis import given, settings, strategies as st

from repro.net.topology import Topology
from repro.resilience import BuddyDirectory

N_NODES = 6
OPS = ["fail", "recover"]

op_sequences = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(min_value=0, max_value=N_NODES - 1)),
    max_size=40,
)


def apply_op(d: BuddyDirectory, op: str, node: int) -> None:
    """One failure action, with the runner's semantics."""
    if op == "fail":
        d.mark_failed(node)
    elif op == "recover":
        d.mark_recovered(node)


def repair_sweep(d: BuddyDirectory) -> None:
    """What failover does continuously: re-pair every node whose buddy
    is unhealthy (in deterministic order)."""
    for n in sorted(d.nodes):
        if d.is_healthy(n):
            d.repair(n)


@settings(max_examples=120, deadline=None)
@given(ops=op_sequences)
def test_invariants_hold_after_any_sequence(ops):
    d = BuddyDirectory(Topology(N_NODES, 2), nodes=[0, 1, 2, 3])
    for op, node in ops:
        apply_op(d, op, node)
        repair_sweep(d)
        problems = d.check_invariants()
        assert not problems, f"after {op}({node}): {problems}"


def test_the_oracle_flags_an_orphan_left_unrepaired():
    d = BuddyDirectory(Topology(N_NODES, 2), nodes=[0, 1, 2, 3])
    buddy = d.buddy_of(0)
    d.mark_failed(buddy)
    assert d.check_invariants() == [f"healthy node 0 paired with failed buddy {buddy}"]
    d.repair(0)
    assert d.check_invariants() == []
