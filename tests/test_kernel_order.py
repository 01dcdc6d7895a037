"""The simulation kernel resumes processes in the order the plain
reference kernel does (:mod:`tests.kernel_order_oracle`).

Seeded programs — the ``tests/test_rate_log.py`` shape — run on both
kernels: a handful of processes whose scripts sleep (zero and equal
delays included), race an event against a timeout, join timeouts with
``all_of``, move bytes through one shared bandwidth resource with a
flow-count ``capacity_fn`` (``transfer`` and ``transfer_many``), move
bytes across a three-node fabric while a script takes a node's
checkpoint path down, cancel flows, kill and abort each other, and
trigger shared events from another process.  Every resumption is
logged as ``(time, process, value or exception type)``; the two logs
must be equal for every seed.
"""

from __future__ import annotations

import random
from typing import Optional

import pytest

from repro.config import InterconnectConfig
from repro.errors import ProcessKilled
from repro.net.interconnect import CHECKPOINT_KINDS, Fabric
from repro.sim.engine import Engine
from repro.sim.resources import BandwidthResource

from tests import kernel_order_oracle as oracle

SEEDS = range(160)
N_NODES = 3
N_EVENTS = 4
CAPACITY = 1000.0  # bytes/s: sizes below finish on round times, and tie
LATENCY = InterconnectConfig().rdma_latency
DELAYS = (0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 1.5, 3.0)
SIZES = (0.0, 100.0, 250.0, 250.0, 500.0, 1000.0)
KINDS = ("app", "rckpt", "precopy", "resync")
OPS = (
    "sleep", "sleep", "xfer", "xfer", "xfer_many", "fabric", "fabric", "fabric",
    "race", "race_xfer", "all", "wait", "wait", "join", "trigger", "trigger",
    "cancel", "kill", "abort", "outage", "call_at",
)


def _capacity_fn(n: int) -> float:
    return CAPACITY / (1.0 + 0.25 * (n - 1))


def _shape(seed: int) -> dict:
    return {
        "per_flow_cap": CAPACITY * 0.4 if seed % 4 in (1, 3) else None,
        "capacity_fn": _capacity_fn if seed % 4 >= 2 else None,
    }


def real_kernel(seed: int):
    engine = Engine()
    bus = BandwidthResource(engine, CAPACITY, name="bus", **_shape(seed))
    fabric = Fabric(
        engine, N_NODES, InterconnectConfig(link_bandwidth=CAPACITY, efficiency=1.0)
    )
    return engine, bus, fabric


def oracle_kernel(seed: int):
    engine = oracle.Engine()
    bus = oracle.BandwidthResource(engine, CAPACITY, **_shape(seed))
    fabric = oracle.Fabric(engine, N_NODES, CAPACITY, LATENCY, CHECKPOINT_KINDS)
    return engine, bus, fabric


def _tag(rng: random.Random) -> str:
    return f"r{rng.randrange(3)}:{rng.choice(KINDS)}"


def draw_action(rng: random.Random, n_procs: int) -> tuple:
    op = rng.choice(OPS)
    if op == "sleep":
        return (op, rng.choice(DELAYS))
    if op == "xfer":
        return (op, rng.choice(SIZES), _tag(rng))
    if op == "xfer_many":
        return (op, [(rng.choice(SIZES), _tag(rng)) for _ in range(rng.randint(1, 4))])
    if op == "fabric":
        src, dst = rng.sample(range(N_NODES), 2)
        return (op, src, dst, rng.choice(SIZES), _tag(rng))
    if op in ("race", "race_xfer"):
        what = rng.randrange(N_EVENTS) if op == "race" else rng.choice(SIZES)
        return (op, what, rng.choice(DELAYS))
    if op == "all":
        return (op, [rng.choice(DELAYS) for _ in range(rng.randint(0, 3))])
    if op in ("wait", "trigger"):
        return (op, rng.randrange(N_EVENTS), rng.random() < 0.7)
    if op == "cancel":
        return (op, _tag(rng))
    if op in ("kill", "abort", "join"):
        return (op, rng.randrange(n_procs))
    if op == "outage":
        return (op, rng.randrange(N_NODES), rng.choice(DELAYS[2:]))
    return (op, rng.choice(DELAYS))  # call_at


def make_program(seed: int) -> list:
    """Per process: ``(stops_when_killed, actions)``."""
    rng = random.Random(seed)
    n_procs = rng.randint(3, 7)
    return [
        (rng.random() < 0.5, [draw_action(rng, n_procs) for _ in range(rng.randint(2, 10))])
        for _ in range(n_procs)
    ]


#: programs the seeds reach too rarely to be sure of
HAND_PROGRAMS = {
    # a fabric transfer failed by an outage fails one step after its
    # link flow does, as an AllOf join of the two flows would: the
    # second zero sleep of the outage's author resumes first
    "fabric-failure-lags-its-link": [
        (True, [("fabric", 0, 1, 1000.0, "r0:rckpt")]),
        (True, [("sleep", 0.5), ("outage", 0, 0.0), ("sleep", 0.0), ("sleep", 0.0)]),
    ],
}


def run_program(kernel, seed: int, program: Optional[list] = None) -> list:
    """Run seed's program (or *program*) on *kernel*; returns the
    resume log."""
    engine, bus, fabric = kernel(seed)
    events = [engine.event() for _ in range(N_EVENTS)]
    procs: list = []
    log: list = []

    def worker(pid: int, stops_when_killed: bool, actions: list):
        for act in actions:
            op = act[0]
            wait = None
            try:
                if op == "sleep":
                    wait = engine.timeout(act[1], "slept")
                elif op == "xfer":
                    wait = bus.transfer(act[1], tag=act[2])
                elif op == "xfer_many":
                    wait = engine.all_of(bus.transfer_many(act[1]))
                elif op == "fabric":
                    wait = fabric.transfer(*act[1:])
                elif op == "race":
                    wait = engine.any_of([events[act[1]], engine.timeout(act[2])])
                elif op == "race_xfer":
                    flow = bus.transfer(act[1], tag=f"r{pid}:race")
                    wait = engine.any_of([engine.timeout(act[2]), flow])
                elif op == "all":
                    wait = engine.all_of([engine.timeout(d) for d in act[1]])
                elif op == "wait":
                    wait = events[act[1]]
                elif op == "join":
                    wait = procs[act[1]]
                elif op == "trigger":
                    ev = events[act[1]]
                    if not ev.triggered:
                        ev.succeed(pid) if act[2] else ev.fail(ValueError(pid))
                elif op == "cancel":
                    log.append((engine.now, pid, bus.cancel_matching(lambda t: t == act[1])))
                elif op == "kill":
                    procs[act[1]].kill()
                elif op == "abort":
                    procs[act[1]].abort()
                elif op == "outage":
                    log.append((engine.now, pid, fabric.begin_outage(act[1])))
                    yield engine.timeout(act[2])
                    fabric.end_outage(act[1])
                else:
                    engine.call_at(engine.now + act[1], lambda: log.append((engine.now, f"cb{pid}")))
                if wait is not None:
                    value = yield wait
                    log.append((engine.now, pid, value))
            except ProcessKilled:
                log.append((engine.now, pid, "ProcessKilled"))
                if stops_when_killed:
                    return pid
            except Exception as exc:
                log.append((engine.now, pid, type(exc).__name__))
        return pid

    for pid, (stops, actions) in enumerate(program or make_program(seed)):
        procs.append(engine.process(worker(pid, stops, actions)))
    engine.run()
    log.append((engine.now, "end"))
    return log


@pytest.mark.parametrize("seed", SEEDS)
def test_resume_log_equals_the_reference_kernel(seed):
    assert run_program(real_kernel, seed) == run_program(oracle_kernel, seed)


@pytest.mark.parametrize("name", sorted(HAND_PROGRAMS))
def test_hand_made_program_resumes_like_the_reference_kernel(name):
    program = HAND_PROGRAMS[name]
    assert run_program(real_kernel, 0, program) == run_program(oracle_kernel, 0, program)


def test_programs_cover_what_they_claim():
    """The seeds do reach what the order depends on: same-time
    resumptions, cancelled flows, outages that refuse or tear down
    fabric transfers, killed processes and failed shared events."""
    seen = {"same_time": 0, "TransferCancelled": 0, "ProcessKilled": 0, "ValueError": 0}
    fabric_done = 0
    for seed in SEEDS:
        log = run_program(real_kernel, seed)
        seen["same_time"] += sum(1 for a, b in zip(log, log[1:]) if a[0] == b[0])
        for entry in log:
            if isinstance(entry[-1], str) and entry[-1] in seen:
                seen[entry[-1]] += 1
            fabric_done += entry[-1] is None  # nothing else resumes with None
    assert min(seen.values()) > 20, seen
    assert fabric_done > 50
