"""The usage meter's series, made on read from its rate log, must be
the series the eager tracker wrote: ``EagerMeter`` below notes a rate
change the way the resource did before the log — walk the flows,
``record`` on the total and on every kind — and every seeded program
must leave both with ``==`` sample lists, whenever the series are read.
The same programs on a resource with no meter must finish every flow at
the same instant and move the same bytes: a meter only watches."""

import random

import pytest

from repro.errors import SimulationError, TransferCancelled
from repro.sim.engine import Engine
from repro.sim.resources import BandwidthResource, UsageMeter, UtilizationTracker

KINDS = ("app", "lckpt", "precopy", "rckpt", "restart")
TAGS = tuple(f"r{rank}:{kind}" for rank in range(3) for kind in KINDS) + ("", "bare")


class EagerMeter(UsageMeter):
    """The reference: every rate change is recorded on the spot."""

    def __init__(self, resource: BandwidthResource) -> None:
        super().__init__(resource)
        self.resource = resource
        self.eager_total = UtilizationTracker()
        self.eager_by_kind = {}

    utilization = property(lambda self: self.eager_total)
    utilization_by_kind = property(lambda self: self.eager_by_kind)

    def note_rate(self, now: float, n_flows: int, per_flow: float) -> None:
        bw = self.resource
        assert now == bw.engine.now
        self.eager_total.record(now, bw.current_rate())
        n = len(bw._flows)
        assert (n_flows, per_flow) == (n, bw._flow_rate(n) if n else 0.0)
        counts = {}
        for f in bw._flows.values():
            kind = f.tag.rsplit(":", 1)[-1] if f.tag else ""
            counts[kind] = counts.get(kind, 0) + 1
        for kind, tracker in self.eager_by_kind.items():
            tracker.record(now, counts.pop(kind, 0) * per_flow)
        for kind, count in counts.items():
            tracker = UtilizationTracker()
            tracker.record(now, count * per_flow)
            self.eager_by_kind[kind] = tracker


def make_resource(engine: Engine, seed: int, meter=UsageMeter):
    """One of six resource shapes, metered by *meter* (``None``: not
    metered); every third is so slow (100 B/s) that one ulp of a rate is
    below the tracker's tolerance."""
    capacity = 100.0 if seed % 3 == 2 else 2.0e9
    shape = seed % 6
    per_flow_cap = capacity * 0.4 if shape in (1, 2, 4) else None
    capacity_fn = None
    if shape in (3, 4, 5):
        capacity_fn = lambda n: capacity / (1.0 + 0.07 * (n - 1))  # noqa: E731
    bw = BandwidthResource(
        engine, capacity, per_flow_cap=per_flow_cap, name="bus", capacity_fn=capacity_fn
    )
    if meter is not None:
        meter(bw)
    return bw


def snapshot(bw):
    if bw.meter is None:
        return None
    return (
        list(bw.utilization.samples),
        [(kind, list(t.samples)) for kind, t in bw.utilization_by_kind.items()],
    )


def run_program(meter, seed: int, read_midway: bool):
    """Run the seeded program on a resource metered by *meter* (a
    :class:`UsageMeter` class, or ``None``); returns the series
    snapshots taken (mid-run reads, then the end), the completion log
    and the resource.  The program draws nothing from the resource, so
    every meter sees the same calls at the same times."""
    rng = random.Random(seed)
    engine = Engine()
    bw = make_resource(engine, seed, meter)
    second = bw.capacity  # bytes one lone uncapped flow moves per second
    snapshots, finished = [], []

    def size() -> float:
        draw = rng.random()
        if draw < 0.15:
            return second * 1e-10  # dust: under a nanosecond even when shared
        if draw < 0.25:
            return 0.0
        return second * rng.choice((0.05, 0.1, 0.1, 0.25, 0.5))

    def worker(wid: int):
        # back-to-back transfers: the next joins at the timestamp the
        # previous one left at
        tag = TAGS[wid % len(TAGS)]
        for step in range(rng.randrange(3, 9)):
            try:
                took = yield bw.transfer(size(), tag=tag)
                finished.append((wid, step, engine.now, took))
            except TransferCancelled:
                finished.append((wid, step, engine.now, None))
            if rng.random() < 0.3:
                yield engine.timeout(rng.choice((0.05, 0.1, 0.1, 0.2)))

    def chaos():
        for _ in range(rng.randrange(6, 14)):
            yield engine.timeout(rng.choice((0.05, 0.1, 0.1, 0.15)))
            for _ in range(rng.randrange(1, 4)):  # several ops at one timestamp
                op = rng.randrange(7)
                if op == 0:
                    bw.cancel_tag(rng.choice(TAGS))
                elif op == 1:
                    kind = rng.choice(KINDS)
                    bw.cancel_matching(lambda tag: tag.endswith(kind))
                elif op == 2 and rng.random() < 0.3:
                    bw.cancel_matching()
                elif op in (3, 4):
                    batch = [(size(), rng.choice(TAGS)) for _ in range(rng.randrange(1, 5))]
                    if rng.random() < 0.15:  # a rejected batch leaves no flow behind
                        batch.insert(rng.randrange(len(batch) + 1), (-1.0, rng.choice(TAGS)))
                        flows = bw.active_flows
                        with pytest.raises(SimulationError):
                            bw.transfer_many(batch)
                        assert bw.active_flows == flows
                    else:
                        bw.transfer_many(batch)
                elif op == 5:
                    bw.transfer(size(), tag=rng.choice(TAGS))
                elif read_midway:
                    snapshots.append(snapshot(bw))

    for wid in range(rng.randrange(2, 6)):
        engine.process(worker(wid))
    engine.process(chaos())
    engine.run()
    assert bw.active_flows == 0
    snapshots.append(snapshot(bw))
    snapshots.append(snapshot(bw))  # a second read changes nothing
    return snapshots, finished, bw


@pytest.mark.parametrize("read_midway", (False, True), ids=("read-at-end", "read-midway"))
@pytest.mark.parametrize("seed", range(240))
def test_series_equal_the_eager_reference(seed, read_midway):
    got, got_finished, _ = run_program(UsageMeter, seed, read_midway)
    want, want_finished, _ = run_program(EagerMeter, seed, read_midway)
    assert got_finished == want_finished
    assert len(got) == len(want)
    for (total, by_kind), (want_total, want_by_kind) in zip(got, want):
        assert total == want_total
        assert by_kind == want_by_kind  # same kinds, same order, same samples
    assert got[-1] == got[-2]


@pytest.mark.parametrize("seed", range(240))
def test_unmetered_resource_moves_flows_like_a_metered_one(seed):
    _, metered, bw = run_program(UsageMeter, seed, True)
    _, bare, bare_bw = run_program(None, seed, False)
    assert bare == metered  # every completion, at the same instant
    assert bare_bw.total_bytes == bw.total_bytes
    assert bare_bw.meter is None
    with pytest.raises(SimulationError, match="meters no usage"):
        bare_bw.utilization
    with pytest.raises(SimulationError, match="meters no usage"):
        bare_bw.bytes_by_tag


def test_programs_cover_what_they_claim():
    """The seeds above do exercise cancels, the slow-rate regime and
    same-timestamp notes that end where they started (the eager tracker
    leaves a sample there that repeats its predecessor's value)."""
    repeats = cancelled = slow = 0
    for seed in range(240):
        snaps, finished, bw = run_program(UsageMeter, seed, False)
        total = snaps[-1][0]
        repeats += sum(1 for a, b in zip(total, total[1:]) if a[1] == b[1])
        cancelled += sum(1 for *_, took in finished if took is None)
        slow += not bw.meter._merge_notes
    assert repeats > 50 and cancelled > 50 and slow == 80


@pytest.mark.parametrize("seed", [s for s in range(60) if s % 3 != 2])
def test_unread_log_holds_one_note_per_timestamp(seed):
    rng = random.Random(seed)
    engine = Engine()
    bw = make_resource(engine, seed)

    def worker(tag):
        for _ in range(20):
            yield bw.transfer(bw.capacity * rng.choice((0.05, 0.1, 1e-10)), tag=tag)

    for tag in TAGS[:4]:
        engine.process(worker(tag))
    engine.run()
    times = [note[0] for note in bw.meter._rate_log]
    assert len(times) >= 10
    assert len(times) == len(set(times))
    # reading folds the log away and keeps one note to merge against
    assert bw.utilization.samples
    assert len(bw.meter._rate_log) == 1


def test_transfer_event_names_its_resource(engine):
    bw = BandwidthResource(engine, 100.0, name="nvm0")
    assert "nvm0.transfer(250)" in repr(bw.transfer(250.0))
    assert "timeout(1.5)" in repr(engine.timeout(1.5))
