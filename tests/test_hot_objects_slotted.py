"""The per-chunk and per-copy objects of the checkpoint path carry no
instance ``__dict__``.

Every rank builds one :class:`Chunk` per checkpoint variable, and every
copy builds a :class:`CopyPlan` (with a :class:`Payload`) and moves
bytes through flows.  Under CPython 3.11 a plain class shares dict keys
for at most 29 instance attributes: the 31-attribute ``Chunk`` had a
1,584-byte instance dict (296 bytes at 29 attributes) and took 2.2x as
long to build.  A new ``Chunk`` attribute needs a slot, or this test
fails.
"""

import pytest

from repro.alloc import NVAllocator
from repro.alloc.arena import Allocation
from repro.alloc.chunk import Chunk
from repro.config import PrecopyPolicy
from repro.core import make_standalone_context
from repro.core.codec import Payload
from repro.core.copystep import CopyPlan, CopyStep
from repro.core.destination import NVMArenaDestination
from repro.memory.nvmm import NvmRegion
from repro.memory.page import StalePageMap
from repro.sim.resources import BandwidthResource, FlowHandle, TransferEvent


def _instances():
    ctx = make_standalone_context(name="slots")
    alloc = NVAllocator("r0", ctx.nvmm, ctx.dram, phantom=True)
    chunk = alloc.nvalloc("a", 3 * 4096)
    plan = CopyStep(ctx, PrecopyPolicy(mode="none"), actor="r0").plan(
        chunk, NVMArenaDestination(ctx, alloc)
    )
    bw = BandwidthResource(ctx.engine, 1e9)
    event = bw.transfer(4096)
    return {
        Chunk: chunk,
        Payload: plan.payload,
        CopyPlan: plan,
        Allocation: alloc.arena.alloc(4096),
        NvmRegion: chunk.versions[0],
        StalePageMap: StalePageMap(4096, 2),
        FlowHandle: next(iter(bw._flows.values())),
        TransferEvent: event,
    }


@pytest.mark.parametrize(
    "cls",
    [Chunk, Payload, CopyPlan, Allocation, NvmRegion, StalePageMap, FlowHandle,
     TransferEvent],
    ids=lambda cls: cls.__name__,
)
def test_hot_per_chunk_objects_have_no_instance_dict(cls):
    obj = _instances()[cls]
    assert type(obj) is cls
    assert not hasattr(obj, "__dict__"), f"{cls.__name__} has an instance __dict__"


def test_unset_content_novelty_reads_as_the_codec_default():
    from repro.core.codec import DEFAULT_NOVELTY, ensure_content_model

    chunk = _instances()[Chunk]
    assert getattr(chunk, "content_novelty", DEFAULT_NOVELTY) == DEFAULT_NOVELTY
    assert ensure_content_model(chunk).novelty == DEFAULT_NOVELTY
    chunk.content_novelty = 0.05
    chunk._content = None
    assert ensure_content_model(chunk).novelty == 0.05
