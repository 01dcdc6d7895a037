"""The crash-point call sites: a static audit and a count contract.

Instrumented layers call ``fire`` only under ``if ARMED:`` (the list of
installed injectors), so an unarmed run never reaches ``fire`` and its
registry check.  A misspelled point name would then surface only in
the fault tests, so the AST of ``src/repro`` is audited here instead:
every ``fire`` call names a registered point as a string literal and
sits directly under the guard, and every registered point has a call
site.

The count tests pin what the guard buys and what it keeps, on the
standalone 31-chunk phantom LAMMPS rank of ``benchmarks/chunk_cost.py``
in mode ``none``: an unarmed coordinated checkpoint enters ``fire``
zero times, and a passive injector installed between two checkpoints
sees every hit of the second one.
"""

from __future__ import annotations

import ast
import collections
import importlib
import importlib.util
import os

import pytest

from repro.config import PrecopyPolicy
from repro.core import LocalCheckpointer
from repro.faults import crashpoints

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")


def _is_fire(call: ast.Call) -> bool:
    func = call.func
    return (isinstance(func, ast.Name) and func.id == "fire") or (
        isinstance(func, ast.Attribute) and func.attr == "fire"
    )


def _is_guard(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Name)
        and node.test.id == "ARMED"
    )


def _scan():
    """Every ``fire`` call under ``src/repro``: (module, line, first
    argument node, whether the call statement sits in the body of an
    ``if ARMED:``)."""
    sites = []
    for dirpath, _, files in os.walk(SRC):
        for fname in sorted(files):
            if not fname.endswith(".py"):
                continue
            path = os.path.join(dirpath, fname)
            rel = os.path.relpath(path, os.path.dirname(SRC))
            module = rel[: -len(".py")].replace(os.sep, ".")
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            parent = {}
            for node in ast.walk(tree):
                for child in ast.iter_child_nodes(node):
                    parent[child] = node
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Call) and _is_fire(node)):
                    continue
                stmt = parent[node]
                holder = parent.get(stmt)
                guarded = (
                    isinstance(stmt, ast.Expr)
                    and _is_guard(holder)
                    and stmt in holder.body
                )
                arg = node.args[0] if node.args else None
                sites.append((module, node.lineno, arg, guarded))
    return sites


SITES = _scan()
SITE_MODULES = sorted({module for module, *_ in SITES})


def _where(module, line):
    return f"{module}:{line}"


def test_the_scan_finds_the_instrumented_layers():
    assert len(SITES) >= 39
    assert {
        "repro.alloc.chunk",
        "repro.core.codec",
        "repro.core.engine",
        "repro.core.precopy",
        "repro.core.remote",
        "repro.core.restart",
        "repro.memory.persistence",
    } <= set(SITE_MODULES)


def test_every_fire_names_a_registered_point_as_a_literal():
    bad = []
    for module, line, arg, _ in SITES:
        if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
            bad.append(f"{_where(module, line)}: point name is not a string literal")
        elif arg.value not in crashpoints.REGISTRY:
            bad.append(f"{_where(module, line)}: unregistered point {arg.value!r}")
    assert not bad, "\n".join(bad)


def test_every_registered_point_has_a_call_site():
    fired = {
        arg.value for _, _, arg, _ in SITES
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
    }
    assert sorted(set(crashpoints.REGISTRY) - fired) == []


def test_every_fire_sits_directly_under_if_armed():
    unguarded = [_where(module, line) for module, line, _, ok in SITES if not ok]
    assert unguarded == []


@pytest.mark.parametrize("module", SITE_MODULES)
def test_each_site_module_reads_the_one_installed_list(module):
    """The guard tests the very list ``install`` mutates, and the call
    goes to the registry-checking ``fire``."""
    mod = importlib.import_module(module)
    assert mod.ARMED is crashpoints.ARMED
    assert mod.fire is crashpoints.fire


# ----------------------------------------------------------------------
# Counts on one rank's coordinated checkpoint.
# ----------------------------------------------------------------------

_spec = importlib.util.spec_from_file_location(
    "chunk_cost", os.path.join(ROOT, "benchmarks", "chunk_cost.py")
)
chunk_cost = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(chunk_cost)

N_CHUNKS = len(chunk_cost.SPECS)
PER_CHUNK = (
    "local.copy.before",
    "local.copy.after",
    "chunk.stage.mid",
    "local.stage.after",
    "local.commit.after_flip",
)
#: one coordinated step's hits of each point, as the unguarded calls made them
SECOND_STEP = {
    **{name: N_CHUNKS for name in PER_CHUNK},
    "local.begin": 1,
    "local.commit.before_data_flush": 1,
    "local.commit.after_data_flush": 1,
    "local.commit.before_meta_flush": 1,
    "local.commit.done": 1,
    "store.flush.before_meta": 2,
}


class _Tally(crashpoints.FaultInjector):
    """Passive observer: counts hits per point."""

    def __init__(self) -> None:
        self.hits = collections.Counter()

    def on_fire(self, name, info):
        self.hits[name] += 1


@pytest.fixture
def entries(monkeypatch):
    """Counts every entry into ``fire`` through any call-site module."""
    counter = collections.Counter()
    original = crashpoints.fire

    def counting(name, **info):
        counter[name] += 1
        return original(name, **info)

    for module in SITE_MODULES:
        monkeypatch.setattr(importlib.import_module(module), "fire", counting)
    return counter


def test_the_rank_is_the_lammps_layout():
    assert N_CHUNKS == 31
    assert sum(SECOND_STEP.values()) == 5 * 31 + 7 == 162


def test_an_unarmed_checkpoint_never_enters_fire(entries):
    ctx, alloc, _ = chunk_cost._allocated()
    ck = LocalCheckpointer(ctx, alloc, PrecopyPolicy(mode="none"))
    assert not crashpoints.ARMED
    entries.clear()  # the allocations' flush is not the step's
    stats = ck.checkpoint()
    assert stats.chunks_copied == N_CHUNKS
    assert sum(entries.values()) == 0  # unguarded, the step made 162 calls


def test_an_injector_installed_between_steps_sees_every_hit_of_the_next(entries):
    ctx, alloc, _ = chunk_cost._allocated()
    ck = LocalCheckpointer(ctx, alloc, PrecopyPolicy(mode="none"))
    ck.checkpoint()
    entries.clear()
    with crashpoints.install(_Tally()) as tally:
        stats = ck.checkpoint()
    assert stats.chunks_copied == N_CHUNKS
    assert dict(tally.hits) == SECOND_STEP
    assert entries == tally.hits  # each hit went through one fire call
    assert not crashpoints.ARMED
