"""The aggregation of ``benchmarks/chunk_cost_pairs.py``: per operation,
the claim rule of ``perf_pairs.py`` on each side's run medians."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "benchmarks")

# the script imports its sibling perf_pairs, as it does when run from benchmarks/
sys.path.insert(0, BENCH)
try:
    _spec = importlib.util.spec_from_file_location(
        "chunk_cost_pairs", os.path.join(BENCH, "chunk_cost_pairs.py")
    )
    chunk_cost_pairs = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(chunk_cost_pairs)
finally:
    sys.path.remove(BENCH)

TABLE = """\
operation                               median us  (n=300)
nvalloc (with 1/31 of the flush)             16.4
coordinated checkpoint (31 chunks)          351.7
"""


def test_parse_reads_the_table_by_label():
    assert chunk_cost_pairs.parse(TABLE) == {
        "nvalloc (with 1/31 of the flush)": 16.4,
        "coordinated checkpoint (31 chunks)": 351.7,
    }


def test_summary_is_the_claim_rule_on_each_operation():
    base = [{"a": v, "b": 10.0} for v in (5.0, 7.0, 6.0, 9.0)]
    head = [{"a": v, "b": 10.0} for v in (4.0, 8.0, 5.0, 3.0)]
    a, b = chunk_cost_pairs.summarize(base, head)
    assert a["operation"] == "a"
    # p50 is the median of the run medians
    assert a["base"][1] == 6.5 and a["head"][1] == 4.5
    assert a["won"] == 3 and a["gap"] == 2.0
    assert a["iqr"] == a["base"][2] - a["base"][0] == 1.75
    # 3/4 pairs is under the 9/10 share
    assert a["gap"] > a["iqr"] and not a["claim"]
    # a tie is not a win
    assert b["operation"] == "b" and b["won"] == 0 and b["tied"] == 4 and not b["claim"]


def test_a_clear_gain_on_ten_pairs_is_a_claim():
    base = [{"a": 100.0 + i} for i in range(10)]
    head = [{"a": 90.0 + i} for i in range(10)]
    (a,) = chunk_cost_pairs.summarize(base, head)
    assert a["won"] == 10 and a["claim"]


def test_every_run_compiles_from_source_on_its_own_tree(monkeypatch):
    seen = []

    def fake_run(cmd, cwd, env, stdout, text):
        prefix = env["PYTHONPYCACHEPREFIX"]
        seen.append((cmd[-1], env["PYTHONPATH"], env["PYTHONDONTWRITEBYTECODE"], os.listdir(prefix)))
        return subprocess.CompletedProcess(cmd, 0, stdout=TABLE)

    monkeypatch.setattr(subprocess, "run", fake_run)
    assert chunk_cost_pairs.run("/base")["nvalloc (with 1/31 of the flush)"] == 16.4
    chunk_cost_pairs.run("/head")
    (script_a, path_a, flag_a, listed_a), (script_b, path_b, flag_b, listed_b) = seen
    # one script measures both trees; only the program under it differs
    assert script_a == script_b == chunk_cost_pairs.SCRIPT
    assert (path_a, path_b) == ("/base/src", "/head/src")
    assert flag_a == flag_b == "1" and listed_a == listed_b == []


def test_a_failed_run_is_an_error(monkeypatch):
    monkeypatch.setattr(
        subprocess, "run",
        lambda cmd, cwd, env, stdout, text: subprocess.CompletedProcess(cmd, 1, stdout=""),
    )
    with pytest.raises(RuntimeError, match="/base: .* exited 1"):
        chunk_cost_pairs.run("/base")
