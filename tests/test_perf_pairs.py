"""The claim rule of ``benchmarks/perf_pairs.py``: a gain counts only when
head wins at least 9 of 10 alternating pairs and its median beats the
base's by more than the base's interquartile range."""

from __future__ import annotations

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_spec = importlib.util.spec_from_file_location(
    "perf_pairs", os.path.join(ROOT, "benchmarks", "perf_pairs.py")
)
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)

BASE = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]


def test_a_clear_gain_is_a_claim():
    res = perf_pairs.verdict(BASE, [b - 1.0 for b in BASE], lower_is_better=True)
    assert res["won"] == 10 and res["gap"] > res["iqr"] and res["claim"]


def test_eight_pairs_won_is_not_a_claim():
    head = [b - 1.0 for b in BASE[:8]] + [b + 1.0 for b in BASE[8:]]
    res = perf_pairs.verdict(BASE, head, lower_is_better=True)
    assert res["won"] == 8 and not res["claim"]


def test_a_gap_inside_the_base_spread_is_not_a_claim():
    res = perf_pairs.verdict(BASE, [b - 0.01 for b in BASE], lower_is_better=True)
    assert res["won"] == 10 and res["gap"] < res["iqr"] and not res["claim"]


def test_direction_follows_the_metric():
    higher = [b + 1.0 for b in BASE]
    assert perf_pairs.verdict(BASE, higher, lower_is_better=False)["claim"]
    assert not perf_pairs.verdict(BASE, higher, lower_is_better=True)["claim"]


def test_identical_runs_win_nothing():
    res = perf_pairs.verdict(BASE, list(BASE), lower_is_better=True)
    assert res["won"] == 0 and res["tied"] == 10 and not res["claim"]


def test_every_run_compiles_from_source_in_a_fresh_pycache(monkeypatch):
    seen = []

    def fake_run(cmd, cwd, env, stdout, text):
        prefix = env["PYTHONPYCACHEPREFIX"]
        seen.append((env["PYTHONDONTWRITEBYTECODE"], prefix, os.listdir(prefix)))
        line = '{"correct": true, "failed": 0, "metrics": {"setup_s": {"value": 0.3}}}'
        return perf_pairs.subprocess.CompletedProcess(cmd, 0, stdout=line + "\n")

    monkeypatch.setattr(perf_pairs.subprocess, "run", fake_run)
    for seed in (1, 2):
        assert perf_pairs.measure(ROOT, "lammps-nopolicy-local", seed) == {"setup_s": 0.3}
    (flag_a, prefix_a, listed_a), (flag_b, prefix_b, listed_b) = seen
    assert flag_a == flag_b == "1"
    assert listed_a == listed_b == []
    assert prefix_a != prefix_b
    assert not os.path.exists(prefix_a) and not os.path.exists(prefix_b)


def test_pairs_alternate_their_order_and_keep_each_side_apart():
    calls = []

    def run(checkout, i):
        calls.append((checkout, i))
        return f"{checkout}{i}"

    runs = perf_pairs.alternate(run, "B", "H", 3)
    assert calls == [("B", 0), ("H", 0), ("H", 1), ("B", 1), ("B", 2), ("H", 2)]
    assert runs == {"base": ["B0", "B1", "B2"], "head": ["H0", "H1", "H2"]}
