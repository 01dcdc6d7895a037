"""Verdicts and exit status of ``perfbench compare``."""

import copy
import json

from perfbench import metrics
from perfbench.compare import compare, main, verdict


def test_verdict_directions_and_bounds():
    assert verdict(1.0, 1.05, 0.10, "lower") == "within"
    assert verdict(1.0, 1.11, 0.10, "lower") == "worse"
    assert verdict(1.0, 0.85, 0.10, "lower") == "better"
    assert verdict(1.0, 0.85, 0.10, "higher") == "worse"
    assert verdict(1.0, None, 0.10, "lower") == "unresolved"
    assert verdict(0.0, 0.0, 0.10, "lower") == "within"


def _result(seed=1):
    spec = metrics.load_spec()
    values = {m["name"]: 1.0 for m in spec["end_to_end"]}
    run = {"metrics": values, "digest": "d", "attempted": 42, "failed": 0}
    return {"seed": seed, "workloads": {"lammps-codec-page": {"end_to_end": run}}}


def _verdicts(base, cand):
    return {row["metric"]: row["verdict"] for row in compare(base, cand)}


def test_simulated_metrics_are_held_to_identity_whatever_the_seed():
    base, cand = _result(), _result()
    run = cand["workloads"]["lammps-codec-page"]["end_to_end"]
    run["metrics"]["sim_ckpt_gb"] = 1.0 + 1e-6
    run["metrics"]["pass_wall_s.p50"] = 1.05
    got = _verdicts(base, cand)
    assert got["sim_ckpt_gb"] == "worse"
    assert got["pass_wall_s.p50"] == "within"
    assert got["record_digest"] == "within"
    other_seed = copy.deepcopy(cand)
    other_seed["seed"] = 2
    got = _verdicts(base, other_seed)
    assert got["sim_ckpt_gb"] == "worse"
    assert got["record_digest"] == "within"


def test_failed_passes_and_changed_digest_are_worse():
    base, cand = _result(), _result()
    run = cand["workloads"]["lammps-codec-page"]["end_to_end"]
    run["failed"], run["digest"] = 1, "e"
    got = _verdicts(base, cand)
    assert got["failed_share"] == "worse" and got["record_digest"] == "worse"


def test_main_exits_nonzero_only_on_worse(tmp_path, capsys):
    base, cand = _result(), _result()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(cand))
    assert main(str(a), str(b)) == 0
    cand["workloads"]["lammps-codec-page"]["end_to_end"]["metrics"]["pass_wall_s.p50"] = 2.0
    b.write_text(json.dumps(cand))
    assert main(str(a), str(b)) == 1
    assert "worse" in capsys.readouterr().out
