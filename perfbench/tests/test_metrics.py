"""Percentile rule, layer arithmetic, and agreement with BENCHMARK.json."""

import pytest

from perfbench import metrics
from perfbench.layers import UNATTRIBUTED, flat_targets
from perfbench.spans import PassSpans
from perfbench.workloads import WORKLOADS


def test_percentile_rule_needs_ten_samples_beyond():
    assert metrics.allowed_percentiles(20) == [50]
    assert metrics.allowed_percentiles(39) == [50]
    assert metrics.allowed_percentiles(40) == [50, 75]


def test_percentile_metrics_follow_the_rule():
    samples = [float(i) for i in range(1, 41)]
    assert metrics.percentile_metrics("pass_wall_s", samples) == {
        "pass_wall_s.p50": pytest.approx(20.5),
        "pass_wall_s.p75": pytest.approx(30.25),
    }
    assert list(metrics.percentile_metrics("pass_wall_s", samples[:20])) == [
        "pass_wall_s.p50"
    ]


def test_many_samples_still_yield_exactly_the_declared_names():
    # a long run or a fast host collects 100+ passes; p90 must not appear
    declared = {m["name"] for m in metrics.load_spec()["end_to_end"]}
    for n in (150, 5000):
        got = metrics.percentile_metrics("pass_wall_s", [float(i) for i in range(n)])
        assert set(got) == {"pass_wall_s.p50", "pass_wall_s.p75"}
        assert set(got) <= declared


def test_percentile_interpolates_and_rejects_nothing():
    assert metrics.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert metrics.percentile([1.0, 2.0], 75) == pytest.approx(1.75)
    with pytest.raises(ValueError):
        metrics.percentile([], 50)


def _record(**over):
    record = {
        "overhead_fraction": 0.1, "local.avg_blocking_s": 2.0,
        "local.coordinated_gb": 1.0, "local.precopy_gb": 2.0,
        "remote.round_gb": 3.0, "remote.stream_gb": 4.0,
        "fabric.ckpt_peak_1s_mb": 5.0, "failures.recovery_s": 0.0,
        "resilience.transfer_retries": 0,
    }
    record.update(over)
    return record


def test_simulated_metrics_aggregate_mean_sum_max():
    got = metrics.simulated_metrics([
        _record(),
        _record(**{"overhead_fraction": 0.3, "fabric.ckpt_peak_1s_mb": 9.0,
                   "codec.logical_gb": 4.0, "codec.wire_gb": 1.0,
                   "codec.blocks_ref": 1, "codec.blocks_new": 3}),
    ])
    assert got["sim_overhead_fraction"] == pytest.approx(0.2)
    assert got["sim_blocking_s"] == pytest.approx(2.0)
    assert got["sim_ckpt_gb"] == pytest.approx(20.0)
    assert got["net.sim_ckpt_peak_1s_mb"] == 9.0
    assert got["core.codec.wire_over_logical"] == pytest.approx(0.25)
    assert got["core.codec.dedup_hit_rate"] == pytest.approx(0.25)
    assert metrics.simulated_metrics([_record()])["core.codec.wire_over_logical"] == 1.0


def test_layer_shares_and_unattributed_add_up_to_one():
    targets, owners = flat_targets()
    n = len(targets)

    def spans(scale):
        self_s = [scale * (1 + i % 7) * 1e-4 for i in range(n)]
        root = scale * 0.05
        return PassSpans(
            wall_s=sum(self_s) + root, root_self_s=root, self_s=self_s,
            spans=[2] * n, invocations=[1] * n,
            observed={metrics.EVENTS_TARGET: 1000.0},
        )

    out = metrics.layer_metrics(
        [spans(1.0), spans(1.3), spans(0.9)],
        reference_wall_s=[0.1, 0.1], event_wall_s=0.1, span_cost_us=0.5,
        simulated=metrics.simulated_metrics([_record()]),
        segments={}, facts={}, extras={},
    )
    shares = sum(v for k, v in out.items() if k.endswith(".share"))
    assert shares + out["trace.unattributed_share"] == pytest.approx(1.0)
    # unattributed = the root span's own time + the kernel loop's
    kernel = owners.index(UNATTRIBUTED)
    per_unit = 0.05 + (1 + kernel % 7) * 1e-4
    wall_per_unit = 0.05 + sum((1 + i % 7) * 1e-4 for i in range(n))
    assert out["trace.unattributed_share"] == pytest.approx(per_unit / wall_per_unit)
    assert out["sim.engine.events"] == 1000.0
    assert out["sim.engine.host_us_per_event"] == pytest.approx(100.0)
    assert out["core.policy.decides_per_precopy"] == pytest.approx(5.0)
    metrics.check_names("per_layer", out)


def test_benchmark_json_matches_the_code():
    spec = metrics.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["paths"] == ["perfbench"]
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    assert end_to_end["setup_s"]["unit"] == "s"
    assert end_to_end["setup_s"]["better"] == "lower"
    assert set(metrics.SIMULATED) <= set(end_to_end)
    assert all(end_to_end[name]["bound"] == 1e-9 for name in metrics.SIMULATED)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert end_to_end["setup_s"]["bound"] == max(
        m["bound"] for m in spec["end_to_end"]
    )
    assert 1 <= len(spec["per_layer"]) <= 128
    with pytest.raises(RuntimeError):
        metrics.check_names("end_to_end", ["setup_s"])
