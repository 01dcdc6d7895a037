"""The sweep tool and the facade's background-pre-copy API."""

import csv
import io

import numpy as np
import pytest

from repro.core import NVMCheckpoint
from repro.config import CheckpointConfig, PrecopyPolicy
from repro.exec import parse_sweeps, run_grid
from repro.tools.sweep import main as sweep_main
from repro.units import MB

BASE = [
    "--app", "synthetic", "--nodes", "2", "--ranks-per-node", "2",
    "--iterations", "2", "--local-interval", "10", "--remote-interval", "30",
    "--checkpoint-mb", "40", "--chunk-mb", "10", "--no-remote",
]


class TestParseSweeps:
    def test_basic(self):
        axes = parse_sweeps(["nvm-gbps=0.5,1.0", "mode=none,dcpcp"])
        assert axes == [("nvm-gbps", ["0.5", "1.0"]), ("mode", ["none", "dcpcp"])]

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError):
            parse_sweeps(["nvm-gbps"])

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            parse_sweeps(["mode="])


class TestRunSweep:
    def test_cross_product_size(self):
        records = run_grid(BASE, ["nvm-gbps=1.0,2.0", "mode=none,dcpcp"]).records
        assert len(records) == 4
        combos = {(r["sweep.nvm-gbps"], r["sweep.mode"]) for r in records}
        assert combos == {("1.0", "none"), ("1.0", "dcpcp"),
                          ("2.0", "none"), ("2.0", "dcpcp")}

    def test_records_carry_metrics(self):
        records = run_grid(BASE, ["mode=none"]).records
        r = records[0]
        assert r["policy"] == "none"
        assert r["total_time_s"] > r["ideal_time_s"] > 0
        assert "local.avg_blocking_s" in r

    def test_sweep_changes_outcomes(self):
        records = run_grid(BASE, ["mode=none,dcpcp"]).records
        by_mode = {r["sweep.mode"]: r for r in records}
        assert (by_mode["dcpcp"]["local.avg_blocking_s"]
                < by_mode["none"]["local.avg_blocking_s"])

    def test_csv_main(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = sweep_main(["--sweep", "mode=none,dcpcp", "--out", str(out), *BASE])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 2
        assert rows[0]["sweep.mode"] == "none"
        assert float(rows[0]["total_time_s"]) > 0

    def test_requires_sweep_axis(self):
        with pytest.raises(SystemExit):
            sweep_main(["--out", "-"])

    @pytest.mark.parametrize(
        "extra, named",
        [
            (["--app", "gtc"], "--app"),
            (["--nodes", "8"], "--nodes"),
            (["--workers", "1"], "--workers"),
            (["--cache-dir", "somewhere"], "--cache-dir"),
            (["--trace", "out.jsonl"], "--trace"),
            (["--no-cell-seeds"], "--no-cell-seeds"),
            (["stray"], "stray"),
        ],
    )
    def test_replay_rejects_options_it_would_drop(self, extra, named, capsys):
        """A replay runs no simulation; live-run options used to be
        dropped without a word.  Rejected before the trace is opened."""
        with pytest.raises(SystemExit) as exc:
            sweep_main(["--replay", "no-such-trace.jsonl",
                        "--sweep", "mode=none,dcpcp", *extra])
        assert exc.value.code == 2
        message = capsys.readouterr().err
        assert "--replay" in message and named in message


class TestFacadeBackgroundPrecopy:
    def test_advance_lets_precopy_overlap(self, store):
        cfg = CheckpointConfig(precopy=PrecopyPolicy(mode="cpc"))
        app = NVMCheckpoint("p", store=store, checkpoint_config=cfg, phantom=True)
        c = app.nvalloc("x", MB(50))
        app.start_background()
        c.touch()
        app.advance(5.0)  # compute phase: pre-copy runs underneath
        stats = app.nvchkptall()
        app.stop_background()
        assert stats.chunks_copied == 0  # already pre-copied
        assert app.checkpointer.total_precopy_bytes >= MB(50)

    def test_advance_validates(self, store):
        app = NVMCheckpoint("p", store=store)
        with pytest.raises(ValueError):
            app.advance(-1.0)

    def test_advance_returns_clock(self, store):
        app = NVMCheckpoint("p", store=store)
        t = app.advance(3.0)
        assert t == pytest.approx(3.0)
        assert app.now == pytest.approx(3.0)

    def test_real_data_precopy_through_facade(self, store):
        cfg = CheckpointConfig(precopy=PrecopyPolicy(mode="cpc"))
        app = NVMCheckpoint("p", store=store, checkpoint_config=cfg)
        c = app.nvalloc("x", MB(2))
        data = np.arange(MB(2) // 8, dtype=np.float64)
        app.start_background()
        c.write(0, data)
        app.advance(2.0)
        app.nvchkptall()
        app.stop_background()
        app.crash()
        app2, _ = NVMCheckpoint.restart("p", store)
        assert np.array_equal(app2.chunk("x").view(np.float64), data)
