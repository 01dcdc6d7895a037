"""Page-vs-chunk tracking granularity and the experiment CLI."""

import json

import pytest

from repro.config import PrecopyPolicy
from repro.exec.cell import build_parser, result_to_dict, run_experiment
from repro.tools.experiment import main
from repro.units import PAGE_SIZE, MB


class TestGranularity:
    def test_policy_validates_granularity(self):
        assert PrecopyPolicy(granularity="page").granularity == "page"
        with pytest.raises(ValueError):
            PrecopyPolicy(granularity="byte")

    def test_chunk_level_single_fault(self):
        from tests.test_alloc_chunk import make_chunk

        chunk, _ = make_chunk(nbytes=8 * PAGE_SIZE)
        chunk.mark_precopied("local")
        assert chunk.touch() == 1
        assert chunk.fault_count == 1

    def test_page_level_fault_per_page(self):
        from tests.test_alloc_chunk import make_chunk

        chunk, _ = make_chunk(nbytes=8 * PAGE_SIZE)
        chunk.page_granular_protection = True
        chunk.mark_precopied("local")
        assert chunk.touch() == 8  # one fault per page of the full write
        assert chunk.fault_count == 8

    def test_page_level_partial_write(self):
        from tests.test_alloc_chunk import make_chunk

        chunk, _ = make_chunk(nbytes=8 * PAGE_SIZE)
        chunk.page_granular_protection = True
        chunk.mark_precopied("local")
        assert chunk.touch(2 * PAGE_SIZE) == 2

    def test_paper_arithmetic_3s_per_gb(self):
        """§IV: 6-12 us per fault -> ~seconds per rewritten GB."""
        from repro.units import GB, pages_of

        faults = pages_of(GB(1))
        cost = faults * PrecopyPolicy().fault_cost
        assert 1.5 <= cost <= 3.2  # '3 sec for 1 GB'

    def test_checkpointer_wires_granularity(self):
        from repro.alloc import NVAllocator
        from repro.core import LocalCheckpointer, make_standalone_context

        ctx = make_standalone_context(name="g")
        alloc = NVAllocator("p0", ctx.nvmm, ctx.dram, phantom=True)
        alloc.nvalloc("a", MB(1))
        ck = LocalCheckpointer(ctx, alloc, PrecopyPolicy(granularity="page"))
        ck.start_background()
        assert alloc.chunk("a").page_granular_protection
        ck.stop_background()

    @pytest.mark.parametrize("background", [True, False], ids=["background", "no-background"])
    def test_page_protection_covers_chunks_allocated_after_start(self, background):
        """A page-granular engine protects every chunk per page,
        whether the chunk was allocated before or after
        ``start_background()``, and with or without that call."""
        import numpy as np

        from repro.config import CheckpointConfig
        from repro.core import NVMCheckpoint

        handle = NVMCheckpoint(
            "p0",
            checkpoint_config=CheckpointConfig(
                precopy=PrecopyPolicy(mode="dcpcp", granularity="page")
            ),
        )
        before = handle.nvalloc("before", MB(1))
        if background:
            handle.start_background()
        after = handle.nvalloc("after", MB(1))
        for chunk in (before, after):
            chunk.write(0, np.ones(chunk.nbytes, dtype=np.uint8))
        handle.nvchkptall()
        for chunk in (before, after):
            faults = chunk.fault_count
            chunk.write(0, np.full(chunk.nbytes, 2, dtype=np.uint8))
            assert chunk.fault_count - faults == MB(1) // PAGE_SIZE, chunk.name
        if background:
            handle.stop_background()


class TestCli:
    def _args(self, *extra):
        return build_parser().parse_args(
            [
                "--app", "synthetic", "--nodes", "2", "--ranks-per-node", "2",
                "--iterations", "2", "--local-interval", "10",
                "--remote-interval", "30", "--checkpoint-mb", "40",
                "--chunk-mb", "10", "--comm-mb", "10", *extra,
            ]
        )

    def test_run_experiment_returns_result(self):
        res = run_experiment(self._args())
        assert res.iterations == 2
        assert res.n_ranks == 4
        assert res.total_time > 0

    def test_result_to_dict_is_json_serializable(self):
        res = run_experiment(self._args())
        payload = json.dumps(result_to_dict(res))
        back = json.loads(payload)
        assert back["iterations"] == 2
        assert back["local"]["checkpoints"] == 8

    def test_main_writes_json(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(
            [
                "--app", "synthetic", "--nodes", "2", "--ranks-per-node", "2",
                "--iterations", "2", "--local-interval", "10",
                "--remote-interval", "30", "--checkpoint-mb", "40",
                "--chunk-mb", "10", "--no-remote", "--json", str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["remote"]["rounds"] == 0
        assert "execution time" in capsys.readouterr().out

    def test_main_timeline_flag(self, capsys):
        code = main(
            [
                "--app", "synthetic", "--nodes", "2", "--ranks-per-node", "2",
                "--iterations", "2", "--local-interval", "10",
                "--remote-interval", "30", "--checkpoint-mb", "40",
                "--chunk-mb", "10", "--no-remote", "--timeline",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "C=compute" in out

    def test_failure_injection_flags(self):
        res = run_experiment(self._args("--mtbf-local", "40", "--seed", "13"))
        assert res.iterations == 2
        assert res.soft_failures >= 1

    @pytest.mark.parametrize(
        "mtbfs",
        [
            ("--mtbf-local", "0", "--mtbf-remote", "100"),
            ("--mtbf-local", "100", "--mtbf-remote", "0"),
            ("--mtbf-local", "0"),
        ],
    )
    def test_zero_mtbf_fails_loudly(self, mtbfs):
        # 0 is not "unset": it must fail like a negative MTBF does, not
        # silently mean "never fails"
        with pytest.raises(ValueError, match="MTBF"):
            run_experiment(self._args(*mtbfs))

    def test_no_precopy_mode(self):
        res = run_experiment(self._args("--mode", "none", "--no-remote-precopy"))
        assert res.policy_mode == "none"
        assert not res.remote_precopy

    def test_page_granularity_flag_costs_faults(self):
        chunk_arm = run_experiment(self._args("--granularity", "chunk"))
        page_arm = run_experiment(self._args("--granularity", "page"))
        assert page_arm.fault_time_total > chunk_arm.fault_time_total


class TestCellCombinations:
    """The cell refuses, at config time, what it would silently ignore
    or cannot honour."""

    BASE = ["--app", "lammps", "--nodes", "2", "--ranks-per-node", "2", "--iterations", "4"]

    @pytest.mark.parametrize(
        "extra",
        [
            # without a remote tier: compression compresses nothing, and
            # a hard failure would fetch from a buddy holding no copy
            ("--no-remote", "--compress-ratio", "0.5"),
            ("--pfs-gbps", "4", "--compress-ratio", "0.5"),
            ("--no-remote", "--mtbf-remote", "60"),
            ("--pfs-gbps", "4", "--mtbf-remote", "60"),
            ("--no-remote", "--archive"),
            ("--pfs-gbps", "4", "--archive"),
            # --ideal checkpoints nothing, so it would drop these
            ("--ideal", "--mtbf-local", "60"),
            ("--ideal", "--mtbf-remote", "60"),
            ("--small-chunks", "96"),  # the LAMMPS model has no chunk layout to set
            ("--ideal", "--archive"),
            ("--ideal", "--compress-ratio", "0.5"),
            ("--ideal", "--pfs-gbps", "4"),
            ("--ideal", "--codec", "delta"),
            ("--ideal", "--copy-granularity", "page"),
            # values no run can honour: a NaN bandwidth never finishes a
            # transfer, a zero or NaN interval never schedules one, and
            # fewer than one iteration runs nothing at all
            ("--nvm-gbps", "nan"),
            ("--nvm-gbps", "0"),
            ("--pfs-gbps", "nan"),
            ("--pfs-gbps", "-4"),
            ("--nvm-capacity-gb", "inf"),
            ("--nvm-capacity-gb", "0"),
            ("--local-interval", "nan"),
            ("--local-interval", "-10"),
            ("--remote-interval", "0"),
            ("--remote-interval", "nan"),
            ("--iterations", "-1"),
            ("--iterations", "0"),
            # a scenario scripts its own failures over the remote tier
            ("--nodes", "4", "--scenario", "link-flap", "--mtbf-local", "60"),
            ("--nodes", "4", "--scenario", "link-flap", "--mtbf-remote", "60"),
            ("--nodes", "4", "--scenario", "link-flap", "--no-remote"),
            ("--nodes", "4", "--scenario", "link-flap", "--pfs-gbps", "4"),
            ("--nodes", "4", "--scenario", "link-flap", "--ideal"),
            # ... on the nodes it was written for
            ("--scenario", "elastic-clean"),
            # a codec and a compression model both define the wire
            # volume ...
            ("--codec", "delta", "--compress-ratio", "0.5"),
            # ... and values outside their option's domain, which the
            # cell could not build, or (--comm-mb) would run as if valid
            ("--compress-ratio", "0"),
            ("--compress-ratio", "1.5"),
            ("--compress-ratio", "nan"),
            ("--nodes", "0"),
            ("--ranks-per-node", "0"),
            ("--chunk-mb", "0"),
            ("--checkpoint-mb", "nan"),
            ("--mtbf-local", "nan"),
            ("--mtbf-local", "-5"),
            ("--hot-fraction", "2"),
            ("--write-once-fraction", "-1"),
            ("--comm-mb", "-1"),
            ("--hot-fraction", "0.75", "--write-once-fraction", "0.5"),
            # options the app does not read: the synthetic model's
            # footprint knobs, and a chunk layout only GTC and CM1 take
            ("--checkpoint-mb", "80"),
            ("--app", "gtc", "--small-chunks", "-1"),
        ],
    )
    def test_refused_before_any_cell_runs(self, extra):
        from repro.errors import ConfigError
        from repro.exec.grid import expand_grid

        refused = next(arg for arg in reversed(extra) if arg.startswith("--"))
        with pytest.raises(ConfigError, match=refused):
            expand_grid([*self.BASE, *extra])

    @pytest.mark.parametrize(
        "extra",
        [
            ("--no-remote", "--mtbf-local", "60"),
            ("--ideal", "--no-remote"),
            ("--ideal", "--mode", "none"),
            ("--compress-ratio", "0.5", "--mtbf-remote", "60", "--archive"),
            ("--nodes", "4", "--scenario", "link-flap", "--archive"),
            ("--nodes", "4", "--scenario", "elastic-migrate"),
        ],
    )
    def test_honoured_combinations_resolve(self, extra):
        from repro.exec.grid import expand_grid

        assert len(expand_grid([*self.BASE, *extra])) == 1
