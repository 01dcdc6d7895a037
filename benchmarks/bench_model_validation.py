"""X1 — §III model validation: the analytic 2-level model against the
simulator.

Feeds the model the simulator's own measured parameters (checkpoint
time, intervals, failure rates) and compares predicted vs simulated
total runtime under injected failures.  The model makes the paper's
simplifying assumptions (failures strike mid-interval on average,
restart ∝ checkpoint time), so agreement within tens of percent over a
multi-failure run validates both sides."""

from conftest import once, run_figure

from repro.exec.cell import build_parser
from repro.metrics import Table
from repro.models import ModelParams, MultilevelModel
from repro.tools.bench import FIGURE_GRIDS
from repro.units import MB


def test_model_vs_simulation(benchmark, report):
    (sim,) = once(benchmark, lambda: run_figure("model_validation"))["failures"]
    cell = build_parser().parse_args(FIGURE_GRIDS["model_validation"]["failures"][0])

    # model parameters measured from the simulated system
    t_lcl_measured = sim["local.avg_blocking_s"]
    # T_lcl averaged over ranks: every rank-checkpoint's blocking time
    t_lcl_total = t_lcl_measured * sim["local.checkpoints"] / sim["n_ranks"]
    compute_time = cell.iterations * cell.local_interval
    # express the measured blocking checkpoint via an effective
    # bandwidth, then let the model derive everything else
    eff_bw = MB(cell.checkpoint_mb) / max(1e-9, t_lcl_measured)
    params = ModelParams(
        compute_time=compute_time,
        checkpoint_bytes=MB(cell.checkpoint_mb),
        nvm_bw_per_core=eff_bw,
        remote_bw=MB(400),
        local_interval=cell.local_interval,
        remote_interval=cell.remote_interval,
        # per-JOB failure rates: the injector draws cluster-wide
        mtbf_local=cell.mtbf_local / cell.nodes,
        mtbf_remote=cell.mtbf_remote / cell.nodes,
    )
    predicted = MultilevelModel(params).solve()

    table = Table(
        "X1 — §III analytic model vs discrete-event simulation",
        ["quantity", "model", "simulated"],
    )
    table.add_row("compute time (s)", f"{params.compute_time:.0f}",
                  f"{sim['ideal_time_s']:.0f}")
    table.add_row("T_lcl total (s)",
                  f"{MultilevelModel(params).local_checkpoint_time():.1f}",
                  f"{t_lcl_total:.1f}")
    n_fail_model = (
        params.compute_time / params.mtbf_local
        + predicted.total / params.mtbf_remote
    )
    table.add_row("expected failures", f"{n_fail_model:.1f}",
                  f"{sim['failures.soft'] + sim['failures.hard']}")
    recomputed_s = sim["failures.iterations_recomputed"] * cell.local_interval
    table.add_row("restart+recompute (s)",
                  f"{predicted.restart_total + predicted.recompute_total:.0f}",
                  f"{sim['failures.recovery_s'] + recomputed_s:.0f}")
    table.add_row("T_total (s)", f"{predicted.total:.0f}", f"{sim['total_time_s']:.0f}")
    err = abs(predicted.total - sim["total_time_s"]) / sim["total_time_s"]
    table.add_note(f"total-time prediction error: {err*100:.0f}% "
                   "(single stochastic run vs expectation model)")
    report(table.render())

    # the model tracks the simulation within a loose band: a single
    # run's failure draw vs the model's expectation
    assert err <= 0.5
    assert predicted.total >= params.compute_time
