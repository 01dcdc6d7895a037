"""Every ``--scenario`` cell runs at the default options.

The scenarios script hard failures that re-pair orphans onto other
nodes' NVM.  A re-pairing that does not fit used to surface mid-run as
``OutOfMemory`` at the first remote round onto the overloaded buddy;
the capacity gate now reserves the buddy's full two-version load
before it accepts an orphan.  Every scenario × app cell at the
defaults (two iterations, which reach every scripted event) either
completes or is refused at config time — there is no third outcome.
"""

import pytest

from repro.errors import ConfigError
from repro.exec.cell import APPS, SCENARIOS, build_parser, run_experiment


@pytest.mark.parametrize("app", sorted(APPS))
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_default_cell_completes_or_is_refused(scenario, app):
    args = build_parser().parse_args(
        ["--scenario", scenario, "--app", app, "--iterations", "2"]
    )
    try:
        result = run_experiment(args)
    except ConfigError:
        return
    assert result.iterations == 2
    assert result.hard_failures == sum(
        1 for ev in SCENARIOS[scenario].failures if ev.kind == "hard"
    )
