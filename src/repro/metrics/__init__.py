"""Measurement: phase timelines (Figs. 1/5), the fault-campaign outcome
counter and the table/series renderer used by the benchmark harness.
"""

from .timeline import Phase, Timeline
from .collectors import CrashOutcomeCounter
from .report import Table, Series, render_table, render_series

__all__ = [
    "Phase",
    "Timeline",
    "CrashOutcomeCounter",
    "Table",
    "Series",
    "render_table",
    "render_series",
]
