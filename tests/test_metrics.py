"""Metrics: timelines, report rendering."""

import pytest

from repro.metrics import (
    Series,
    Table,
    Timeline,
    render_series,
    render_table,
)
from repro.metrics import timeline as tl
from repro.metrics.report import fmt


class TestTimeline:
    def test_record_and_totals(self):
        t = Timeline()
        t.record("r0", tl.COMPUTE, 0.0, 10.0)
        t.record("r0", tl.LOCAL_CKPT, 10.0, 12.0)
        t.record("r1", tl.COMPUTE, 0.0, 9.0)
        assert t.total(tl.COMPUTE) == pytest.approx(19.0)
        assert t.total(tl.COMPUTE, actor="r0") == pytest.approx(10.0)
        assert t.count(tl.LOCAL_CKPT) == 1

    def test_negative_duration_rejected(self):
        t = Timeline()
        with pytest.raises(ValueError):
            t.record("r0", tl.COMPUTE, 5.0, 4.0)

    def test_actors_and_kinds(self):
        t = Timeline()
        t.record("b", tl.COMPUTE, 0, 1)
        t.record("a", tl.PRECOPY, 0, 1)
        assert t.actors() == ["a", "b"]
        assert set(t.kinds()) == {tl.COMPUTE, tl.PRECOPY}

    def test_span(self):
        t = Timeline()
        assert t.span() == (0.0, 0.0)
        t.record("a", tl.COMPUTE, 2.0, 5.0)
        t.record("a", tl.COMPUTE, 7.0, 9.0)
        assert t.span() == (2.0, 9.0)

    def test_overlap_measures_hidden_checkpoint_time(self):
        """Fig. 5's point: pre-copy overlaps checkpointing with compute."""
        t = Timeline()
        t.record("r0", tl.COMPUTE, 0.0, 10.0)
        t.record("helper", tl.PRECOPY, 6.0, 12.0)
        assert t.overlap(tl.COMPUTE, tl.PRECOPY) == pytest.approx(4.0)

    def test_overlap_disjoint(self):
        t = Timeline()
        t.record("r0", tl.COMPUTE, 0.0, 5.0)
        t.record("r0", tl.LOCAL_CKPT, 5.0, 6.0)
        assert t.overlap(tl.COMPUTE, tl.LOCAL_CKPT) == 0.0

    def test_ascii_art_contains_glyphs(self):
        t = Timeline()
        t.record("r0", tl.COMPUTE, 0.0, 10.0)
        t.record("r0", tl.LOCAL_CKPT, 10.0, 12.0)
        art = t.ascii_art(width=40)
        assert "C" in art and "L" in art and "r0" in art

    def test_ascii_art_empty(self):
        assert "empty" in Timeline().ascii_art()


class TestReport:
    def test_table_rendering(self):
        t = Table("demo", ["name", "value"])
        t.add_row("alpha", 1.5)
        t.add_row("beta", 20000)
        t.add_note("a note")
        out = t.render()
        assert "demo" in out and "alpha" in out and "20,000" in out
        assert "* a note" in out

    def test_row_arity_checked(self):
        t = Table("demo", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_series_and_rendering(self):
        s1 = Series("pre")
        s2 = Series("nopre")
        for x in range(5):
            s1.add(x, x * 1.0)
            s2.add(x, x * 2.0)
        out = render_series("fig", [s1, s2], x_label="bw", y_label="time")
        assert "fig" in out and "pre" in out and "nopre" in out
        assert s1.xs == [0, 1, 2, 3, 4]
        assert s2.ys[-1] == 8.0

    def test_render_series_empty(self):
        assert "no data" in render_series("x", [Series("e")])

    def test_fmt(self):
        assert fmt(1234567) == "1,234,567"
        assert fmt(0.000001) == "1e-06"
        assert fmt(3.14159, precision=3) == "3.142"
        assert fmt(0) == "0"
        assert fmt(True) == "True"
        assert fmt("s") == "s"
