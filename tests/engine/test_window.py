"""Tests for time-window specs and assignment."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import StreamTuple, WindowSpec, assign_windows, parse_window_clause


class TestWindowSpec:
    def test_tumbling_primary_window(self):
        w = WindowSpec(width=2.0)
        assert w.primary_window(0.0) == 0
        assert w.primary_window(1.99) == 0
        assert w.primary_window(2.0) == 1

    def test_bounds(self):
        w = WindowSpec(width=2.0)
        assert w.bounds(3) == (6.0, 8.0)

    def test_tumbling_window_ids_single(self):
        w = WindowSpec(width=1.0)
        assert list(w.window_ids(2.5)) == [2]

    def test_hopping_membership(self):
        w = WindowSpec(width=2.0, slide=1.0)
        # t=2.5 is inside windows starting at 1.0 and 2.0.
        assert list(w.window_ids(2.5)) == [1, 2]

    @settings(max_examples=300, deadline=None)
    @given(
        width=st.sampled_from([0.1, 0.3, 1.0, 2.0, 1 / 3, 3.7])
        | st.floats(0.001, 100.0),
        slide=st.sampled_from([None, 1.0, 0.5, 0.25]),
        k=st.integers(-10**6, 10**6),
        other=st.floats(-1e6, 1e6),
    )
    def test_ids_is_window_ids_at_every_boundary(self, width, slide, k, other):
        # ``slide=1.0`` is the width itself (tumbling by slide), the others
        # make hopping windows; a fresh spec per call misses the memo.
        spec = WindowSpec(width=width, slide=None if slide is None else slide * width)
        edge = k * spec.hop
        for ts in (
            edge,
            math.nextafter(edge, math.inf),
            math.nextafter(edge, -math.inf),
            edge + width,
            math.nextafter(edge + width, -math.inf),
            other,
        ):
            fresh = WindowSpec(width=spec.width, slide=spec.slide)
            assert fresh.ids(ts) == tuple(fresh.window_ids(ts)), ts
            assert spec.ids(ts) == tuple(spec.window_ids(ts)), ts

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            WindowSpec(width=0)

    def test_invalid_slide(self):
        with pytest.raises(ValueError):
            WindowSpec(width=1.0, slide=-1)

    def test_str(self):
        assert "seconds" in str(WindowSpec(width=1.0))
        assert "slide" in str(WindowSpec(width=2.0, slide=1.0))


class TestAssignWindows:
    def test_partition(self):
        tuples = [StreamTuple(0.5, (1,)), StreamTuple(1.5, (2,)), StreamTuple(1.7, (3,))]
        out = assign_windows(tuples, WindowSpec(width=1.0))
        assert sorted(out) == [0, 1]
        assert len(out[1]) == 2

    def test_hopping_duplicates(self):
        tuples = [StreamTuple(2.5, (1,))]
        out = assign_windows(tuples, WindowSpec(width=2.0, slide=1.0))
        assert sorted(out) == [1, 2]


class TestParseWindowClause:
    @pytest.mark.parametrize(
        "text,width",
        [
            ("1 second", 1.0),
            ("'1 second'", 1.0),
            ("2 seconds", 2.0),
            ("500 ms", 0.5),
            ("250 milliseconds", 0.25),
            ("3 minutes", 180.0),
            ("1 hour", 3600.0),
            ("0.5", 0.5),  # bare number = seconds
        ],
    )
    def test_intervals(self, text, width):
        assert parse_window_clause(text).width == pytest.approx(width)

    def test_unknown_unit(self):
        with pytest.raises(ValueError):
            parse_window_clause("3 fortnights")

    def test_garbage(self):
        with pytest.raises(ValueError):
            parse_window_clause("a b c")
