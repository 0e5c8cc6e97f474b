"""Tests for the plain-text reporting helpers."""

from __future__ import annotations

import pytest

from repro.obs.reporting import ascii_plot, ascii_table, format_number


class TestFormatNumber:
    def test_ints_with_separators(self):
        assert format_number(923521) == "923,521"

    def test_floats_trimmed(self):
        assert format_number(0.5381, precision=3) == "0.538"
        assert format_number(3.0) == "3"

    def test_nan(self):
        assert format_number(float("nan")) == "nan"

    def test_bool_and_str(self):
        assert format_number(True) == "True"
        assert format_number("x") == "x"


class TestAsciiTable:
    def test_alignment_and_title(self):
        rendered = ascii_table(
            ["name", "value"],
            [["a", 1], ["bb", 22]],
            title="T",
        )
        lines = rendered.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_empty_rows(self):
        rendered = ascii_table(["h"], [])
        assert "h" in rendered


class TestAsciiPlot:
    def test_markers_and_bounds(self):
        rendered = ascii_plot(
            {"A": [(0, 0), (1, 1)], "B": [(0, 1), (1, 0)]},
            width=20,
            height=5,
        )
        assert "*=A" in rendered and "o=B" in rendered
        assert "*" in rendered and "o" in rendered

    def test_single_point(self):
        rendered = ascii_plot({"A": [(2.0, 3.0)]}, width=10, height=4)
        assert "*" in rendered

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no points"):
            ascii_plot({"A": []})
