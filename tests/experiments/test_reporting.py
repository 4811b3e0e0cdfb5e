"""Tests for plain-text reporting helpers."""

import pytest

from repro.experiments.reporting import (
    ascii_sparkline,
    format_series,
    format_table,
)


class TestFormatTable:
    def test_alignment_and_content(self):
        text = format_table(["name", "value"], [["a", "1"], ["longer", "22"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert all(len(line) == len(lines[0]) for line in lines[2:])
        assert "longer" in text

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only one"]])

    def test_non_string_cells_coerced(self):
        text = format_table(["x"], [[1.5], [2]])
        assert "1.5" in text and "2" in text


class TestSeries:
    def test_series(self):
        text = format_series([1, 2], [10.0, 20.0], x_label="k", y_label="speedup")
        assert "k" in text and "speedup" in text
        assert "20" in text

    def test_series_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series([1, 2], [1.0])


class TestSparkline:
    def test_length_capped(self):
        line = ascii_sparkline(list(range(1000)), width=40)
        assert len(line) == 40

    def test_constant_series(self):
        line = ascii_sparkline([5.0, 5.0, 5.0])
        assert len(line) == 3

    def test_empty_series(self):
        assert ascii_sparkline([]) == ""
