"""Tests for the Table-1 driver."""

import pytest

from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.experiments.table1 import (
    TABLE1_TESTS,
    Table1Row,
    format_table1,
    row_from_result,
    run_table1,
    summarize_headline,
)

TINY = ExperimentConfig(
    n_inputs=24,
    n_clusters=3,
    tuner_generations=2,
    tuner_population=5,
    tuning_neighbors=2,
    max_subsets=8,
    seed=1,
)


#: The Table-1 shape check trains every test at this scale; the executor
#: is pinned so the result does not depend on ``REPRO_EXECUTOR``.
SMALL = ExperimentConfig(
    n_inputs=60,
    n_clusters=6,
    tuner_generations=3,
    tuner_population=6,
    tuning_neighbors=2,
    max_subsets=24,
    seed=0,
    executor="serial",
)


@pytest.fixture(scope="module")
def small_rows():
    return run_table1(tests=("sort2", "binpacking"), config=TINY)


class TestTable1:
    def test_paper_test_list(self):
        assert TABLE1_TESTS == (
            "sort1", "sort2", "clustering1", "clustering2",
            "binpacking", "svd", "poisson2d", "helmholtz3d",
        )

    def test_row_from_result_fields(self):
        result = run_experiment("sort2", TINY)
        row = row_from_result(result)
        assert row.test_name == "sort2"
        assert row.dynamic_oracle >= 1.0 - 1e-9
        assert not row.variable_accuracy  # sort has fixed accuracy

    def test_run_table1_returns_requested_rows(self, small_rows):
        assert set(small_rows) == {"sort2", "binpacking"}
        assert all(isinstance(row, Table1Row) for row in small_rows.values())

    def test_variable_accuracy_flag_per_benchmark(self, small_rows):
        assert not small_rows["sort2"].variable_accuracy
        assert small_rows["binpacking"].variable_accuracy

    def test_format_table_contains_all_rows_and_columns(self, small_rows):
        text = format_table1(small_rows)
        assert "sort2" in text and "binpacking" in text
        assert "Dynamic Oracle" in text
        assert "One-level accuracy" in text
        # Fixed-accuracy benchmarks print "-" in the accuracy column.
        assert "-" in text.splitlines()[2]

    def test_cells_render_speedups_with_x_suffix(self, small_rows):
        cells = small_rows["sort2"].as_cells()
        assert cells[0] == "sort2"
        assert all(cell.endswith("x") for cell in cells[1:6])

    def test_headline_summary_keys_and_sanity(self, small_rows):
        summary = summarize_headline(small_rows)
        assert set(summary) == {
            "max_two_level_speedup",
            "max_one_level_slowdown",
            "max_two_over_one_level",
        }
        assert summary["max_two_level_speedup"] > 0
        assert summary["max_two_over_one_level"] >= 1.0 - 1e-9


class TestTable1Shape:
    @pytest.mark.parametrize("test_name", TABLE1_TESTS)
    def test_paper_shape_holds(self, test_name):
        """The dynamic oracle never loses to the static one, and two-level
        learning with extraction charged keeps at least 80% of the one-level
        method's speedup."""
        row = row_from_result(run_experiment(test_name, SMALL))
        assert row.dynamic_oracle >= 1.0 - 1e-6
        assert row.two_level_with_extraction >= row.one_level_with_extraction * 0.8
