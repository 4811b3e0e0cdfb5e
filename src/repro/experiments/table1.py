"""Table 1: mean speedup over the static oracle for every test.

The paper's Table 1 has one row per test (sort1, sort2, clustering1,
clustering2, binpacking, svd, poisson2d, helmholtz3d) and columns for the
dynamic oracle, the two-level method with and without feature-extraction
time, the one-level method with and without feature-extraction time, and the
one-level method's accuracy-satisfaction percentage.

The expected *shape* (see README.md, "Substitutions"): dynamic oracle >= two-level >= 1.0,
two-level barely affected by feature-extraction cost, one-level degraded
(sometimes catastrophically) once extraction cost is charged, and one-level
satisfaction below 95% on most variable-accuracy tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments.reporting import format_table
from repro.experiments.runner import ExperimentConfig, ExperimentResult, run_experiment
from repro.runtime import Runtime

#: The eight tests of Table 1, in the paper's order.
TABLE1_TESTS = (
    "sort1",
    "sort2",
    "clustering1",
    "clustering2",
    "binpacking",
    "svd",
    "poisson2d",
    "helmholtz3d",
)


@dataclass
class Table1Row:
    """One row of Table 1."""

    test_name: str
    dynamic_oracle: float
    two_level_no_extraction: float
    two_level_with_extraction: float
    one_level_no_extraction: float
    one_level_with_extraction: float
    one_level_accuracy: float
    two_level_accuracy: float
    variable_accuracy: bool

    def as_cells(self) -> List[str]:
        """Render the row the way the paper prints it."""
        accuracy = (
            f"{self.one_level_accuracy * 100:.2f}%" if self.variable_accuracy else "-"
        )
        return [
            self.test_name,
            f"{self.dynamic_oracle:.2f}x",
            f"{self.two_level_no_extraction:.2f}x",
            f"{self.two_level_with_extraction:.2f}x",
            f"{self.one_level_no_extraction:.2f}x",
            f"{self.one_level_with_extraction:.2f}x",
            accuracy,
        ]


def row_from_result(result: ExperimentResult) -> Table1Row:
    """Derive a Table-1 row from one experiment result."""
    requirement = result.training.dataset.requirement
    return Table1Row(
        test_name=result.test_name,
        dynamic_oracle=result.mean_speedup("dynamic_oracle"),
        two_level_no_extraction=result.mean_speedup("two_level", with_extraction=False),
        two_level_with_extraction=result.mean_speedup("two_level", with_extraction=True),
        one_level_no_extraction=result.mean_speedup("one_level", with_extraction=False),
        one_level_with_extraction=result.mean_speedup("one_level", with_extraction=True),
        one_level_accuracy=result.satisfaction("one_level"),
        two_level_accuracy=result.satisfaction("two_level"),
        variable_accuracy=requirement.enabled,
    )


def run_table1(
    tests: Sequence[str] = TABLE1_TESTS,
    config: Optional[ExperimentConfig] = None,
    progress: Optional[Callable[[str], None]] = None,
    runtime: Optional[Runtime] = None,
) -> Dict[str, Table1Row]:
    """Run every requested test and return its Table-1 row.

    All tests share one measurement runtime, so tests that share a program
    (``sort1``/``sort2``, ``clustering1``/``clustering2``) recall each
    other's measurements from the cache instead of re-executing them.
    """
    if config is None:
        config = ExperimentConfig()
    with config.runtime_scope(runtime) as active:
        rows: Dict[str, Table1Row] = {}
        for test_name in tests:
            if progress is not None:
                progress(f"running {test_name}")
            result = run_experiment(test_name, config=config, runtime=active)
            rows[test_name] = row_from_result(result)
        return rows


def format_table1(rows: Dict[str, Table1Row]) -> str:
    """Plain-text rendering in the paper's column order."""
    header = [
        "Benchmark",
        "Dynamic Oracle",
        "Two-level (w/o feat.)",
        "Two-level (w/ feat.)",
        "One-level (w/o feat.)",
        "One-level (w/ feat.)",
        "One-level accuracy",
    ]
    body = [rows[name].as_cells() for name in rows]
    return format_table(header, body)


def summarize_headline(rows: Dict[str, Table1Row]) -> Dict[str, float]:
    """The paper's headline numbers derived from Table 1.

    Returns a dict with:

    * ``max_two_level_speedup`` -- "up to a 3x speedup over using a single
      configuration for all inputs";
    * ``max_one_level_slowdown`` -- "as much as 29x slowdown" (reported as a
      factor >= 1);
    * ``max_two_over_one_level`` -- "a 34x speedup over a traditional
      one-level method".
    """
    max_two_level = max(row.two_level_with_extraction for row in rows.values())
    min_one_level = min(row.one_level_with_extraction for row in rows.values())
    max_ratio = max(
        row.two_level_with_extraction / max(row.one_level_with_extraction, 1e-12)
        for row in rows.values()
    )
    return {
        "max_two_level_speedup": max_two_level,
        "max_one_level_slowdown": 1.0 / max(min_one_level, 1e-12),
        "max_two_over_one_level": max_ratio,
    }
