"""The Sort benchmark: configuration space, polyalgorithm driver, program.

The configuration space contains:

* ``selector`` -- the size-cutoff decision list over the five sorting
  algorithms (Figure 2 of the paper);
* ``merge_ways`` -- the merge sort's number of ways (the paper's "variable
  number of ways");
* ``quick_pivot`` -- quicksort's pivot rule;
* ``radix_bits`` -- radix sort's digit width.

The run function dispatches every (sub)problem through the selector, so the
autotuned configuration is a genuine recursive polyalgorithm.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.benchmarks_suite.base import Benchmark, InputGenerator
from repro.benchmarks_suite.sort import algorithms, features, generators
from repro.lang.accuracy import AccuracyRequirement, always_accurate
from repro.lang.choices import Choice, ChoiceSite
from repro.lang.config import (
    CategoricalParameter,
    Configuration,
    ConfigurationSpace,
    IntegerParameter,
)
from repro.lang.program import PetaBricksProgram
from repro.lang.selector import SelectorParameter


def build_choice_site() -> ChoiceSite:
    """The ``either...or`` site with the five sorting algorithms."""
    site = ChoiceSite("sort")
    site.add(Choice("insertion_sort", algorithms.insertion_sort, terminal=True))
    site.add(Choice("quick_sort", algorithms.quick_sort, terminal=False))
    site.add(Choice("merge_sort", algorithms.merge_sort, terminal=False))
    site.add(Choice("radix_sort", algorithms.radix_sort, terminal=True))
    site.add(Choice("bitonic_sort", algorithms.bitonic_sort, terminal=True))
    return site


def build_config_space(site: ChoiceSite) -> ConfigurationSpace:
    """The Sort benchmark's configuration space."""
    space = ConfigurationSpace()
    space.add(
        SelectorParameter(
            "selector",
            site,
            max_depth=3,
            max_cutoff=generators.MAX_LENGTH * 2,
            min_cutoff=4,
        )
    )
    space.add(IntegerParameter("merge_ways", 2, 8))
    space.add(CategoricalParameter("quick_pivot", ["first", "median3", "random"]))
    space.add(IntegerParameter("radix_bits", 2, 12))
    return space


def run_sort(config: Configuration, data: np.ndarray) -> np.ndarray:
    """Sort ``data`` with the polyalgorithm described by ``config``."""
    selector = config["selector"]
    merge_ways = int(config["merge_ways"])
    pivot_rule = config["quick_pivot"]
    radix_bits = int(config["radix_bits"])
    pivot_rng = np.random.default_rng(12345)

    # The dispatcher runs for every recursive sub-problem -- hundreds of
    # thousands of calls per measurement batch -- so the selector's rule list
    # is flattened to plain tuples and the algorithm functions are pre-bound,
    # replacing dataclass attribute walks and module lookups with local reads.
    rules = tuple((rule.cutoff, rule.choice) for rule in selector.rules)
    fallback = selector.fallback
    max_depth = algorithms.MAX_RECURSION_DEPTH
    insertion = algorithms.insertion_sort
    quick = algorithms.quick_sort
    merge = algorithms.merge_sort
    merge_collapsed = algorithms.merge_sort_collapsed
    radix = algorithms.radix_sort
    bitonic = algorithms.bitonic_sort

    def dispatch(segment: np.ndarray, depth: int) -> np.ndarray:
        size = len(segment)
        if size <= 1:
            return segment.copy()
        choice = fallback
        for cutoff, name in rules:
            if size < cutoff:
                choice = name
                break
        if depth >= max_depth:
            choice = "insertion_sort"
        if choice == "insertion_sort":
            return insertion(segment)
        if choice == "quick_sort":
            return quick(
                segment, dispatch, depth, pivot_rule=pivot_rule, rng=pivot_rng
            )
        if choice == "merge_sort":
            collapsed = merge_collapsed(segment, depth, merge_ways, rules, fallback)
            if collapsed is not None:
                return collapsed
            return merge(segment, dispatch, depth, ways=merge_ways)
        if choice == "radix_sort":
            return radix(segment, bits_per_pass=radix_bits)
        if choice == "bitonic_sort":
            return bitonic(segment)
        raise ValueError(f"unknown sort choice {choice!r}")

    return dispatch(np.asarray(data, dtype=float), 0)


#: The parameter each parameterised algorithm reads, in view order.
_ALGORITHM_PARAMETERS = (
    ("merge_sort", "merge_ways"),
    ("quick_sort", "quick_pivot"),
    ("radix_sort", "radix_bits"),
)


def sort_read_view(config: Configuration, data: np.ndarray) -> tuple:
    """What a run of :func:`run_sort` on ``data`` reads of ``config``.

    ``dispatch`` asks the selector about sub-problems of 2 to ``len(data)``
    elements only, so the view is the selector's choice for each of those
    sizes (maximal ``(lo, hi, choice)`` runs), then the parameter of each
    algorithm that occurs in them.  The depth guard reads no configuration
    and the pivot generator is reseeded for every run.
    """
    decisions = config["selector"].decisions(2, len(data))
    chosen = {choice for _, _, choice in decisions}
    return (decisions,) + tuple(
        (name, config[name]) for algorithm, name in _ALGORITHM_PARAMETERS
        if algorithm in chosen
    )


class SortBenchmark(Benchmark):
    """The paper's Sort benchmark (fixed accuracy)."""

    name = "sort"

    def build_program(self) -> PetaBricksProgram:
        site = build_choice_site()
        return PetaBricksProgram(
            name=self.name,
            config_space=build_config_space(site),
            run_func=run_sort,
            features=features.build_feature_set(),
            accuracy_metric=always_accurate(),
            accuracy_requirement=AccuracyRequirement.disabled(),
            read_view=sort_read_view,
        )

    def input_generators(self) -> Dict[str, InputGenerator]:
        return {
            "synthetic": InputGenerator(
                name="synthetic",
                description="mixture of generator families spanning the feature space (sort2)",
                item=generators.synthetic_item,
            ),
            "real_world": InputGenerator(
                name="real_world",
                description="registry-extract-like lists standing in for the CCR FOIA data (sort1)",
                item=generators.real_world_item,
            ),
        }
