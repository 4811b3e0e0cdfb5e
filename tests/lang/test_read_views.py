"""Read views: runs keyed by the configuration values they read.

A program that declares ``read_view(config, input)`` promises that two
configurations with equal views on an input run bit-identically on it, and
the run cache answers both from one execution.  Sort, svd, poisson2d and
helmholtz3d declare views; clustering and binpacking read every value and
declare none.

The properties draw an input and a configuration, then a variant: each
value of the configuration is redrawn in turn, and a redrawn value is kept
only if the view of the input does not change.  The two runs must then be
equal in time and accuracy (``float.hex``) and in every output byte.  A view
that drops a value the run reads lets the variant keep a different value of
it, and the runs differ.  Named cases pin views that must be equal (so a
view that reads too much cannot pass by rejecting every variant) and views
that must differ (so a constant view cannot pass either).
"""

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks_suite import get_benchmark
from repro.benchmarks_suite.helmholtz3d import generators as helmholtz_generators
from repro.benchmarks_suite.poisson2d import generators as poisson_generators
from repro.benchmarks_suite.sort import generators as sort_generators
from repro.benchmarks_suite.svd import generators as svd_generators
from repro.benchmarks_suite.svd.benchmark import kept_rank
from repro.lang.selector import Selector, SelectorRule
from repro.runtime import Runtime, config_key, input_key, read_key, run_key

#: The six benchmarks, by one test of each.
TESTS = ("sort1", "clustering1", "binpacking", "svd", "poisson2d", "helmholtz3d")


def program_of(test):
    return get_benchmark(test).benchmark.program


def population_item(test, index, seed=0):
    variant = get_benchmark(test)
    return variant.benchmark.input_source(index + 1, variant.variant, seed=seed).materialize(index)


def assert_bit_identical(first, second):
    assert float(first.time).hex() == float(second.time).hex()
    assert float(first.accuracy).hex() == float(second.accuracy).hex()
    a, b = np.asarray(first.output), np.asarray(second.output)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def view_equal_variant(program, config, program_input, updates):
    """``config`` with every update applied that leaves its view unchanged."""
    view = program.read_view(config, program_input)
    variant = config
    for update in updates:
        trial = variant.with_updates(**update)
        if program.read_view(trial, program_input) == view:
            variant = trial
    return variant


def redraw_each(program, rng):
    """One update per parameter, each a fresh draw from its domain."""
    return [{p.name: p.sample(rng)} for p in program.config_space]


def assert_view_contract(program, config, variant, program_input):
    assert program.read_view(config, program_input) == program.read_view(variant, program_input)
    assert_bit_identical(program.run(config, program_input), program.run(variant, program_input))


SORT = program_of("sort1")
SELECTOR = SORT.config_space.get("selector")
SVD = program_of("svd")
POISSON = program_of("poisson2d")
HELMHOLTZ = program_of("helmholtz3d")


def agreeing_selector(selector, horizon, rng):
    """A random legal selector that picks what ``selector`` picks for every
    size in 2..``horizon``, and anything above it."""
    runs = selector.decisions(2, horizon)
    if not runs:
        return SELECTOR.sample(rng)
    rules = [SelectorRule(hi + 1, choice) for _, hi, choice in runs[:-1]]
    last = runs[-1][2]
    if len(rules) == SELECTOR.max_depth or rng.random() < 0.5:
        return Selector(tuple(rules), fallback=last)
    cutoff = rng.randint(max(horizon + 1, SELECTOR.min_cutoff), SELECTOR.max_cutoff)
    rules.append(SelectorRule(cutoff, last))
    while len(rules) < SELECTOR.max_depth and cutoff < SELECTOR.max_cutoff and rng.random() < 0.5:
        cutoff = rng.randint(cutoff + 1, SELECTOR.max_cutoff)
        rules.append(SelectorRule(cutoff, rng.choice(SELECTOR.site.names)))
    return Selector(tuple(rules), fallback=rng.choice(SELECTOR.site.names))


@st.composite
def sort_inputs(draw):
    """A prefix of a generated list: short prefixes leave most cutoffs unread."""
    item = draw(st.sampled_from([sort_generators.synthetic_item, sort_generators.real_world_item]))
    data = item(draw(st.integers(0, 40)), seed=draw(st.integers(0, 3)))
    length = draw(st.one_of(st.integers(0, 40), st.integers(0, min(len(data), 600))))
    return data[:length]


@functools.lru_cache(maxsize=None)
def smallest_grids(test):
    """Generated inputs of the generator's smallest grid size."""
    generators = {"poisson2d": poisson_generators, "helmholtz3d": helmholtz_generators}[test]
    smallest = min(generators.GRID_SIZES)
    items = (generators.synthetic_item(index, seed=0) for index in range(40))
    return tuple(item for item in items if item.rhs.shape[0] == smallest)


class TestViewEqualRunsAreBitIdentical:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_sort(self, data):
        program_input = data.draw(sort_inputs())
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        config = SORT.config_space.sample(rng)
        horizon = data.draw(st.integers(1, len(program_input) + 2))
        updates = [{"selector": agreeing_selector(config["selector"], horizon, rng)}]
        variant = view_equal_variant(
            SORT, config, program_input, updates + redraw_each(SORT, rng)
        )
        assert_view_contract(SORT, config, variant, program_input)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_svd(self, data):
        problem = svd_generators.synthetic_item(
            data.draw(st.integers(0, 40)), seed=data.draw(st.integers(0, 3))
        )
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        config = SVD.config_space.sample(rng)
        # Another rank fraction in the band that rounds to the same k.
        k, size = kept_rank(config, problem.matrix.shape), min(problem.matrix.shape)
        low = 0.05 if k == 1 else max(0.05, (k - 0.5) / size)
        fraction = data.draw(st.floats(low, min(1.0, (k + 0.5) / size)))
        updates = [{"rank_fraction": fraction}] + redraw_each(SVD, rng)
        variant = view_equal_variant(SVD, config, problem, updates)
        assert_view_contract(SVD, config, variant, problem)

    @pytest.mark.parametrize("test", ["poisson2d", "helmholtz3d"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_grid(self, test, data):
        program = program_of(test)
        problem = data.draw(st.sampled_from(smallest_grids(test)))
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        config = program.config_space.sample(rng)
        variant = view_equal_variant(program, config, problem, redraw_each(program, rng))
        assert_view_contract(program, config, variant, problem)


def sort_config(selector, **values):
    return SORT.default_configuration().with_updates(selector=selector, **values)


QUICK_ABOVE_32 = Selector((SelectorRule(32, "insertion_sort"),), fallback="quick_sort")


class TestNamedViews:
    """Views that must be equal, and the converse: one read value changed."""

    def test_sort_cutoff_above_the_input_is_unread(self):
        data = sort_generators.synthetic_item(0)[:20]
        far = Selector((SelectorRule(500, "insertion_sort"),), fallback="merge_sort")
        near = Selector((SelectorRule(21, "insertion_sort"),), fallback="bitonic_sort")
        assert_view_contract(SORT, sort_config(far), sort_config(near), data)

    def test_sort_cutoffs_inside_one_run_are_unread(self):
        data = sort_generators.synthetic_item(1)[:100]
        one = Selector(
            (SelectorRule(10, "insertion_sort"), SelectorRule(40, "insertion_sort")),
            fallback="quick_sort",
        )
        other = Selector((SelectorRule(40, "insertion_sort"),), fallback="quick_sort")
        assert_view_contract(SORT, sort_config(one), sort_config(other), data)

    def test_sort_parameters_of_absent_algorithms_are_unread(self):
        data = sort_generators.synthetic_item(2)
        only_merge = Selector((SelectorRule(16, "insertion_sort"),), fallback="merge_sort")
        assert_view_contract(
            SORT,
            sort_config(only_merge, quick_pivot="first", radix_bits=2),
            sort_config(only_merge, quick_pivot="random", radix_bits=12),
            data,
        )

    def test_sort_lists_of_one_element_read_nothing(self):
        data = sort_generators.synthetic_item(3)[:1]
        assert SORT.read_view(sort_config(QUICK_ABOVE_32), data) == ((),)
        assert_view_contract(
            SORT,
            sort_config(QUICK_ABOVE_32),
            sort_config(Selector.single("bitonic_sort"), merge_ways=8),
            data,
        )

    def test_svd_exact_reads_no_iterations(self):
        problem = svd_generators.synthetic_item(0)
        exact = SVD.default_configuration().with_updates(technique="exact", iterations=2)
        assert_view_contract(SVD, exact, exact.with_updates(iterations=20), problem)

    def test_svd_rank_fractions_with_one_k_are_one_view(self):
        problem = svd_generators.synthetic_item(1)
        size = min(problem.matrix.shape)
        config = SVD.default_configuration().with_updates(
            technique="subspace", rank_fraction=4.9 / size
        )
        assert_view_contract(SVD, config, config.with_updates(rank_fraction=5.1 / size), problem)

    @pytest.mark.parametrize("test", ["poisson2d", "helmholtz3d"])
    def test_direct_reads_only_the_solver(self, test):
        program = program_of(test)
        problem = smallest_grids(test)[0]
        direct = program.default_configuration().with_updates(solver="direct")
        other = direct.with_updates(
            iterations=7, cycle_shape="W", cycles=1, pre_smooth=4, post_smooth=1
        )
        assert_view_contract(program, direct, other, problem)

    def test_sort_cutoff_below_the_input_is_read(self):
        data = sort_generators.synthetic_item(0)[:100]
        moved = Selector((SelectorRule(50, "insertion_sort"),), fallback="quick_sort")
        assert SORT.read_view(sort_config(QUICK_ABOVE_32), data) != SORT.read_view(
            sort_config(moved), data
        )

    def test_sort_pivot_is_read_when_quicksort_occurs(self):
        data = sort_generators.synthetic_item(0)[:100]
        first = sort_config(QUICK_ABOVE_32, quick_pivot="first")
        median = sort_config(QUICK_ABOVE_32, quick_pivot="median3")
        assert SORT.read_view(first, data) != SORT.read_view(median, data)
        assert SORT.run(first, data).time != SORT.run(median, data).time

    def test_svd_new_k_is_read(self):
        problem = svd_generators.synthetic_item(0)
        config = SVD.default_configuration()
        other = config.with_updates(rank_fraction=1.0)
        assert kept_rank(config, problem.matrix.shape) != kept_rank(other, problem.matrix.shape)
        assert SVD.read_view(config, problem) != SVD.read_view(other, problem)

    def test_svd_iterations_are_read_by_iterative_techniques(self):
        problem = svd_generators.synthetic_item(0)
        config = SVD.default_configuration().with_updates(technique="power", iterations=2)
        assert SVD.read_view(config, problem) != SVD.read_view(
            config.with_updates(iterations=3), problem
        )

    @pytest.mark.parametrize("test", ["poisson2d", "helmholtz3d"])
    def test_grid_solver_and_its_parameters_are_read(self, test):
        program = program_of(test)
        problem = smallest_grids(test)[0]
        base = program.default_configuration()
        views = {
            program.read_view(config, problem)
            for config in (
                base.with_updates(solver="direct"),
                base.with_updates(solver="jacobi"),
                base.with_updates(solver="sor"),
                base.with_updates(solver="sor", iterations=base["iterations"] + 1),
                base.with_updates(solver="multigrid"),
                base.with_updates(solver="multigrid", cycle_shape="W"),
                base.with_updates(solver="multigrid", cycles=base["cycles"] + 1),
                base.with_updates(solver="multigrid", pre_smooth=base["pre_smooth"] + 1),
                base.with_updates(solver="multigrid", post_smooth=base["post_smooth"] + 1),
            )
        }
        assert len(views) == 9


class TestSelectorDecisions:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), low=st.integers(0, 50), span=st.integers(-2, 5000))
    def test_runs_cover_the_range_with_select_choices(self, seed, low, span):
        selector = SELECTOR.sample(random.Random(seed))
        runs = selector.decisions(low, low + span)
        sizes = [size for lo, hi, _ in runs for size in range(lo, hi + 1)]
        assert sizes == list(range(low, low + span + 1))
        assert all(selector.select(size) == choice for lo, hi, choice in runs for size in (lo, hi))
        assert all(a[2] != b[2] for a, b in zip(runs, runs[1:]))


class TestKeys:
    @pytest.mark.parametrize("test", ["clustering1", "binpacking"])
    def test_programs_without_a_view_keep_all_value_keys(self, test):
        program = program_of(test)
        assert program.read_view is None
        program_input = population_item(test, 0)
        for seed in range(5):
            config = program.config_space.sample(random.Random(seed))
            assert read_key(program, config, program_input) == config_key(config)

    @pytest.mark.parametrize("test", TESTS)
    def test_batch_keys_equal_run_keys(self, test):
        program = program_of(test)
        rng = random.Random(7)
        configs = [program.config_space.sample(rng) for _ in range(4)]
        configs.append(configs[0].with_updates())  # equal values, another object
        inputs = [population_item(test, index) for index in range(3)]
        pairs = [(config, item) for item in inputs for config in configs]
        assert Runtime._batch_keys(program, pairs) == [
            run_key(program, config, item) for config, item in pairs
        ]

    def test_view_keys_never_equal_all_value_keys(self):
        data = sort_generators.synthetic_item(0)
        config = SORT.default_configuration()
        assert read_key(SORT, config, data) != config_key(config)

    @pytest.mark.parametrize("test", TESTS)
    def test_a_run_leaves_its_input_key_unchanged(self, test):
        program = program_of(test)
        program_input = population_item(test, 1)
        before = input_key(program_input)
        program.run(program.default_configuration(), program_input)
        assert input_key(program_input) == before
