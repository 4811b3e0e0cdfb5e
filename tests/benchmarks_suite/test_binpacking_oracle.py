"""Kernel oracle: the 13 bin-packing heuristics against per-probe references.

Each heuristic's "time" is a count of bin probes (one unit per bin a scan
examines) plus, for the ``...Decreasing`` variants, a non-integer
``n log2 n`` sort charge.  The kernels are free to skip bins and to charge
their probes in bulk, as long as they return exactly the packing of a scan
over every bin and leave exactly the floats that one ``charge(1, "probe")``
per examined bin would leave on the ``CostCounter``.

The references below are those plain scans: every bin is examined, and
every examination charges one unit on its own.  The tests assert that the
kernels and the references agree on the bins, on ``CostCounter.total`` by
``==`` and on ``by_category`` (key order included).  Named cases pin ties,
exact fills, an ``inf`` item and the input where one ``charge(probes)``
after the sort charge would round differently from the per-probe loop.
NaN sizes are outside the kernels' contract and are not drawn.
"""

import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks_suite.binpacking import algorithms, generators
from repro.benchmarks_suite.binpacking.benchmark import BinPackingBenchmark
from repro.lang.cost import charge, scoped_counter

CAPACITY = 1.0
EPSILON = 1e-9


def reference_next_fit(items):
    bins = []
    level = CAPACITY + 1.0
    for item in items:
        charge(1, "probe")
        if level + item > CAPACITY + EPSILON:
            bins.append([])
            level = 0.0
        bins[-1].append(item)
        level += item
    return bins


def reference_first_fit(items):
    bins = []
    levels = []
    for item in items:
        placed = False
        for index, level in enumerate(levels):
            charge(1, "probe")
            if level + item <= CAPACITY + EPSILON:
                bins[index].append(item)
                levels[index] += item
                placed = True
                break
        if not placed:
            bins.append([item])
            levels.append(item)
    return bins


def reference_last_fit(items):
    bins = []
    levels = []
    for item in items:
        placed = False
        for index in range(len(levels) - 1, -1, -1):
            charge(1, "probe")
            if levels[index] + item <= CAPACITY + EPSILON:
                bins[index].append(item)
                levels[index] += item
                placed = True
                break
        if not placed:
            bins.append([item])
            levels.append(item)
    return bins


def reference_fit_by_rule(items, rule):
    bins = []
    levels = []
    for item in items:
        charge(max(len(levels), 1), "probe")
        candidates = [
            (level, index)
            for index, level in enumerate(levels)
            if level + item <= CAPACITY + EPSILON
        ]
        if not candidates:
            bins.append([item])
            levels.append(item)
            continue
        if rule == "best":
            _, index = max(candidates)
        elif rule == "worst":
            _, index = min(candidates)
        else:
            ordered = sorted(candidates)
            _, index = ordered[1] if len(ordered) > 1 else ordered[0]
        bins[index].append(item)
        levels[index] += item
    return bins


def reference_decreasing(items):
    n = len(items)
    charge(n * math.log2(max(n, 2)), "sort")
    return sorted(items, reverse=True)


def reference_modified_first_fit_decreasing(items):
    ordered = reference_decreasing(items)
    large = [x for x in ordered if x > CAPACITY / 2]
    rest = [x for x in ordered if x <= CAPACITY / 2]
    charge(len(ordered), "classify")

    bins = [[x] for x in large]
    levels = [x for x in large]

    remaining = []
    order = sorted(range(len(bins)), key=lambda i: levels[i])
    companion_used = [False] * len(bins)
    pool = list(rest)
    for index in order:
        charge(max(len(pool), 1), "probe")
        chosen = -1
        for j, item in enumerate(pool):
            if levels[index] + item <= CAPACITY + EPSILON:
                chosen = j
                break
        if chosen >= 0:
            item = pool.pop(chosen)
            bins[index].append(item)
            levels[index] += item
            companion_used[index] = True
    remaining = pool

    for item in remaining:
        placed = False
        for index, level in enumerate(levels):
            charge(1, "probe")
            if level + item <= CAPACITY + EPSILON:
                bins[index].append(item)
                levels[index] += item
                placed = True
                break
        if not placed:
            bins.append([item])
            levels.append(item)
    return bins


REFERENCES = {
    "AlmostWorstFit": lambda items: reference_fit_by_rule(items, "almost_worst"),
    "AlmostWorstFitDecreasing": lambda items: reference_fit_by_rule(
        reference_decreasing(items), "almost_worst"
    ),
    "BestFit": lambda items: reference_fit_by_rule(items, "best"),
    "BestFitDecreasing": lambda items: reference_fit_by_rule(
        reference_decreasing(items), "best"
    ),
    "FirstFit": reference_first_fit,
    "FirstFitDecreasing": lambda items: reference_first_fit(reference_decreasing(items)),
    "LastFit": reference_last_fit,
    "LastFitDecreasing": lambda items: reference_last_fit(reference_decreasing(items)),
    "ModifiedFirstFitDecreasing": reference_modified_first_fit_decreasing,
    "NextFit": reference_next_fit,
    "NextFitDecreasing": lambda items: reference_next_fit(reference_decreasing(items)),
    "WorstFit": lambda items: reference_fit_by_rule(items, "worst"),
    "WorstFitDecreasing": lambda items: reference_fit_by_rule(
        reference_decreasing(items), "worst"
    ),
}

NAMES = sorted(algorithms.HEURISTICS)

#: SHA-256 of the (time, accuracy) doubles of every heuristic on
#: ``generate_synthetic(20, seed=3)``, recorded with the per-probe kernels.
MATRIX_DIGEST = "2094fc228fc15fcb70e17b713a5c9b2b2afe18bb988f60b5a3184cadf295a990"


def charged(fn, items):
    with scoped_counter() as counter:
        bins = fn(list(items))
    return bins, counter


def assert_same_run(name, items):
    """Kernel and reference agree on the packing and on every charge."""
    bins, counter = charged(algorithms.HEURISTICS[name], items)
    ref_bins, ref_counter = charged(REFERENCES[name], items)
    assert bins == ref_bins
    assert counter.total == ref_counter.total
    assert list(counter.by_category.items()) == list(ref_counter.by_category.items())


def test_every_heuristic_has_a_reference():
    assert sorted(REFERENCES) == NAMES


NAMED = {
    "empty": [],
    "one-item": [0.7],
    "two-full-and-a-half": [1.0, 1.0, 0.5],
    "ten-ties": [0.3] * 10,
    "exact-fills": [0.5, 0.5, 0.25, 0.25, 0.25, 0.25],
    "inf-item": [0.4, 0.6, math.inf, 0.3, 0.2, 0.7, 0.1],
}


@pytest.mark.parametrize("case", sorted(NAMED))
@pytest.mark.parametrize("name", NAMES)
def test_named_case_matches_reference(name, case):
    assert_same_run(name, NAMED[case])


FAMILY_INPUTS = {
    f"{family.__name__}-seed{seed}": generators.synthetic_item(index, seed=seed)
    for seed in range(3)
    for index, family in enumerate(generators.SYNTHETIC_FAMILIES)
}


@pytest.mark.parametrize("case", sorted(FAMILY_INPUTS))
@pytest.mark.parametrize("name", NAMES)
def test_generator_family_matches_reference(name, case):
    """The items as ``run_binpacking`` passes them: a list of NumPy floats."""
    assert_same_run(name, list(np.asarray(FAMILY_INPUTS[case], dtype=float)))


def test_one_bulk_charge_after_the_sort_would_round_differently():
    """401 items and 33,580 probes: adding the probes to the ``n log2 n``
    sort charge in one step gives a different total from 33,580 steps."""
    items = list(generators.synthetic_item(20, seed=0))
    assert len(items) == 401
    _, ref_counter = charged(REFERENCES["FirstFitDecreasing"], items)
    assert ref_counter.by_category["probe"] == 33580.0
    assert ref_counter.by_category["sort"] + 33580.0 != ref_counter.total
    assert_same_run("FirstFitDecreasing", items)


POOL = [0.1, 0.2, 0.25, 0.3, 0.5, 0.7, 1.0]
sizes = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    st.sampled_from(POOL),
)


@settings(max_examples=25, deadline=None)
@given(items=st.lists(sizes, max_size=300))
@pytest.mark.parametrize("name", NAMES)
def test_drawn_lists_match_reference(name, items):
    assert_same_run(name, items)


def test_matrix_digest_is_unchanged():
    """The times and accuracies ``program.run`` reports for every heuristic
    on one population, bit for bit."""
    program = BinPackingBenchmark().program
    digest = hashlib.sha256()
    for items in generators.generate_synthetic(20, seed=3):
        for name in NAMES:
            config = program.default_configuration().with_updates(heuristic=name)
            result = program.run(config, items)
            digest.update(struct.pack("<dd", result.time, result.accuracy))
    assert digest.hexdigest() == MATRIX_DIGEST
