"""Kernel oracle: the sort benchmark's kernels against plain references.

The sort kernels are vectorized: insertion sort charges a blocked inversion
count and returns ``np.sort``, bitonic sort skips its network on data where
the network's output is ``np.sort``, radix sort replaces its passes with one
stable argsort, and ``merge_sort_collapsed`` runs a whole merge subtree as
one stable sort plus two aggregate charges.  Each claims to return exactly
what the textbook algorithm returns and to charge exactly its per-category
operation counts.

The references below are those textbook algorithms, written with explicit
per-element loops over plain Python lists and sharing no code with the
kernels.  The tests assert the two agree on every output bit (so the order
of ``-0.0`` and ``0.0`` counts) and on the per-category totals charged to
the ``CostCounter``.  Named cases pin the edges: inversion-count block
boundaries, the inputs that force the real bitonic network (NaN, negative
zero), and merge subtrees whose collapse is declined.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.benchmarks_suite.sort import algorithms
from repro.benchmarks_suite.sort.benchmark import SortBenchmark, run_sort
from repro.lang.cost import charge, scoped_counter
from repro.lang.selector import Selector, SelectorRule


def reference_insertion_sort(data):
    """Linear-scan insertion sort.  Each element charges one comparison per
    element it passes plus the one that stops the scan, and one move per
    element it shifts plus its own placement."""
    data = np.asarray(data)
    items = list(data)
    comparisons = 0
    moves = 0
    for i in range(len(items)):
        value = items[i]
        j = i
        while j > 0 and items[j - 1] > value:
            items[j] = items[j - 1]
            j -= 1
        items[j] = value
        comparisons += (i - j) + 1
        moves += (i - j) + 1
    charge(float(comparisons), "compare")
    charge(float(moves), "move")
    return np.array(items, dtype=data.dtype)


def reference_bitonic_sort(data):
    """The bitonic network, one compare-exchange at a time, on the next
    power-of-two size padded with +inf."""
    count = len(data)
    if count <= 1:
        return np.array(data).copy()
    size = 1 << int(math.ceil(math.log2(count)))
    items = [float(x) for x in data] + [math.inf] * (size - count)
    stages = int(math.log2(size))
    for stage in range(1, stages + 1):
        for substage in range(stage, 0, -1):
            distance = 1 << (substage - 1)
            for i in range(size):
                partner = i ^ distance
                if partner <= i:
                    continue
                ascending = ((i >> stage) & 1) == 0
                if (items[i] > items[partner]) if ascending else (items[i] < items[partner]):
                    items[i], items[partner] = items[partner], items[i]
            charge(size / 2, "compare_exchange")
    return np.array(items[:count], dtype=float)


def reference_radix_sort(data, bits_per_pass=8):
    """LSD radix sort over the dense ranks of the quantized keys, one bucket
    scatter per pass, then the insertion cleanup of keys that collided."""
    data = np.asarray(data)
    count = len(data)
    if count <= 1:
        return data.copy()
    bits_per_pass = max(1, min(int(bits_per_pass), algorithms.RADIX_GRID_BITS))
    low = float(min(data))
    high = float(max(data))
    charge(2.0 * count, "quantize")
    if high <= low:
        return data.copy()
    grid = (1 << algorithms.RADIX_GRID_BITS) - 1
    keys = [int((float(value) - low) / (high - low) * grid) for value in data]
    charge(2.0 * count, "dictionary")
    rank = {key: code for code, key in enumerate(sorted(set(keys)))}
    codes = [rank[key] for key in keys]
    key_bits = max(1, int(math.ceil(math.log2(max(len(rank), 2)))))
    passes = max(1, int(math.ceil(key_bits / bits_per_pass)))
    order = list(range(count))
    digit_mask = (1 << bits_per_pass) - 1
    for digit in range(passes):
        buckets = [[] for _ in range(1 << bits_per_pass)]
        for i in order:
            buckets[(codes[i] >> (digit * bits_per_pass)) & digit_mask].append(i)
        order = [i for bucket in buckets for i in bucket]
        charge(2.0 * count + float(1 << bits_per_pass), "bucket")
    return reference_insertion_sort(data[order])


def reference_merge(left, right):
    """Stable two-way merge: the left run wins ties."""
    if len(left) == 0:
        return np.array(right).copy()
    if len(right) == 0:
        return np.array(left).copy()
    left, right = list(left), list(right)
    merged = []
    i = j = 0
    while i < len(left) and j < len(right):
        if right[j] < left[i]:
            merged.append(right[j])
            j += 1
        else:
            merged.append(left[i])
            i += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    charge(float(len(merged)), "compare")
    charge(float(len(merged)), "move")
    return np.array(merged, dtype=float)


def reference_sort(config, data):
    """The sort polyalgorithm with every merge node run as a real recursion
    and every leaf by its reference, for selectors whose algorithms are
    merge, insertion and bitonic sort."""
    selector = config["selector"]
    ways_param = int(config["merge_ways"])

    def dispatch(segment, depth):
        size = len(segment)
        if size <= 1:
            return segment.copy()
        choice = selector.fallback
        for rule in selector.rules:
            if size < rule.cutoff:
                choice = rule.choice
                break
        if depth >= algorithms.MAX_RECURSION_DEPTH:
            choice = "insertion_sort"
        if choice == "insertion_sort":
            return reference_insertion_sort(segment)
        if choice == "bitonic_sort":
            return reference_bitonic_sort(segment)
        assert choice == "merge_sort", choice
        ways = max(2, min(ways_param, size))
        bounds = np.linspace(0, size, ways + 1, dtype=int)
        runs = [
            dispatch(segment[start:end], depth + 1)
            for start, end in zip(bounds[:-1], bounds[1:])
            if end > start
        ]
        while len(runs) > 1:
            merged = [reference_merge(runs[i], runs[i + 1]) for i in range(0, len(runs) - 1, 2)]
            if len(runs) % 2 == 1:
                merged.append(runs[-1])
            runs = merged
        return runs[0]

    return dispatch(np.asarray(data, dtype=float), 0)


def charged(fn, *args, **kwargs):
    with scoped_counter() as counter:
        output = fn(*args, **kwargs)
    return output, counter


def assert_same_run(kernel, reference, *args, **kwargs):
    """Kernel and reference agree on every output bit and every charge."""
    out, counter = charged(kernel, *args, **kwargs)
    ref_out, ref_counter = charged(reference, *args, **kwargs)
    assert out.dtype == ref_out.dtype
    assert out.tobytes() == ref_out.tobytes()
    assert counter.by_category == ref_counter.by_category
    assert counter.total == ref_counter.total


def _rng():
    return np.random.default_rng(20150613)


CASES = {
    "random": _rng().uniform(-100.0, 100.0, size=300),
    "sorted": np.arange(200.0),
    "reversed": np.arange(200.0)[::-1].copy(),
    "few-distinct": _rng().choice([1.0, 2.0, 3.0], size=257),
    "integers": _rng().integers(-50, 50, size=140),
    "signed-zeros": np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0] * 30),
}

finite_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(0, 160),
    elements=st.one_of(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.sampled_from([0.0, -0.0, 1.0, 1.0, 2.5]),
    ),
)


@pytest.mark.parametrize("case", sorted(CASES))
def test_insertion_sort_matches_reference(case):
    assert_same_run(algorithms.insertion_sort, reference_insertion_sort, CASES[case])


@settings(max_examples=60, deadline=None)
@given(data=finite_arrays)
def test_insertion_sort_matches_reference_on_drawn_arrays(data):
    assert_same_run(algorithms.insertion_sort, reference_insertion_sort, data)


@pytest.mark.parametrize("n", [0, 1, 127, 128, 129, 300, 513])
def test_inversion_count_matches_pairwise_count(n):
    """Sizes straddle the 128-wide leaf block and the merge widths above it."""
    values = _rng().integers(0, 40, size=n).astype(float)
    pairwise = int(np.count_nonzero(np.triu(values[:, None] > values[None, :], k=1)))
    assert algorithms._count_inversions(values) == pairwise


@pytest.mark.parametrize(
    "data",
    [
        _rng().uniform(-1.0, 1.0, size=100),
        _rng().uniform(-1.0, 1.0, size=64),
        _rng().integers(0, 9, size=37),
        np.array([0.0, -0.0, 2.0, -1.0, -0.0, 0.0, 3.0] * 5),
        np.array([3.0, np.nan, 1.0, 2.0, np.nan, -1.0, 0.5] * 4),
    ],
    ids=["fast-path", "power-of-two", "integers", "negative-zero", "nan"],
)
def test_bitonic_sort_matches_reference_network(data):
    """NaN and negative zero force the vectorized network; other data takes
    the fast path, whose output and charge must still be the network's."""
    assert_same_run(algorithms.bitonic_sort, reference_bitonic_sort, data)


@settings(max_examples=40, deadline=None)
@given(data=finite_arrays)
def test_bitonic_sort_matches_reference_network_on_drawn_arrays(data):
    assert_same_run(algorithms.bitonic_sort, reference_bitonic_sort, data)


@settings(max_examples=60, deadline=None)
@given(data=finite_arrays, bits_per_pass=st.integers(1, 12))
def test_radix_sort_matches_reference(data, bits_per_pass):
    assert_same_run(
        algorithms.radix_sort, reference_radix_sort, data, bits_per_pass=bits_per_pass
    )


@pytest.mark.parametrize(
    "left, right",
    [
        (np.array([-0.0, 1.0]), np.array([0.0, 1.0])),
        (np.array([0.0, 2.0, 2.0]), np.array([-0.0, 2.0])),
        (np.array([]), np.array([1.0, 2.0])),
    ],
    ids=["left-zero-first", "ties-keep-left-run-first", "empty-run"],
)
def test_merge_two_is_the_stable_merge(left, right):
    assert_same_run(algorithms._merge_two, reference_merge, left, right)


@pytest.mark.parametrize(
    "triple",
    [(1.0, 2.0, 3.0), (3.0, 1.0, 2.0), (2.0, 2.0, 1.0), (np.nan, 1.0, 2.0), (1.0, np.nan, 0.0)],
    ids=["ascending", "rotated", "tie", "nan-first", "nan-middle"],
)
def test_median3_pivot_is_the_median(triple):
    """The direct comparison returns np.median's value, NaN included."""
    data = np.array(triple)
    pivot = algorithms._choose_pivot(data, "median3", None)
    expected = float(np.median(data))
    assert pivot == expected or (math.isnan(pivot) and math.isnan(expected))


SELECTORS = {
    "insertion-leaves": Selector(rules=(SelectorRule(16, "insertion_sort"),), fallback="merge_sort"),
    "bitonic-leaves": Selector(rules=(SelectorRule(9, "bitonic_sort"),), fallback="merge_sort"),
    "mixed-leaves": Selector(
        rules=(SelectorRule(5, "insertion_sort"), SelectorRule(24, "bitonic_sort")),
        fallback="merge_sort",
    ),
}

MERGE_INPUTS = {
    "random": _rng().uniform(-1e3, 1e3, size=333),
    "few-distinct": _rng().choice([0.0, 1.5, 2.0], size=200),
    "signed-zeros": np.array([0.0, -0.0, 1.0, -1.0] * 40),
}


@pytest.mark.parametrize("data_name", sorted(MERGE_INPUTS))
@pytest.mark.parametrize("selector_name", sorted(SELECTORS))
def test_collapsed_merge_sort_matches_recursion(selector_name, data_name):
    """``run_sort`` collapses these merge subtrees (or, for signed zeros
    under bitonic leaves, declines and recurses); either way it returns and
    charges what the uncollapsed reference recursion does."""
    program = SortBenchmark().program
    for ways in (2, 3, 7):
        config = program.default_configuration().with_updates(
            selector=SELECTORS[selector_name], merge_ways=ways
        )
        assert_same_run(run_sort, reference_sort, config, MERGE_INPUTS[data_name])


@pytest.mark.parametrize(
    "data, rules",
    [
        (np.array([2.0, np.nan, 1.0, 0.0] * 10), ((16, "insertion_sort"),)),
        (np.array([0.0, -0.0, 1.0, -1.0] * 10), ((9, "bitonic_sort"),)),
        (np.arange(40.0)[::-1].copy(), ((16, "quick_sort"),)),
    ],
    ids=["nan", "negative-zero-under-bitonic-leaves", "data-dependent-leaf"],
)
def test_collapse_declines_what_it_cannot_reproduce(data, rules):
    assert algorithms.merge_sort_collapsed(data, 0, 2, rules, "merge_sort") is None
