"""Tests for selectors and the selector configuration-space parameter."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.choices import Choice, ChoiceSite
from repro.lang.selector import Selector, SelectorParameter, SelectorRule


def make_site():
    site = ChoiceSite("sort")
    site.add(Choice("insertion", lambda x: x, terminal=True))
    site.add(Choice("quick", lambda x: x))
    site.add(Choice("merge", lambda x: x))
    return site


class TestSelector:
    def test_select_uses_first_matching_rule(self):
        selector = Selector(
            rules=(SelectorRule(600, "insertion"), SelectorRule(1420, "quick")),
            fallback="merge",
        )
        assert selector.select(10) == "insertion"
        assert selector.select(599) == "insertion"
        assert selector.select(600) == "quick"
        assert selector.select(1419) == "quick"
        assert selector.select(5000) == "merge"

    def test_paper_figure2_example(self):
        """The selector in Figure 2: merge above 1420, quick above 600, else insertion."""
        selector = Selector(
            rules=(SelectorRule(600, "InsertionSort"), SelectorRule(1420, "QuickSort")),
            fallback="MergeSort",
        )
        assert selector.select(100) == "InsertionSort"
        assert selector.select(1000) == "QuickSort"
        assert selector.select(100000) == "MergeSort"

    def test_single_selector(self):
        selector = Selector.single("quick")
        assert selector.depth == 0
        assert selector.select(0) == "quick"
        assert selector.select(10**9) == "quick"

    def test_non_increasing_cutoffs_rejected(self):
        with pytest.raises(ValueError):
            Selector(rules=(SelectorRule(10, "a"), SelectorRule(10, "b")), fallback="c")
        with pytest.raises(ValueError):
            Selector(rules=(SelectorRule(20, "a"), SelectorRule(10, "b")), fallback="c")

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValueError):
            SelectorRule(-1, "a")

    def test_empty_fallback_rejected(self):
        with pytest.raises(ValueError):
            Selector(rules=(), fallback="")

    def test_describe_mentions_all_rules(self):
        selector = Selector(rules=(SelectorRule(5, "a"),), fallback="b")
        text = selector.describe()
        assert "n<5:a" in text and "else:b" in text


class TestSelectorParameter:
    def test_sample_is_valid(self, rng):
        parameter = SelectorParameter("sel", make_site(), max_depth=3, max_cutoff=4096)
        for _ in range(100):
            assert parameter.validate(parameter.sample(rng))

    def test_mutation_preserves_validity(self, rng):
        parameter = SelectorParameter("sel", make_site(), max_depth=3, max_cutoff=4096)
        selector = parameter.sample(rng)
        for _ in range(200):
            selector = parameter.mutate(selector, rng)
            assert parameter.validate(selector)

    def test_default_is_valid(self):
        parameter = SelectorParameter("sel", make_site())
        assert parameter.validate(parameter.default())

    def test_default_prefers_terminal_base_case(self):
        parameter = SelectorParameter("sel", make_site())
        default = parameter.default()
        assert default.depth >= 1
        assert default.rules[0].choice == "insertion"

    def test_validate_rejects_unknown_choice(self):
        parameter = SelectorParameter("sel", make_site())
        bogus = Selector(rules=(), fallback="bogus")
        assert not parameter.validate(bogus)

    def test_validate_rejects_excess_depth(self):
        parameter = SelectorParameter("sel", make_site(), max_depth=1, max_cutoff=100)
        deep = Selector(
            rules=(SelectorRule(5, "insertion"), SelectorRule(10, "quick")),
            fallback="merge",
        )
        assert not parameter.validate(deep)

    def test_validate_rejects_cutoff_out_of_range(self):
        parameter = SelectorParameter("sel", make_site(), max_cutoff=100, min_cutoff=4)
        assert not parameter.validate(
            Selector(rules=(SelectorRule(2, "insertion"),), fallback="merge")
        )
        assert not parameter.validate(
            Selector(rules=(SelectorRule(200, "insertion"),), fallback="merge")
        )

    def test_empty_site_rejected(self):
        with pytest.raises(ValueError):
            SelectorParameter("sel", ChoiceSite("empty"))

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            SelectorParameter("sel", make_site(), min_cutoff=10, max_cutoff=5)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000), sizes=st.lists(st.integers(0, 10**6), min_size=1, max_size=20))
def test_property_selector_always_returns_known_choice(seed, sizes):
    """Property: a sampled selector maps every size to a registered alternative."""
    parameter = SelectorParameter("sel", make_site(), max_depth=4, max_cutoff=100_000)
    selector = parameter.sample(random.Random(seed))
    for size in sizes:
        assert selector.select(size) in ("insertion", "quick", "merge")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_property_selector_is_monotone_partition(seed):
    """Property: rules partition sizes monotonically (choice changes only at cutoffs)."""
    parameter = SelectorParameter("sel", make_site(), max_depth=4, max_cutoff=10_000)
    selector = parameter.sample(random.Random(seed))
    boundaries = [rule.cutoff for rule in selector.rules]
    previous = 0
    for boundary, rule in zip(boundaries, selector.rules):
        for size in (previous, max(previous, boundary - 1)):
            assert selector.select(size) == rule.choice
        previous = boundary
    assert selector.select(10_000 + 1) == selector.fallback
