"""Tests for the work-unit cost accounting."""

import math
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.config import ConfigurationSpace, IntegerParameter
from repro.lang.cost import (
    CostCounter,
    charge,
    charge_ones,
    current_counter,
    scoped_counter,
)
from repro.lang.program import PetaBricksProgram


class TestCostCounter:
    def test_starts_empty(self):
        counter = CostCounter()
        assert counter.total == 0.0
        assert counter.by_category == {}

    def test_charge_accumulates_total(self):
        counter = CostCounter()
        counter.charge(3.0, "compare")
        counter.charge(2.0, "move")
        assert counter.total == pytest.approx(5.0)

    def test_charge_tracks_categories(self):
        counter = CostCounter()
        counter.charge(3.0, "compare")
        counter.charge(2.0, "compare")
        counter.charge(1.0, "move")
        assert counter.by_category["compare"] == pytest.approx(5.0)
        assert counter.by_category["move"] == pytest.approx(1.0)

    def test_negative_charge_rejected(self):
        counter = CostCounter()
        with pytest.raises(ValueError):
            counter.charge(-1.0)

    def test_merge_combines_counters(self):
        first = CostCounter()
        first.charge(2.0, "a")
        second = CostCounter()
        second.charge(3.0, "a")
        second.charge(1.0, "b")
        first.merge(second)
        assert first.total == pytest.approx(6.0)
        assert first.by_category == {"a": pytest.approx(5.0), "b": pytest.approx(1.0)}

    def test_reset_clears_everything(self):
        counter = CostCounter()
        counter.charge(5.0)
        counter.reset()
        assert counter.total == 0.0
        assert counter.by_category == {}

    def test_snapshot_and_since(self):
        counter = CostCounter()
        counter.charge(4.0)
        mark = counter.snapshot()
        counter.charge(6.0)
        assert counter.since(mark) == pytest.approx(6.0)

    def test_copy_is_independent(self):
        counter = CostCounter()
        counter.charge(1.0, "x")
        clone = counter.copy()
        clone.charge(9.0, "x")
        assert counter.total == pytest.approx(1.0)
        assert clone.total == pytest.approx(10.0)


class TestScopedCounter:
    def test_charge_outside_scope_is_dropped(self):
        assert current_counter() is None
        charge(100.0)  # must not raise
        assert current_counter() is None

    def test_charge_inside_scope_accumulates(self):
        with scoped_counter() as counter:
            charge(2.5, "work")
            charge(1.5, "work")
        assert counter.total == pytest.approx(4.0)

    def test_scope_restores_previous_counter(self):
        with scoped_counter() as outer:
            charge(1.0)
            with scoped_counter() as inner:
                charge(10.0)
            charge(2.0)
        assert inner.total == pytest.approx(10.0)
        assert outer.total == pytest.approx(3.0)
        assert current_counter() is None

    def test_scope_accepts_existing_counter(self):
        counter = CostCounter()
        counter.charge(1.0)
        with scoped_counter(counter):
            charge(2.0)
        assert counter.total == pytest.approx(3.0)

    def test_scope_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with scoped_counter():
                raise RuntimeError("boom")
        assert current_counter() is None

    def test_cost_accounting_isolated_per_run(self):
        """Concurrent runs must not leak charges into each other's counters."""
        space = ConfigurationSpace([IntegerParameter("units", 1, 1000)])

        def run(config, _input):
            charge(float(config["units"]))
            return config["units"]

        program = PetaBricksProgram("charger", space, run)
        configs = [
            program.default_configuration().with_updates(units=units)
            for units in range(1, 201)
        ]
        with ThreadPoolExecutor(8) as pool:
            results = list(pool.map(lambda config: program.run(config, None), configs))
        assert [r.time for r in results] == [float(u) for u in range(1, 201)]


def _n_log2_n(n):
    return n * math.log2(max(n, 2))


#: Running values a unit charge meets: whole counts, the non-integer sort
#: charges of the ``...Decreasing`` heuristics, and arbitrary floats.
start_values = st.one_of(
    st.integers(0, 2**40).map(float),
    st.integers(0, 10**6).map(_n_log2_n),
    st.floats(min_value=0.0, max_value=2.0**40),
)


def _looped(counter, count, category):
    """``count`` separate unit charges on a copy of ``counter``."""
    reference = counter.copy()
    with scoped_counter(reference):
        for _ in range(count):
            charge(1, category)
    return reference


class TestChargeOnes:
    @settings(max_examples=80, deadline=None)
    @given(
        total=start_values,
        category_start=st.one_of(st.none(), start_values),
        count=st.integers(0, 10**5),
    )
    def test_matches_a_loop_of_unit_charges_bit_for_bit(self, total, category_start, count):
        counter = CostCounter(total=total)
        if category_start is not None:
            counter.by_category["probe"] = category_start
        reference = _looped(counter, count, "probe")
        with scoped_counter(counter):
            charge_ones(count, "probe")
        assert counter.total.hex() == reference.total.hex()
        assert list(counter.by_category) == list(reference.by_category)
        for category, value in reference.by_category.items():
            assert counter.by_category[category].hex() == value.hex()

    def test_one_bulk_charge_would_round_differently(self):
        """401 items sorted, then 33,580 probes: one ``charge(33580)`` after
        the ``n log2 n`` sort charge lands on a different float."""
        counter = CostCounter()
        counter.charge(_n_log2_n(401), "sort")
        reference = _looped(counter, 33580, "probe")
        bulk = counter.copy()
        bulk.charge(33580, "probe")
        assert bulk.total != reference.total
        with scoped_counter(counter):
            charge_ones(33580, "probe")
        assert counter.total == reference.total
        assert counter.by_category == reference.by_category

    def test_zero_count_adds_no_category(self):
        with scoped_counter() as counter:
            charge_ones(0, "probe")
        assert counter.total == 0.0
        assert counter.by_category == {}

    def test_negative_count_rejected(self):
        with scoped_counter():
            with pytest.raises(ValueError):
                charge_ones(-1, "probe")

    def test_charge_outside_scope_is_dropped(self):
        assert current_counter() is None
        charge_ones(100, "probe")  # must not raise
        assert current_counter() is None

    def test_steps_one_by_one_where_a_unit_rounds(self):
        """From 2**53 up, ``+ 1.0`` ties round to even and the total stalls."""
        counter = CostCounter(total=2.0**53 - 3.0)
        reference = _looped(counter, 9, "probe")
        with scoped_counter(counter):
            charge_ones(9, "probe")
        assert counter.total == reference.total
