"""Tests for the work-unit cost accounting."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.lang.config import ConfigurationSpace, IntegerParameter
from repro.lang.cost import CostCounter, charge, current_counter, scoped_counter
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
