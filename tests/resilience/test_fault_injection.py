"""Tests for the deterministic fault-injection harness."""

import json

import pytest

from repro.resilience.faults import (
    FaultError,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    fault_scope,
    maybe_fail,
)


class TestFaultSpec:
    def test_requires_exactly_one_trigger(self):
        with pytest.raises(ValueError):
            FaultSpec(site="s", nth=1, probability=0.5)
        with pytest.raises(ValueError):
            FaultSpec(site="s")

    def test_rejects_unknown_action(self):
        with pytest.raises(ValueError):
            FaultSpec(site="s", action="explode", nth=1)
        for retired in ("drop", "truncate"):  # no site applies them
            with pytest.raises(ValueError):
                FaultSpec(site="s", action=retired, nth=1)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            FaultSpec(site="s", nth=0)
        with pytest.raises(ValueError):
            FaultSpec(site="s", probability=1.5)

    def test_record_round_trip(self):
        spec = FaultSpec(
            site="cache.save",
            action="delay",
            nth=3,
            count=2,
            delay_seconds=0.5,
            match="store.db",
        )
        assert FaultSpec.from_record(spec.to_record()) == spec


class TestFaultPlan:
    def test_json_round_trip_and_digest_stability(self):
        plan = FaultPlan(
            faults=[
                FaultSpec(site="a", nth=1),
                FaultSpec(site="b", probability=0.5, count=3),
            ],
            seed=7,
        )
        restored = FaultPlan.from_json(plan.to_json())
        assert restored == plan
        assert restored.digest() == plan.digest()

    def test_digest_differs_across_plans(self):
        one = FaultPlan(faults=[FaultSpec(site="a", nth=1)])
        two = FaultPlan(faults=[FaultSpec(site="a", nth=2)])
        assert one.digest() != two.digest()

    @pytest.mark.parametrize(
        "payload, field",
        [
            ('{"faults": [{"action": "raise", "nth": 1}]}', "'site'"),
            ('{"faults": [{"site": "s", "nth": 1, "when": 2}]}', "'when'"),
            ('{"faults": [{"site": "s", "nth": "1"}]}', "'nth'"),
            ('{"faults": [{"site": "s", "nth": true}]}', "'nth'"),
            ('{"faults": [{"site": "s", "probability": "high"}]}', "'probability'"),
            ('{"faults": [{"site": "s", "action": "explode", "nth": 1}]}', "action"),
            ('{"faults": [{"site": "s"}]}', "nth/probability"),
            ('{"faults": ["cache.save"]}', "'site'"),
            ('{"faults": {"site": "s"}}', "'faults'"),
            ('{"faults": [], "seed": "3"}', "'seed'"),
            ('{"fault": []}', "'faults'"),
            ("[]", "'faults'"),
            ('{"faults": [', "Expecting value"),  # not JSON at all
        ],
    )
    def test_from_json_names_the_bad_field(self, payload, field):
        with pytest.raises(ValueError, match=field):
            FaultPlan.from_json(payload)


class TestInjector:
    def test_nth_trigger_fires_exactly_once(self):
        injector = FaultInjector(FaultPlan(faults=[FaultSpec(site="s", nth=3)]))
        hits = [injector.check("s") is not None for _ in range(9)]
        assert hits == [False, False, True] + [False] * 6

    def test_nth_trigger_with_count_fires_on_multiples(self):
        injector = FaultInjector(
            FaultPlan(faults=[FaultSpec(site="s", nth=2, count=2)])
        )
        hits = [injector.check("s") is not None for _ in range(8)]
        assert hits == [False, True, False, True] + [False] * 4

    def test_probability_trigger_is_seed_deterministic(self):
        plan = FaultPlan(faults=[FaultSpec(site="s", probability=0.3)], seed=11)
        one = FaultInjector(plan)
        two = FaultInjector(plan)
        trace_one = [one.check("s") is not None for _ in range(50)]
        trace_two = [two.check("s") is not None for _ in range(50)]
        assert trace_one == trace_two
        assert any(trace_one) and not all(trace_one)  # p=0.3 actually mixes

    def test_probability_differs_across_seeds(self):
        def trace(seed):
            plan = FaultPlan(
                faults=[FaultSpec(site="s", probability=0.5)], seed=seed
            )
            injector = FaultInjector(plan)
            return [injector.check("s") is not None for _ in range(64)]

        assert trace(0) != trace(1)

    def test_match_filters_on_detail(self):
        injector = FaultInjector(
            FaultPlan(faults=[FaultSpec(site="s", nth=1, match="victim")])
        )
        assert injector.check("s", detail="other") is None
        assert injector.check("s", detail="the-victim-file") is not None

    def test_sites_count_independently(self):
        injector = FaultInjector(
            FaultPlan(
                faults=[FaultSpec(site="a", nth=2), FaultSpec(site="b", nth=1)]
            )
        )
        assert injector.check("b") is not None
        assert injector.check("a") is None
        assert injector.check("a") is not None

    def test_snapshot_reports_calls_and_fires(self):
        injector = FaultInjector(FaultPlan(faults=[FaultSpec(site="s", nth=2)]))
        for _ in range(3):
            injector.check("s")
        snapshot = injector.snapshot()
        assert snapshot["calls"]["s"] == 3
        assert snapshot["fired"]["s"] == 1


class TestInstallation:
    def test_fault_scope_installs_and_clears(self):
        plan = FaultPlan(faults=[FaultSpec(site="s", nth=1, count=2)])
        with fault_scope(plan) as injector:
            with pytest.raises(FaultError):
                maybe_fail("s")
        maybe_fail("s")  # the spec could fire again, but its scope is over
        assert injector.snapshot() == {"calls": {"s": 1}, "fired": {"s": 1}}

    def test_no_injector_is_free_of_effects(self):
        assert maybe_fail("anything") is None  # no-op


class TestActions:
    def test_maybe_fail_raises_fault_error(self):
        plan = FaultPlan(faults=[FaultSpec(site="s", nth=1)])
        with fault_scope(plan):
            with pytest.raises(FaultError) as excinfo:
                maybe_fail("s")
        assert excinfo.value.site == "s"
        assert isinstance(excinfo.value, OSError)

    def test_delay_sleeps_briefly(self):
        import time

        plan = FaultPlan(
            faults=[
                FaultSpec(site="z", action="delay", nth=1, delay_seconds=0.01)
            ]
        )
        with fault_scope(plan):
            started = time.perf_counter()
            maybe_fail("z")
            assert time.perf_counter() - started >= 0.009


class TestReplayDeterminism:
    def test_identical_plans_replay_identically(self):
        """The core chaos property: same plan, same seed, same firing trace."""
        plan = FaultPlan(
            faults=[
                FaultSpec(site="a", probability=0.4),
                FaultSpec(site="b", nth=3, count=2),
            ],
            seed=5,
        )

        def trace():
            injector = FaultInjector(plan)
            return [
                (site, injector.check(site) is not None)
                for _ in range(40)
                for site in ("a", "b")
            ]

        assert trace() == trace()

    def test_env_round_trip_preserves_plan(self):
        plan = FaultPlan(
            faults=[FaultSpec(site="s", probability=0.25, count=4)], seed=9
        )
        assert FaultPlan.from_json(json.dumps(json.loads(plan.to_json()))) == plan
