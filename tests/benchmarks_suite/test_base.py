"""Tests for the benchmark registry and the shared Benchmark interface."""

import pytest

from repro.benchmarks_suite import get_benchmark, registry
from repro.benchmarks_suite.base import Benchmark, InputGenerator

#: The eight Table-1 tests.
EXPECTED_TESTS = {
    "sort1", "sort2", "clustering1", "clustering2",
    "binpacking", "svd", "poisson2d", "helmholtz3d",
}


class TestRegistry:
    def test_all_paper_tests_registered(self):
        assert set(registry()) == EXPECTED_TESTS

    def test_get_benchmark_returns_variant(self):
        variant = get_benchmark("sort1")
        assert variant.variant == "real_world"
        assert variant.benchmark.name == "sort"
        assert variant.name == "sort/real_world"

    def test_sort2_uses_synthetic_variant(self):
        assert get_benchmark("sort2").variant == "synthetic"

    def test_unknown_test_rejected(self):
        with pytest.raises(KeyError):
            get_benchmark("nonexistent")

    @pytest.mark.parametrize("test_name", sorted(EXPECTED_TESTS))
    def test_every_registered_benchmark_builds(self, test_name):
        variant = get_benchmark(test_name)
        program = variant.benchmark.program
        assert len(program.config_space) >= 1
        assert program.features.num_features() >= 3
        generators = variant.benchmark.input_generators()
        assert variant.variant in generators

    @pytest.mark.parametrize("test_name", sorted(EXPECTED_TESTS))
    def test_generate_and_run_one_input(self, test_name):
        """Smoke test: every benchmark can generate an input and run it with
        its default configuration."""
        variant = get_benchmark(test_name)
        program = variant.benchmark.program
        inputs = variant.benchmark.generate_inputs(1, variant.variant, seed=0)
        result = program.run(program.default_configuration(), inputs[0])
        assert result.time > 0

    def test_program_is_cached(self):
        benchmark = get_benchmark("binpacking").benchmark
        assert benchmark.program is benchmark.program


class TestBenchmarkInterface:
    def test_unknown_variant_rejected(self):
        benchmark = get_benchmark("svd").benchmark
        with pytest.raises(KeyError):
            benchmark.generate_inputs(1, "nope")

    def test_input_generator_rejects_negative_count(self):
        generator = InputGenerator("g", "test", item=lambda index, seed: 0)
        with pytest.raises(ValueError):
            generator.source(-1)

    def test_abstract_benchmark_cannot_instantiate(self):
        with pytest.raises(TypeError):
            Benchmark()
