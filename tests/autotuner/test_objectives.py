"""Tests for the dual accuracy-then-time tuning objective."""

import pytest

from repro.autotuner.objectives import CandidateEvaluation, TuningObjective
from repro.lang.accuracy import AccuracyMetric, AccuracyRequirement
from repro.lang.config import Configuration, ConfigurationSpace, IntegerParameter
from repro.lang.cost import charge
from repro.lang.program import PetaBricksProgram


def make_program():
    """Cost = 10 / quality; accuracy = quality / 10 (so speed and accuracy conflict)."""
    space = ConfigurationSpace([IntegerParameter("quality", 1, 10)])

    def run(config, _inp):
        charge(100.0 / config["quality"])
        return config["quality"] / 10.0

    return PetaBricksProgram(
        name="tradeoff",
        config_space=space,
        run_func=run,
        accuracy_metric=AccuracyMetric("q", lambda inp, out: out),
        accuracy_requirement=AccuracyRequirement(accuracy_threshold=0.5),
    )


def config(program, quality):
    return Configuration({"quality": quality}, space=program.config_space)


def best(evaluations):
    """The evaluation the tuner keeps: the least ``sort_key``."""
    return min(evaluations, key=lambda e: e.sort_key())


class TestTuningObjective:
    def test_evaluate_records_time_and_accuracy(self):
        program = make_program()
        objective = TuningObjective(program, [None])
        [evaluation] = objective.evaluate_many([config(program, 5)])
        assert evaluation.mean_time == pytest.approx(20.0)
        assert evaluation.accuracies == (0.5,)
        assert evaluation.meets_accuracy

    def test_infeasible_candidate_flagged(self):
        program = make_program()
        objective = TuningObjective(program, [None])
        [evaluation] = objective.evaluate_many([config(program, 2)])
        assert not evaluation.meets_accuracy

    def test_best_prefers_feasible_over_faster_infeasible(self):
        program = make_program()
        objective = TuningObjective(program, [None])
        # quality 5: time 20, accurate; 10: time 10, accurate; 1: time 100, inaccurate.
        feasible, infeasible, fast_bad = objective.evaluate_many(
            [config(program, 5), config(program, 10), config(program, 1)]
        )
        # Make an explicitly infeasible but fast candidate by hand:
        fast_infeasible = CandidateEvaluation(
            config=config(program, 1),
            mean_time=1.0,
            accuracies=(0.1,),
            satisfaction_rate=0.0,
            meets_accuracy=False,
        )
        assert best([feasible, fast_infeasible]) is feasible
        assert best([feasible, infeasible, fast_bad]).mean_time == pytest.approx(10.0)

    def test_best_among_feasible_is_fastest(self):
        program = make_program()
        objective = TuningObjective(program, [None])
        slower, faster = objective.evaluate_many([config(program, 5), config(program, 10)])
        assert best([slower, faster]) is faster

    def test_counts_evaluations(self):
        program = make_program()
        objective = TuningObjective(program, [None, None, None])
        objective.evaluate_many([config(program, 5)])
        assert objective.evaluations_performed == 3

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            TuningObjective(make_program(), [])

    def test_fixed_accuracy_program_always_feasible(self):
        space = ConfigurationSpace([IntegerParameter("x", 1, 2)])
        program = PetaBricksProgram("fixed", space, lambda c, i: charge(1.0))
        objective = TuningObjective(program, [None])
        [evaluation] = objective.evaluate_many([program.default_configuration()])
        assert evaluation.meets_accuracy
