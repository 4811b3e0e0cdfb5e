"""Tests for ``scripts/check_docs.py``'s checks of the docs against the code.

The script is loaded from its file (``scripts/`` is not a package).  Each
case feeds one markdown line to ``check_code_references``, which resolves
what the line names against this repository's own ``src/`` tree and paths.
"""

import importlib.util
import os

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location(
    "check_docs", os.path.join(_ROOT, "scripts", "check_docs.py")
)
check_docs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_docs)


def problems(line):
    return check_docs.check_code_references("doc.md", [line])


class TestModuleReferences:
    @pytest.mark.parametrize(
        "reference",
        [
            "repro.runtime",
            "repro.runtime.executors",
            "repro.runtime.executors.get_executor",
            "repro.runtime.executors.ProcessExecutor",
            "repro.runtime.executors.EXECUTORS",
            "repro.runtime.ProcessExecutor",
        ],
        ids=["package", "module", "def", "class", "assignment", "re-export"],
    )
    def test_existing_reference_passes(self, reference):
        assert problems(f"see `{reference}` for details") == []

    @pytest.mark.parametrize(
        "reference",
        [
            "repro.nosuchmodule",
            # The parent package exists; the submodule file does not.
            "repro.runtime.nosuchmodule",
            "repro.runtime.executors.NoSuchExecutor",
        ],
        ids=["missing-module", "missing-submodule", "undefined-name"],
    )
    def test_stale_reference_is_flagged(self, reference):
        found = problems(f"run `python -m {reference}` first")
        assert len(found) == 1
        assert found[0].startswith("doc.md:1: ")
        assert reference in found[0]


class TestRepoPaths:
    @pytest.mark.parametrize(
        "line",
        [
            "the pool lives in src/repro/runtime/executors.py",
            "the runtime tests are tests/runtime/test_*.py",
            "see docs/runtime.md.",
        ],
        ids=["file", "glob", "sentence-end"],
    )
    def test_existing_path_passes(self, line):
        assert problems(line) == []

    @pytest.mark.parametrize(
        "path",
        [
            "src/repro/worker.py",
            "tests/runtime/test_distributed.py",
            # The benchmark tree is deleted; a path into it is stale.
            "benchmarks/conftest.py",
        ],
    )
    def test_missing_path_is_flagged(self, path):
        found = problems(f"it was {path}.")
        assert found == [f"doc.md:1: path {path} does not exist"]

    def test_paths_outside_the_repo_are_not_checked(self):
        assert problems("kernel headers in /usr/src/linux, notes in ~/docs/x") == []


class TestFlagsAndVariables:
    def test_flags(self):
        assert problems("--executor process --no-stream-inputs") == []
        found = problems("--lease-timeout 3")
        assert found == ["doc.md:1: flag --lease-timeout is defined by no add_argument"]

    def test_environment_variables(self):
        assert problems("REPRO_WORKERS=2") == []
        assert problems("REPRO_COORDINATOR=host:1") == [
            "doc.md:1: REPRO_COORDINATOR is read by no code"
        ]


class TestChaosPresets:
    def test_defined_presets_pass(self):
        assert problems("repro chaos experiment sort2 --preset store-write-fail") == []
        assert problems("repro chaos load sort2 --preset=serve-brownout") == []
        assert problems("`--preset <name>` picks a plan") == []  # a placeholder

    def test_undefined_preset_is_flagged(self):
        assert problems("repro chaos experiment sort2 --preset shard-torn-write") == [
            "doc.md:1: chaos preset shard-torn-write is not a key of PRESETS"
        ]

    def test_presets_are_read_from_the_chaos_module(self):
        assert check_docs._chaos_presets() == {"store-write-fail", "serve-brownout"}


class TestExecutorNames:
    def test_defined_executors_pass(self):
        assert problems("repro train sort1 --executor process --workers 2") == []
        assert problems("`--executor serial|process`, or REPRO_EXECUTOR=serial") == []
        assert problems("`--executor <name>` picks one; see `--executor`/`--workers`") == []

    def test_undefined_executor_is_flagged(self):
        assert problems("--executor serial|thread|process") == [
            "doc.md:1: executor thread is not a key of EXECUTORS"
        ]
        assert problems("REPRO_EXECUTOR=thread REPRO_WORKERS=2 pytest") == [
            "doc.md:1: executor thread is not a key of EXECUTORS"
        ]

    def test_executors_are_read_from_the_executors_module(self):
        assert check_docs._executor_names() == {"serial", "process"}


class TestClassMembers:
    @pytest.mark.parametrize(
        "reference",
        [
            "Runtime.run_tasks",
            "RunCache.DEFAULT_MAX_ENTRIES",
            "Level2Config.max_subsets",
            "Runtime.telemetry",
            "SerialExecutor.close",
        ],
        ids=["def", "class-attribute", "annotated-field", "self-assignment", "base-member"],
    )
    def test_defined_member_passes(self, reference):
        assert problems(f"see `{reference}` and `{reference}(...)`") == []

    def test_missing_member_is_flagged(self):
        assert problems("set `Level2Config.cv_folds` to 3") == [
            "doc.md:1: Level2Config.cv_folds: class Level2Config under src/ "
            "has no member cv_folds"
        ]

    def test_unknown_class_is_ignored(self):
        assert problems("`NoSuchClass.member`, `np.asarray` and `config.cv_folds`") == []

    def test_only_backticked_spans_are_checked(self):
        assert problems("Level2Config.cv_folds outside a code span") == []
