"""Build/lint the documentation tree: markdown checks + link validation.

CI's docs job runs this over ``docs/`` and the top-level markdown files.
Checks, per file:

* **relative links resolve** -- every ``[text](target)`` whose target is
  not an absolute URL or a pure in-page anchor must point at an existing
  file (anchors on relative links are checked against the target file's
  headings);
* **in-page anchors resolve** against the file's own headings;
* **fenced code blocks are balanced** (an unclosed fence swallows the rest
  of the document silently on most renderers);
* **no empty link targets** like ``[text]()``.

The user docs (``README.md`` and ``docs/``) are also checked against the
code, fenced blocks included, so a deleted option cannot linger there:

* **every ``--flag`` exists** -- some ``add_argument("--flag", ...)`` under
  ``src/`` or ``scripts/`` defines it (``--no-X`` counts when ``--X`` is
  defined, as ``argparse.BooleanOptionalAction`` adds it);
* **every ``REPRO_*`` variable is read** -- its name appears as a quoted
  string in a Python file under ``src/``, ``scripts/``, ``tests/`` or
  ``benchmarks/``, on a line that does not merely set or delete it;
* **every ``repro.*`` module exists** -- the longest dotted prefix that
  names a file under ``src/`` (``a/b.py`` or ``a/b/__init__.py``) is the
  module, and the next name, if any, must be defined at its top level (a
  ``def``, ``class``, assignment or import), so a deleted submodule is
  caught even though its parent package still exists;
* **every repo path exists** -- a path under ``src/``, ``tests/``,
  ``benchmarks/``, ``scripts/``, ``docs/``, ``perfbench/`` or
  ``examples/`` (relative to the repository root) names a file or
  directory (a ``*`` in it must match one);
* **every chaos preset exists** -- the ``NAME`` of ``--preset NAME`` is a
  key of ``PRESETS`` in ``src/repro/resilience/chaos.py``;
* **every executor exists** -- each ``|``-separated ``NAME`` of
  ``--executor NAME`` or ``REPRO_EXECUTOR=NAME`` is a key of ``EXECUTORS``
  in ``src/repro/runtime/executors.py``;
* **every class member exists** -- a ``Class.member`` inside a backticked
  span, whose ``Class`` is a top-level class under ``src/``, names a member
  of that class or of one of its bases under ``src/``: a ``def``, a nested
  class, a class attribute, an annotated field or a ``self.x =``
  assignment.  Names that are not such a class are not checked.

All of them read the source as text, without importing ``repro``.

Exit status 0 when clean, 1 with one line per problem otherwise::

    python scripts/check_docs.py            # checks docs/ + *.md at the root
    python scripts/check_docs.py README.md  # or an explicit file list
"""

from __future__ import annotations

import ast
import functools
import glob
import os
import re
import sys
from typing import Dict, Iterator, List, Optional

#: The repository root (this script lives in ``scripts/``).
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: ``[text](target)`` -- deliberately simple; nested brackets in link text
#: are not used in this repo's docs.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]*)\)")

_HEADING = re.compile(r"^#{1,6}\s+(.*)$")

_FLAG = re.compile(r"(?<![\w-])--([a-z][a-z0-9-]*)")
_DEFINED_FLAG = re.compile(r"add_argument\(\s*[\"'](--[a-z0-9-]+)[\"']")
_ENV_VAR = re.compile(r"\bREPRO_[A-Z0-9_]+\b")
_QUOTED_ENV_VAR = re.compile(r"[\"'](REPRO_[A-Z0-9_]+)[\"']")
_MODULE = re.compile(r"(?<![\w.])repro(?:\.[A-Za-z_]\w*)+")
_REPO_PATH = re.compile(
    r"(?<![\w./-])(?:src|tests|benchmarks|scripts|docs|perfbench|examples)/[\w./*-]*"
)
_PRESET = re.compile(r"--preset[ =]([\w-]+)")
_EXECUTOR = re.compile(r"(?:--executor[ =]|REPRO_EXECUTOR=)([\w|-]+)")
_CODE_SPAN = re.compile(r"`([^`]+)`")
_CLASS_MEMBER = re.compile(r"(?<![\w.])([A-Za-z_]\w*)\.([A-Za-z_]\w*)")


def _github_anchor(heading: str) -> str:
    """GitHub's anchor slug for a heading (the subset our docs need)."""
    text = heading.strip().lower()
    text = re.sub(r"[`*_~]", "", text)  # inline formatting
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links -> text
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _strip_code_blocks(lines: List[str]) -> List[str]:
    """Blank out fenced code blocks so links inside them are not checked."""
    stripped: List[str] = []
    in_fence = False
    for line in lines:
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            stripped.append("")
            continue
        stripped.append("" if in_fence else line)
    return stripped


@functools.lru_cache(maxsize=None)
def _anchors_of(path: str) -> set:
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    anchors = set()
    for line in _strip_code_blocks(lines):
        match = _HEADING.match(line)
        if match:
            anchors.add(_github_anchor(match.group(1)))
    return anchors


def _python_sources(*dirs: str) -> Iterator[str]:
    for directory in dirs:
        for path in glob.glob(os.path.join(_ROOT, directory, "**", "*.py"), recursive=True):
            with open(path, "r", encoding="utf-8") as handle:
                yield handle.read()


@functools.lru_cache(maxsize=None)
def _defined_flags() -> frozenset:
    """Every ``--flag`` an ``add_argument`` under src/ or scripts/ defines."""
    return frozenset(
        flag
        for text in _python_sources("src", "scripts")
        for flag in _DEFINED_FLAG.findall(text)
    )


@functools.lru_cache(maxsize=None)
def _read_env_vars() -> frozenset:
    """Every ``REPRO_*`` name quoted in code other than a setenv/delenv line."""
    return frozenset(
        name
        for text in _python_sources("src", "scripts", "tests", "benchmarks")
        for line in text.splitlines()
        if "setenv" not in line and "delenv" not in line
        for name in _QUOTED_ENV_VAR.findall(line)
    )


def _module_file(dotted: str) -> Optional[str]:
    """The file under src/ that defines module ``dotted``, or None."""
    base = os.path.join(_ROOT, "src", *dotted.split("."))
    for candidate in (base + ".py", os.path.join(base, "__init__.py")):
        if os.path.isfile(candidate):
            return candidate
    return None


@functools.lru_cache(maxsize=None)
def _top_level_names(module_file: str) -> frozenset:
    """Names a module binds at its top level: defs, classes, assignments
    and imports (parsed, never executed)."""
    with open(module_file, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), module_file)
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return frozenset(names)


def _module_exists(reference: str) -> bool:
    """True when ``repro.a.b.C...`` names a module under src/ (plus, when
    a name follows the module, one that module defines)."""
    parts = reference.split(".")
    for end in range(len(parts), 0, -1):
        module_file = _module_file(".".join(parts[:end]))
        if module_file is not None:
            return end == len(parts) or parts[end] in _top_level_names(module_file)
    return False


@functools.lru_cache(maxsize=None)
def _dict_keys(module: str, name: str) -> frozenset:
    """The constant keys of the top-level dict ``name`` in ``module`` (a
    path under ``src/repro``; parsed, never executed)."""
    path = os.path.join(_ROOT, "src", "repro", module)
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Dict):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == name for t in targets):
                return frozenset(
                    key.value for key in node.value.keys if isinstance(key, ast.Constant)
                )
    return frozenset()


def _chaos_presets() -> frozenset:
    """The keys of ``PRESETS`` in the chaos module."""
    return _dict_keys(os.path.join("resilience", "chaos.py"), "PRESETS")


def _executor_names() -> frozenset:
    """The keys of ``EXECUTORS`` in the executors module."""
    return _dict_keys(os.path.join("runtime", "executors.py"), "EXECUTORS")


@functools.lru_cache(maxsize=None)
def _src_classes() -> Dict[str, List[ast.ClassDef]]:
    """Every top-level class under src/, by name (parsed, never executed)."""
    classes: Dict[str, List[ast.ClassDef]] = {}
    for text in _python_sources("src"):
        for node in ast.parse(text).body:
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, []).append(node)
    return classes


def _own_members(node: ast.ClassDef) -> set:
    """The names one class body defines, ``self.x`` assignments included."""
    members = set()
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            members.add(item.name)
        elif isinstance(item, (ast.Assign, ast.AnnAssign)):
            targets = item.targets if isinstance(item, ast.Assign) else [item.target]
            members.update(t.id for t in targets if isinstance(t, ast.Name))
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Store)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "self"
        ):
            members.add(sub.attr)
    return members


@functools.lru_cache(maxsize=None)
def _class_members(name: str) -> frozenset:
    """The members of top-level class ``name`` and of its bases under src/."""
    members: set = set()
    pending, seen = [name], set()
    while pending:
        current = pending.pop()
        if current in seen:
            continue
        seen.add(current)
        for node in _src_classes().get(current, ()):
            members |= _own_members(node)
            for base in node.bases:
                if isinstance(base, ast.Name):
                    pending.append(base.id)
                elif isinstance(base, ast.Attribute):
                    pending.append(base.attr)
    return frozenset(members)


def _is_user_doc(path: str) -> bool:
    relative = os.path.relpath(os.path.abspath(path), _ROOT)
    return relative == "README.md" or relative.startswith("docs" + os.sep)


def check_code_references(path: str, lines: List[str]) -> List[str]:
    """Flags, environment variables, modules, paths, chaos presets,
    executors and class members the doc names but the repository lacks."""
    problems: List[str] = []
    flags, env_vars = _defined_flags(), _read_env_vars()
    for lineno, line in enumerate(lines, start=1):
        for name in _FLAG.findall(line):
            flag = "--" + name
            if flag in flags or (name.startswith("no-") and "--" + name[3:] in flags):
                continue
            problems.append(f"{path}:{lineno}: flag {flag} is defined by no add_argument")
        for name in _ENV_VAR.findall(line):
            if name not in env_vars:
                problems.append(f"{path}:{lineno}: {name} is read by no code")
        for reference in _MODULE.findall(line):
            if not _module_exists(reference):
                problems.append(f"{path}:{lineno}: {reference}: no module under src/ defines it")
        for repo_path in _REPO_PATH.findall(line):
            repo_path = repo_path.rstrip(".")
            if not glob.glob(os.path.join(_ROOT, repo_path)):  # globs allowed
                problems.append(f"{path}:{lineno}: path {repo_path} does not exist")
        for name in _PRESET.findall(line):
            if name not in _chaos_presets():
                problems.append(f"{path}:{lineno}: chaos preset {name} is not a key of PRESETS")
        for names in _EXECUTOR.findall(line):
            for name in names.split("|"):
                if name not in _executor_names():
                    problems.append(f"{path}:{lineno}: executor {name} is not a key of EXECUTORS")
        for span in _CODE_SPAN.findall(line):
            for class_name, member in _CLASS_MEMBER.findall(span):
                if class_name in _src_classes() and member not in _class_members(class_name):
                    problems.append(
                        f"{path}:{lineno}: {class_name}.{member}: class {class_name} "
                        f"under src/ has no member {member}"
                    )
    return problems


def check_file(path: str) -> List[str]:
    """All problems found in one markdown file."""
    problems: List[str] = []
    with open(path, "r", encoding="utf-8") as handle:
        raw_lines = handle.read().splitlines()
    if _is_user_doc(path):
        problems.extend(check_code_references(path, raw_lines))

    if sum(1 for line in raw_lines if line.lstrip().startswith("```")) % 2:
        problems.append(f"{path}: unbalanced fenced code block (odd number of ```)")

    base = os.path.dirname(os.path.abspath(path))
    for lineno, line in enumerate(_strip_code_blocks(raw_lines), start=1):
        for match in _LINK.finditer(line):
            target = match.group(1)
            if target == "":
                problems.append(f"{path}:{lineno}: empty link target")
                continue
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, https:, mailto:
                continue
            if target.startswith("#"):
                if _github_anchor(target[1:]) not in _anchors_of(path):
                    problems.append(
                        f"{path}:{lineno}: in-page anchor {target!r} has no heading"
                    )
                continue
            file_part, _, anchor = target.partition("#")
            resolved = os.path.normpath(os.path.join(base, file_part))
            if not os.path.exists(resolved):
                problems.append(
                    f"{path}:{lineno}: broken relative link {target!r} "
                    f"({resolved} does not exist)"
                )
                continue
            if anchor and resolved.endswith(".md"):
                if _github_anchor(anchor) not in _anchors_of(resolved):
                    problems.append(
                        f"{path}:{lineno}: anchor {('#' + anchor)!r} not found "
                        f"in {resolved}"
                    )
    return problems


def default_targets(root: str) -> List[str]:
    targets = sorted(glob.glob(os.path.join(root, "*.md")))
    targets += sorted(glob.glob(os.path.join(root, "docs", "**", "*.md"), recursive=True))
    return targets


def main(argv: List[str]) -> int:
    targets = argv or default_targets(_ROOT)
    problems: List[str] = []
    for path in targets:
        problems.extend(check_file(path))
    for problem in problems:
        print(problem)
    print(
        f"checked {len(targets)} markdown file(s): "
        + ("OK" if not problems else f"{len(problems)} problem(s)")
    )
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
