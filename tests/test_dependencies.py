"""The package imports only what it declares: the standard library and numpy.

``pyproject.toml`` lists ``numpy`` as the one runtime dependency, and CI
installs nothing else before it runs this suite.  Every ``import`` and
``from ... import`` in ``src/repro`` is checked, those inside functions
included, because a deferred import fails just as hard when it is reached.

The promise checks (``repro.check``) sit on the measurement side: nothing
simulated imports them, and they import nothing but the standard library
and ``repro``, in Python 3.9 syntax (the oldest CI runs).
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
DECLARED = {"numpy", "repro"}


SIMULATED = ("sim", "noc", "soc", "bft", "core", "shard", "mesoscale")


def imported_modules(path):
    """(line, module name) of every absolute import in one file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def imported_top_level_names(path):
    """(line, top-level module name) of every absolute import in one file."""
    for line, name in imported_modules(path):
        yield line, name.partition(".")[0]


@pytest.mark.skipif(sys.version_info < (3, 10), reason="sys.stdlib_module_names is 3.10+")
def test_src_imports_only_the_standard_library_numpy_and_itself():
    allowed = set(sys.stdlib_module_names) | DECLARED
    undeclared = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in imported_top_level_names(path)
        if name not in allowed
    ]
    assert not undeclared, undeclared


def test_nothing_simulated_imports_the_checks():
    offending = [
        f"{path.relative_to(SRC.parent)}:{line}"
        for package in SIMULATED
        for path in sorted((SRC / package).rglob("*.py"))
        for line, name in imported_modules(path)
        if name == "repro.check" or name.startswith("repro.check.")
    ]
    assert not offending, offending


@pytest.mark.skipif(sys.version_info < (3, 10), reason="sys.stdlib_module_names is 3.10+")
def test_the_checks_import_only_the_standard_library_and_repro_in_python_3_9_syntax():
    allowed = set(sys.stdlib_module_names) | {"repro"}
    for path in sorted((SRC / "check").rglob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), feature_version=(3, 9))
        undeclared = [name for _, name in imported_top_level_names(path) if name not in allowed]
        assert not undeclared, (path.name, undeclared)
