"""The package imports only what it declares: the standard library and numpy.

``pyproject.toml`` lists ``numpy`` as the one runtime dependency, and CI
installs nothing else before it runs this suite.  Every ``import`` and
``from ... import`` in ``src/repro`` is checked, those inside functions
included, because a deferred import fails just as hard when it is reached.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
DECLARED = {"numpy", "repro"}


def imported_top_level_names(path):
    """(line, top-level module name) of every absolute import in one file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


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
