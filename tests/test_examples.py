"""Every ``examples/*.py`` runs to completion.

The examples are the README's first contact and nothing else in tier-1
imports them, so a deleted or renamed public name would break them
silently.  Each is run as ``__main__`` through ``runpy``.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
