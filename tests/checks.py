"""Named promise-check scenarios for tier-1: each is played once a
session and its outcome held to ``check_outcomes.json``, which was
recorded from the test-local runners these scenarios replaced.  A change
that means to move an outcome updates that file and says so."""

import json
from pathlib import Path

from repro.check import Trial, scenario

GOLDEN = json.loads(Path(__file__).with_name("check_outcomes.json").read_text(encoding="utf-8"))
_outcomes = {}


def trial(name):
    """Play ``name`` out; returns the trial (its group and clients) and
    its outcome, which must be the golden one."""
    built = Trial(scenario(name))
    result = _outcomes[name] = built.run()
    assert result.to_json() == GOLDEN[name], (name, result)
    return built, result


def outcome(name):
    """The outcome of ``name``, played at most once a session."""
    if name not in _outcomes:
        trial(name)
    return _outcomes[name]
