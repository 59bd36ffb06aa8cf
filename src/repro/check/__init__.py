"""Promise checks: named scenarios, one runner, one table of pinned outcomes.

The repo's promises — agreement and order under f faults and
intrusions, and service again once a fault is repaired — are checked by
playing out a :class:`Scenario` (:mod:`repro.check.scenario`) into an
:class:`Outcome` and holding it against the expectation table
(:mod:`repro.check.suites`).  The campaign runner ``check``
(:mod:`repro.campaign.runners`) runs one named scenario per trial, so
``repro campaign run byzantine|membership|crash-cycles --workers 2``
sweeps a suite with the executor's workers and resume, and fails when
any trial departs from its row.  Standard library only, besides
``repro`` itself; nothing on the simulated side imports this package.
"""

from repro.campaign.scenario import Compromise, Crash, KillShard, Step
from repro.check.scenario import Outcome, Requesters, Scenario, Trial, run
from repro.check.suites import EXPECTED, SUITES, Departure, check, scenario

__all__ = [
    "Compromise",
    "Crash",
    "Departure",
    "EXPECTED",
    "KillShard",
    "Outcome",
    "Requesters",
    "SUITES",
    "Scenario",
    "Step",
    "Trial",
    "check",
    "run",
    "scenario",
]
