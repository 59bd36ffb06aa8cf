"""The promise checks' own rules: the expectation table is strict both
ways, its every row is replayed, the suites are CI's sweeps, and a killed
suite resumes without re-running a finished trial."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.campaign import CampaignExecutor, CampaignSpec, ResultStore, write_summary
from repro.check import EXPECTED, SUITES, Departure, Outcome, check, scenario
from repro.check.suites import WEDGED
from tests import checks


def synthetic(safe, served=(5, 5)):
    return Outcome(safe, served, 0 in served, 0 if safe else 1)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_every_pinned_row_holds(name):
    check(scenario(name), checks.outcome(name))


@pytest.mark.parametrize("name, result", [
    ("membership/scale-out/drop@0/28", synthetic(True)),  # pinned unsafe, now safe
    ("crash-cycles/pbft/5000+60000/1", synthetic(True)),  # pinned wedged, now served
    ("byzantine/pbft/silent@2/1", synthetic(False)),  # unpinned, unsafe
    ("byzantine/pbft/silent@2/1", synthetic(True, (0, 5))),  # unpinned, a client starved
])
def test_a_departure_either_way_fails_and_names_its_row(monkeypatch, name, result):
    monkeypatch.setitem(EXPECTED, "crash-cycles/pbft/5000+60000/1", WEDGED)
    with pytest.raises(Departure, match=name.replace("+", r"\+")):
        check(scenario(name), result)


def test_a_byzantine_primary_may_stall_but_not_diverge():
    s = scenario("byzantine/minbft/equivocate@0/7")
    check(s, synthetic(True, (0, 0)))
    with pytest.raises(Departure):
        check(s, synthetic(False))


def test_the_suites_are_the_ci_sweeps():
    sizes = {name: len(names()) for name, names in SUITES.items()}
    assert sizes == {"byzantine": 2400, "membership": 1040, "crash-cycles": 80}
    for suite in SUITES.values():
        names = suite()
        assert [scenario(n).name for n in names] == names
        assert len(set(names)) == len(names)


CHILD = (
    "import json, sys\n"
    "from repro.campaign import CampaignExecutor, CampaignSpec, ResultStore\n"
    "spec = CampaignSpec.from_dict(json.loads(sys.argv[1]))\n"
    "CampaignExecutor(spec, ResultStore(sys.argv[2], spec).open(), workers=2).run()\n"
)


def test_a_killed_two_worker_suite_resumes_without_re_running_a_finished_trial(tmp_path):
    names = [f"byzantine/minbft/silent@2/{seed}" for seed in range(1, 4)]
    spec = CampaignSpec(name="tiny", runner="check", axes={"scenario": names}, n_seeds=1, max_retries=0)
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, json.dumps(spec.to_dict()), str(tmp_path / "killed")],
        start_new_session=True,
    )
    results = tmp_path / "killed" / "tiny" / "results.jsonl"
    deadline = time.monotonic() + 120
    while child.poll() is None and time.monotonic() < deadline:
        if results.exists() and '"status":"ok"' in results.read_text():
            break
        time.sleep(0.05)
    os.killpg(child.pid, signal.SIGKILL)
    child.wait()

    store = ResultStore(tmp_path / "killed", spec).open()
    finished = store.completed_ids()
    assert 0 < len(finished) < len(names), "the kill must land mid-suite"
    stats = CampaignExecutor(spec, store).run()
    assert stats.skipped == len(finished) and stats.succeeded == len(names) - len(finished)
    ok = [r["trial_id"] for r in store.records() if r["status"] == "ok"]
    assert sorted(ok) == sorted(set(ok))  # nothing ran twice
    write_summary(store)
    store.close()

    with ResultStore(tmp_path / "whole", spec).open() as whole:
        CampaignExecutor(spec, whole, workers=1).run()
        write_summary(whole)
    assert store.summary_path.read_bytes() == whole.summary_path.read_bytes()
