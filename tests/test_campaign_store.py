"""Unit tests for the append-only, resumable campaign result store."""

import json

import pytest

from repro.campaign import CampaignSpec, ResultStore, SpecMismatchError


def make_spec(**overrides):
    defaults = dict(name="store-unit", runner="selftest", axes={"a": [1, 2]}, n_seeds=2)
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def record_for(trial, status="ok", attempt=1, **extra):
    rec = {
        "trial_id": trial.trial_id,
        "status": status,
        "attempt": attempt,
        "seed": trial.seed,
        "seed_index": trial.seed_index,
        "params": trial.params,
    }
    if status == "ok":
        rec["metrics"] = {"value": trial.index}
    rec.update(extra)
    return rec


def test_open_writes_spec_json_with_hash(tmp_path):
    spec = make_spec()
    store = ResultStore(tmp_path, spec).open()
    data = json.loads(store.spec_path.read_text())
    assert data["spec_hash"] == spec.spec_hash()
    assert data["runner"] == "selftest"


def test_append_and_read_roundtrip(tmp_path):
    spec = make_spec()
    trials = spec.trials()
    with ResultStore(tmp_path, spec) as store:
        for trial in trials[:3]:
            store.append(record_for(trial))
    store = ResultStore(tmp_path, spec).open()
    assert [r["trial_id"] for r in store.records()] == [
        t.trial_id for t in trials[:3]
    ]
    assert store.attempt_count() == 3


def test_completed_ids_only_counts_ok(tmp_path):
    spec = make_spec()
    trials = spec.trials()
    store = ResultStore(tmp_path, spec).open()
    store.append(record_for(trials[0], status="failed"))
    store.append(record_for(trials[0], status="ok", attempt=2))
    store.append(record_for(trials[1], status="timeout"))
    assert store.completed_ids() == {trials[0].trial_id}


def test_ok_records_first_wins_and_sorted(tmp_path):
    spec = make_spec()
    trials = spec.trials()
    store = ResultStore(tmp_path, spec).open()
    store.append(record_for(trials[1]))
    store.append(record_for(trials[0]))
    duplicate = record_for(trials[0])
    duplicate["metrics"] = {"value": -999}
    store.append(duplicate)
    ok = store.ok_records()
    assert [r["trial_id"] for r in ok] == sorted(
        [trials[0].trial_id, trials[1].trial_id]
    )
    by_id = {r["trial_id"]: r for r in ok}
    assert by_id[trials[0].trial_id]["metrics"]["value"] == trials[0].index


def test_truncated_tail_is_tolerated(tmp_path):
    spec = make_spec()
    trials = spec.trials()
    store = ResultStore(tmp_path, spec).open()
    store.append(record_for(trials[0]))
    store.close()
    with open(store.results_path, "a", encoding="utf-8") as handle:
        handle.write('{"trial_id": "t9999-dead", "status": "o')  # kill mid-write
    reopened = ResultStore(tmp_path, spec).open()
    assert reopened.completed_ids() == {trials[0].trial_id}
    assert reopened.attempt_count() == 1
    # The resumed run's first record must not be glued onto the partial line.
    reopened.append(record_for(trials[1]))
    reopened.close()
    assert reopened.completed_ids() == {trials[0].trial_id, trials[1].trial_id}
    assert [r["trial_id"] for r in reopened.ok_records()] == sorted(
        t.trial_id for t in trials[:2]
    )


def test_spec_mismatch_refused(tmp_path):
    ResultStore(tmp_path, make_spec()).open()
    changed = make_spec(axes={"a": [1, 2, 3]}, name="store-unit")
    with pytest.raises(SpecMismatchError):
        ResultStore(tmp_path, changed).open()


def test_fresh_discards_previous_results(tmp_path):
    spec = make_spec()
    store = ResultStore(tmp_path, spec).open()
    store.append(record_for(spec.trials()[0]))
    store.close()
    changed = make_spec(axes={"a": [1, 2, 3]})
    fresh = ResultStore(tmp_path, changed).open(fresh=True)
    assert fresh.completed_ids() == set()
    assert json.loads(fresh.spec_path.read_text())["spec_hash"] == changed.spec_hash()


def test_open_maintains_completed_set_incrementally(tmp_path):
    spec = make_spec()
    trials = spec.trials()
    store = ResultStore(tmp_path, spec).open()
    assert store.completed_ids() == set()
    store.append(record_for(trials[0]))
    assert trials[0].trial_id in store.completed_ids()
    store.append(record_for(trials[1], status="failed"))
    assert trials[1].trial_id not in store.completed_ids()
    store.append(record_for(trials[1]))
    assert trials[1].trial_id in store.completed_ids()


def test_completed_ids_served_from_memory_not_rescans(tmp_path):
    # The streaming-resume contract: after open(), membership queries
    # never re-read the results file.  Proof: remove the file and the
    # set is still served.
    spec = make_spec()
    trials = spec.trials()
    store = ResultStore(tmp_path, spec).open()
    store.append(record_for(trials[0]))
    store.close()
    store.results_path.unlink()
    assert store.completed_ids() == {trials[0].trial_id}


def test_completed_ids_returns_a_copy(tmp_path):
    spec = make_spec()
    store = ResultStore(tmp_path, spec).open()
    store.append(record_for(spec.trials()[0]))
    leaked = store.completed_ids()
    leaked.add("t9999-bogus")
    assert "t9999-bogus" not in store.completed_ids()


def test_reopen_streams_previous_results_once(tmp_path):
    spec = make_spec()
    trials = spec.trials()
    first = ResultStore(tmp_path, spec).open()
    for trial in trials:
        first.append(record_for(trial))
    first.close()
    reopened = ResultStore(tmp_path, spec).open()
    assert reopened.completed_ids() == {t.trial_id for t in trials}
    assert reopened.attempt_count() == len(trials)
