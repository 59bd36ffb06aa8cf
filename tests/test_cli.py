"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import EXPERIMENTS, build_parser, main, verify_experiments_index


def test_info_runs(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "repro" in out and "bft" in out


def test_package_inventory_matches_subpackages_on_disk():
    from pathlib import Path

    import repro

    on_disk = [p.parent.name for p in Path(repro.__file__).parent.glob("*/__init__.py")]
    assert sorted(repro.__all__) == sorted(on_disk)


def test_experiments_lists_all(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    for exp_id in ["E1", "E12", "A1", "A2"]:
        assert exp_id in out


def test_demo_runs_and_is_safe(capsys):
    assert main(["demo", "--duration", "100000", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "SAFE" in out


def test_demo_protocol_choice_validated():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["demo", "--protocol", "raft9000"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


# ----------------------------------------------------------------------
# experiments index drift detection
# ----------------------------------------------------------------------

def test_experiments_index_matches_benchmarks_on_disk():
    # The regression the ISSUE asks for: hand-maintained index must not
    # drift from the actual bench files.
    assert verify_experiments_index() == []


def test_experiments_verify_flag_passes(capsys):
    assert main(["experiments", "--verify"]) == 0
    assert "index verified" in capsys.readouterr().out


def test_verify_detects_missing_file_and_unindexed_bench(tmp_path):
    for _, _, bench in EXPERIMENTS:
        (tmp_path / bench).write_text("")
    (tmp_path / "bench_zz_unindexed.py").write_text("")
    first_indexed = EXPERIMENTS[0][2]
    (tmp_path / first_indexed).unlink()
    problems = verify_experiments_index(tmp_path)
    assert any("bench_zz_unindexed.py" in p for p in problems)
    assert any(first_indexed in p and "missing" in p for p in problems)


# ----------------------------------------------------------------------
# campaign subcommands
# ----------------------------------------------------------------------

def test_campaign_list_names_builtins(capsys):
    assert main(["campaign", "list"]) == 0
    out = capsys.readouterr().out
    for name in ["throughput", "rejuv-apt", "smoke", "scaling"]:
        assert name in out


def test_campaign_run_report_and_resume(tmp_path, capsys):
    args = [
        "campaign", "run", "smoke",
        "--out", str(tmp_path),
        "--seeds", "1",
        "--quiet",
        "--set", "duration=30000",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "minbft" in out and "campaign:smoke" in out

    summary_path = tmp_path / "smoke" / "summary.json"
    summary = json.loads(summary_path.read_text())
    assert summary["n_trials_ok"] == 2
    assert summary["groups"][0]["params"]["duration"] == 30000

    # Second invocation resumes: everything already complete.
    assert main(args) == 0
    assert "2 resumed-skip" in capsys.readouterr().out

    # Standalone report over the stored spec.
    assert main(["campaign", "report", "smoke", "--out", str(tmp_path)]) == 0
    assert "campaign:smoke" in capsys.readouterr().out


def test_campaign_report_without_directory_fails(tmp_path, capsys):
    assert main(["campaign", "report", "nothere", "--out", str(tmp_path)]) == 1
    assert "missing spec.json" in capsys.readouterr().err


def test_campaign_run_unknown_name_fails_cleanly(tmp_path, capsys):
    assert main(["campaign", "run", "no-such-campaign", "--out", str(tmp_path)]) == 2
    assert "unknown campaign" in capsys.readouterr().err


def test_campaign_set_unknown_name_exits_2_naming_the_known_ones(tmp_path, capsys):
    """A typo'd --set used to run the default campaign under a new hash."""
    assert main(["campaign", "run", "smoke", "--seeds", "1",
                 "--set", "duraton=1000", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "'duraton'" in err and "duration" in err and "warmup" in err
    assert not (tmp_path / "smoke").exists()


def test_campaign_set_override_parses_json():
    from repro.cli import _parse_override

    assert _parse_override("duration=5000") == ("duration", 5000)
    assert _parse_override("label=fast") == ("label", "fast")
    assert _parse_override("flag=true") == ("flag", True)
    with pytest.raises(Exception):
        _parse_override("no-equals-sign")


# ----------------------------------------------------------------------
# shard subcommand
# ----------------------------------------------------------------------

def test_shard_runs_and_reports_safe(capsys):
    assert main(["shard", "--shards", "2", "--clients", "2",
                 "--duration", "90000", "--no-rejuvenation"]) == 0
    out = capsys.readouterr().out
    assert "safety=SAFE" in out
    assert "shards=2" in out
    assert "s0" in out and "s1" in out


def _forbid_start(monkeypatch):
    from repro.shard import ShardedSystem

    def must_not_start(self, warmup=0.0):
        raise AssertionError("the service was started before --kill-shard was checked")

    monkeypatch.setattr(ShardedSystem, "start", must_not_start)


def test_shard_kill_unknown_shard_rejected(capsys, monkeypatch):
    _forbid_start(monkeypatch)  # rejected before the warm-up is simulated
    assert main(["shard", "--shards", "2", "--duration", "60000",
                 "--kill-shard", "s9"]) == 2
    assert "unknown shard 's9'; have s0, s1" in capsys.readouterr().err


def test_mesoscale_kill_unknown_shard_rejected(capsys, monkeypatch):
    _forbid_start(monkeypatch)
    assert main(["mesoscale", "--duration", "60000", "--kill-shard", "s9"]) == 2
    assert "unknown shard 's9'; have s0, s1, s2, s3" in capsys.readouterr().err


def test_shard_protocol_choice_validated():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["shard", "--protocol", "raft9000"])
