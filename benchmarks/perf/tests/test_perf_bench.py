"""Self-tests of the benchmark harness (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q`` (~1 min).
"""

import functools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parents[1]
for path in (str(ROOT / "src"), str(PERF.parent)):
    if path not in sys.path:
        sys.path.insert(0, path)

from perf import probes, run  # noqa: E402
from perf.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perf.trace import SYNC_CALLS, Tracer  # noqa: E402
from perf.workloads import GATED, WORKLOADS, measure  # noqa: E402
from repro.sim.simulator import Simulator  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
QUICK = 0.3  # --seconds for in-test windows


@pytest.fixture(scope="module")
def e2e_records():
    workload = WORKLOADS["e2e-mixed"]
    return [measure(workload, seed, QUICK) for seed in (5, 5, 6)]


def test_manifest_matches_benchmark_json_and_contract():
    manifest = run.manifest()
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert on_disk == manifest, "regenerate: python3 benchmarks/perf/run.py manifest > BENCHMARK.json"
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert manifest["paths"] == ["benchmarks/perf"]
    assert 1 <= manifest["run_seconds"] <= 60
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in manifest["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in manifest["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in manifest["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])


def test_same_seed_same_digest_other_seed_other_digest(e2e_records):
    first, again, other = e2e_records
    assert first["sim"] == again["sim"]
    assert first["sim_digest"] == again["sim_digest"]
    assert first["sim_digest"] != other["sim_digest"]
    assert all(c["ok"] for r in e2e_records for c in r["checks"])
    assert first["failed"] == 0 and first["attempted"] >= 1


def test_traced_pass_reproduces_the_untraced_record(e2e_records):
    tracer = Tracer(keep_spans=True)
    traced = measure(WORKLOADS["e2e-mixed"], 5, QUICK, tracer)
    assert traced["sim"] == e2e_records[0]["sim"]
    assert all(c["ok"] for c in traced["checks"]), traced["checks"]
    layers = traced["traced"]
    assert sum(v for k, v in layers.items() if k.endswith(".events")) == traced["sim"]["sim.events_fired"]
    assert abs(sum(v for k, v in layers.items() if k.endswith(".self_frac")) - 1.0) < 1e-6
    assert layers["bft.events"] > 0 and layers["noc.self_s"] > 0 and layers["crypto.self_s"] > 0


def test_layers_separate_between_write_and_read_workloads():
    write = measure(WORKLOADS["write-pbft"], 5, QUICK, Tracer())
    read = measure(WORKLOADS["read-leased"], 5, QUICK, Tracer())
    assert all(c["ok"] for r in (write, read) for c in r["checks"])
    assert write["traced"]["bft.events_per_op"] >= 5 * read["traced"]["bft.events_per_op"]
    assert write["sim"]["noc.packets_per_op"] >= 3 * read["sim"]["noc.packets_per_op"]


def test_fault_storm_runs_its_fault_path():
    record = measure(WORKLOADS["fault-storm"], 11, 1.0)
    assert all(c["ok"] for c in record["checks"]), record["checks"]
    assert record["sim"]["bft.view_changes"] >= 1
    assert record["sim"]["shard.degraded_transitions"] == 1
    assert record["sim"]["shard.detect_ms"] > 0
    assert record["failed"] > 0 and not WORKLOADS["fault-storm"].gated


def test_patches_are_restored_even_when_the_run_raises():
    before = [(ns, attr, vars(ns)[attr]) for ns, attr, _ in SYNC_CALLS]
    schedule_at = Simulator.schedule_at
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            assert Simulator.schedule_at is not schedule_at
            assert all(vars(ns)[attr] is not raw for ns, attr, raw in before)
            raise RuntimeError("boom")
    assert Simulator.schedule_at is schedule_at
    assert all(vars(ns)[attr] is raw for ns, attr, raw in before)


def _contract_line(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    for value in result["metrics"].values():
        assert set(value) == {"value", "unit"} and isinstance(value["value"], (int, float))
    return result, lines


def test_contract_line_untraced_has_every_end_to_end_metric(capsys):
    code = run.main(["--workload", "read-leased", "--seed", "3", "--seconds", str(QUICK), "--trace", "0"])
    result, lines = _contract_line(capsys)
    assert code == 0
    assert list(result["metrics"]) == [m.name for m in END_TO_END]
    assert all(result["metrics"][m.name]["unit"] == m.unit for m in END_TO_END)
    assert all(result["metrics"][m.name]["value"] > 0 for m in END_TO_END)  # never 0
    printed = "\n".join(lines[:-1])
    assert all(m.name in printed for m in END_TO_END)


def test_contract_line_traced_has_every_per_layer_metric(capsys, monkeypatch):
    monkeypatch.setattr(probes, "run_probes", functools.partial(probes.run_probes, reps=1))
    code = run.main(["--workload", "write-pbft", "--seed", "3", "--seconds", str(QUICK), "--trace", "1"])
    result, _ = _contract_line(capsys)
    assert code == 0
    assert list(result["metrics"]) == [m.name for m in PER_LAYER]


def test_run_exits_nonzero_without_the_program(tmp_path):
    """The driver also runs the command where only BENCHMARK.json and paths exist."""
    bare = tmp_path / "benchmarks" / "perf"
    bare.mkdir(parents=True)
    for source in PERF.glob("*.py"):
        (bare / source.name).write_bytes(source.read_bytes())
    done = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", "e2e-mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, env={"PATH": "/usr/bin:/bin"}, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


@pytest.fixture(scope="module")
def result_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "a.json"
    code = run.main(["--smoke", "--workloads", "read-leased,fault-storm", "--out", str(out)])
    assert code == 0
    return out


def test_result_file_schema(result_file):
    result = json.loads(result_file.read_text(encoding="utf-8"))
    assert result["schema"] == 1 and result["smoke"] is True and result["repeats"] == 1
    assert set(result["workloads"]) == {"read-leased", "fault-storm"}
    assert set(result["probes"]) == set(probes.PROBES)
    for entry in result["workloads"].values():
        assert set(entry["end_to_end"]) == {m.name for m in END_TO_END}
        for stats in entry["end_to_end"].values():
            assert {"median", "q1", "q3", "min", "max", "n", "unit", "better", "clock"} <= set(stats)
        assert set(entry["per_layer"]) <= {m.name for m in PER_LAYER}
        assert all(NAME.fullmatch(n) for n in entry["per_layer"])
        assert all(c["ok"] for c in entry["checks"])
    assert result["workloads"]["fault-storm"]["gated"] is False


def test_compare_passes_a_vs_a_and_flags_a_slowdown(result_file, tmp_path, capsys):
    assert run.main(["compare", str(result_file), str(result_file)]) == 0
    assert "regressed" not in capsys.readouterr().out.replace("0 regressed row(s)", "")

    bound = next(m.bound for m in END_TO_END if m.name == "sim_ops_per_wall_s")
    slowed = json.loads(result_file.read_text(encoding="utf-8"))
    stats = slowed["workloads"]["read-leased"]["end_to_end"]["sim_ops_per_wall_s"]
    for key in ("median", "q1", "q3", "min", "max"):
        stats[key] *= 1.0 - bound - 0.05
    slow_path = tmp_path / "slow.json"
    slow_path.write_text(json.dumps(slowed), encoding="utf-8")
    assert run.main(["compare", str(result_file), str(slow_path)]) == 1
    out = capsys.readouterr().out
    assert re.search(r"sim_ops_per_wall_s .* regressed", out)

    # A changed simulated result under an identical digest can only be a bug.
    slowed["workloads"]["read-leased"]["end_to_end"]["lat_p99_ms"]["median"] *= 1.01
    slow_path.write_text(json.dumps(slowed), encoding="utf-8")
    assert run.main(["compare", str(result_file), str(slow_path)]) == 1

    # Different host speed: host-clock rows cannot be called.
    slowed = json.loads(result_file.read_text(encoding="utf-8"))
    slowed["calib_s"] *= 1.3
    slow_path.write_text(json.dumps(slowed), encoding="utf-8")
    assert run.main(["compare", str(result_file), str(slow_path)]) == 0
    assert "unresolved" in capsys.readouterr().out


def test_gated_workloads_are_the_failure_free_ones():
    assert [w.name for w in GATED] == ["e2e-mixed", "write-pbft", "read-leased"]
    assert all(not w.faults for w in GATED)
