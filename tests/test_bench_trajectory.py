"""The one writer of the ``benchmarks/BENCH_*.json`` trajectories."""

import importlib.util
import json

import pytest

from repro.cli import benchmarks_dir


def test_append_trajectory_appends_and_refuses_an_unreadable_file(tmp_path, monkeypatch):
    # benchmarks/conftest.py claims REPRO_TABLE_LOG at import; keep that in tmp_path.
    monkeypatch.setenv("REPRO_TABLE_LOG", str(tmp_path / "tables.txt"))
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", benchmarks_dir() / "conftest.py"
    )
    bench_conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_conftest)

    path = tmp_path / "BENCH_X.json"
    bench_conftest.append_trajectory(str(path), {"speedup": 2.5}, True)
    bench_conftest.append_trajectory(str(path), {"speedup": 3.0}, False)
    first, second = json.loads(path.read_text())
    assert (first["speedup"], first["smoke"]) == (2.5, True)
    assert (second["speedup"], second["smoke"]) == (3.0, False)
    assert {"timestamp", "cores", "python"} <= set(first)

    for damaged in ('[{"speedup": 2.5', '{"speedup": 2.5}'):  # truncated; not a list
        path.write_text(damaged)
        with pytest.raises(ValueError, match="BENCH_X.json"):
            bench_conftest.append_trajectory(str(path), {"speedup": 1.0}, True)
        assert path.read_text() == damaged
