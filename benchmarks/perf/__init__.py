"""The repo's performance benchmark (see README.md in this directory).

Entry point: ``python3 benchmarks/perf/run.py``.  ``BENCHMARK.json`` at the
repo root is generated from :mod:`perf.metrics` and :mod:`perf.workloads`
(``run.py manifest``).
"""
