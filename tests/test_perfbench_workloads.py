"""Every benchmark query must pass its own check.

``perfbench/workloads.py`` pairs each query with a check against an
independent computation, and the benchmark counts an answer that fails it
as incorrect.  This test builds each workload for seed 1, runs every query
once and applies its check, so a change that breaks an answer shows here
before a benchmark run.  It only reads ``perfbench/``.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("workload", ["orbits", "forcing", "arithmetic"])
def test_every_query_passes_its_check(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports its sibling oracles
    workloads = importlib.import_module("workloads")
    queries = workloads.build(workload, 1, str(tmp_path))
    assert len(queries) >= 100
    failed = [f"#{i} {q.name}" for i, q in enumerate(queries) if not q.check(q.run())]
    assert failed == []
