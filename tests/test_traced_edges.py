"""The layer edges the benchmark requires of `qfi_sweep` come from live calls.

`perfbench/run.py` checks, on a traced benchmark run, that every
(caller layer, callee layer) edge in `COVERAGE["qfi_sweep"]` records calls.
This runs the two commands of that workload on shipped configs under the
same tracer, so a refactor that drops one of those calls fails here too.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
from nhmetro import cli  # noqa: E402
from tracer import LayerTracer  # noqa: E402

RUNS = [("qfi", "qfi_pt_s.json"), ("optimal", "optimal_probe_sweep.json")]


@pytest.fixture
def tracer():
    t = LayerTracer().install()
    yield t
    t.uninstall()


def test_qfi_sweep_edges_are_traced(tracer, tmp_path):
    for command, name in RUNS:
        assert cli.main([command, "--config", os.path.join(ROOT, "configs", name),
                         "--out", str(tmp_path / f"{command}.csv"), "--quiet"]) == 0
    layers, edges = run.COVERAGE["qfi_sweep"]
    traced = tracer.layer_edges()
    totals = tracer.layer_totals()
    assert tracer.stale_references() == []
    assert [layer for layer in layers if totals[layer][0] == 0] == []
    assert [edge for edge in edges if traced[edge] == 0] == []
    assert all(tracer.calls[f"cli.cmd_{command}"] == 1 for command, _ in RUNS)
