"""The benchmark's ``large-grid`` workload runs against the current package.

``bench/workloads.py`` reads the operator API (``assemble_regional``,
``principal_eigenpair`` and the dense ``OperatorMatrix.entries`` for its
matrix digest and its eigh oracle), so a change to that API fails here
rather than only as a failed benchmark run.  The module is loaded from its
file, as the benchmark's child process loads it, and its smoke pass runs.
"""

import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def test_large_grid_smoke_pass_meets_its_oracle(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("_bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    inputs = workloads.build("large-grid", 1, "smoke")
    ops, eigen = workloads.run_pass("large-grid", inputs, workloads.Clock(), tmp_path)
    assert ops and all(op.ok for op in ops), [op.detail for op in ops if not op.ok]
    assert len(eigen) == len(inputs[0])
    for solve in eigen:
        ref = workloads.dense_lambda1(solve["n"], solve["s"], solve["matrix"])
        assert ref["same_matrix"], solve["id"]
        assert abs(solve["lambda1"] - ref["lambda1"]) <= 1e-10 * ref["lambda1"], solve["id"]
