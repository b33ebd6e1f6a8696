"""Self-test of the benchmark: every workload at reduced size, both modes.

    python3 bench/smoke.py

Checks that BENCHMARK.json and spec.py name the same workloads and metrics,
that each run prints every metric by name with its unit and ends with the
result line, and that a directory without the fracrd sources makes the
benchmark exit non-zero without a result.  Takes under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from spec import END_TO_END, PER_LAYER, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIMEOUT_S = 180


def _run(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=TIMEOUT_S)


def check_manifest() -> None:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in manifest["workloads"]) == WORKLOADS, manifest["workloads"]
    for key, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in manifest[key]}
        assert listed == units, f"{key} in BENCHMARK.json differs from spec.py"


def check_run(workload: str, trace: int) -> None:
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    units = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == set(units), set(result["metrics"]) ^ set(units)
    for name, unit in units.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit and isinstance(metric["value"], (int, float)), metric
        assert any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}")
                   for line in lines), f"{name} not printed with its unit"
    if trace:
        assert any(line.startswith("wall_s traced=") for line in lines)


def check_without_sources() -> None:
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "--workload", "decay", "--seed", "1", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0, "ran without the fracrd sources"
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_manifest()
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace)
            print(f"ok {workload} trace={trace}", flush=True)
    check_without_sources()
    print("ok without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
