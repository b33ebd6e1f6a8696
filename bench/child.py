"""One measured child process of the benchmark; started by run.py.

Modes:
  setup   import fracrd, build the workload inputs, report when ready, exit;
  pass    the same set-up, then one pass of the workload (traced with
          --trace 1), reporting times, peak RSS and per-operation results;
  oracle  dense eigh of the large-grid operators named in --oracle.

The child prints exactly one JSON line on its standard output.  Times are
read from the system-wide monotonic clock, so run.py can subtract its own
spawn time from ``ready_at`` to get the set-up time.
"""

import os
import sys
import time

# Anything the program prints must not corrupt the result line.
_RESULT = os.fdopen(os.dup(1), "w")
os.dup2(2, 1)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402


def _versions():
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "pass", "oracle"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--work", required=True, help="scratch directory inside the checkout")
    parser.add_argument("--oracle", default="[]", help="JSON list of eigen solves to check")
    args = parser.parse_args()

    import workloads

    if args.mode == "oracle":
        solves = json.loads(args.oracle)
        out = {e["id"]: workloads.dense_lambda1(e["n"], e["s"], e["matrix"]) for e in solves}
        _emit({"oracle": out})
        return 0

    inputs = workloads.build(args.workload, args.seed, args.scale)
    ready_at = time.monotonic()
    if args.mode == "setup":
        _emit({"ready_at": ready_at})
        return 0

    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    out_dir = Path(args.work) / f"out-{args.workload}-{os.getpid()}"
    clock = workloads.Clock()
    try:
        ops, eigen = workloads.run_pass(args.workload, inputs, clock, out_dir, recorder)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result = {
        "ready_at": ready_at,
        "wall_s": clock.wall,
        "cpu_s": clock.cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": [vars(op) for op in ops],
        "eigen": eigen,
        "versions": _versions(),
    }
    if recorder is not None:
        spans.write_csv(recorder.spans, Path(args.work) / f"spans-{args.workload}.csv")
        result["layers"] = spans.aggregate(recorder.spans)
        result["top_self"] = spans.top_self(recorder.spans)
        result["missing"] = recorder.missing
    _emit(result)
    return 0


def _emit(obj) -> None:
    _RESULT.write(json.dumps(obj) + "\n")
    _RESULT.flush()


if __name__ == "__main__":
    sys.exit(main())
