"""Benchmark of fracrd: time to verdict per workload, with a traced per-layer view.

Usage, from the root of a checkout:

    python3 bench/run.py --workload decay --seed 1 --seconds 20 --trace 0

Workloads: decay, blowup, long-memory, large-grid (see BENCHMARK.json for
why each is there).  Every measured pass runs in a fresh child process
(bench/child.py) with one BLAS thread, importing fracrd from ``src/`` of the
checkout.  One client runs the operations one after another (a closed loop).

--trace 0 runs passes until --seconds is used up (at least one) and prints
the end-to-end metrics, each the median over the run's samples:
wall_s and cpu_s of a pass, setup_s of a child (at least nine children per
run, after one warm-up child), peak_rss_mb, and pass_share (operations that
passed / operations attempted).

--trace 1 runs one untraced and one traced pass and prints the per-layer
metrics of the traced pass, with traced and untraced wall_s side by side.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Known defects (spec.KNOWN_DEFECTS) count as
failed operations but do not make the run incorrect; any other failure, a
lambda1 that disagrees with dense eigh, or passes of one run that disagree
bit for bit, do.  Scratch files go to .bench_work/ in the checkout; the last
result of each workload and seed is kept there as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import END_TO_END, KNOWN_DEFECTS, LAYERS, PER_LAYER, SEEDED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 9
DEADLINE_S = 170.0  # a run must end within 180 s
LAMBDA_RTOL = 1e-10


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Children:
    """Starts child processes one at a time, within the run's time budget."""

    def __init__(self, args):
        self.args = args
        self.env = child_env()
        self.deadline = time.monotonic() + DEADLINE_S

    def spawn(self, mode: str, trace: int = 0, oracle=None) -> dict:
        a = self.args
        cmd = [sys.executable, str(BENCH / "child.py"), "--mode", mode,
               "--workload", a.workload, "--seed", str(a.seed), "--scale", a.scale,
               "--trace", str(trace), "--work", str(WORK)]
        if oracle is not None:
            cmd += ["--oracle", json.dumps(oracle)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        spawned_at = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child did not finish within the time budget")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        lifetime = time.monotonic() - spawned_at
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited with status {proc.returncode}")
        try:
            result = json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise BenchError(f"{mode} child printed no result")
        if "ready_at" in result:
            result["setup_s"] = result["ready_at"] - spawned_at
        result["lifetime_s"] = lifetime
        return result


# --- machine record -----------------------------------------------------------


def _size_bytes(text: str) -> int | None:
    m = re.fullmatch(r"\s*(\d+)\s*([KMG]?)i?B?\s*", text)
    if not m:
        return None
    return int(m.group(1)) * {"": 1, "K": 1 << 10, "M": 1 << 20, "G": 1 << 30}[m.group(2)]


def _cache_sizes() -> dict:
    """Per-core L2 and L3 sizes of cpu0, from sysfs or else from lscpu."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = _size_bytes((index / "size").read_text())
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            sizes[f"l{level}_bytes"] = size
    if len(sizes) < 2:
        try:
            text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
        except (OSError, subprocess.SubprocessError):
            text = ""
        for level in ("2", "3"):
            m = re.search(rf"^L{level} cache:\s*([\d.]+)\s*([KMG])i?B?(?:\s*\((\d+) instances?\))?",
                          text, re.M)
            if m and f"l{level}_bytes" not in sizes:
                total = float(m.group(1)) * {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}[m.group(2)]
                sizes[f"l{level}_bytes"] = int(total / int(m.group(3) or 1))
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine_record() -> dict:
    env = child_env()
    return {
        "threads": {var: env[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **_cache_sizes(),
    }


# --- measuring and judging ----------------------------------------------------


def measure(args) -> dict:
    if not (ROOT / "src" / "fracrd" / "__init__.py").is_file():
        raise BenchError(f"no fracrd sources under {ROOT / 'src'}")
    WORK.mkdir(exist_ok=True)
    kids = Children(args)
    kids.spawn("setup")  # warm-up: file cache and bytecode, not counted
    setups = []
    if args.trace:
        passes = [kids.spawn("pass"), kids.spawn("pass", trace=1)]
    else:
        passes = []
        started = time.monotonic()
        while True:
            passes.append(kids.spawn("pass"))
            if time.monotonic() - started + passes[-1]["lifetime_s"] > args.seconds:
                break
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(kids.spawn("setup")["setup_s"])
    solves = {e["id"]: e for p in passes for e in p["eigen"]}
    oracle = kids.spawn("oracle", oracle=list(solves.values()))["oracle"] if solves else {}
    return {"passes": passes, "setups": setups, "oracle": oracle,
            "reference": reference_path(args)}


def _check_eigen(p: dict, oracle: dict) -> None:
    """Fail each eigen op whose lambda1 disagrees with dense eigh."""
    ops = {op["id"]: op for op in p["ops"]}
    for e in p["eigen"]:
        ref = oracle[e["id"]]
        rel = abs(e["lambda1"] - ref["lambda1"]) / abs(ref["lambda1"])
        op = ops[e["id"]]
        op["fingerprint"] = f"{op['fingerprint']}/{e['matrix']}"
        if not ref["same_matrix"]:
            op["ok"], op["detail"] = False, "oracle assembled a different matrix"
        elif rel > LAMBDA_RTOL:
            op["ok"], op["detail"] = False, f"lambda1 off dense eigh by {rel:.3g} (> {LAMBDA_RTOL:g})"
        else:
            op["detail"] += f" dense_rel={rel:.3g}"


def reference_path(args) -> Path:
    """Where the outputs of the first run of this code and these inputs are kept."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fracrd").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    inputs = f"{args.workload}-seed{args.seed}" if args.workload in SEEDED else args.workload
    return WORK / f"reference-{inputs}-{args.scale}-{h.hexdigest()[:12]}.json"


def _matches_reference(path: Path, outputs: str) -> bool:
    """Compare with the first run's outputs; the first run records them."""
    if path.is_file():
        return path.read_text() == outputs
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(outputs)
    os.replace(tmp, path)
    return True


def judge(m: dict) -> dict:
    problems = []
    attempted = failed = 0
    for i, p in enumerate(m["passes"]):
        _check_eigen(p, m["oracle"])
        for op in p["ops"]:
            attempted += 1
            if not op["ok"]:
                failed += 1
                if op["id"] not in KNOWN_DEFECTS:
                    problems.append(f"pass {i}: {op['id']} failed: {op['detail']}")
    outputs = {json.dumps([(o["id"], o["ok"], o["fingerprint"]) for o in p["ops"]])
               for p in m["passes"]}
    if len(outputs) > 1:
        problems.append("passes of this run disagree on their outputs")
    elif outputs and not _matches_reference(m["reference"], outputs.pop()):
        problems.append(f"outputs differ from an earlier run of the same code ({m['reference']})")
    if attempted == 0:
        raise BenchError("no operation was attempted")
    return {"attempted": attempted, "failed": failed, "problems": problems}


def end_to_end(m: dict, v: dict) -> dict:
    passes = m["passes"]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(m["setups"]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "pass_share": 1.0 - v["failed"] / v["attempted"],
    }


def per_layer(m: dict, v: dict, machine: dict) -> dict:
    untraced, traced = m["passes"]
    layers = dict(traced["layers"])
    l2 = machine.get("l2_bytes")
    layers["caputo.memory.working_set_per_l2"] = (
        layers["caputo.memory.working_set_bytes"] / l2 if l2 else 0.0
    )
    layers["trace.wall_s"] = traced["wall_s"]
    layers["trace.untraced_wall_s"] = untraced["wall_s"]
    layers["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    layers["trace.missing"] = len(traced["missing"])
    layers["fail_share"] = v["failed"] / v["attempted"]
    return {name: layers[name] for name in PER_LAYER}


def layer_findings(workload: str, traced: dict, metrics: dict) -> list:
    """Check the layer-workload mapping the benchmark was built on."""
    top_span = traced["top_self"][0][0] if traced["top_self"] else None
    top_layer = max(LAYERS, key=lambda layer: metrics[f"layer.{layer}.self_s"])
    claims = []
    if workload == "decay":
        claims.append(("special.ml_eval has the largest self time", top_span == "special.ml_eval"))
    else:
        claims.append(("special.ml_eval is never called", metrics["special.ml_eval.calls"] == 0))
    if workload == "long-memory":
        claims.append(("caputo.caputo_convolution has the largest self time",
                       top_span == "caputo.caputo_convolution"))
    if workload == "large-grid":
        claims.append(("fraclap has the largest self time of the layers", top_layer == "fraclap"))
    if workload == "blowup":
        claims.append(("solver.adaptive.solves > 0", metrics["solver.adaptive.solves"] > 0))
    found = f"top spans {traced['top_self']}, top layer {top_layer}"
    return [f"mapping {claim}: {'holds' if ok else 'does NOT hold'} ({found})"
            for claim, ok in claims]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="'smoke' shrinks every workload for a quick self-test")
    args = parser.parse_args(argv)
    # Exit through the normal path on SIGTERM, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        m = measure(args)
        v = judge(m)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    machine = machine_record()
    machine["versions"] = m["passes"][0]["versions"]
    if args.trace:
        metrics, units = per_layer(m, v, machine), PER_LAYER
    else:
        metrics, units = end_to_end(m, v), END_TO_END

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} scale={args.scale} "
          f"passes={len(m['passes'])} setups={len(m['setups'])}")
    print("machine " + json.dumps(machine))
    for op in m["passes"][-1]["ops"]:
        status = "pass" if op["ok"] else ("FAIL known: " + KNOWN_DEFECTS[op["id"]]
                                          if op["id"] in KNOWN_DEFECTS else "FAIL")
        print(f"op {op['id']}: {status} | {op['detail']}")
    for problem in v["problems"]:
        print(f"problem {problem}")
    if args.trace:
        traced = m["passes"][1]
        if traced["missing"]:
            print("missing " + ", ".join(traced["missing"]))
        print(f"wall_s traced={metrics['trace.wall_s']:.6f} "
              f"untraced={metrics['trace.untraced_wall_s']:.6f}")
        for line in layer_findings(args.workload, traced, metrics):
            print(line)
    for name, value in metrics.items():
        print(f"metric {name} = {value} {units[name]}")

    result = {
        "correct": not v["problems"],
        "attempted": v["attempted"],
        "failed": v["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {"args": vars(args), "machine": machine, "problems": v["problems"],
              "passes": m["passes"], "setups": m["setups"], "result": result}
    path = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
