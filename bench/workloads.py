"""The four benchmark workloads, driven through the public fracrd API.

``build`` makes a workload's inputs from the seed (this is part of set-up);
``run_pass`` runs one pass and times only the calls into fracrd with the
given ``Clock``.  A pass returns one ``Op`` per operation -- a check record,
a simulation or an eigen solve -- with its pass flag and a fingerprint of its
output, so the passes of one run can be compared bit for bit.

Calls go through module attributes looked up at call time
(``fracrd.harness.run_campaigns``, ``fracrd.run``, ...), so the traced pass
sees the wrappers that ``spans.install`` puts there.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, replace

import numpy as np

import fracrd
import fracrd.harness
from fracrd import Grid1D, SimConfig
from fracrd.errors import FracRDError

# Fields of a run with data in [0, 1] must stay there; same tolerance as the
# invariant-region campaign's bound_tol.
BOUND_TOL = 1e-8

SIZES = {
    "full": {
        "long-memory": {"n": 128, "dt": 0.25, "t_end": 1000.0},
        "large-grid": {"ns": (1024, 2048, 4096), "run": {"n": 1024, "dt": 0.1, "t_end": 10.0}},
    },
    "smoke": {
        "long-memory": {"n": 32, "dt": 0.25, "t_end": 100.0},
        "large-grid": {"ns": (64, 128), "run": {"n": 64, "dt": 0.1, "t_end": 2.0}},
    },
}

# Built-in campaigns each suite workload runs, and the parameters the smoke
# test overrides to shrink them.
SUITES = {"decay": ("decay-a05", "decay-a08"), "blowup": ("blowup",)}
SMOKE_PARAMS = {
    "decay": {"n": 32, "t_end": 100.0},
    "blowup": {"alphas": [1.0], "h0_factors": [1.6], "n": 32},
}


class Clock:
    """Accumulates wall and CPU seconds over the ``with`` blocks it guards."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0

    def __enter__(self):
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, *exc):
        self.cpu += time.process_time() - self._cpu0
        self.wall += time.perf_counter() - self._wall0
        return False


@dataclass
class Op:
    id: str
    ok: bool
    detail: str
    fingerprint: str


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).data)
    return h.hexdigest()[:16]


def build(workload: str, seed: int, scale: str):
    if workload in SUITES:
        campaigns = [c for c in fracrd.harness.default_campaigns() if c.name in SUITES[workload]]
        if scale == "smoke":
            campaigns = [replace(c, params={**c.params, **SMOKE_PARAMS[workload]}) for c in campaigns]
        return campaigns
    size = SIZES[scale][workload]
    rng = np.random.default_rng(seed)
    if workload == "long-memory":
        return [
            (SimConfig(alpha=alpha, s=0.4, a=0.0, b=1.0, n=size["n"], dt=size["dt"],
                       t_end=size["t_end"]),
             rng.uniform(0.0, 1.0, size["n"]))
            for alpha in (0.5, 0.8)
        ]
    if workload == "large-grid":
        r = size["run"]
        cfg = SimConfig(alpha=0.5, s=0.5, a=0.0, b=1.0, n=r["n"], dt=r["dt"], t_end=r["t_end"])
        eigen = [(n, s) for n in size["ns"] for s in (0.5, 0.9)]
        return eigen, (cfg, rng.uniform(0.0, 1.0, r["n"]))
    raise ValueError(f"unknown workload {workload!r}")


def run_pass(workload: str, inputs, clock: Clock, out_dir, recorder=None) -> tuple:
    """One pass; returns (ops, eigen solves for the oracle)."""
    if workload in SUITES:
        return _suite_pass(inputs, clock, out_dir), []
    if workload == "long-memory":
        return [_simulate(f"run/alpha{cfg.alpha:g}", cfg, u0, clock, recorder, need_slope=True)
                for cfg, u0 in inputs], []
    return _large_grid_pass(inputs, clock, recorder)


def _suite_pass(campaigns, clock, out_dir):
    with clock:
        report, traces = fracrd.harness.run_campaigns(campaigns)
        fracrd.harness.write_outputs(report, traces, out_dir)
    canonical = hashlib.sha256(report.canonical_text().encode()).hexdigest()[:16]
    return [Op(f"{r.campaign}/{r.name}", r.passed, r.line(with_wall=False), canonical)
            for r in report.sorted_records()]


def _simulate(op_id, cfg, u0, clock, recorder, need_slope):
    if recorder is not None:
        recorder.op = op_id
    try:
        with clock:
            result = fracrd.run(cfg, u0_override=u0)
    except FracRDError as exc:
        return Op(op_id, False, f"raised {type(exc).__name__}: {exc}", "")
    lo, hi = float(np.min(result.umin)), float(np.max(result.umax))
    slope = result.decay_slope
    problems = []
    if not (lo >= -BOUND_TOL and hi <= 1.0 + BOUND_TOL):
        problems.append(f"field left [0,1]: min={lo:.3g} max={hi:.3g}")
    if result.blowup is not None or result.inconclusive is not None:
        problems.append("run did not stay bounded to t_end")
    if need_slope and (slope is None or not math.isfinite(slope)):
        problems.append(f"no finite decay slope ({slope})")
    detail = "; ".join(problems) or f"min={lo:.6g} max={hi:.6g} slope={slope}"
    fingerprint = digest(result.times, result.energy, result.h_functional, result.umin,
                         result.umax)
    return Op(op_id, not problems, detail, fingerprint)


def _large_grid_pass(inputs, clock, recorder):
    eigen_inputs, (cfg, u0) = inputs
    ops, eigen = [], []
    for n, s in eigen_inputs:
        op_id = f"eigen/n{n}/s{s:g}"
        if recorder is not None:
            recorder.op = op_id
        grid = Grid1D(0.0, 1.0, n)
        matrix = pair = None  # drop the previous n x n operator before assembling
        try:
            with clock:
                matrix = fracrd.assemble_regional(grid, s)
                pair = fracrd.principal_eigenpair(matrix, grid)
        except FracRDError as exc:
            ops.append(Op(op_id, False, f"raised {type(exc).__name__}: {exc}", ""))
            continue
        # Pass or fail is decided by the caller against a dense eigh oracle.
        eigen.append({"id": op_id, "n": n, "s": s, "lambda1": pair.lambda1,
                      "matrix": digest(matrix.entries)})
        ops.append(Op(op_id, True, f"lambda1={pair.lambda1!r}", repr(pair.lambda1)))
    ops.append(_simulate(f"run/n{cfg.n}", cfg, u0, clock, recorder, need_slope=False))
    return ops, eigen


def dense_lambda1(n: int, s: float, matrix_digest: str) -> dict:
    """Independent oracle: smallest eigenvalue by dense LAPACK eigh."""
    from scipy.linalg import eigh

    matrix = fracrd.assemble_regional(Grid1D(0.0, 1.0, n), s)
    same = digest(matrix.entries) == matrix_digest
    vals = eigh(matrix.entries, eigvals_only=True, subset_by_index=[0, 0])
    return {"lambda1": float(vals[0]), "same_matrix": same}
