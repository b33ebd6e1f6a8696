"""Time the two forms of the implicit step solve and the builds behind them.

Usage, from the root of a checkout, with one BLAS thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/step_solve_timing.py

For each n (128, 256 and 1024 unless ``main`` is given others) it prints,
in microseconds per call, the step-matrix solve ``solver._matrix_step``
(one product with ((w + 1) I + A)^-1), the basis solve
``solver._implicit_step`` (two products with V), each returning u and its
finiteness check u @ u, a bare n x n matrix-vector product for scale, the
build of the operator as ``solver._operator`` makes it
(``fraclap.assemble_regional`` plus both ``fraclap.mirror_blocks``, formed
from the operator's values), the build of the step matrix from the two
mirror blocks ``solver._step_matrix``, which every run makes, and the build
of the eigenbasis ``fraclap.mirror_eigenbasis``, which only a run with a
non-uniform step makes.  Each figure is the best of 7 repeats; the last
line is one JSON object with the same numbers.
"""

from __future__ import annotations

import json
import timeit

import numpy as np

from fracrd.fraclap import Grid1D, assemble_regional, mirror_blocks, mirror_eigenbasis
from fracrd.solver import _implicit_step, _matrix_step, _step_matrix

W = 2.0  # a step weight; the cost does not depend on it


def best_us(fn, number: int) -> float:
    return min(timeit.repeat(fn, number=number, repeat=7)) / number * 1e6


def main(ns=(128, 256, 1024)) -> None:
    out = {}
    for n in ns:
        grid = Grid1D(0.0, 1.0, n)
        op = assemble_regional(grid, 0.4)
        blocks = mirror_blocks(op)
        a = op.entries
        lam, v = mirror_eigenbasis(*blocks)
        s_mat = _step_matrix(*blocks, W)
        rhs = np.random.default_rng(n).uniform(0.0, 1.0, n)
        number = min(1000, max(20, 2_000_000 // (n * n)))  # the cap binds below n = 45
        builds = max(3, number // n)
        row = {
            "step_matrix_solve_us": best_us(lambda: _matrix_step(s_mat, rhs), number),
            "basis_solve_us": best_us(lambda: _implicit_step(lam, v, W, rhs), number),
            "gemv_us": best_us(lambda: a @ rhs, number),
            "operator_build_us": best_us(lambda: mirror_blocks(assemble_regional(grid, 0.4)),
                                         builds),
            "step_matrix_build_us": best_us(lambda: _step_matrix(*blocks, W), builds),
            "eigenbasis_build_us": best_us(lambda: mirror_eigenbasis(*blocks), builds),
        }
        out[str(n)] = {k: round(x, 2) for k, x in row.items()}
        print(f"n = {n}: " + ", ".join(f"{k} {x:.2f}" for k, x in out[str(n)].items()))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
