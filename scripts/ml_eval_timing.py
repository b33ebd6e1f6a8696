"""Time ``special.ml_eval`` per branch, for float and array calls.

Usage, from the root of a checkout, with one BLAS thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/ml_eval_timing.py

For each branch it prints, in microseconds per point, a loop of float calls
and one array call over the same 2,000 points:

* ``series``: alpha 0.5, nats = (-z)^(1/alpha) in (0, 3], the power series;
* ``rule``: alpha 0.5, nats from 3 to z = -1e12, the one spectral rule;
* ``graded``: alpha 0.99, nats from 3 to 31, the per-point graded panels
  around the kernel resonance.

Each point's float z is formed outside the timed loop.  Each figure is the
best of 5 repeats; the last line is one JSON object with the same numbers.
"""

from __future__ import annotations

import json
import timeit

import numpy as np

from fracrd.special import _rule, ml_eval

POINTS = 2000
BRANCHES = {
    # branch: (alpha, nats of the points)
    "series": (0.5, np.linspace(0.01, 3.0, POINTS)),
    "rule": (0.5, np.geomspace(3.01, 1e24, POINTS)),
    "graded": (0.99, np.linspace(3.01, 31.0, POINTS)),
}


def best_us(fn, points: int) -> float:
    return min(timeit.repeat(fn, number=1, repeat=5)) / points * 1e6


def main() -> None:
    out = {}
    for branch, (alpha, nats) in BRANCHES.items():
        z = -(nats**alpha)
        floats = z.tolist()
        _rule(alpha)  # the rule is built once per alpha, outside the timing
        row = {
            "float_us": best_us(lambda: [ml_eval(alpha, v) for v in floats], POINTS),
            "array_us": best_us(lambda: ml_eval(alpha, z), POINTS),
        }
        out[branch] = {k: round(x, 2) for k, x in row.items()}
        print(f"{branch} (alpha {alpha:g}): " + ", ".join(f"{k} {x:.2f}" for k, x in out[branch].items()))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
