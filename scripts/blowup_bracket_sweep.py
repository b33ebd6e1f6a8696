"""Sweep blow-up campaign configurations and report bracket containment.

For each (alpha, h0_factor) the initial bump is rescaled so the weighted mass
H0 = factor * (1 + lambda1), the blow-up time is detected with dt refinement,
and the position of t* inside the two-sided window

    (Gamma(alpha+1)/(4(H0+1/2)))^(1/alpha) <= T* <= (Gamma(alpha+1)/H0)^(1/alpha)

is printed together with its stability under one dt and one grid refinement.
Used to pick the defaults frozen in fracrd.harness.

Run from the repository root:  python scripts/blowup_bracket_sweep.py
"""

import pathlib
import sys
import time
from dataclasses import replace

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from fracrd.harness import scaled_blowup_config  # noqa: E402
from fracrd.solver import blowup_bracket, detect_blowup  # noqa: E402


def sweep(params):
    print(f"--- params: {params}")
    for alpha in params["alphas"]:
        for factor in params["h0_factors"]:
            t0 = time.time()
            cfg, lam1, h0 = scaled_blowup_config(params, alpha, factor)
            br = blowup_bracket(h0, alpha, lam1)
            finding = detect_blowup(cfg)
            if finding.status != "blowup":
                print(f"alpha={alpha} f={factor}: {finding.status} (h0={h0:.3f})")
                continue
            t_star = finding.t_star
            pos = (t_star - br.lower) / (br.upper - br.lower)
            fine_dt = detect_blowup(replace(cfg, dt=cfg.dt * 0.5))
            fine_n = detect_blowup(replace(cfg, n=2 * cfg.n))
            drift = max(
                abs(fine_dt.t_star - t_star) / t_star if fine_dt.status == "blowup" else 9.9,
                abs(fine_n.t_star - t_star) / t_star if fine_n.status == "blowup" else 9.9,
            )
            ok = br.lower <= t_star <= br.upper
            print(
                f"alpha={alpha} f={factor}: h0={h0:.3f} lam1={lam1:.3f} "
                f"t*={t_star:.4f} in [{br.lower:.4f}, {br.upper:.4f}] "
                f"pos={pos:.2f} contained={ok} drift={drift:.3f} ({time.time()-t0:.1f}s)"
            )


if __name__ == "__main__":
    base = {
        "alphas": [0.6, 0.8, 1.0],
        "s": 0.4,
        "domain": (0.0, 2.0),
        "n": 128,
        "dt": 2e-3,
        "h0_factors": [1.2, 1.6],
        "width": 0.12,
    }
    sweep(base)
