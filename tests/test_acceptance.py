"""Acceptance gate: runs the default verification suite and checks every
criterion at its stated tolerance, printing one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear; the same checks are produced as report records by ``fracrd run --all``.
"""

import collections
import importlib.util
import math
import time
from pathlib import Path

import pytest

from fracrd import harness, solver
from fracrd.harness import Campaign, Report, default_campaigns, run_campaign, run_campaigns

_BY_NAME = {c.name: c for c in default_campaigns()}
_ROOT = Path(__file__).resolve().parents[1]
REFERENCE_REPORT = _ROOT / "tests" / "data" / "reference_report.txt"


def _timed(campaign):
    t0 = time.perf_counter()
    frag, traces = run_campaign(campaign)
    return frag, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ml_result():
    return _timed(_BY_NAME["ml"])


@pytest.fixture(scope="module")
def eigen_result():
    return _timed(_BY_NAME["eigen"])


@pytest.fixture(scope="module")
def decay_results():
    return {
        0.5: _timed(_BY_NAME["decay-a05"]),
        0.8: _timed(_BY_NAME["decay-a08"]),
    }


@pytest.fixture(scope="module")
def blowup_calls():
    """Calls of solver.run and solver._march that ``blowup_result`` made."""
    return collections.Counter()


@pytest.fixture(scope="module")
def blowup_result(blowup_calls):
    def counted(name, func):
        def wrapper(*args, **kwargs):
            blowup_calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    march = counted("_march", solver._march)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "run", counted("run", solver.run))  # each rung of detect_blowup
        mp.setattr(solver, "_march", march)  # run's loop
        mp.setattr(harness, "_march", march)  # each logistic_T_* rung
        return _timed(_BY_NAME["blowup"])


@pytest.fixture(scope="module")
def invariant_result():
    return _timed(_BY_NAME["invariant"])


def _records(frag, prefix):
    return [r for r in frag if r.name.startswith(prefix)]


def _report(number, label, ok, detail):
    print(f"ACCEPTANCE {number} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_1_mittag_leffler_accuracy(ml_result):
    frag, elapsed = ml_result
    grid = next(r for r in frag if r.name == "max_rel_err")
    erfc = next(r for r in frag if r.name == "erfc_identity")
    ok = grid.passed and erfc.passed and elapsed < 1.0
    assert _report(
        1,
        "ml-accuracy",
        ok,
        f"max_rel_err={grid.measured:.3g} (<=1e-10), erfc_dev={erfc.measured:.3g} "
        f"(<=1e-9), runtime={elapsed:.2f}s (<1s)",
    )


def test_criterion_2_l1_stepper_convergence(decay_results):
    details = []
    ok = True
    elapsed = 0.0
    for alpha, (frag, _) in decay_results.items():
        mono = next(r for r in frag if r.name == "l1_monotone")
        order = next(r for r in frag if r.name == "l1_order")
        ok = ok and mono.passed and order.passed
        elapsed += mono.wall + order.wall
        details.append(f"alpha={alpha}: monotone={mono.passed}, order={order.measured:.3f}")
    ok = ok and elapsed < 10.0
    assert _report(2, "l1-convergence", ok, "; ".join(details) + f"; runtime={elapsed:.2f}s")


def test_criterion_3_scalar_blowup_oracle(blowup_result):
    frag, _ = blowup_result
    recs = _records(frag, "logistic_T_y0_")
    assert len(recs) == 3
    elapsed = sum(r.wall for r in recs)
    ok = all(r.passed for r in recs) and elapsed < 10.0
    detail = ", ".join(f"{r.name}: rel={r.measured:.4f}" for r in recs)
    assert _report(3, "scalar-blowup", ok, detail + f"; runtime={elapsed:.2f}s")


def test_criterion_4_operator_correctness(eigen_result):
    frag, elapsed = eigen_result
    wanted = ["symmetry", "min_eigenvalue", "energy_s0.9", "cauchy_lambda1"]
    recs = {r.name: r for r in frag}
    ok = all(recs[w].passed for w in wanted)
    oracle = _records(frag, "lambda1_vs_dense_s")
    assert len(oracle) == 3
    ok = ok and all(r.passed for r in oracle) and elapsed < 60.0
    assert _report(
        4,
        "operator",
        ok,
        f"symmetry={recs['symmetry'].measured:.2g}, "
        f"min_eigenvalue={recs['min_eigenvalue'].measured:.2g}, "
        f"energy_rel={recs['energy_s0.9'].measured:.2g}, "
        f"lambda1_rel_max={max(r.measured for r in oracle):.2g}, "
        f"cauchy_min_ratio={recs['cauchy_lambda1'].measured:.3f} (>=1.5), "
        f"runtime={elapsed:.1f}s",
    )


def test_criterion_5_invariant_region(invariant_result):
    frag, elapsed = invariant_result
    bounds = _records(frag, "bounds_")
    assert len(bounds) == 36  # 6 profiles x 3 alphas x 2 s-orders
    worst = max(r.measured for r in bounds)
    ok = all(r.passed for r in bounds) and elapsed < 300.0
    assert _report(
        5,
        "invariant-region",
        ok,
        f"36 runs, worst bound violation={worst:.2g} (<=1e-8), runtime={elapsed:.1f}s",
    )


def test_criterion_6_decay(decay_results):
    details = []
    ok = True
    elapsed = 0.0
    for alpha, (frag, wall) in decay_results.items():
        slope = next(r for r in frag if r.name == "slope")
        env = next(r for r in frag if r.name == "envelope")
        ok = ok and slope.passed and env.passed
        elapsed += wall
        details.append(
            f"alpha={alpha}: slope={slope.measured:.3f} expected {slope.expected}, "
            f"envelope_ratio={env.measured:.3f} (<=1.05)"
        )
    ok = ok and elapsed < 600.0
    # Each mode's amplitude decays like E_alpha(-mu t^alpha) ~ t^-alpha, so
    # E(t) = ||u||^2 decays at the sharp rate t^(-2 alpha): the slope record
    # asserts the fitted slope lies within 0.15*alpha of -2*alpha, and the
    # envelope record asserts the paper's upper bound E <= E0*E_alpha(-lambda1 t^alpha).
    assert _report(6, "decay", ok, "; ".join(details) + f"; runtime={elapsed:.1f}s")


def test_criterion_7_bracket_containment(blowup_result):
    frag, elapsed = blowup_result
    contain = _records(frag, "containment_")
    stable = _records(frag, "stability_")
    assert len(contain) == 6 and len(stable) == 6
    ok = all(r.passed for r in contain + stable) and elapsed < 300.0
    detail = ", ".join(f"{r.name.split('_', 1)[1]}: t*={r.measured:.4f}" for r in contain)
    assert _report(
        7,
        "bracket-containment",
        ok,
        detail + f"; max refinement drift={max(r.measured for r in stable):.3f} (<=0.05); "
        f"runtime={elapsed:.1f}s",
    )


def test_blowup_ladders_stop_when_their_limits_settle(blowup_result, blowup_calls):
    # The Aitken stop rule of solver.settled_limit takes 75 PDE runs over the
    # 18 detect_blowup ladders and 13 rungs over the three logistic_T_*
    # ladders; the rule it replaced, a 1% move of the raw crossing time,
    # took 82 and 21.  A stop rule that needs more rungs fails here.
    frag, _ = blowup_result
    assert all(r.passed for r in frag)
    assert blowup_calls["run"] <= 75
    assert blowup_calls["_march"] - blowup_calls["run"] <= 13


def test_criterion_8_comparison_principle(invariant_result):
    frag, _ = invariant_result
    rec = next(r for r in frag if r.name == "comparison_principle")
    ok = rec.passed and rec.wall < 120.0
    assert _report(
        8,
        "comparison-principle",
        ok,
        f"20 ordered pairs, worst violation={rec.measured:.2g} (<=1e-8), "
        f"runtime={rec.wall:.1f}s",
    )


# Each record's gate in the built-in suite, as the report writes its expected
# and tol: a gate is never widened to get a green run.  Only containment_* is
# left out; its bracket comes from the computed lambda1.
_FROZEN_GATES = {
    "ml/max_rel_err": ("<=1e-10", "1e-10"),
    "ml/erfc_identity": ("<=1e-09", "1e-09"),
    "ml/repeat_identical": ("==0", "0"),
    "eigen/symmetry": ("<=1e-12", "1e-12"),
    "eigen/min_eigenvalue": (">=-1e-10", "1e-10"),
    "eigen/energy_s": ("<=0.0001", "0.0001"),
    "eigen/lambda1_vs_dense_s": ("<=1e-10", "1e-10"),
    "eigen/cauchy_lambda1": (">=1.5", "1.5"),
    "decay-a05/l1_monotone": ("==1", "0"),
    "decay-a08/l1_monotone": ("==1", "0"),
    "decay-a05/l1_order": ("in[0.4,1.7]", "1.3"),
    "decay-a08/l1_order": ("in[0.7,1.4]", "0.7"),
    "decay-a05/slope": ("in[-1.075,-0.925]", "0.075"),
    "decay-a08/slope": ("in[-1.72,-1.48]", "0.12"),
    "decay-a05/envelope": ("<=1.05", "1.05"),
    "decay-a08/envelope": ("<=1.05", "1.05"),
    "blowup/logistic_T_y0_": ("<=0.01", "0.01"),
    "blowup/stability_": ("<=0.05", "0.05"),
    "invariant/bounds_": ("<=1e-08", "1e-08"),
    "invariant/comparison_principle": ("<=1e-08", "1e-08"),
}


def test_gates_frozen(ml_result, eigen_result, decay_results, blowup_result, invariant_result):
    frags = [ml_result[0], eigen_result[0], blowup_result[0], invariant_result[0],
             *(frag for frag, _ in decay_results.values())]
    records = [r for frag in frags for r in frag]
    assert len(records) == 70
    for rec in records:
        label = f"{rec.campaign}/{rec.name}"
        if rec.name.startswith("containment_"):
            continue
        (gate,) = [gate for prefix, gate in _FROZEN_GATES.items() if label.startswith(prefix)]
        assert (rec.expected, f"{rec.tol:.15g}") == gate, label


def _report_diff():
    spec = importlib.util.spec_from_file_location(
        "_script_report_diff", _ROOT / "scripts" / "report_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_matches_committed_reference(ml_result, eigen_result, decay_results,
                                            blowup_result, invariant_result, tmp_path):
    # The canonical report of the default suite against the committed one:
    # the same records, the same gates, and each measured value within 1e-12
    # relative (NaN equal to NaN).  A change that moves a value updates the
    # reference in the same change and lists the moves.
    frags = [ml_result[0], eigen_result[0], blowup_result[0], invariant_result[0],
             *(frag for frag, _ in decay_results.values())]
    current = tmp_path / "report.txt"
    current.write_text(Report([r for frag in frags for r in frag]).canonical_text())
    read_records = _report_diff().read_records
    reference, records = read_records(REFERENCE_REPORT), read_records(current)
    assert len(reference) == 70
    assert sorted(records) == sorted(reference)
    for key, ref in reference.items():
        rec = records[key]
        assert (rec["expected"], rec["tol"]) == (ref["expected"], ref["tol"]), key
        got, want = float(rec["measured"]), float(ref["measured"])
        assert (got == want or (math.isnan(got) and math.isnan(want))
                or abs(got - want) <= 1e-12 * max(abs(got), abs(want))), key


def test_criterion_9_determinism():
    mini = [
        Campaign(name="ml", kind="ml_table", params={}),
        Campaign(
            name="inv",
            kind="invariant_region",
            params={
                "alphas": [0.5, 1.0],
                "s_values": [0.5],
                "domain": (0.0, 1.0),
                "n": 32,
                "dt": 0.1,
                "t_end": 2.0,
                "comparison_pairs": 4,
            },
        ),
    ]
    first, _ = run_campaigns(mini)
    second, _ = run_campaigns(mini)
    ok = first.canonical_text() == second.canonical_text()
    assert _report(9, "determinism", ok, "repeated campaigns yield bit-identical reports")
