import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracrd
from fracrd import special
from fracrd.errors import DomainError, UnsupportedParameterError
from fracrd.harness import load_oracle_table
from fracrd.special import (
    MLParams,
    envelope_constant,
    gamma_fn,
    ml_decay_envelope,
    ml_eval,
)


class TestGamma:
    def test_integer_values(self):
        assert gamma_fn(1.0) == 1.0
        assert gamma_fn(2.0) == 1.0

    def test_half(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    def test_against_mpmath_on_range(self):
        import mpmath as mp

        for x in [0.1, 0.37, 1.5, 7.2, 23.0, 49.5]:
            ref = float(mp.gamma(x))
            assert abs(gamma_fn(x) - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(DomainError):
            gamma_fn(bad)


class TestMLParams:
    def test_alpha_range(self):
        with pytest.raises(DomainError):
            MLParams(alpha=0.0, z=1.0)
        with pytest.raises(DomainError):
            MLParams(alpha=1.5, z=1.0)

    def test_finite_z(self):
        with pytest.raises(DomainError):
            MLParams(alpha=0.5, z=math.inf)


class TestMLEval:
    def test_at_zero(self):
        for alpha in (0.25, 0.5, 0.7, 1.0):
            assert ml_eval(MLParams(alpha=alpha, z=0.0)) == 1.0

    def test_alpha_one_is_exp(self):
        assert ml_eval(MLParams(alpha=1.0, z=-1.0)) == pytest.approx(
            math.exp(-1.0), rel=1e-15
        )
        for z in (-50.0, -20.0, -3.3, 0.7, 5.0):
            assert ml_eval(MLParams(alpha=1.0, z=z)) == pytest.approx(
                math.exp(z), rel=1e-12
            )

    def test_half_alpha_erfc_identity(self):
        # E_{1/2}(z) = exp(z^2) erfc(-z); at z = -1 this is e * erfc(1)
        val = ml_eval(MLParams(alpha=0.5, z=-1.0))
        assert val == pytest.approx(0.4275835762, abs=1e-9)
        assert val == pytest.approx(math.exp(1.0) * math.erfc(1.0), rel=1e-12)

    def test_against_frozen_oracle_table(self):
        worst = 0.0
        for alpha, z, ref in load_oracle_table():
            val = ml_eval(MLParams(alpha=alpha, z=z))
            worst = max(worst, abs(val - ref) / max(abs(ref), 1e-300))
        assert worst <= 1e-10

    def test_accuracy_across_branch_seams(self):
        # The evaluator switches representations on the cancellation exponent
        # (-z)**(1/alpha) at 3 and 36 nats, the upper seam rising for alpha
        # above 0.999; accuracy must hold on both sides of every seam.
        from fracrd import mlref

        for alpha in (0.5, 0.8, 0.999):
            assert special._asym_min_nats(alpha) == 36.0
        for alpha in (0.3, 0.5, 0.9, 0.99, 0.9999, 0.99999, 0.999999):
            for nats in sorted({3.0, 36.0, special._asym_min_nats(alpha)}):
                for factor in (0.99, 1.01):
                    z = -((nats * factor) ** alpha)
                    ref = float(mlref.ml_reference(alpha, z, digits=25))
                    val = ml_eval(MLParams(alpha=alpha, z=z))
                    assert abs(val - ref) <= 1e-10 * abs(ref), (alpha, z)

    def test_mid_regime_against_reference(self):
        # Dense grid over the spectral-quadrature regime; alpha near 1 puts a
        # sharp kernel resonance on the integration path.
        from fracrd import mlref

        for alpha in (0.25, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99, 0.999):
            for nats in np.geomspace(3.0, 36.0, 13):
                z = -float(nats) ** alpha
                ref = float(mlref.ml_reference(alpha, z, digits=25))
                val = ml_eval(MLParams(alpha=alpha, z=z))
                assert abs(val - ref) <= 1e-10 * abs(ref), (alpha, z)

    def test_mid_regime_threads_bit_identical(self):
        points = [
            MLParams(alpha=alpha, z=-(float(nats) ** alpha))
            for alpha in (0.5, 0.8, 0.99)
            for nats in np.linspace(3.5, 35.5, 40)
        ]
        serial = [ml_eval(p) for p in points]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(ml_eval, points))
        assert threaded == serial

    def test_runtime_imports_without_mpmath(self):
        code = (
            "import sys, fracrd, fracrd.harness, fracrd.cli; "
            "sys.exit('mpmath' in sys.modules)"
        )
        env = dict(os.environ)
        src = str(Path(fracrd.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
        assert proc.returncode == 0

    def test_outside_box_rejected(self):
        with pytest.raises(UnsupportedParameterError):
            ml_eval(MLParams(alpha=0.2, z=-1.0))
        with pytest.raises(UnsupportedParameterError):
            ml_eval(MLParams(alpha=0.5, z=6.0))
        with pytest.raises(UnsupportedParameterError):
            ml_eval(MLParams(alpha=0.5, z=-2e12))

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(0.25, 1.0),
        t1=st.floats(0.0, 49.0),
        gap=st.floats(0.01, 1.0),
    )
    def test_complete_monotone_decay(self, alpha, t1, gap):
        t2 = t1 + gap
        assert ml_eval(MLParams(alpha=alpha, z=-t1)) > ml_eval(
            MLParams(alpha=alpha, z=-t2)
        )

    @settings(max_examples=60, deadline=None)
    @given(alpha=st.floats(0.25, 1.0), z=st.floats(0.0, 50.0))
    def test_positive_on_negative_axis(self, alpha, z):
        assert ml_eval(MLParams(alpha=alpha, z=-z)) > 0.0


class TestDecayEnvelope:
    def test_constant_at_least_one(self):
        for alpha in (0.3, 0.5, 0.8, 0.95):
            assert envelope_constant(alpha) >= 1.0

    def test_envelope_at_zero_dominates_one(self):
        assert ml_decay_envelope(0.5, 0.0) >= 1.0

    def test_envelope_at_nine(self):
        # E_{1/2}(-9) = e^81 erfc(9) must sit below C/10
        c_alpha = envelope_constant(0.5)
        env = ml_decay_envelope(0.5, 9.0)
        assert env == pytest.approx(c_alpha / 10.0, rel=1e-15)
        exact = math.exp(81.0) * math.erfc(9.0)
        assert ml_eval(MLParams(alpha=0.5, z=-9.0)) == pytest.approx(exact, rel=1e-10)
        assert ml_eval(MLParams(alpha=0.5, z=-9.0)) <= env

    def test_envelope_alpha_08(self):
        assert ml_eval(MLParams(alpha=0.8, z=-1.0)) <= ml_decay_envelope(0.8, 1.0)

    @settings(max_examples=80, deadline=None)
    @given(alpha=st.floats(0.25, 0.99), z=st.floats(0.0, 50.0))
    def test_domination(self, alpha, z):
        assert ml_eval(MLParams(alpha=alpha, z=-z)) <= ml_decay_envelope(alpha, z)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ml_decay_envelope(1.0, 1.0)
        with pytest.raises(DomainError):
            ml_decay_envelope(0.5, -1.0)


def test_envelope_calibration_regeneration(tmp_path):
    from fracrd.special import write_envelope_calibration

    path = tmp_path / "calib.txt"
    write_envelope_calibration(path, alphas=[0.5], z_grid=[0.0, 1.0, 10.0])
    rows = [
        line for line in path.read_text().splitlines() if line and not line.startswith("#")
    ]
    assert len(rows) == 1
    alpha, c = (float(tok) for tok in rows[0].split(","))
    assert alpha == 0.5
    assert c >= 1.0
