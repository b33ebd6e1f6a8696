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
from fracrd.special import MLParams, ml_eval


class TestGamma:
    # special._rgamma, the 1/Gamma(x) of the large-argument expansion, whose
    # arguments 1 - alpha*k run through the negative axis.
    def test_integer_values(self):
        assert special._rgamma(1.0) == 1.0
        assert special._rgamma(2.0) == 1.0

    def test_half(self):
        assert special._rgamma(0.5) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-15)

    def test_against_mpmath_on_range(self):
        import mpmath as mp

        for x in [0.1, 0.37, 1.5, 7.2, 23.0, 49.5, -0.5, -1.3, -7.7, -23.5]:
            ref = float(mp.rgamma(x))
            assert abs(special._rgamma(x) - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("pole", [0.0, -1.0, -7.0])
    def test_zero_at_poles(self, pole):
        assert special._rgamma(pole) == 0.0


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
    # Simon, Electron. J. Probab. 19 (2014): for z >= 0 and 0 < alpha < 1,
    #   1/(1 + Gamma(1-alpha) z) <= E_alpha(-z) <= 1/(1 + z/Gamma(1+alpha)).
    # The upper bound is the proven decay envelope; both bounds are an oracle
    # that needs no extended precision.
    @staticmethod
    def bounds(alpha, z):
        lower = 1.0 / (1.0 + math.gamma(1.0 - alpha) * z)
        return lower, 1.0 / (1.0 + z / math.gamma(1.0 + alpha))

    def test_domination(self):
        # Spans all three branches; 4 eps allows for the rounding of the bounds.
        tol = 4.0 * np.finfo(float).eps
        zs = np.concatenate(([0.0], np.geomspace(1e-8, 1e6, 1201)))
        for alpha in np.linspace(0.25, 0.999, 11):
            alpha = float(alpha)
            for z in zs:
                lower, upper = self.bounds(alpha, float(z))
                val = ml_eval(MLParams(alpha=alpha, z=-float(z)))
                assert lower * (1.0 - tol) <= val <= upper * (1.0 + tol), (alpha, z)

    def test_constant_at_least_one(self):
        # C_alpha = 1 is the least constant with E_alpha(-z) <= C_alpha/(1+z):
        # (1+z) E_alpha(-z) is 1 at z = 0 and below 1 after.
        zs = np.geomspace(1e-6, 1e4, 200)
        for alpha in (0.3, 0.5, 0.8, 0.95):
            assert ml_eval(MLParams(alpha=alpha, z=0.0)) == 1.0
            assert max((1.0 + z) * ml_eval(MLParams(alpha=alpha, z=-z)) for z in zs) < 1.0

    def test_envelope_at_nine(self):
        # E_{1/2}(-9) = e^81 erfc(9) must sit between the bounds
        exact = math.exp(81.0) * math.erfc(9.0)
        val = ml_eval(MLParams(alpha=0.5, z=-9.0))
        assert val == pytest.approx(exact, rel=1e-10)
        lower, upper = self.bounds(0.5, 9.0)
        assert lower <= val <= upper
