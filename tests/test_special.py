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
from fracrd.errors import DomainError, UnsupportedParameterError
from fracrd.harness import load_oracle_table
from fracrd.special import _Z_MIN, _rule, ml_eval


class TestMLEval:
    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5, math.nan, math.inf])
    def test_alpha_outside_domain_raises(self, alpha):
        for z in (-1.0, np.array([-1.0, -40.0])):
            with pytest.raises(DomainError, match="alpha must be in"):
                ml_eval(alpha, z)

    def test_alpha_below_validated_minimum_raises(self):
        with pytest.raises(UnsupportedParameterError, match="alpha=0.1 below"):
            ml_eval(0.1, -1.0)
        # alpha is checked before z
        with pytest.raises(UnsupportedParameterError, match="alpha=0.2 below"):
            ml_eval(0.2, math.nan)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_z_raises(self, bad):
        with pytest.raises(DomainError, match=f"z must be finite, got {bad}"):
            ml_eval(0.5, bad)
        # the first non-finite element is named, before any range error
        with pytest.raises(DomainError, match=f"z must be finite, got {bad}"):
            ml_eval(0.5, np.array([6.0, -1.0, bad, math.nan]))

    def test_at_zero(self):
        for alpha in (0.25, 0.5, 0.7, 1.0):
            assert ml_eval(alpha, 0.0) == 1.0

    def test_alpha_one_is_exp(self):
        assert ml_eval(1.0, -1.0) == pytest.approx(
            math.exp(-1.0), rel=1e-15
        )
        for z in (-50.0, -20.0, -3.3, 0.7, 5.0):
            assert ml_eval(1.0, z) == pytest.approx(
                math.exp(z), rel=1e-12
            )

    def test_half_alpha_erfc_identity(self):
        # E_{1/2}(z) = exp(z^2) erfc(-z); at z = -1 this is e * erfc(1)
        val = ml_eval(0.5, -1.0)
        assert val == pytest.approx(0.4275835762, abs=1e-9)
        assert val == pytest.approx(math.exp(1.0) * math.erfc(1.0), rel=1e-12)

    def test_against_frozen_oracle_table(self):
        worst = 0.0
        for alpha, z, ref in load_oracle_table():
            val = ml_eval(alpha, z)
            worst = max(worst, abs(val - ref) / max(abs(ref), 1e-300))
        assert worst <= 1e-10

    def test_accuracy_across_branch_seams(self):
        # The evaluator switches from the series to the quadrature at 3 nats
        # of cancellation, (-z)**(1/alpha); accuracy must hold on both sides.
        from fracrd import mlref

        for alpha in (0.3, 0.5, 0.9, 0.99, 0.9999, 0.99999, 0.999999):
            for factor in (0.99, 1.01):
                z = -((3.0 * factor) ** alpha)
                ref = float(mlref.ml_reference(alpha, z, digits=25))
                val = ml_eval(alpha, z)
                assert abs(val - ref) <= 1e-10 * abs(ref), (alpha, z)

    def test_quadrature_against_reference(self):
        # Dense grid over the spectral-quadrature regime, out to z = -1e12;
        # alpha near 1 puts a sharp kernel resonance on the integration path,
        # and from 48 nats on it sits past the end of the fixed u range.
        from fracrd import mlref

        points = []
        for alpha in (0.25, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99, 0.999, 0.9999, 1.0 - 1e-7):
            zs = [-float(nats) ** alpha for nats in np.geomspace(3.0, 36.0, 13)]
            zs.append(-(48.5**alpha))
            if alpha > 0.25:  # mlref takes seconds at alpha 0.25, z = -1e12
                zs.append(-1e12)
            points += [(alpha, z) for z in zs]
        alpha = 1.0 - 1e-10  # the resonance holds 3e-10 of the value at 48.7 nats
        points += [(alpha, -(nats**alpha)) for nats in (48.7, 60.0, 80.5)]
        for alpha, z in points:
            ref = float(mlref.ml_reference(alpha, z, digits=25))
            val = ml_eval(alpha, z)
            assert abs(val - ref) <= 1e-12 * abs(ref), (alpha, z)

    def test_mid_regime_threads_bit_identical(self):
        nats = np.concatenate((np.linspace(3.5, 35.5, 40), np.geomspace(36.0, 1e6, 20)))
        arrays = [(alpha, -(nats**alpha)) for alpha in (0.5, 0.8, 0.99)]
        points = [(alpha, float(v)) for alpha, z in arrays for v in z]
        serial = [ml_eval(*p) for p in points]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(ml_eval, *zip(*points)))
            threaded_arrays = list(pool.map(ml_eval, *zip(*arrays * 4)))
        assert threaded == serial
        # each array call, on any thread, gives the serial float calls' bits
        for k, values in enumerate(threaded_arrays):
            assert values.tolist() == serial[(k % 3) * len(nats) : (k % 3 + 1) * len(nats)]

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
            ml_eval(0.2, -1.0)
        with pytest.raises(UnsupportedParameterError):
            ml_eval(0.5, 6.0)
        with pytest.raises(UnsupportedParameterError):
            ml_eval(0.5, -2e12)

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(0.25, 1.0),
        t1=st.floats(0.0, 49.0),
        gap=st.floats(0.01, 1.0),
    )
    def test_complete_monotone_decay(self, alpha, t1, gap):
        t2 = t1 + gap
        assert ml_eval(alpha, -t1) > ml_eval(alpha, -t2)

    @settings(max_examples=60, deadline=None)
    @given(alpha=st.floats(0.25, 1.0), z=st.floats(0.0, 50.0))
    def test_positive_on_negative_axis(self, alpha, z):
        assert ml_eval(alpha, -z) > 0.0


class TestMLEvalArray:
    # Points in every branch: the series (nats <= 3, and z >= 0), the one
    # rule, the graded resonance panels (alpha 0.99 below 31 nats, 0.9999
    # below 81) and alpha = 1.
    NATS = np.concatenate(([0.0, 0.5, 2.9, 3.0], np.geomspace(3.01, 1e6, 40)))

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 0.99, 0.9999, 1.0])
    def test_elements_equal_float_calls(self, alpha):
        z = np.concatenate((-(self.NATS**alpha), [0.7, 5.0]))
        z = z[z >= _Z_MIN]
        values = ml_eval(alpha, z)
        assert values.shape == z.shape
        assert values.tolist() == [ml_eval(alpha, float(v)) for v in z]

    def test_accuracy_against_reference(self):
        # both sides of the 3-nat seam and z = -1e12, through one array call
        from fracrd import mlref

        for alpha in (0.3, 0.5, 0.9, 0.99, 0.9999):
            z = np.array([-((3.0 * 0.99) ** alpha), -((3.0 * 1.01) ** alpha), -1e12])
            values = ml_eval(alpha, z)
            for zi, val, tol in zip(z, values, (1e-10, 1e-10, 1e-12)):
                ref = float(mlref.ml_reference(alpha, float(zi), digits=25))
                assert abs(val - ref) <= tol * abs(ref), (alpha, zi)

    def test_bad_element_raises_the_float_error(self):
        with pytest.raises(DomainError, match="finite"):
            ml_eval(0.5, np.array([-1.0, math.nan, -2.0]))
        with pytest.raises(DomainError, match="finite"):
            ml_eval(0.5, math.nan)
        for bad in (6.0, -2e12):
            with pytest.raises(UnsupportedParameterError, match=f"z={bad}"):
                ml_eval(0.5, np.array([-1.0, -40.0, bad, -3.0]))
            with pytest.raises(UnsupportedParameterError, match=f"z={bad}"):
                ml_eval(0.5, bad)

    def test_empty_and_zero_dimensional(self):
        empty = ml_eval(0.5, np.array([]))
        assert empty.shape == (0,)
        for z in (-1.0, -40.0):
            value = ml_eval(0.5, np.array(z))
            assert value.shape == () and value == ml_eval(0.5, z)

    def test_input_is_unchanged_and_result_is_new(self):
        for z in (np.array([-1.0, -40.0, 2.0]), np.array([[-1.0], [-40.0]]), np.array(-1.0)):
            before = z.copy()
            values = ml_eval(0.5, z)
            assert np.array_equal(z, before)
            assert values is not z and not np.shares_memory(values, z)
            values[...] = 0.0  # the result may be written without touching z
            assert np.array_equal(z, before)
        read_only = np.array([-1.0, -40.0])
        read_only.setflags(write=False)
        assert ml_eval(0.5, read_only).flags.writeable

    def test_list_and_int_inputs(self):
        values = ml_eval(0.5, [-1.0, -40.0])
        assert isinstance(values, np.ndarray) and values.shape == (2,)
        assert values.tolist() == [ml_eval(0.5, -1.0), ml_eval(0.5, -40.0)]
        assert isinstance(ml_eval(0.5, [[-1]]), np.ndarray)
        value = ml_eval(0.5, -1)
        assert type(value) is float and value == ml_eval(0.5, -1.0)

    def test_rule_cache_is_bounded_and_read_only(self):
        ml_eval(0.6, -40.0)
        assert _rule.cache_info().maxsize is not None
        for array in _rule(0.6):
            assert not array.flags.writeable



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
        # Spans both branches; 4 eps allows for the rounding of the bounds.
        tol = 4.0 * np.finfo(float).eps
        zs = np.concatenate(([0.0], np.geomspace(1e-8, 1e6, 1201)))
        for alpha in np.linspace(0.25, 0.999, 11):
            alpha = float(alpha)
            for z in zs:
                lower, upper = self.bounds(alpha, float(z))
                val = ml_eval(alpha, -float(z))
                assert lower * (1.0 - tol) <= val <= upper * (1.0 + tol), (alpha, z)

    def test_constant_at_least_one(self):
        # C_alpha = 1 is the least constant with E_alpha(-z) <= C_alpha/(1+z):
        # (1+z) E_alpha(-z) is 1 at z = 0 and below 1 after.
        zs = np.geomspace(1e-6, 1e4, 200)
        for alpha in (0.3, 0.5, 0.8, 0.95):
            assert ml_eval(alpha, 0.0) == 1.0
            assert max((1.0 + z) * ml_eval(alpha, -z) for z in zs) < 1.0

    def test_envelope_at_nine(self):
        # E_{1/2}(-9) = e^81 erfc(9) must sit between the bounds
        exact = math.exp(81.0) * math.erfc(9.0)
        val = ml_eval(0.5, -9.0)
        assert val == pytest.approx(exact, rel=1e-10)
        lower, upper = self.bounds(0.5, 9.0)
        assert lower <= val <= upper
