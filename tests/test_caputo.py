import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracrd.caputo import (
    BLOW_THRESHOLD,
    L1History,
    _nonuniform_history_weights,
    caputo_convolution,
    l1_weights,
    solve_linear_fode,
    solve_logistic_fode,
)
from fracrd.errors import ConvergenceError, DomainError
from fracrd.special import MLParams, ml_eval


class TestWeights:
    def test_b0_is_one_for_all_alpha(self):
        for alpha in (0.1, 0.5, 0.9, 1.0):
            assert l1_weights(alpha, 0.1, 4).b[0] == 1.0

    def test_alpha_one_degenerates_to_backward_euler(self):
        b = l1_weights(1.0, 0.1, 4).b
        assert np.array_equal(b, [1.0, 0.0, 0.0, 0.0])

    def test_b1_half_alpha(self):
        b = l1_weights(0.5, 0.1, 4).b
        assert b[1] == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-15)

    def test_scale(self):
        w = l1_weights(0.5, 0.25, 3)
        assert w.scale == pytest.approx(0.25**-0.5 / math.gamma(1.5), rel=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(alpha=st.floats(0.05, 1.0), n=st.integers(1, 200))
    def test_telescoping(self, alpha, n):
        b = l1_weights(alpha, 0.1, n).b
        assert b.sum() == pytest.approx(n ** (1.0 - alpha), rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(alpha=st.floats(0.05, 0.999), n=st.integers(2, 200))
    def test_strictly_decreasing_positive(self, alpha, n):
        b = l1_weights(alpha, 0.1, n).b
        assert np.all(b > 0)
        assert np.all(np.diff(b) < 0)

    def test_validation(self):
        with pytest.raises(DomainError):
            l1_weights(0.0, 0.1, 4)
        with pytest.raises(DomainError):
            l1_weights(1.2, 0.1, 4)
        with pytest.raises(DomainError):
            l1_weights(0.5, -0.1, 4)
        with pytest.raises(DomainError):
            l1_weights(0.5, 0.1, 0)


class TestMemorySum:
    N = 400

    @staticmethod
    def _loop_sum(b, diffs, n):
        total = np.zeros(diffs.shape[1:])
        for j in range(1, n):
            total = total + b[j] * diffs[n - j]
        return total

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("width", [None, 7])
    def test_matches_loop_reference(self, alpha, width):
        w = l1_weights(alpha, 0.05, self.N)
        shape = (self.N + 1,) if width is None else (self.N + 1, width)
        diffs = np.random.default_rng(17).uniform(-1.0, 1.0, size=shape)
        for n in (1, 2, 3, self.N // 2, self.N):
            got = caputo_convolution(w, diffs, n)
            ref = self._loop_sum(w.b, diffs, n)
            assert np.shape(got) == ref.shape
            # relative to the sum of |terms|, so sign cancellation cannot hide an error
            magnitude = self._loop_sum(w.b, np.abs(diffs), n)
            assert np.all(np.abs(got - ref) <= 1e-13 * magnitude)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 1.0])
    def test_reversed_slice_identity(self, alpha):
        w = l1_weights(alpha, 0.05, self.N)
        assert w.b_rev.flags.c_contiguous and not w.b_rev.flags.writeable
        for n in range(2, self.N + 1):
            assert np.array_equal(w.b_rev[self.N - n : self.N - 1], w.b[n - 1 : 0 : -1])

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 0.999, 1.0])
    @pytest.mark.parametrize("dt", [0.1, 0.37])
    def test_nonuniform_weights_on_uniform_mesh(self, alpha, dt):
        w = l1_weights(alpha, dt, self.N)
        for n in range(2, self.N + 1):
            got = _nonuniform_history_weights(alpha, dt * np.arange(n), n * dt)
            ref = w.scale * w.b_rev[self.N - n : self.N - 1]
            if alpha == 1.0:
                assert np.all(got == 0.0) and np.all(ref == 0.0)
            else:
                # b_j is a difference of two powers ~ j^(1-alpha), so both forms
                # lose about j/(1-alpha) ulps to cancellation
                rtol = 4.0 * np.finfo(float).eps * self.N / (1.0 - alpha)
                np.testing.assert_allclose(got, ref, rtol=rtol, atol=0.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_step_index_beyond_weights(self, alpha):
        w = l1_weights(alpha, 0.1, 4)
        with pytest.raises(DomainError, match="step index 5"):
            caputo_convolution(w, np.zeros((8, 3)), 5)
        assert np.shape(caputo_convolution(w, np.zeros((8, 3)), 4)) == (3,)


class TestL1History:
    @pytest.mark.parametrize("width", [None, 5], ids=["scalar", "field"])
    def test_increments_survive_growth(self, width):
        shape = (41,) if width is None else (41, width)
        values = np.random.default_rng(3).uniform(0.0, 1.0, size=shape)
        history = L1History(values[0])
        for m, y in enumerate(values[1:], start=1):
            history.append(y, 0.1 * m)
        assert len(history) == 41
        assert np.array_equal(history.last, values[-1])
        assert np.all(history.increments[0] == 0.0)
        assert np.array_equal(history.increments[1:], values[1:] - values[:-1])
        assert np.array_equal(history.times, 0.1 * np.arange(41))

    @pytest.mark.parametrize("alpha", [0.3, 0.9, 1.0])
    def test_memory_matches_uniform_sum_on_uniform_mesh(self, alpha):
        n, dt = 40, 0.1
        w = l1_weights(alpha, dt, n)
        fields = np.random.default_rng(5).uniform(0.0, 1.0, size=(n, 3))
        history = L1History(fields[0])
        for m in range(1, n):
            history.append(fields[m], m * dt)
        got = history.memory(alpha, n * dt)
        ref = w.scale * caputo_convolution(w, history.increments, n)
        magnitude = w.scale * caputo_convolution(w, np.abs(history.increments), n)
        assert np.all(np.abs(got - ref) <= 1e-12 * magnitude)


class TestLinearFode:
    def test_zero_rate_preserves_initial_value(self):
        trace = solve_linear_fode(0.5, 0.0, 3.0, 0.1, 1.0)
        assert np.all(trace.values == 3.0)
        assert trace.times[0] == 0.0
        assert np.all(np.diff(trace.times) > 0)

    def test_alpha_one_matches_exp(self):
        trace = solve_linear_fode(1.0, 1.0, 1.0, 2.0**-10, 1.0)
        assert trace.values[-1] == pytest.approx(math.exp(-1.0), abs=3e-4)

    def test_half_alpha_matches_mittag_leffler(self):
        exact = ml_eval(MLParams(alpha=0.5, z=-1.0))
        trace = solve_linear_fode(0.5, 1.0, 1.0, 2.0**-10, 1.0)
        assert trace.values[-1] == pytest.approx(exact, abs=5e-4)

    def test_error_decreases_under_halving(self):
        exact = ml_eval(MLParams(alpha=0.5, z=-1.0))
        errs = [
            abs(solve_linear_fode(0.5, 1.0, 1.0, 2.0**-k, 1.0).values[-1] - exact)
            for k in (6, 8, 10)
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_trace_covers_interval_for_nondividing_dt(self):
        trace = solve_linear_fode(0.5, 1.0, 1.0, 0.3, 1.0)
        assert trace.times[0] == 0.0
        assert trace.times[-1] == 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            solve_linear_fode(0.5, -1.0, 1.0, 0.1, 1.0)
        with pytest.raises(DomainError):
            solve_linear_fode(0.5, 1.0, 1.0, 2.0, 1.0)


class TestLogisticFode:
    def test_zero_is_fixed_point(self):
        trace, blow = solve_logistic_fode(0.5, 0.0, 0.01, 1.0)
        assert np.all(trace.values == 0.0)
        assert blow is None

    @pytest.mark.parametrize("y0", [1.0, 2.0])
    def test_alpha_one_blow_time_under_refinement(self, y0):
        exact = math.log(1.0 + 1.0 / y0)
        estimates = []
        dt = exact / 100.0
        for _ in range(8):
            _, blow = solve_logistic_fode(1.0, y0, dt, 10.0 * exact)
            assert blow is not None
            estimates.append(blow)
            if len(estimates) >= 2 and abs(estimates[-1] - estimates[-2]) < 2.5e-3 * blow:
                break
            dt *= 0.5
        assert estimates[-1] == pytest.approx(exact, rel=0.01)

    def test_trace_strictly_increasing(self):
        trace, blow = solve_logistic_fode(0.7, 0.5, 0.01, 2.0)
        assert blow is not None
        assert np.all(np.diff(trace.values) > 0)

    def test_no_blowup_when_horizon_short(self):
        trace, blow = solve_logistic_fode(0.5, 0.01, 0.001, 0.05)
        assert blow is None
        assert trace.times[-1] == pytest.approx(0.05, rel=1e-9)

    def test_floor_collapse_reported(self):
        # at alpha 0.5 the threshold lies below the step floor DT_FLOOR_REL * t_end
        with pytest.raises(ConvergenceError, match="floor 2e-14"):
            solve_logistic_fode(0.5, 1.0, 0.01, 2.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            solve_logistic_fode(0.5, -1.0, 0.01, 1.0)
        with pytest.raises(DomainError, match="blow-up threshold"):
            solve_logistic_fode(0.5, BLOW_THRESHOLD, 0.01, 1.0)
