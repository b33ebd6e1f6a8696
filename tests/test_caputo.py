import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracrd.caputo import (
    _FOLD,
    _UNIFORM_RTOL,
    L1History,
    _nonuniform_history_weights,
    _soe_modes,
    l1_weights,
    solve_linear_fode,
)
from fracrd import solver
from fracrd.errors import DomainError
from fracrd.harness import _logistic_crossing
from fracrd.solver import BLOW_THRESHOLD, _dt_ladder, _march
from fracrd.special import ml_eval


class TestWeights:
    def test_b0_is_one_for_all_alpha(self):
        for alpha in (0.1, 0.5, 0.9, 1.0):
            assert l1_weights(alpha, 4)[0] == 1.0

    def test_alpha_one_degenerates_to_backward_euler(self):
        b = l1_weights(1.0, 4)
        assert np.array_equal(b, [1.0, 0.0, 0.0, 0.0])

    def test_b1_half_alpha(self):
        b = l1_weights(0.5, 4)
        assert b[1] == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-15)

    def test_scale(self):
        history = L1History(0.0, 0.5, 0.25, 0.75)
        assert (history.n_steps, history.dt) == (3, 0.25)
        assert history.scale == pytest.approx(0.25**-0.5 / math.gamma(1.5), rel=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(alpha=st.floats(0.05, 1.0), n=st.integers(1, 200))
    def test_telescoping(self, alpha, n):
        b = l1_weights(alpha, n)
        assert b.sum() == pytest.approx(n ** (1.0 - alpha), rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(alpha=st.floats(0.05, 0.999), n=st.integers(2, 200))
    def test_strictly_decreasing_positive(self, alpha, n):
        b = l1_weights(alpha, n)
        assert np.all(b > 0)
        assert np.all(np.diff(b) < 0)

    def test_validation(self):
        with pytest.raises(DomainError):
            l1_weights(0.0, 4)
        with pytest.raises(DomainError):
            l1_weights(1.2, 4)
        with pytest.raises(DomainError):
            l1_weights(0.5, 0)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.8, 0.99])
    def test_matches_mpmath_far_out(self, alpha):
        # b_j as a difference of powers lost ~j ulps; the expm1/log1p form keeps a few
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        b = l1_weights(alpha, 200_001)
        one_minus = 1 - mpmath.mpf(alpha)
        for j in (1, 2, 10, 3999, 12_345, 199_999, 200_000):
            ref = mpmath.power(j + 1, one_minus) - mpmath.power(j, one_minus)
            assert abs(float((b[j] - ref) / ref)) <= 4.0 * np.finfo(float).eps

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.8, 0.99])
    def test_nonuniform_weights_match_mpmath(self, alpha):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        gaps = np.random.default_rng(11).uniform(0.01, 1.0, 300)
        times = np.concatenate([[0.0], np.cumsum(gaps)])
        t_new = times[-1] + 1e-3
        got = _nonuniform_history_weights(alpha, times, t_new)
        one_minus, g2 = 1 - mpmath.mpf(alpha), mpmath.gamma(2 - mpmath.mpf(alpha))
        for m in (0, 1, 150, 298, 299):
            left, right = mpmath.mpf(times[m]), mpmath.mpf(times[m + 1])
            d_left, d_right = mpmath.mpf(t_new) - left, mpmath.mpf(t_new) - right
            ref = (mpmath.power(d_left, one_minus) - mpmath.power(d_right, one_minus)) / (
                g2 * (right - left)
            )
            assert abs(float((got[m] - ref) / ref)) <= 1e-13


# --- exact oracles: the O(N) memory sums the SOE history replaces ----------------


def exact_memory(alpha, times, values, t_new):
    """Step-time L1 history sum over every committed interval, scale included."""
    incs = np.diff(values, axis=0)
    if len(incs) == 0:
        return np.zeros(np.shape(values[0])), np.zeros(np.shape(values[0]))
    weights = _nonuniform_history_weights(alpha, times, t_new)
    return weights @ incs, weights @ np.abs(incs)


def uniform_memory(alpha, dt, values):
    """scale * sum_{j=1}^{n-1} b_j (y^(n-j) - y^(n-j-1)) at t_n, n = len(values)."""
    n = len(values)
    scale = dt ** (-alpha) / math.gamma(2.0 - alpha)
    incs = np.diff(values, axis=0)
    coef = scale * l1_weights(alpha, n)[n - 1 : 0 : -1]
    return coef @ incs, coef @ np.abs(incs)


def _mesh(kind, dt, n):
    """n + 1 step times of one of the meshes the steppers produce."""
    if kind == "uniform":
        return dt * np.arange(n + 1.0)
    m0 = (2 * n) // 3
    if kind == "halvings":  # adaptive regime: the step only ever halves
        steps = np.concatenate([np.full(m0, dt), dt * 0.5 ** (1 + np.arange(n - m0) // 16)])
    else:  # "frozen": one short step, then uniform steps that must stay exact
        steps = np.concatenate([np.full(m0, dt), [0.3 * dt], np.full(n - m0 - 1, dt)])
    return np.concatenate([[0.0], np.cumsum(steps)])


def _drive(alpha, times, values, dt, n_steps, checks):
    """Feed the mesh to an L1History; return the worst error relative to
    sum |terms| over the checked steps, at each step time and at a trial
    time inside the next interval (a rejected step)."""
    history = L1History(values[0], alpha, dt, n_steps * dt)
    worst = 0.0
    for m in range(1, len(times)):
        if m in checks:
            trial = times[m - 1] + 0.37 * (times[m] - times[m - 1])
            for t_new in (trial, times[m]):  # the step to times[m] is the one appended
                got = history.step(t_new)[1]
                ref, magnitude = exact_memory(alpha, times[:m], values[:m], t_new)
                assert np.shape(got) == np.shape(ref)
                if alpha == 1.0:
                    assert np.all(got == 0.0)
                    continue
                magnitude = np.maximum(magnitude, np.finfo(float).tiny)  # 0 before any interval
                worst = max(worst, float(np.max(np.abs(got - ref) / magnitude)))
        else:  # step(times[m])'s verdict, without its O(m) memory sum once frozen
            history._pending = times[m], history._uniform(times[m] - history.t_last, times[m])
        history.append(values[m])
    return worst


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
        dt = 0.05
        b, scale = l1_weights(alpha, self.N), dt ** (-alpha) / math.gamma(2.0 - alpha)
        shape = (self.N,) if width is None else (self.N, width)
        values = np.random.default_rng(17).uniform(-1.0, 1.0, size=shape)
        diffs = np.concatenate([np.zeros((1,) + shape[1:]), np.diff(values, axis=0)])
        history = L1History(values[0], alpha, dt, self.N * dt)
        for n in range(1, self.N):
            got = history.step(n * dt)[1]
            if n in (1, 2, 3, 33, 34, self.N // 2, self.N - 1):
                ref = scale * self._loop_sum(b, diffs, n)
                assert np.shape(got) == ref.shape
                # relative to the sum of |terms|, so sign cancellation cannot hide an error
                magnitude = scale * self._loop_sum(b, np.abs(diffs), n)
                assert np.all(np.abs(got - ref) <= 1e-13 * magnitude)
            history.append(values[n])

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 0.999, 1.0])
    @pytest.mark.parametrize("dt", [0.1, 0.37])
    def test_nonuniform_weights_on_uniform_mesh(self, alpha, dt):
        b, scale = l1_weights(alpha, self.N), dt ** (-alpha) / math.gamma(2.0 - alpha)
        for n in range(2, self.N + 1):
            got = _nonuniform_history_weights(alpha, dt * np.arange(n), n * dt)
            ref = scale * b[n - 1 : 0 : -1]
            if alpha == 1.0:
                assert np.all(got == 0.0) and np.all(ref == 0.0)
            else:
                # the mesh times m*dt are rounded to ulp(N*dt), which moves a
                # step-time weight by up to about N/2 ulps
                rtol = np.finfo(float).eps * self.N
                np.testing.assert_allclose(got, ref, rtol=rtol, atol=0.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_step_index_beyond_weights(self, alpha):
        history = L1History(np.zeros(3), alpha, 0.1, 0.4)
        with pytest.raises(DomainError, match="outside"):
            history.step(0.5)[1]
        assert np.shape(history.step(0.4)[1]) == (3,)
        history.step(0.1)
        history.append(np.ones(3))
        with pytest.raises(DomainError, match="outside"):
            history.step(0.1)[1]


class TestSOE:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.8, 0.99])
    @pytest.mark.parametrize("n_steps", [2, 50, 4000, 200_000])
    def test_weights_fit_the_l1_weights(self, alpha, n_steps):
        s, c = _soe_modes(alpha, n_steps)
        b = l1_weights(alpha, n_steps)
        j = np.unique(np.geomspace(1, n_steps - 1, 400).round()).astype(int)
        approx = np.exp(-np.outer(j, s)) @ c
        assert np.max(np.abs(approx / b[j] - 1.0)) <= 1e-12

    @pytest.mark.parametrize("n_steps", [2, 400, 4000, 200_000])
    def test_mode_count_bound(self, n_steps):
        for alpha in (0.25, 0.5, 0.8, 0.99):
            q = len(_soe_modes(alpha, n_steps)[0])
            assert q <= 8 * math.ceil(math.log(30.0 * n_steps)) + 6
        assert len(_soe_modes(0.5, 200_000)[0]) <= 140

    def test_uniform_history_stays_bounded(self):
        history = L1History(np.zeros(16), 0.5, 0.25, 1250.0)
        rows = len(history._rows)
        for m in range(1, 5000):
            history.step(0.25 * m)
            history.append(np.full(16, float(m)))
        assert len(history._rows) == rows == len(_soe_modes(0.5, 5000)[0]) + _FOLD + 1

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.8, 0.99, 1.0])
    @pytest.mark.parametrize("kind", ["uniform", "halvings", "frozen"])
    @pytest.mark.parametrize("width", [None, 4], ids=["scalar", "field"])
    def test_matches_exact_oracle(self, alpha, kind, width):
        n, dt = 1500, 0.25
        times = _mesh(kind, dt, n)
        shape = (n + 1,) if width is None else (n + 1, width)
        values = np.random.default_rng(5).uniform(0.0, 1.0, size=shape)
        checks = {1, 2, 32, 33, 34, 65, 999, 1000, 1001, 1002, 1003, 1100, n}
        worst = _drive(alpha, times, values, dt, n, checks)
        assert worst <= 1e-12

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.8, 0.99, 1.0])
    @pytest.mark.parametrize("kind", ["uniform", "frozen"])
    def test_matches_exact_oracle_long(self, alpha, kind):
        n, dt = 200_000, 0.5
        times = _mesh(kind, dt, n)
        values = np.cumsum(np.random.default_rng(7).uniform(-1.0, 1.0, n + 1))
        worst = _drive(alpha, times, values, dt, n, {1000, 133_334, 133_340, n})
        assert worst <= 1e-12
        if kind == "uniform":
            got = L1History(values[0], alpha, dt, n * dt)
            for m in range(1, n):
                got.step(m * dt)
                got.append(values[m])
            ref, magnitude = uniform_memory(alpha, dt, values[:n])
            assert abs(got.step(n * dt)[1] - ref) <= 1e-12 * magnitude

    @pytest.mark.parametrize("alpha", [0.3, 0.9])
    def test_repeat_runs_bit_identical(self, alpha):
        def once():
            _soe_modes.cache_clear()
            times = _mesh("halvings", 0.25, 600)
            values = np.random.default_rng(3).uniform(0.0, 1.0, size=(601, 5))
            history = L1History(values[0], alpha, 0.25, 150.0)
            out = []
            for m in range(1, 601):
                out.append(history.step(times[m])[1])
                history.append(values[m])
            return np.array(out)

        assert np.array_equal(once(), once())
        assert np.array_equal(
            solve_linear_fode(alpha, 1.0, 1.0, 0.01, 20.0),
            solve_linear_fode(alpha, 1.0, 1.0, 0.01, 20.0),
        )


class TestL1History:
    @pytest.mark.parametrize("width", [None, 5], ids=["scalar", "field"])
    def test_increments_survive_growth(self, width):
        # a mesh off the uniform step from the first interval keeps every
        # increment exact, in arrays that double past their first capacity
        n = 400
        times = np.concatenate([[0.0], np.cumsum(np.geomspace(0.05, 0.2, n))])
        shape = (n + 1,) if width is None else (n + 1, width)
        values = np.random.default_rng(3).uniform(0.0, 1.0, size=shape)
        history = L1History(values[0], 0.6, 0.1, 80.0)
        for m in range(1, n + 1):
            history.step(times[m])
            history.append(values[m])
        assert history.t_last == times[-1]
        assert np.array_equal(history.last, values[-1])
        t_new = times[-1] + 0.05
        ref, magnitude = exact_memory(0.6, times, values, t_new)
        assert np.all(np.abs(history.step(t_new)[1] - ref) <= 1e-13 * magnitude)

    def test_step_weight_follows_the_uniform_test(self):
        # a step within _UNIFORM_RTOL of dt weighs scale and reads the uniform
        # memory sum; any other step, and every step once the state is frozen,
        # weighs tau^(-alpha)/Gamma(2-alpha) and reads the step-time sum
        alpha, dt = 0.5, 0.25
        inside, outside = dt * (1.0 + 0.5 * _UNIFORM_RTOL), dt * (1.0 + 2.0 * _UNIFORM_RTOL)
        history = L1History(np.zeros(3), alpha, dt, 25.0)
        for m in range(1, _FOLD + 9):  # past one fold
            history.step(m * dt)
            history.append(np.full(3, float(m * m)))
        t = history.t_last
        w, uniform = history.step(t + dt)
        assert w == history.scale
        w_in, memory_in = history.step(t + inside)
        assert w_in == history.scale and np.array_equal(memory_in, uniform)
        w_out, memory_out = history.step(t + outside)
        assert w_out == (t + outside - t) ** -alpha / math.gamma(2.0 - alpha)
        assert not np.array_equal(memory_out, uniform)
        history.step(t + inside)
        history.append(np.full(3, 1.0))
        assert not history._frozen
        history.step(history.t_last + outside)
        history.append(np.full(3, 2.0))
        assert history._frozen
        t = history.t_last
        w, _ = history.step(t + dt)
        assert w == (t + dt - t) ** -alpha / math.gamma(2.0 - alpha)

    def test_uniform_test_absorbs_the_rounding_of_k_dt(self):
        # with dt = 2e-3/3, (k+1)*dt - k*dt first misses dt by more than
        # _UNIFORM_RTOL at k = 6,144,002, inside a 1e7-step run; the history
        # is placed there directly, with no 6M-step loop
        dt, k = 2e-3 / 3, 6_144_002
        history = L1History(0.0, 0.5, dt, 10_000_000 * dt)
        assert (history.n_steps, history.dt) == (10_000_000, dt)
        assert abs(((k + 1) * dt - k * dt) - dt) > _UNIFORM_RTOL * dt
        history.t_last = k * dt
        for m in (k + 1, k + 2):
            w, _ = history.step(m * dt)
            assert w == history.scale
            history.append(1.0)
            assert history.t_last == m * dt and not history._frozen

    def test_append_reuses_the_uniform_test_of_its_step(self, monkeypatch):
        # one uniform test per step: append(value) commits the last step's
        # interval on that step's verdict, and tests nothing itself
        history = L1History(0.0, 0.5, 0.1, 10.0)
        tested = []
        uniform = history._uniform
        monkeypatch.setattr(history, "_uniform", lambda tau, t: tested.append(t) or uniform(tau, t))
        history.step(0.1)
        history.append(1.0)
        assert tested == [0.1] and history.t_last == 0.1
        history.step(0.25)  # a rejected step
        history.step(0.2)
        history.append(2.0)
        assert tested == [0.1, 0.25, 0.2] and history.t_last == 0.2
        assert not history._frozen
        history.step(0.35)  # off dt: append freezes the state on step's verdict
        history.append(3.0)
        assert tested == [0.1, 0.25, 0.2, 0.35] and history._frozen
        assert (history.t_last, history.last) == (0.35, 3.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_append_without_a_pending_step_raises(self, alpha):
        history = L1History(0.0, alpha, 0.1, 1.0)
        with pytest.raises(DomainError, match="step"):
            history.append(1.0)
        history.step(0.1)
        history.append(1.0)
        with pytest.raises(DomainError, match="step"):
            history.append(2.0)
        assert (history.t_last, history.last) == (0.1, 1.0)

    @pytest.mark.parametrize("shape", [(), (4,)])
    def test_alpha_one_memory_is_a_read_only_zero(self, shape):
        history = L1History(np.ones(shape), 1.0, 0.1, 1.0)
        history.step(0.1)
        history.append(np.full(shape, 2.0))
        w, memory = history.step(0.2)
        assert w == history.scale == 1.0 / 0.1
        assert memory.shape == shape and np.all(memory == 0.0)
        assert not memory.flags.writeable

    @pytest.mark.parametrize("alpha", [0.3, 0.9, 1.0])
    def test_memory_matches_uniform_sum_on_uniform_mesh(self, alpha):
        n, dt = 100, 0.1
        fields = np.random.default_rng(5).uniform(0.0, 1.0, size=(n, 3))
        history = L1History(fields[0], alpha, dt, n * dt)
        for m in range(1, n):
            history.step(m * dt)
            history.append(fields[m])
        got = history.step(n * dt)[1]
        ref, magnitude = uniform_memory(alpha, dt, fields)
        assert np.all(np.abs(got - ref) <= 1e-12 * magnitude)


class TestLinearFode:
    def test_zero_rate_preserves_initial_value(self):
        y = solve_linear_fode(0.5, 0.0, 3.0, 0.1, 1.0)
        assert len(y) == 11 and np.all(y == 3.0)

    def test_alpha_one_matches_exp(self):
        y = solve_linear_fode(1.0, 1.0, 1.0, 2.0**-10, 1.0)
        assert y[-1] == pytest.approx(math.exp(-1.0), abs=3e-4)

    def test_half_alpha_matches_mittag_leffler(self):
        exact = ml_eval(0.5, -1.0)
        y = solve_linear_fode(0.5, 1.0, 1.0, 2.0**-10, 1.0)
        assert y[-1] == pytest.approx(exact, abs=5e-4)

    def test_error_decreases_under_halving(self):
        exact = ml_eval(0.5, -1.0)
        errs = [
            abs(solve_linear_fode(0.5, 1.0, 1.0, 2.0**-k, 1.0)[-1] - exact)
            for k in (6, 8, 10)
        ]
        assert errs[0] > errs[1] > errs[2]

    @pytest.mark.parametrize("alpha", [0.5, 0.8])
    def test_matches_exact_history_solver(self, alpha):
        n, dt, rate = 4000, 0.25, 0.3
        b, scale = l1_weights(alpha, n), dt ** (-alpha) / math.gamma(2.0 - alpha)
        y = np.empty(n + 1)
        y[0] = 1.0
        for k in range(1, n + 1):  # the O(n^2) exact memory sum
            hist = b[k - 1 : 0 : -1] @ np.diff(y[:k])
            y[k] = scale * (y[k - 1] - hist) / (scale + rate)
        got = solve_linear_fode(alpha, rate, 1.0, dt, n * dt)
        np.testing.assert_allclose(got, y, rtol=1e-12, atol=0.0)

    def test_trace_covers_interval_for_nondividing_dt(self):
        # round(1 / 0.3) = 3 steps of 1/3, bit for bit the run at dt = 1/3
        y = solve_linear_fode(0.5, 1.0, 1.0, 0.3, 1.0)
        assert len(y) == 4
        assert np.array_equal(y, solve_linear_fode(0.5, 1.0, 1.0, 1.0 / 3.0, 1.0))

    def test_validation(self):
        for rate in (-1.0, math.nan):
            with pytest.raises(DomainError, match="rate="):
                solve_linear_fode(0.5, rate, 1.0, 0.1, 1.0)
        for y0 in (math.inf, math.nan):
            with pytest.raises(DomainError, match="y0="):
                solve_linear_fode(0.5, 1.0, y0, 0.1, 1.0)
        with pytest.raises(DomainError, match="alpha"):
            solve_linear_fode(1.5, 1.0, 1.0, 0.1, 1.0)

    @pytest.mark.parametrize("dt,t_end", [
        (0.0, 1.0), (-1.0, 1.0), (math.nan, 1.0), (2.0, 1.0), (0.1, math.inf),
        (5e-324, 1e300),  # t_end / dt overflows
    ])
    def test_mesh_validation(self, dt, t_end):
        with pytest.raises(DomainError, match="0 < dt <= t_end < inf"):
            solve_linear_fode(0.5, 1.0, 1.0, dt, t_end)


def _logistic(alpha, y0, dt, t_end):
    """D^alpha y = y (y + 1) through the solver's stepping loop, as one mode
    of eigenvalue -2: times, recorded values, crossing time, unresolved reason."""
    monitors, blowup, inconclusive = _march(np.array([-2.0]), np.eye(1), np.ones(1), 1.0,
                                            np.array([y0]), alpha, dt, t_end)
    times, _, _, _, values = monitors.columns()
    return times, values, blowup, inconclusive


class TestLogisticFode:
    def test_zero_is_fixed_point(self):
        _, values, blowup, inconclusive = _logistic(0.5, 0.0, 0.01, 1.0)
        assert np.all(values == 0.0)
        assert blowup is None and inconclusive is None

    @pytest.mark.parametrize("y0", [0.5, 1.0, 2.0])
    def test_alpha_one_blow_time_under_refinement(self, y0):
        # the ladder of the logistic_T_* records, from dt = exact / 100
        exact = math.log(1.0 + 1.0 / y0)
        finding = _dt_ladder(_logistic_crossing(1.0, y0, 10.0 * exact), exact / 100.0,
                             10.0 * exact)
        assert finding.status == "blowup"
        assert 4 <= len(finding.estimates) <= solver._MAX_REFINEMENTS + 1
        assert finding.t_star == pytest.approx(exact, rel=0.01)

    def test_ladder_of_a_bounded_run_is_none(self):
        finding = _dt_ladder(_logistic_crossing(0.5, 0.01, 0.05), 0.001, 0.05)
        assert (finding.status, finding.t_star, finding.estimates) == ("none", None, ())

    def test_ladder_of_a_floor_collapse_is_inconclusive(self):
        finding = _dt_ladder(_logistic_crossing(0.5, 1.0, 2.0), 0.01, 2.0)
        assert (finding.status, finding.t_star, finding.estimates) == ("inconclusive", None, ())

    def test_trace_strictly_increasing(self):
        # every committed step is recorded: the run starts above its trigger -10
        _, values, blowup, _ = _logistic(0.7, 0.5, 0.01, 2.0)
        assert blowup is not None and values[-1] >= BLOW_THRESHOLD
        assert len(values) > 100
        assert np.all(np.diff(values) > 0)

    def test_no_blowup_when_horizon_short(self):
        times, _, blowup, inconclusive = _logistic(0.5, 0.01, 0.001, 0.05)
        assert blowup is None and inconclusive is None
        assert times[-1] == pytest.approx(0.05, rel=1e-9)

    def test_floor_collapse_reported(self):
        # at alpha 0.5 the threshold lies below the step floor DT_FLOOR_REL * t_end
        _, _, blowup, inconclusive = _logistic(0.5, 1.0, 0.01, 2.0)
        assert blowup is None
        assert inconclusive.startswith("step size collapsed below floor 2e-14")
