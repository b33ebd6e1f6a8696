import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_factor, cho_solve

from fracrd import solver
from fracrd.caputo import BLOW_THRESHOLD, L1History, solve_logistic_fode
from fracrd.errors import ConvergenceError, DomainError, StepFailureError
from fracrd.fraclap import Grid1D
from fracrd.harness import scaled_blowup_config
from fracrd.solver import (
    SimConfig,
    _get_operator,
    _solve,
    blowup_bracket,
    decay_rate_fit,
    detect_blowup,
    initial_field,
    run,
    system_factor,
)
from fracrd.special import MLParams, ml_eval


class TestConfig:
    def test_validation(self):
        base = dict(alpha=0.5, s=0.5, a=0.0, b=1.0, n=16, dt=0.1, t_end=1.0)
        SimConfig(**base)
        with pytest.raises(DomainError):
            SimConfig(**{**base, "alpha": 1.5})
        with pytest.raises(DomainError):
            SimConfig(**{**base, "s": 1.0})
        with pytest.raises(DomainError):
            SimConfig(**{**base, "t_end": 0.0})
        with pytest.raises(DomainError):
            SimConfig(**{**base, "dt": 2.0})
        with pytest.raises(DomainError):
            SimConfig(**{**base, "profile": "no-such-profile"})

    def test_profiles_stay_in_unit_interval(self):
        grid = Grid1D(0.0, 1.0, 64)
        for name in ("constant", "sine", "parabola", "plateau", "gauss", "step", "hat"):
            vals = initial_field(grid, name, {"amplitude": 1.0})
            assert vals.min() >= 0.0 and vals.max() <= 1.0 + 1e-12


class TestStep:
    def test_first_step_matches_dense_solve_at_alpha_one(self):
        # alpha = 1 keeps no memory: (1/dt + 1 + A) u1 = u0/dt + u0^2
        cfg = SimConfig(alpha=1.0, s=0.5, a=0.0, b=1.0, n=8, dt=0.1, t_end=1.0)
        u0 = np.linspace(0.1, 0.8, 8)
        result = run(cfg, u0_override=u0, record_fields=True)
        a_mat = _get_operator(cfg)[0].entries
        expected = np.linalg.solve((1.0 / cfg.dt + 1.0) * np.eye(8) + a_mat, u0 / cfg.dt + u0**2)
        assert result.field_times[1] == cfg.dt
        np.testing.assert_allclose(result.fields[1], expected, rtol=1e-13)

    def test_matches_rk4_reference_at_alpha_one(self):
        # Classical limit: the semi-discrete system du/dt = -Au - u + u^2
        # integrated by an independent RK4 stepper with dt 100x smaller.
        cfg = SimConfig(
            alpha=1.0, s=0.95, a=0.0, b=4.0, n=64, dt=2.5e-4, t_end=1.0,
            profile="parabola", profile_params={"amplitude": 0.5},
        )
        result = run(cfg, record_fields=True)
        op, _ = _get_operator(cfg)
        a_mat = op.entries
        u = initial_field(cfg.grid, cfg.profile, cfg.profile_params)

        def rhs(v):
            return -(a_mat @ v) - v + v * v

        dt = cfg.dt / 100.0
        for _ in range(int(round(cfg.t_end / dt))):
            k1 = rhs(u)
            k2 = rhs(u + 0.5 * dt * k1)
            k3 = rhs(u + 0.5 * dt * k2)
            k4 = rhs(u + dt * k3)
            u = u + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        rel = np.linalg.norm(result.fields[-1] - u) / np.linalg.norm(u)
        assert rel <= 1e-3


class TestSolve:
    @pytest.mark.parametrize("n", [1, 7, 128])
    def test_matches_cho_solve_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        for shift in (0.5, 3.0, 1e4):
            g = rng.standard_normal((n, n))
            a = g @ g.T
            rhs = rng.standard_normal(n)
            expected = cho_solve(cho_factor(shift * np.eye(n) + a), rhs)
            assert np.array_equal(_solve(system_factor(shift, a), rhs), expected)

    def test_nan_rhs_raises_step_failure(self):
        with pytest.raises(StepFailureError, match="right-hand side is not finite"):
            _solve(system_factor(2.0, np.eye(3)), np.array([0.5, np.nan, 0.5]))

    def test_singular_factor_raises_step_failure(self):
        factor = np.asfortranarray(np.diag([1.0, 0.0, 1.0]))
        with pytest.raises(StepFailureError, match="factor is singular"):
            _solve(factor, np.full(3, 0.5))

    def test_non_spd_matrix_raises_step_failure(self):
        with pytest.raises(StepFailureError, match="not positive definite"):
            system_factor(1.0, -5.0 * np.eye(4))


class TestOperatorCache:
    @staticmethod
    def _config(s):
        return SimConfig(alpha=0.5, s=s, a=0.0, b=1.0, n=8, dt=0.1, t_end=1.0)

    def test_hit_returns_same_objects(self):
        cfg = self._config(0.31)
        op, pair = _get_operator(cfg)
        again = _get_operator(cfg)
        assert again[0] is op and again[1] is pair

    def test_evicts_least_recently_used(self):
        size = solver._operator.cache_info().maxsize
        configs = [self._config(0.1 + 0.01 * k) for k in range(size + 1)]
        first = [_get_operator(cfg) for cfg in configs[:size]]
        assert _get_operator(configs[0])[0] is first[0][0]  # now most recently used
        _get_operator(configs[size])
        assert solver._operator.cache_info().currsize == size
        assert _get_operator(configs[0])[0] is first[0][0]
        assert _get_operator(configs[1])[0] is not first[1][0]  # evicted, rebuilt

    def test_threads_share_a_bounded_cache(self):
        # More threads than cores and a short switch interval, so a lookup and
        # an eviction interleave.
        size = solver._operator.cache_info().maxsize
        configs = [self._config(0.2 + 0.01 * k) for k in range(size + 2)]
        serial = [_get_operator(cfg)[1].lambda1 for cfg in configs]
        requests = [configs[k % len(configs)] for k in range(1000)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(_get_operator, cfg) for cfg in requests]
                results = [f.result(timeout=120)[1].lambda1 for f in futures]
        finally:
            sys.setswitchinterval(old)
        assert results == [serial[k % len(configs)] for k in range(1000)]
        assert solver._operator.cache_info().currsize <= size


class TestRun:
    def test_zero_data(self):
        cfg = SimConfig(alpha=0.8, s=0.5, a=0.0, b=1.0, n=16, dt=0.05, t_end=1.0,
                        profile="constant", profile_params={"amplitude": 0.0})
        r = run(cfg)
        assert np.all(r.energy == 0.0)
        assert np.all(r.h_functional == 0.0)
        assert r.blowup is None

    def test_invariant_region_plateau(self):
        cfg = SimConfig(alpha=0.5, s=0.4, a=0.0, b=1.0, n=64, dt=0.1, t_end=10.0,
                        profile="plateau", profile_params={"amplitude": 0.9})
        r = run(cfg)
        assert r.umin.min() >= -1e-8
        assert r.umax.max() <= 1.0 + 1e-8
        assert r.blowup is None

    @settings(max_examples=25, deadline=None)
    @given(
        alpha=st.floats(0.1, 1.0),
        s=st.floats(0.05, 0.95),
        dt=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**31),
    )
    def test_invariant_region_fuzz(self, alpha, s, dt, seed):
        # the implicit part is an M-matrix for every step size, so [0,1]
        # data must stay in [0,1] regardless of parameters
        cfg = SimConfig(alpha=alpha, s=s, a=0.0, b=1.0, n=16, dt=dt, t_end=4.0 * dt,
                        profile="constant")
        u0 = np.random.default_rng(seed).uniform(0.0, 1.0, size=16)
        r = run(cfg, u0_override=u0)
        assert r.umin.min() >= -1e-8
        assert r.umax.max() <= 1.0 + 1e-8

    def test_energy_below_ml_envelope(self):
        cfg = SimConfig(alpha=0.5, s=0.5, a=0.0, b=1.0, n=64, dt=0.05, t_end=20.0,
                        profile="sine", profile_params={"amplitude": 1.0})
        r = run(cfg)
        e0 = r.energy[0]
        for t, e in zip(r.times, r.energy):
            bound = 1.05 * e0 * ml_eval(MLParams(alpha=0.5, z=-r.lambda1 * t**0.5))
            assert e <= bound

    def test_comparison_principle_random_pairs(self):
        cfg = SimConfig(alpha=0.7, s=0.5, a=0.0, b=1.0, n=32, dt=0.05, t_end=2.0,
                        profile="constant")
        rng = np.random.default_rng(11)
        for _ in range(3):
            ub = rng.uniform(0.0, 1.0, size=32)
            ua = ub * rng.uniform(0.0, 1.0, size=32)
            ra = run(cfg, u0_override=ua, record_fields=True)
            rb = run(cfg, u0_override=ub, record_fields=True)
            for fa, fb in zip(ra.fields, rb.fields):
                assert np.max(fa - fb) <= 1e-8

    def test_jensen_consistency(self):
        # (h sum u e1)^2 <= (h sum u^2 e1) * (h sum e1) at every record
        cfg = SimConfig(alpha=0.6, s=0.5, a=0.0, b=1.0, n=48, dt=0.05, t_end=2.0,
                        profile="parabola", profile_params={"amplitude": 0.8})
        r = run(cfg, record_fields=True)
        _, pair = _get_operator(cfg)
        e1 = pair.e1.values
        h = cfg.grid.h
        mass = h * e1.sum()
        for u in r.fields:
            lhs = (h * np.sum(u * e1)) ** 2
            rhs = (h * np.sum(u * u * e1)) * mass
            assert lhs <= rhs + 1e-10


class TestBracket:
    def test_admissible_example(self):
        br = blowup_bracket(2.0, 1.0, 0.5)
        assert br.lower == pytest.approx(0.1, rel=1e-12)
        assert br.upper == pytest.approx(0.5, rel=1e-12)
        assert br.admissible

    def test_inadmissible_example(self):
        br = blowup_bracket(1.0, 1.0, 0.5)
        assert br.lower == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert br.upper == pytest.approx(1.0, rel=1e-12)
        assert not br.admissible

    @settings(max_examples=60, deadline=None)
    @given(h0=st.floats(1e-3, 1e3), alpha=st.floats(0.05, 1.0))
    def test_lower_below_upper(self, h0, alpha):
        br = blowup_bracket(h0, alpha, 0.5)
        assert br.lower < br.upper

    def test_domain_error(self):
        with pytest.raises(DomainError):
            blowup_bracket(0.0, 1.0, 0.5)


class TestBlowupRuns:
    def test_bracket_attached_only_when_admissible(self):
        hot = SimConfig(alpha=1.0, s=0.4, a=0.0, b=2.0, n=32, dt=2e-3, t_end=1.0,
                        profile="gauss", profile_params={"amplitude": 30.0, "width": 0.2})
        r = run(hot)
        assert r.blowup is not None
        assert r.blowup.terminal_max >= BLOW_THRESHOLD
        assert r.bracket is not None and r.bracket.admissible
        assert r.bracket.lower < r.bracket.upper

        cold = SimConfig(alpha=0.8, s=0.4, a=0.0, b=1.0, n=32, dt=0.1, t_end=2.0,
                         profile="sine", profile_params={"amplitude": 0.5})
        assert run(cold).bracket is None

    def test_floor_collapse_is_inconclusive_not_silent(self):
        # at alpha 0.5 the adaptive step reaches the floor DT_FLOOR_REL * t_end
        # before max u reaches the threshold, so the run must say so rather
        # than report "no event"
        p = {"domain": (0.0, 2.0), "s": 0.4, "n": 32, "dt": 2e-3, "width": 0.2}
        cfg, _, _ = scaled_blowup_config(p, 0.5, 1.2)
        r = run(cfg)
        assert r.blowup is None
        assert "collapsed below floor" in r.inconclusive
        finding = detect_blowup(cfg)
        assert finding.status == "inconclusive"
        assert finding.t_star is None


    @staticmethod
    def _alpha_one_blowup():
        # 115 uniform steps, then 98 committed adaptive steps to the threshold
        p = {"domain": (0.0, 2.0), "s": 0.4, "n": 32, "dt": 2e-3, "width": 0.2}
        return scaled_blowup_config(p, 1.0, 1.6)[0]

    def test_adaptive_regime_records_every_committed_step(self, monkeypatch):
        commits = []

        class SpyHistory(L1History):
            def append(self, value, t):
                commits.append((t, float(value.max())))
                super().append(value, t)

        monkeypatch.setattr(solver, "L1History", SpyHistory)
        r = run(self._alpha_one_blowup())
        assert r.blowup is not None
        trigger = 10.0 * (1.0 + r.lambda1)
        switch = next(i for i, (_, u_max) in enumerate(commits) if u_max > trigger)
        t_switch = commits[switch][0]
        adaptive = [t for t, _ in commits[switch + 1 :]]
        assert len(adaptive) > 1
        assert list(r.times[r.times > t_switch]) == adaptive
        assert np.all(np.diff(r.times) > 0)
        steps = np.diff([t_switch] + adaptive)
        assert np.all(steps[1:] <= steps[:-1] * (1.0 + 1e-9))
        assert steps[-1] < 1e-3 * steps[0]  # the step was halved

    def test_adaptive_step_budget_counts_only_adaptive_steps(self, monkeypatch):
        cfg = self._alpha_one_blowup()
        monkeypatch.setattr(solver, "_MAX_ADAPTIVE_STEPS", 100)  # below the uniform prefix
        assert run(cfg).blowup is not None
        monkeypatch.setattr(solver, "_MAX_ADAPTIVE_STEPS", 1)
        r = run(cfg)
        assert r.blowup is None
        assert r.inconclusive == "step budget exhausted in adaptive regime"


class TestDetectBlowup:
    def test_bounded_run_reports_none(self):
        cfg = SimConfig(alpha=0.8, s=0.5, a=0.0, b=1.0, n=32, dt=0.1, t_end=5.0,
                        profile="sine", profile_params={"amplitude": 0.9})
        finding = detect_blowup(cfg)
        assert finding.status == "none"
        assert finding.t_star is None

    def test_homogeneous_regime_matches_scalar_oracle(self):
        # Wide domain, constant data: the interior dynamics are the scalar
        # quadratic-growth equation for the shifted mass H - (1 + lambda1).
        cfg = SimConfig(alpha=1.0, s=0.4, a=0.0, b=40.0, n=128, dt=1e-3, t_end=1.0,
                        profile="constant", profile_params={"amplitude": 3.0})
        _, pair = _get_operator(cfg)
        finding = detect_blowup(cfg)
        assert finding.status == "blowup"
        shifted = 3.0 - (1.0 + pair.lambda1)
        _, t_oracle = solve_logistic_fode(1.0, shifted, 1e-3, 2.0)
        assert abs(finding.t_star - t_oracle) <= 0.1 * t_oracle


class TestDecayFit:
    def test_exact_power_law(self):
        t = np.linspace(1.0, 100.0, 300)
        slope = decay_rate_fit(t, t**-0.5, (2.0, 90.0))
        assert slope == pytest.approx(-0.5, abs=1e-6)

    def test_synthetic_ml_trace(self):
        t = np.logspace(0, 3.1, 200)
        e = np.array([3.0 * ml_eval(MLParams(alpha=0.5, z=-ti**0.5)) for ti in t])
        slope = decay_rate_fit(t, e, (10.0, 1000.0))
        assert -0.6 <= slope <= -0.4

    def test_synthetic_ml_trace_squared(self):
        # E(t) = ||u||^2 squares each mode's E_alpha(-mu t^alpha), so its sharp
        # rate is -2*alpha; the band is the decay campaign's default, 0.15*alpha.
        alpha = 0.5
        t = np.logspace(0, 3.1, 200)
        e = np.array([ml_eval(MLParams(alpha=alpha, z=-ti**alpha)) ** 2 for ti in t])
        slope = decay_rate_fit(t, e, (10.0, 1000.0))
        assert abs(slope + 2 * alpha) <= 0.15 * alpha

    def test_window_validation(self):
        t = np.linspace(1.0, 100.0, 50)
        with pytest.raises(DomainError):
            decay_rate_fit(t, t**-1.0, (5.0, 20.0))  # t_hi < 10*t_lo
        with pytest.raises(DomainError):
            decay_rate_fit(t, t**-1.0, (0.1, 50.0))  # window leaves the range

    def test_degenerate_fit_reported(self):
        t = np.array([1.0, 5.0, 20.0, 40.0, 100.0])
        with pytest.raises(ConvergenceError):
            decay_rate_fit(t, t**-1.0, (1.0, 100.0))

    def test_positive_trace_required(self):
        t = np.linspace(1.0, 100.0, 60)
        vals = t**-1.0
        vals[30] = 0.0
        with pytest.raises(DomainError):
            decay_rate_fit(t, vals, (1.0, 100.0))
