import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracrd import caputo, solver, special
from fracrd.caputo import L1History
from fracrd.errors import ConvergenceError, DomainError, StepFailureError
from fracrd.fraclap import Grid1D, assemble_regional, mirror_blocks, mirror_eigenbasis
from fracrd.harness import CAMPAIGN_SCHEMA, Campaign, run_campaign, scaled_blowup_config
from fracrd.solver import (
    BLOW_THRESHOLD,
    SimConfig,
    _eigenbasis,
    _implicit_step,
    _matrix_step,
    _Monitors,
    _operator,
    _step_matrix,
    blowup_bracket,
    decay_rate_fit,
    detect_blowup,
    initial_field,
    run,
    settled_limit,
)
from fracrd.special import ml_eval


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

    @pytest.mark.parametrize("n", [16.5, 16.0, "16"])
    def test_grid_size_must_be_an_integer(self, n):
        base = dict(alpha=0.5, s=0.5, a=0.0, b=1.0, dt=0.1, t_end=1.0)
        with pytest.raises(DomainError, match=f"n must be an integer, got {n!r}"):
            SimConfig(**base, n=n)
        assert run(SimConfig(**base, n=np.int64(16))).energy.shape == (11,)

    @pytest.mark.parametrize("dt,t_end", [(1e-7, 1000.0), (1e-300, 1e300)])
    def test_step_budget(self, dt, t_end):
        # 1e10 steps, and a step count past the float range: both typed
        base = dict(alpha=0.5, s=0.5, a=0.0, b=1.0, n=16)
        SimConfig(**base, dt=1e-4, t_end=1000.0)  # 1e7 steps: at the limit
        with pytest.raises(DomainError, match="exceeds the limit of 1e\\+07 uniform steps"):
            SimConfig(**base, dt=dt, t_end=t_end)

    def test_step_count_is_the_rounded_ratio(self):
        # t_end / dt = 1e7 + 0.4 is the 1e7 steps of the history; before,
        # SimConfig tested the ratio itself and refused it
        dt = 1.0 / (1e7 + 0.4)
        SimConfig(alpha=0.5, s=0.5, a=0.0, b=1.0, n=16, dt=dt, t_end=1.0)
        assert L1History(0.0, 0.5, dt, 1.0).n_steps == 10_000_000

    def test_step_limit_read_from_caputo(self, monkeypatch):
        monkeypatch.setattr(caputo, "_MAX_STEPS", 100)
        SimConfig(alpha=0.5, s=0.5, a=0.0, b=1.0, n=16, dt=0.01, t_end=1.0)
        with pytest.raises(DomainError, match="exceeds the limit of 1e\\+02 uniform steps"):
            SimConfig(alpha=0.5, s=0.5, a=0.0, b=1.0, n=16, dt=1.0 / 101.0, t_end=1.0)

    def test_infinite_t_end_is_named(self):
        with pytest.raises(DomainError, match="t_end=inf"):
            SimConfig(alpha=0.5, s=0.5, a=0.0, b=1.0, n=16, dt=0.1, t_end=math.inf)

    def test_decay_campaign_past_the_step_budget_is_a_failed_record(self):
        params = {key: spec[1] for key, spec in CAMPAIGN_SCHEMA["decay"].items()}
        params.update(alpha=0.5, s=0.4, dt=1e-7, t_end=1000.0)
        (record,), traces = run_campaign(Campaign(name="d", kind="decay", params=params))
        assert record.name == "campaign_error" and not record.passed and not traces
        assert "exceeds the limit" in record.expected

    def test_profiles_stay_in_unit_interval(self):
        grid = Grid1D(0.0, 1.0, 64)
        for name in ("constant", "sine", "parabola", "plateau", "gauss", "step", "hat"):
            vals = initial_field(grid, name, {"amplitude": 1.0})
            assert vals.min() >= 0.0 and vals.max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("profile,key", [
        ("plateau", "steepness"), ("gauss", "center"), ("step", "lo"), ("step", "hi"),
        ("hat", "halfwidth"), ("sine", "width"),
    ])
    def test_profile_names_a_key_it_does_not_take(self, profile, key):
        grid = Grid1D(0.0, 1.0, 16)
        with pytest.raises(DomainError, match=f"profile '{profile}' takes only .*, got {key}"):
            initial_field(grid, profile, {"amplitude": 1.0, key: 0.3})
        cfg = SimConfig(alpha=0.5, s=0.5, a=0.0, b=1.0, n=16, dt=0.1, t_end=1.0,
                        profile=profile, profile_params={key: 0.3})
        with pytest.raises(DomainError, match=f"got {key}"):
            run(cfg)
        initial_field(grid, "gauss", {"amplitude": 1.0, "width": 0.3})

    @pytest.mark.parametrize("width", [0.0, -0.1, math.inf, math.nan])
    @pytest.mark.parametrize("n", [15, 16])
    def test_gauss_width_must_be_positive_and_finite(self, width, n):
        # width 0 divided by zero: a numpy warning, and all-zero data for even n
        with pytest.raises(DomainError, match=f"gauss width must be positive and finite, "
                                              f"got {width}"):
            initial_field(Grid1D(0.0, 1.0, n), "gauss", {"width": width})


class TestStep:
    def test_first_step_matches_dense_solve_at_alpha_one(self):
        # alpha = 1 keeps no memory: (1/dt + 1 + A) u1 = u0/dt + u0^2
        cfg = SimConfig(alpha=1.0, s=0.5, a=0.0, b=1.0, n=8, dt=0.1, t_end=1.0)
        u0 = np.linspace(0.1, 0.8, 8)
        result = run(cfg, u0_override=u0, record_fields=True)
        a_mat = assemble_regional(cfg.grid, cfg.s).entries
        expected = np.linalg.solve((1.0 / cfg.dt + 1.0) * np.eye(8) + a_mat, u0 / cfg.dt + u0**2)
        assert result.times[1] == cfg.dt
        np.testing.assert_allclose(result.fields[1], expected, rtol=1e-13)

    def test_matches_rk4_reference_at_alpha_one(self):
        # Classical limit: the semi-discrete system du/dt = -Au - u + u^2
        # integrated by an independent RK4 stepper with dt 5x smaller
        # (dt * lambda_max(A) = 0.035).  It differs from the RK4 result at
        # dt / 100 by 7.3e-15 relative; the solver's error against it is 3.6e-4.
        cfg = SimConfig(
            alpha=1.0, s=0.95, a=0.0, b=4.0, n=64, dt=2.5e-4, t_end=1.0,
            profile="parabola", profile_params={"amplitude": 0.5},
        )
        result = run(cfg, record_fields=True)
        a_mat = assemble_regional(cfg.grid, cfg.s).entries
        u = initial_field(cfg.grid, cfg.profile, cfg.profile_params)

        def rhs(v):
            return -(a_mat @ v) - v + v * v

        dt = cfg.dt / 5.0
        for _ in range(int(round(cfg.t_end / dt))):
            k1 = rhs(u)
            k2 = rhs(u + 0.5 * dt * k1)
            k3 = rhs(u + 0.5 * dt * k2)
            k4 = rhs(u + dt * k3)
            u = u + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        rel = np.linalg.norm(result.fields[-1] - u) / np.linalg.norm(u)
        assert rel <= 1e-3


def _blocks(n):
    """The mirror blocks of the operator on n nodes of (0, 1) at s = 0.5."""
    return mirror_blocks(assemble_regional(Grid1D(0.0, 1.0, n), 0.5).entries)


# D^alpha y = y (y + 1) as an operator of one mode, eigenvalue -2: no odd block
_ONE_MODE = np.array([[-2.0]]), np.empty((0, 0))


class TestSolve:
    @staticmethod
    def _basis(n):
        return mirror_eigenbasis(*_blocks(n))

    @pytest.mark.parametrize("n", [2, 3, 7, 128, 255])
    def test_matches_dense_solve(self, n):
        # odd n exercise the middle node of the mirror fold; the largest
        # deviation here is 1.7e-14 (at s = 0.9, n = 255 and w = 1e-3 it is
        # 7e-13, as the condition number 1e4 of the step matrix allows)
        a = assemble_regional(Grid1D(0.0, 1.0, n), 0.5).entries
        lam, v = mirror_eigenbasis(*mirror_blocks(a))
        rng = np.random.default_rng(n)
        for w in (1e-3, 1.0, 1e4):
            rhs = rng.standard_normal(n)
            expected = np.linalg.solve((w + 1.0) * np.eye(n) + a, rhs)
            u, norm2 = _implicit_step(lam, v, w, rhs)
            assert np.linalg.norm(u - expected) <= 1e-12 * np.linalg.norm(expected)
            assert norm2 == u @ u

    @pytest.mark.parametrize("n", [2, 3, 7, 128, 255])
    def test_basis_is_orthonormal_and_ascending(self, n):
        lam, v = self._basis(n)
        assert np.abs(v.T @ v - np.eye(n)).max() <= n * np.finfo(float).eps * 16
        assert np.all(np.diff(lam) >= 0)  # the step's definiteness check reads lam[0]

    def test_nan_rhs_raises_step_failure(self):
        lam, v = self._basis(3)
        with pytest.raises(StepFailureError, match="right-hand side is not finite"):
            _implicit_step(lam, v, 1.0, np.array([0.5, np.nan, 0.5]))

    def test_non_finite_basis_raises_step_failure(self):
        lam, v = self._basis(3)
        v[1, 1] = np.inf
        with pytest.raises(StepFailureError, match="eigenbasis is not finite"):
            _implicit_step(lam, v, 1.0, np.full(3, 0.5))

    def test_non_spd_matrix_raises_step_failure(self):
        # w + 1 + min lam = 0 exactly: singular, rejected before the solve
        lam = np.array([-2.0, 1.0, 3.0])
        with pytest.raises(StepFailureError, match="w = 1, min eigenvalue of A = -2$"):
            _implicit_step(lam, np.eye(3), 1.0, np.full(3, 0.5))

    @pytest.mark.parametrize("n", [2, 3, 7, 128, 255])
    def test_step_matrix_matches_dense_solve(self, n):
        # the step matrix from the inverses of the two shifted mirror blocks
        a = assemble_regional(Grid1D(0.0, 1.0, n), 0.5).entries
        blocks = mirror_blocks(a)
        rng = np.random.default_rng(n)
        for w in (1e-3, 1.0, 1e4):
            rhs = rng.standard_normal(n)
            expected = np.linalg.solve((w + 1.0) * np.eye(n) + a, rhs)
            u, norm2 = _matrix_step(_step_matrix(*blocks, w), rhs)
            assert np.linalg.norm(u - expected) <= 1e-12 * np.linalg.norm(expected)
            assert norm2 == u @ u and u.max() <= np.sqrt(norm2)

    @pytest.mark.parametrize("w", [1.5, 3.0, 1e4])
    def test_step_matrix_of_one_mode(self, w):
        # ((w + 1) - 2)^-1, through a Cholesky factor and its inverse
        (value,), = _step_matrix(*_ONE_MODE, w)
        assert value == pytest.approx(1.0 / (w - 1.0), rel=4 * np.finfo(float).eps)

    @pytest.mark.parametrize("blocks", [_ONE_MODE, (np.array([[5.0]]), np.array([[-2.0]]))],
                             ids=["even", "odd"])
    def test_non_spd_shift_raises_step_failure(self, blocks):
        # w + 1 - 2 = 0 exactly: the Cholesky factor of that block fails
        with pytest.raises(StepFailureError, match="not positive definite: w = 1$"):
            _step_matrix(*blocks, 1.0)

    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_block_raises_when_step_matrix_is_formed(self, which, value):
        blocks = [b.copy() for b in _blocks(5)]
        blocks[which][1, 1] = value
        with pytest.raises(StepFailureError, match="a mirror block of A is not finite"):
            _step_matrix(*blocks, 1.0)

    def test_step_matrix_nan_rhs_raises_step_failure(self):
        with pytest.raises(StepFailureError, match="right-hand side is not finite"):
            _matrix_step(_step_matrix(*_blocks(3), 1.0), np.array([0.5, np.nan, 0.5]))

    def test_step_matrix_overflow_names_the_solve(self):
        # numpy reports the overflow itself as well; the typed error names it
        with np.errstate(over="ignore"), pytest.raises(StepFailureError, match="solve overflowed"):
            _matrix_step(np.full((2, 2), 1e300), np.full(2, 1e300))


class TestMonitors:
    @pytest.mark.parametrize("n", [7, 128, 1000])
    def test_columns_match_per_field_sums_bit_for_bit(self, n):
        # three blocks: two full ones and a partial last one
        rng = np.random.default_rng(n)
        h, e1 = 1.0 / (n + 1), rng.uniform(0.0, 1.0, n)
        fields = rng.standard_normal((2 * solver._BLOCK + 17, n))
        monitors = _Monitors(h, e1, record_fields=False)
        for m, u in enumerate(fields):
            monitors.record(0.1 * m, u)
        times, energy, h_func, umin, umax = monitors.columns()
        assert np.array_equal(times, 0.1 * np.arange(len(fields)))
        assert np.array_equal(energy, [h * (u * u).sum() for u in fields])
        assert np.array_equal(h_func, [h * (u * e1).sum() for u in fields])
        assert np.array_equal(umin, [u.min() for u in fields])
        assert np.array_equal(umax, [u.max() for u in fields])
        assert np.array_equal(monitors.columns()[1], energy)  # a second call changes nothing


class TestOperatorCache:
    @staticmethod
    def _key(s):
        """(a, b, n, s) of an 8-node grid on [0, 1]."""
        return 0.0, 1.0, 8, s

    @pytest.mark.parametrize("cache", [_operator, _eigenbasis], ids=["operator", "eigenbasis"])
    def test_hit_returns_same_objects(self, cache):
        entry = cache(*self._key(0.31))
        again = cache(*self._key(0.31))
        assert all(x is y for x, y in zip(again, entry))

    def test_cached_arrays_reject_writes(self):
        # every run on the grid shares them
        pair, even, odd = _operator(*self._key(0.32))
        lam, v = _eigenbasis(*self._key(0.32))
        for array in (pair.e1, even, odd, lam, v):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_only_a_run_with_a_non_uniform_step_builds_the_basis(self):
        # the basis is built on the first step of another size, once per
        # operator: a second lookup in the same run would count as a hit.
        # The uniform run has fewer steps (10) than nodes (16).
        uniform = SimConfig(alpha=0.6, s=0.33, a=0.0, b=1.0, n=16, dt=0.5, t_end=5.0)
        adaptive = SimConfig(alpha=1.0, s=0.4, a=0.0, b=1.0, n=32, dt=0.05, t_end=1.0,
                             profile="constant", profile_params={"amplitude": 20.0})
        _eigenbasis.cache_clear()
        assert run(uniform).blowup is None
        assert _eigenbasis.cache_info().currsize == 0
        r = run(adaptive)
        assert r.times[1] == 0.025  # a halved step: the run went through the basis
        info = _eigenbasis.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 0, 1)

    def test_evicts_least_recently_used(self):
        size = _operator.cache_info().maxsize
        keys = [self._key(0.1 + 0.01 * k) for k in range(size + 1)]
        first = [_operator(*key) for key in keys[:size]]
        assert _operator(*keys[0])[0] is first[0][0]  # now most recently used
        _operator(*keys[size])
        assert _operator.cache_info().currsize == size
        assert _operator(*keys[0])[0] is first[0][0]
        assert _operator(*keys[1])[0] is not first[1][0]  # evicted, rebuilt

    def test_threads_share_a_bounded_cache(self):
        # More threads than cores and a short switch interval, so a lookup and
        # an eviction interleave.
        size = _operator.cache_info().maxsize
        keys = [self._key(0.2 + 0.01 * k) for k in range(size + 2)]
        serial = [_operator(*key)[0].lambda1 for key in keys]
        requests = [keys[k % len(keys)] for k in range(1000)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(_operator, *key) for key in requests]
                results = [f.result(timeout=120)[0].lambda1 for f in futures]
        finally:
            sys.setswitchinterval(old)
        assert results == [serial[k % len(keys)] for k in range(1000)]
        assert _operator.cache_info().currsize <= size


def test_concurrent_callers_match_a_serial_pass():
    # The four module caches start empty and see more keys than they hold:
    # 8 operator keys against maxsize 4, 6 eigenbasis keys, built lazily by
    # the blow-up runs, against 4, and 24 SOE and 18 spectral-rule alphas
    # against 16, so lookups, builds and evictions interleave.
    caches = (solver._operator, solver._eigenbasis, caputo._soe_modes, special._rule)
    configs = [SimConfig(alpha=0.35 + 0.025 * k, s=0.3 + 0.05 * (k % 8), a=0.0, b=1.0, n=16,
                         dt=0.05, t_end=2.0 + 0.5 * (k % 3)) for k in range(24)]
    configs += [SimConfig(alpha=1.0, s=0.3 + 0.05 * (k % 6), a=0.0, b=1.0, n=16, dt=0.05,
                          t_end=1.0, profile="constant", profile_params={"amplitude": 20.0})
                for k in range(12)]
    arrays = [(0.3 + 0.035 * (k % 18), np.linspace(-8.0 + 0.01 * k, 2.0, 40)) for k in range(36)]

    def call(job):
        if isinstance(job, SimConfig):
            r = run(job)
            return [r.times, r.energy, r.h_functional, r.umin, r.umax, r.lambda1, r.decay_slope]
        return [ml_eval(*job)]

    jobs = configs + arrays
    serial = [call(job) for job in jobs]
    for cache in caches:
        cache.cache_clear()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # so a lookup, a build and an eviction interleave
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            concurrent = list(pool.map(call, jobs, timeout=120))
    finally:
        sys.setswitchinterval(old)
    for job, want, got in zip(jobs, serial, concurrent):
        assert all(np.array_equal(w, g) for w, g in zip(want, got)), job
    for cache in caches:
        info = cache.cache_info()
        assert info.misses > info.maxsize and info.currsize <= info.maxsize


class TestRun:
    def test_matches_hand_loop_of_history_and_basis_solve(self):
        # every step of the run goes through the step matrix; the hand loop
        # solves in the eigenbasis and records every step
        cfg = SimConfig(alpha=0.6, s=0.5, a=0.0, b=1.0, n=16, dt=0.05, t_end=10.0,
                        profile="parabola", profile_params={"amplitude": 0.9})
        r = run(cfg)
        pair = _operator(cfg.a, cfg.b, cfg.n, cfg.s)[0]
        lam, v = _eigenbasis(cfg.a, cfg.b, cfg.n, cfg.s)
        h, e1 = cfg.grid.h, pair.e1
        u = initial_field(cfg.grid, cfg.profile, cfg.profile_params)
        history = L1History(u, cfg.alpha, cfg.dt, cfg.t_end)
        rows = [(0.0, h * (u * u).sum(), h * (u * e1).sum(), u.min(), u.max())]
        for k in range(1, 201):
            t = k * cfg.dt
            w, memory = history.step(t)
            u, _ = _implicit_step(lam, v, w, w * u - memory + u * u)
            history.append(u)
            rows.append((t, h * (u * u).sum(), h * (u * e1).sum(), u.min(), u.max()))
        expected = np.array(rows).T
        got = np.array([r.times, r.energy, r.h_functional, r.umin, r.umax])
        assert got.shape == expected.shape
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("dt,steps", [(0.3, 3), (0.4, 2), (0.7, 1), (1.0 / 3.0, 3)])
    def test_mesh_of_a_dt_that_does_not_divide_t_end_ends_at_t_end(self, dt, steps):
        # round(t_end / dt) steps of t_end / round(t_end / dt); every step is
        # recorded below 2000 steps
        cfg = SimConfig(alpha=0.6, s=0.5, a=0.0, b=1.0, n=8, dt=dt, t_end=1.0)
        r = run(cfg)
        assert len(r.times) == steps + 1
        assert r.times[-1] == 1.0
        np.testing.assert_allclose(np.diff(r.times), 1.0 / steps, rtol=1e-12)

    def test_data_above_the_trigger_start_adaptive(self):
        # max u0 = 20 > 10 (1 + lambda1): the first full step grows max u by
        # more than half, so it is rejected and the run commits dt / 2
        cfg = SimConfig(alpha=1.0, s=0.4, a=0.0, b=1.0, n=32, dt=0.05, t_end=1.0,
                        profile="constant", profile_params={"amplitude": 20.0})
        r = run(cfg)
        assert r.times[1] == 0.025

    def test_rejected_fit_names_its_error(self):
        # the window (0.2, 20) starts before the first step at t = 0.5
        cfg = SimConfig(alpha=0.5, s=0.5, a=0.0, b=1.0, n=8, dt=0.5, t_end=20.0)
        r = run(cfg)
        assert r.decay_slope is None and r.slope_error == "DomainError"
        fitted = run(SimConfig(alpha=0.5, s=0.5, a=0.0, b=1.0, n=8, dt=0.05, t_end=20.0))
        assert fitted.decay_slope is not None and fitted.slope_error is None

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
            bound = 1.05 * e0 * ml_eval(0.5, -r.lambda1 * t**0.5)
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
        pair = _operator(cfg.a, cfg.b, cfg.n, cfg.s)[0]
        e1 = pair.e1
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

    def test_overflow_is_a_domain_error(self):
        # (Gamma(1.001) / 0.1)^1000 is about 1e1000
        with pytest.raises(DomainError, match="alpha = 0.001, h0 = 0.1"):
            blowup_bracket(0.1, 1e-3, 0.5)

    def test_invariant_campaign_at_small_alpha_runs(self):
        # every run there has 0 < h0 < 1 + lambda1, where the bracket would overflow
        params = {key: spec[1] for key, spec in CAMPAIGN_SCHEMA["invariant_region"].items()}
        params.update(alphas=(1e-3,), s_values=(0.5,), n=16, t_end=1.0, comparison_pairs=1)
        records, _ = run_campaign(Campaign(name="inv", kind="invariant_region", params=params))
        assert len(records) == 7
        assert all(r.passed for r in records)


class TestBlowupRuns:
    def test_floor_collapse_is_inconclusive_not_silent(self):
        # at alpha 0.5 the adaptive step reaches the floor
        # DT_FLOOR_REL * max(t, dt) before max u reaches the threshold, so the
        # run must say so rather than report "no event"
        p = {"domain": (0.0, 2.0), "s": 0.4, "n": 32, "dt": 2e-3, "width": 0.2}
        cfg, _ = scaled_blowup_config(p, 0.5, 1.2)
        r = run(cfg)
        assert r.blowup is None
        assert "collapsed below floor" in r.inconclusive
        finding = detect_blowup(cfg)
        assert finding.status == "inconclusive"
        assert finding.t_star is None


    @pytest.mark.parametrize("amplitude,crossing", [(2.39, 0.86125), (2.85, 0.3975)])
    def test_verdict_does_not_depend_on_the_horizon(self, amplitude, crossing):
        # The floor is relative to the time reached.  One relative to t_end,
        # 5e-13 at t_end = 50, ended both t_end = 50 runs inconclusive, and the
        # t_end = 2 run of amplitude 2.39 too
        runs = [run(SimConfig(alpha=0.6, s=0.4, a=0.0, b=2.0, n=128, dt=0.02, t_end=t_end,
                              profile="gauss",
                              profile_params={"amplitude": amplitude, "width": 0.2}))
                for t_end in (2.0, 50.0, 1000.0)]
        assert [r.inconclusive for r in runs] == [None] * 3
        assert runs[0].blowup == runs[1].blowup == runs[2].blowup
        assert runs[0].blowup == pytest.approx(crossing, abs=1e-5)

    def test_zero_mass_unit_profile_is_a_domain_error(self):
        # the square in the gauss profile overflows, so every node reads 0
        p = {"domain": (0.0, 2.0), "s": 0.4, "n": 16, "dt": 2e-3, "width": 1e-300}
        with pytest.raises(DomainError, match="width 1e-300 has weighted mass 0"):
            scaled_blowup_config(p, 1.0, 1.2)
        params = {key: spec[1] for key, spec in CAMPAIGN_SCHEMA["blowup"].items()}
        params.update(alphas=(1.0,), s=0.4, n=16, width=1e-300)
        (record,), _ = run_campaign(Campaign(name="bu", kind="blowup", params=params))
        assert record.name == "campaign_error" and not record.passed
        assert "weighted mass 0" in record.expected

    @staticmethod
    def _alpha_one_blowup():
        # 115 uniform steps, then 98 committed adaptive steps to the threshold
        p = {"domain": (0.0, 2.0), "s": 0.4, "n": 32, "dt": 2e-3, "width": 0.2}
        return scaled_blowup_config(p, 1.0, 1.6)[0]

    def test_adaptive_regime_records_every_committed_step(self, monkeypatch):
        commits = []

        class SpyHistory(L1History):
            def append(self, value):
                super().append(value)
                commits.append((self.t_last, float(value.max())))

        monkeypatch.setattr(solver, "L1History", SpyHistory)
        r = run(self._alpha_one_blowup())
        assert r.blowup is not None
        assert r.umax[-1] >= BLOW_THRESHOLD
        assert r.times[-1] == r.blowup
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

    def test_ladder_out_of_step_budget_is_inconclusive(self, monkeypatch):
        # the first rung takes 416 uniform steps and the second 832; a third
        # would pass the budget, and the two estimates differ by more than 1%
        cfg = self._alpha_one_blowup()
        assert round(cfg.t_end / cfg.dt) == 416
        monkeypatch.setattr(caputo, "_MAX_STEPS", 2 * 416)
        finding = detect_blowup(cfg)
        assert (finding.status, finding.t_star) == ("inconclusive", None)
        assert len(finding.estimates) == 2

    def test_ladder_out_of_halvings_is_inconclusive(self, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_REFINEMENTS", 0)
        finding = detect_blowup(self._alpha_one_blowup())
        assert (finding.status, finding.t_star) == ("inconclusive", None)
        assert len(finding.estimates) == 1


def _with_fourth_limit(limit):
    """Four times whose first three have the Aitken limit 1 and whose last
    three have ``limit``."""
    t1, t2, t3 = (1.0 + 0.1 * 0.5**k for k in range(3))
    x, d3 = limit - t3, t3 - t2  # limit - t3 = -d4 d3 / (d4 - d3), solved for d4
    return [t1, t2, t3, t3 + x * d3 / (x + d3)]


class TestSettledLimit:
    def test_geometric_ladder_settles_on_its_limit_at_rung_four(self):
        times = [0.3 + 0.05 * 0.6**k for k in range(4)]
        assert settled_limit(times) == pytest.approx(0.3, rel=1e-12)
        falling = [0.3 - 0.05 * 0.6**k for k in range(4)]
        assert settled_limit(falling) == pytest.approx(0.3, rel=1e-12)

    def test_fewer_than_four_times_do_not_settle(self):
        times = [0.3 + 0.05 * 0.6**k for k in range(4)]
        for k in range(4):
            assert settled_limit(times[:k]) is None

    @pytest.mark.parametrize("times", [
        [1.0, 0.9, 0.95, 0.93],  # the differences change sign
        [1.0, 0.9, 0.85, 0.82, 0.83],
        [1.0, 0.9, 0.7, 0.3],  # they grow
        [2.0, 1.5, 1.0, 0.5],  # they do not shrink
        [1.0, 1.0, 1.0, 1.0],  # no difference at all
        [1.0, 0.9, math.nan, 0.87],  # a rung with no crossing
    ])
    def test_differences_that_do_not_shrink_in_one_sign_do_not_settle(self, times):
        assert settled_limit(times) is None

    def test_limits_must_agree_within_one_percent(self):
        times = _with_fourth_limit(1.0098)
        assert settled_limit(times) == pytest.approx(1.0098, rel=1e-12)
        assert settled_limit(_with_fourth_limit(1.0102)) is None
        assert settled_limit(_with_fourth_limit(0.98)) is None

    def test_only_the_last_four_times_count(self):
        times = [0.3 + 0.05 * 0.6**k for k in range(4)]
        assert settled_limit([5.0, -2.0] + times) == settled_limit(times)


class TestDetectBlowup:
    def test_t_star_is_the_limit_and_estimates_the_raw_times(self):
        cfg = TestBlowupRuns._alpha_one_blowup()
        finding = detect_blowup(cfg)
        assert finding.status == "blowup"
        estimates = finding.estimates
        assert len(estimates) >= 4
        assert finding.t_star == settled_limit(estimates)
        assert settled_limit(estimates[:-1]) is None  # the first settled rung
        for k, t in enumerate(estimates):
            assert run(replace(cfg, dt=cfg.dt * 0.5**k)).blowup == t
        # the times fall towards the limit, and the limit lies past the last
        assert all(np.diff(estimates) < 0)
        assert finding.t_star < estimates[-1]

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
        pair = _operator(cfg.a, cfg.b, cfg.n, cfg.s)[0]
        finding = detect_blowup(cfg)
        assert finding.status == "blowup"
        shifted = 3.0 - (1.0 + pair.lambda1)
        t_oracle = math.log(1.0 + 1.0 / shifted)  # blow-up time of y' = y (y + 1)
        assert abs(finding.t_star - t_oracle) <= 0.1 * t_oracle


class TestDecayFit:
    def test_exact_power_law(self):
        t = np.linspace(1.0, 100.0, 300)
        slope = decay_rate_fit(t, t**-0.5, (2.0, 90.0))
        assert slope == pytest.approx(-0.5, abs=1e-6)

    def test_synthetic_ml_trace(self):
        t = np.logspace(0, 3.1, 200)
        e = np.array([3.0 * ml_eval(0.5, -ti**0.5) for ti in t])
        slope = decay_rate_fit(t, e, (10.0, 1000.0))
        assert -0.6 <= slope <= -0.4

    def test_synthetic_ml_trace_squared(self):
        # E(t) = ||u||^2 squares each mode's E_alpha(-mu t^alpha), so its sharp
        # rate is -2*alpha; the band is the decay campaign's default, 0.15*alpha.
        alpha = 0.5
        t = np.logspace(0, 3.1, 200)
        e = np.array([ml_eval(alpha, -ti**alpha) ** 2 for ti in t])
        slope = decay_rate_fit(t, e, (10.0, 1000.0))
        assert abs(slope + 2 * alpha) <= 0.15 * alpha

    def test_window_validation(self):
        t = np.linspace(1.0, 100.0, 50)
        with pytest.raises(DomainError):
            decay_rate_fit(t, t**-1.0, (5.0, 20.0))  # t_hi < 10*t_lo
        with pytest.raises(DomainError):
            decay_rate_fit(t, t**-1.0, (0.1, 50.0))  # window leaves the range

    def test_window_starts_at_the_first_positive_time(self):
        # a solver trace starts at t = 0; before, the window was tested
        # against min(times) = 0, and (10, 1000) fitted the records from 50 on
        t = np.arange(0.0, 1001.0, 50.0)
        e = np.r_[1.0, t[1:] ** -1.0]
        with pytest.raises(DomainError, match="positive recorded times"):
            decay_rate_fit(t, e, (10.0, 1000.0))
        assert decay_rate_fit(t, e, (50.0, 1000.0)) == pytest.approx(-1.0, abs=1e-12)

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
