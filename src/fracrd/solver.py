"""Coupled solver for the time-space fractional reaction-diffusion problem

    D_t^alpha u + L_s u = -u(1-u)  on (a, b),   u = 0 outside,

with L_s the discrete regional fractional Laplacian.  Rearranged as
D^alpha u + L_s u + u = u^2, each step solves

    (scale*I + L_s + I) u^n = scale*(u^(n-1) - history) + (u^(n-1))^2,

i.e. the stiff linear part (including the -u piece of the reaction) is
implicit and the quadratic piece explicit.  The system matrix is an M-matrix
plus identity, which makes the scheme positivity- and order-preserving and
keeps every field with data in [0,1] inside [0,1] for any step size.

Monitored functionals (discrete integrals with weight h):

    E(t) = h * sum u_i^2          (squared L2 norm),
    H(t) = h * sum u_i * e1_i     (projection on the principal eigenfunction),

plus the running min/max of u.  When the weighted mass H(0) reaches 1 +
lambda1 the run carries the two-sided blow-up window

    (Gamma(alpha+1) / (4*(H0 + 1/2)))^(1/alpha) <= T* <= (Gamma(alpha+1)/H0)^(1/alpha)

and blow-up is declared when max u crosses the configured threshold, with the
step size halved adaptively once max u exceeds 10*(1 + lambda1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .caputo import (
    L1Weights,
    _grown,
    _nonuniform_history_weights,
    caputo_convolution,
    l1_weights,
)
from .errors import ConvergenceError, DomainError, StepFailureError
from .fraclap import (
    EigenPair,
    Grid1D,
    OperatorMatrix,
    assemble_regional,
    principal_eigenpair,
)

# --- initial-data profiles --------------------------------------------------
# All profiles are expressed in the relative coordinate xr = (x-a)/(b-a) and
# scaled by 'amplitude', so configs stay portable across domains.


def _profile_constant(xr, p):
    return np.full_like(xr, p.get("amplitude", 1.0))


def _profile_sine(xr, p):
    return p.get("amplitude", 1.0) * np.sin(math.pi * xr)


def _profile_parabola(xr, p):
    return p.get("amplitude", 1.0) * 4.0 * xr * (1.0 - xr)


def _profile_plateau(xr, p):
    steep = p.get("steepness", 20.0)
    return p.get("amplitude", 1.0) * np.minimum(1.0, steep * xr * (1.0 - xr))


def _profile_gauss(xr, p):
    center = p.get("center", 0.5)
    width = p.get("width", 0.1)
    return p.get("amplitude", 1.0) * np.exp(-(((xr - center) / width) ** 2))


def _profile_step(xr, p):
    lo, hi = p.get("lo", 0.25), p.get("hi", 0.75)
    return p.get("amplitude", 1.0) * ((xr >= lo) & (xr <= hi)).astype(float)


def _profile_hat(xr, p):
    center = p.get("center", 0.5)
    half = p.get("halfwidth", 0.25)
    return p.get("amplitude", 1.0) * np.clip(1.0 - np.abs(xr - center) / half, 0.0, None)


PROFILES = {
    "constant": _profile_constant,
    "sine": _profile_sine,
    "parabola": _profile_parabola,
    "plateau": _profile_plateau,
    "gauss": _profile_gauss,
    "step": _profile_step,
    "hat": _profile_hat,
}


def initial_field(grid: Grid1D, profile: str, params: dict) -> np.ndarray:
    if profile not in PROFILES:
        raise DomainError(f"unknown profile '{profile}' (have {sorted(PROFILES)})")
    xr = (grid.nodes() - grid.a) / (grid.b - grid.a)
    values = PROFILES[profile](xr, params)
    if not np.all(np.isfinite(values)):
        raise DomainError(f"profile '{profile}' produced non-finite values")
    return values


# --- configuration and results ----------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    alpha: float
    s: float
    a: float
    b: float
    n: int
    dt: float
    t_end: float
    profile: str = "parabola"
    profile_params: dict = field(default_factory=dict)
    blow_threshold: float = 1e8
    dt_floor: float | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise DomainError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 < self.s < 1.0:
            raise DomainError(f"s must be in (0, 1), got {self.s}")
        if not self.t_end > 0:
            raise DomainError(f"t_end must be positive, got {self.t_end}")
        if not 0 < self.dt <= self.t_end:
            raise DomainError(f"need 0 < dt <= t_end, got dt={self.dt}")
        if self.n_steps < 1:
            raise DomainError("configuration yields zero time steps")
        if self.blow_threshold <= 1:
            raise DomainError("blow_threshold must exceed 1")
        if self.profile not in PROFILES:
            raise DomainError(f"unknown profile '{self.profile}'")
        Grid1D(self.a, self.b, self.n)  # validates the grid spec

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_end / self.dt)))

    @property
    def effective_dt(self) -> float:
        """Requested dt adjusted so the uniform mesh ends exactly at t_end."""
        return self.t_end / self.n_steps

    @property
    def grid(self) -> Grid1D:
        return Grid1D(self.a, self.b, self.n)

    def effective_dt_floor(self) -> float:
        return self.dt_floor if self.dt_floor is not None else 1e-14 * self.t_end


@dataclass
class HistoryBuffer:
    """Fields u^0 ... u^(n-1) on a uniform mesh of step dt, as increments.

    Only the last field is kept; the successive differences are maintained
    incrementally in a preallocated array that doubles when full, so the
    memory convolution costs one matrix-vector product per step.
    """

    last: np.ndarray
    dt: float
    count: int = field(default=1, init=False)

    def __post_init__(self):
        self._diffs = np.zeros((16, len(self.last)))

    def __len__(self):
        return self.count

    def append(self, values: np.ndarray):
        if self.count == self._diffs.shape[0]:
            self._diffs = _grown(self._diffs)
        self._diffs[self.count] = values - self.last
        self.last = values
        self.count += 1

    def diff_array(self) -> np.ndarray:
        """(n, nx) view whose row m holds u^m - u^(m-1); row 0 is zero."""
        return self._diffs[: self.count]


@dataclass(frozen=True)
class BlowupBracket:
    """Two-sided enclosure of the blow-up time in terms of the weighted mass
    h0 = H(0); valid (admissible) when h0 >= 1 + lambda1."""

    h0: float
    lower: float
    upper: float
    admissible: bool


@dataclass(frozen=True)
class BlowupEvent:
    t_star_numeric: float
    terminal_max: float


@dataclass
class SimulationResult:
    times: np.ndarray
    energy: np.ndarray
    h_functional: np.ndarray
    umin: np.ndarray
    umax: np.ndarray
    blowup: BlowupEvent | None
    bracket: BlowupBracket | None
    decay_slope: float | None
    lambda1: float
    h0: float
    config: SimConfig
    inconclusive: str | None = None
    fields: list | None = None
    field_times: list | None = None


@dataclass(frozen=True)
class BlowupFinding:
    """Outcome of step-refined blow-up detection.

    status is 'blowup' (t_star trusted to the requested refinement),
    'none' (the run stayed bounded to t_end), or 'inconclusive' (the step
    collapsed to the floor before the threshold was crossed).
    """

    status: str
    t_star: float | None
    estimates: tuple


# --- stepping ----------------------------------------------------------------


class StepOverflow(StepFailureError):
    """A step produced values at or above the blow-up threshold."""

    def __init__(self, values: np.ndarray):
        self.values = values
        super().__init__("field exceeded the blow-up threshold")


def step(
    history: HistoryBuffer,
    op: OperatorMatrix,
    weights: L1Weights,
    cho=None,
    blow_threshold: float | None = None,
) -> np.ndarray:
    """Advance one uniform L1 step of the coupled scheme.

    ``history`` holds u^0..u^(n-1); returns u^n.  Raises StepOverflow when the
    new field reaches ``blow_threshold``.  Pass a precomputed Cholesky factor
    of (scale+1)*I + A to amortize the solve across steps.
    """
    n = len(history)
    if n < 1:
        raise StepFailureError("history must contain the initial field")
    u_prev = history.last
    if u_prev.shape != (op.dim,):
        raise DomainError(f"dimension mismatch: field {u_prev.shape}, operator {op.dim}")
    if cho is None:
        m = (weights.scale + 1.0) * np.eye(op.dim) + op.entries
        cho = cho_factor(m)
    hist = caputo_convolution(weights, history.diff_array(), n)
    rhs = weights.scale * (u_prev - hist) + u_prev * u_prev
    u_new = cho_solve(cho, rhs)
    if blow_threshold is not None and np.max(u_new) >= blow_threshold:
        raise StepOverflow(u_new)
    return u_new


# --- full runs -----------------------------------------------------------------

_operator_cache: dict = {}


def _get_operator(config: SimConfig) -> tuple[OperatorMatrix, EigenPair]:
    key = (config.a, config.b, config.n, config.s)
    if key not in _operator_cache:
        grid = config.grid
        op = assemble_regional(grid, config.s)
        pair = principal_eigenpair(op, grid)
        _operator_cache[key] = (op, pair)
    return _operator_cache[key]


def run(
    config: SimConfig,
    u0_override: np.ndarray | None = None,
    record_fields: bool = False,
    operator: OperatorMatrix | None = None,
    eigenpair: EigenPair | None = None,
) -> SimulationResult:
    """Advance the scheme to t_end or blow-up and collect the monitors.

    Records E, H and the field bounds every output stride (at most ~2000
    entries).  Once max u exceeds 10*(1+lambda1) the run switches to adaptive
    stepping: the L1 memory weights are evaluated from the actual step times
    and the step is halved whenever the relative growth of max u exceeds 1/2.
    """
    grid = config.grid
    if operator is None or eigenpair is None:
        operator, eigenpair = _get_operator(config)
    lam1 = eigenpair.lambda1
    e1 = eigenpair.e1.values
    h = grid.h
    a_mat = operator.entries
    eye = np.eye(config.n)

    if u0_override is not None:
        u0 = np.asarray(u0_override, dtype=float)
        if u0.shape != (config.n,):
            raise DomainError("u0 override has wrong shape")
    else:
        u0 = initial_field(grid, config.profile, config.profile_params)
    if not np.all(np.isfinite(u0)):
        raise DomainError("initial data must be finite")

    h0 = float(h * np.sum(u0 * e1))
    n_steps = config.n_steps
    dt = config.effective_dt
    stride = max(1, n_steps // 2000)
    weights = l1_weights(config.alpha, dt, n_steps)
    cho_uniform = cho_factor((weights.scale + 1.0) * eye + a_mat)

    times = [0.0]
    energy = [float(h * np.sum(u0 * u0))]
    h_func = [h0]
    umin = [float(np.min(u0))]
    umax = [float(np.max(u0))]
    fields = [u0.copy()] if record_fields else None
    field_times = [0.0] if record_fields else None

    def record(t, u):
        times.append(t)
        energy.append(float(h * np.sum(u * u)))
        h_func.append(float(h * np.sum(u * e1)))
        umin.append(float(np.min(u)))
        umax.append(float(np.max(u)))
        if record_fields:
            fields.append(u.copy())
            field_times.append(t)

    adaptive_trigger = 10.0 * (1.0 + lam1)
    history = HistoryBuffer(last=u0, dt=dt)
    blowup = None
    inconclusive = None

    step_idx = 0
    switched = False
    while step_idx < n_steps:
        step_idx += 1
        try:
            u_new = step(
                history, operator, weights, cho=cho_uniform, blow_threshold=config.blow_threshold
            )
        except StepOverflow as overflow:
            t_star = step_idx * dt
            record(t_star, overflow.values)
            blowup = BlowupEvent(
                t_star_numeric=t_star, terminal_max=float(np.max(overflow.values))
            )
            break
        history.append(u_new)
        t_now = step_idx * dt
        if step_idx % stride == 0 or step_idx == n_steps:
            record(t_now, u_new)
        if np.max(u_new) > adaptive_trigger:
            switched = True
            break

    if switched:
        blowup, inconclusive = _run_adaptive(config, operator, history, record)

    bracket = blowup_bracket(h0, config.alpha, lam1) if h0 > 0 else None
    if bracket is not None and not bracket.admissible:
        bracket = None

    decay_slope = None
    if blowup is None and inconclusive is None:
        decay_slope = _maybe_decay_slope(np.asarray(times), np.asarray(energy), config)

    return SimulationResult(
        times=np.asarray(times),
        energy=np.asarray(energy),
        h_functional=np.asarray(h_func),
        umin=np.asarray(umin),
        umax=np.asarray(umax),
        blowup=blowup,
        bracket=bracket,
        decay_slope=decay_slope,
        lambda1=lam1,
        h0=h0,
        config=config,
        inconclusive=inconclusive,
        fields=fields,
        field_times=field_times,
    )


def _run_adaptive(config, operator, history, record):
    """Adaptive continuation once the field is in the blow-up regime.

    The memory term is evaluated with L1 weights computed from the actual
    (piecewise-uniform) step times; each committed step re-records, and the
    step is halved when max u grows by more than 50% in one step.
    """
    alpha = config.alpha
    g2 = math.gamma(2.0 - alpha)
    a_mat = operator.entries
    eye = np.eye(config.n)
    dt_floor = config.effective_dt_floor()

    step_times = _grown(history.dt * np.arange(len(history), dtype=float))
    cur_dt = history.dt
    t_last = float(step_times[len(history) - 1])
    cho_cache = {}
    max_steps = 200_000

    while t_last < config.t_end - 1e-12 * config.t_end:
        n_committed = len(history)
        if n_committed > max_steps:
            return None, "step budget exhausted in adaptive regime"
        u_last = history.last
        t_new = min(t_last + cur_dt, config.t_end)
        dt_eff = t_new - t_last
        w_new = dt_eff ** (-alpha) / g2
        w_hist = _nonuniform_history_weights(alpha, step_times[:n_committed], t_new)
        hist = w_hist @ history.diff_array()[1:]
        key = round(math.log2(dt_eff), 6)
        if key not in cho_cache:
            cho_cache[key] = cho_factor((w_new + 1.0) * eye + a_mat)
        rhs = w_new * u_last - hist + u_last * u_last
        u_new = cho_solve(cho_cache[key], rhs)
        max_last = float(np.max(u_last))
        max_new = float(np.max(u_new))
        if (max_new - max_last) > 0.5 * max(max_last, 1.0):
            cur_dt *= 0.5
            if cur_dt < dt_floor:
                return None, (
                    f"step size collapsed below floor {dt_floor:g} "
                    "without crossing the blow-up threshold"
                )
            continue
        if n_committed == len(step_times):
            step_times = _grown(step_times)
        step_times[n_committed] = t_new
        history.append(u_new)
        t_last = t_new
        record(t_new, u_new)
        if max_new >= config.blow_threshold:
            return BlowupEvent(t_star_numeric=t_new, terminal_max=max_new), None
    return None, None


def _maybe_decay_slope(times, energy, config):
    """Fit the late-time log-log slope when the horizon spans two decades."""
    t_lo, t_hi = config.t_end / 100.0, config.t_end
    positive = times > 0
    if not np.any(positive):
        return None
    first_t = times[positive][0]
    if t_lo < first_t:
        return None
    mask = (times >= t_lo) & (times <= t_hi)
    if np.count_nonzero(mask) < 8 or np.any(energy[mask] <= 0):
        return None
    return decay_rate_fit(times, energy, (t_lo, t_hi))


# --- analysis operations -------------------------------------------------------


def blowup_bracket(h0: float, alpha: float, lambda1: float) -> BlowupBracket:
    """Two-sided blow-up time estimate from the weighted mass h0 = H(0)."""
    if not h0 > 0:
        raise DomainError(f"h0 must be positive, got {h0}")
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must be in (0, 1], got {alpha}")
    gamma_a1 = math.gamma(alpha + 1.0)
    lower = (gamma_a1 / (4.0 * (h0 + 0.5))) ** (1.0 / alpha)
    upper = (gamma_a1 / h0) ** (1.0 / alpha)
    return BlowupBracket(h0=h0, lower=lower, upper=upper, admissible=h0 >= 1.0 + lambda1)


def detect_blowup(
    config: SimConfig,
    rel_change: float = 0.01,
    max_refinements: int = 12,
    u0_override: np.ndarray | None = None,
) -> BlowupFinding:
    """Run with successively halved dt until the crossing time stabilizes.

    The reported t_star moves by less than ``rel_change`` under one further
    halving.  A bounded run reports 'none' immediately; a dt-floor collapse
    reports 'inconclusive' rather than silently dropping the event.
    """
    estimates = []
    cfg = config
    for _ in range(max_refinements + 1):
        result = run(cfg, u0_override=u0_override)
        if result.inconclusive is not None:
            return BlowupFinding(status="inconclusive", t_star=None, estimates=tuple(estimates))
        if result.blowup is None:
            return BlowupFinding(status="none", t_star=None, estimates=tuple(estimates))
        estimates.append(result.blowup.t_star_numeric)
        if len(estimates) >= 2:
            prev, cur = estimates[-2], estimates[-1]
            if abs(cur - prev) < rel_change * abs(cur):
                return BlowupFinding(status="blowup", t_star=cur, estimates=tuple(estimates))
        cfg = replace(cfg, dt=cfg.dt * 0.5)
    raise ConvergenceError(
        f"blow-up time did not stabilize within {max_refinements} dt halvings: {estimates}"
    )


def decay_rate_fit(times, values, window) -> float:
    """Least-squares slope of log(values) against log(times) on the window."""
    t_lo, t_hi = window
    if not (t_lo > 0 and t_hi >= 10.0 * t_lo):
        raise DomainError(f"window must satisfy 0 < t_lo and t_hi >= 10*t_lo, got {window}")
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if t_lo < np.min(times) or t_hi > np.max(times) + 1e-12 * t_hi:
        raise DomainError("window must lie inside the recorded time range")
    mask = (times >= t_lo) & (times <= t_hi)
    if np.count_nonzero(mask) < 8:
        raise ConvergenceError(
            f"degenerate fit: only {np.count_nonzero(mask)} points in window {window}"
        )
    if np.any(values[mask] <= 0):
        raise DomainError("trace must be positive on the fit window")
    slope, _ = np.polyfit(np.log(times[mask]), np.log(values[mask]), 1)
    return float(slope)
