"""Coupled solver for the time-space fractional reaction-diffusion problem

    D_t^alpha u + L_s u = -u(1-u)  on (a, b),   u = 0 outside,

with L_s the discrete regional fractional Laplacian.  Rearranged as
D^alpha u + L_s u + u = u^2, each step solves

    (scale*I + L_s + I) u^n = scale*(u^(n-1) - history) + (u^(n-1))^2,

i.e. the stiff linear part (including the -u piece of the reaction) is
implicit and the quadratic piece explicit.  The system matrix is L_s plus a
positive multiple of the identity.  Where L_s has nonpositive off-diagonal
entries that makes it an M-matrix, so the scheme is positivity- and
order-preserving and keeps every field with data in [0,1] inside [0,1] for
any step size.  That holds for s above a threshold that rises with n (0.23
at n = 4096; see ``fraclap``); below it the nearest-neighbour entry of L_s
is positive and the guarantee is unbacked.

Monitored functionals (discrete integrals with weight h):

    E(t) = h * sum u_i^2          (squared L2 norm),
    H(t) = h * sum u_i * e1_i     (projection on the principal eigenfunction),

plus the running min/max of u.  Blow-up is declared when max u crosses
``BLOW_THRESHOLD``, with the step size halved adaptively once max u
exceeds 10*(1 + lambda1), or from the start when max u0 already does.  When
the weighted mass H(0) reaches 1 + lambda1, ``blowup_bracket`` gives the
two-sided blow-up window

    (Gamma(alpha+1) / (4*(H0 + 1/2)))^(1/alpha) <= T* <= (Gamma(alpha+1)/H0)^(1/alpha);

``harness.scaled_blowup_config`` forms it for the runs it builds.

Stepping.  ``run`` builds the cached operator and the initial field and
hands them to ``_march``, the package's one stepping loop.  The scalar
blow-up oracle D^alpha y = y*(y+1) of ``harness`` runs through the same
loop as one mode, lam = [-2], V = [[1]]: w + 1 + lam is then the w - 1 of
that equation.  The loop goes over committed steps in two regimes.  The
uniform regime steps to t = k*dt on the uniform mesh of
``caputo.L1History``, whose dt divides t_end, and records every output
stride.  The loop turns adaptive the first time max u exceeds
10*(1 + lam[0]), or starts adaptive when max u0 already does: it steps to
min(t_last + dt', t_end), records every committed step, and rejects a step
and halves dt' when max u grows by more than half.  Each regime only picks
t_new; ``caputo.L1History.step(t_new)`` returns the weight w of the step
actually taken and the memory sum, and ``append(u_new)`` commits that
step.  At the grid sizes the campaigns use (n = 128, 256) a step is a few
tens of kflop, so each one does its arithmetic and little else, the same
in both regimes:

* one right-hand side, u_last*(w + u_last) - memory, and one solve.
  A step of the uniform size w = ``scale`` (every uniform step, and the
  adaptive steps before the first halving) is one product with the step
  matrix ((w + 1) I + A)^-1, formed once per run from the eigenbasis
  A = V diag(lam) V^T cached per operator, when the run has at least n
  steps to pay for its n-product build.  Any
  other step solves in the eigenbasis, u = V ((V^T rhs) / (w + 1 + lam)),
  two products and one division for any w, so a step of a new size needs no
  new factor.  At n = 128 with one BLAS thread the step-matrix solve takes
  4.1 us and the basis solve 8.0 us (13 and 25 us at n = 256).  Each
  returns u and u @ u, its one finiteness check of the solution; a failure
  raises StepFailureError naming the cause;
* one history object, ``caputo.L1History``, which keeps the uniform mesh as
  Q sum-of-exponentials state vectors and at most 32 intervals kept exact;
  on the uniform mesh ``step(t_new)`` is one matrix-vector product over
  the exact intervals plus the state's share, formed when the intervals
  were folded into the state, so a uniform step costs the same at any
  index; in the adaptive regime the state is frozen and every new interval
  stays exact, with weights from the step times;
* at most one ``max u`` per step, shared by the rejection test, the blow-up
  test and the adaptive trigger.  In the uniform regime sqrt(u @ u) >= max u
  stands in for it while it stays below half of both thresholds;
* monitors that copy a recorded field into a block and reduce E, H, min u
  and max u a block at a time.

A uniform step at n = 128 takes about 15 us in all at best, one BLAS thread.

A run counts as blown up once its value (max u for a field) reaches
``BLOW_THRESHOLD``, and ends unresolved once its adaptive step falls below
``DT_FLOOR_REL * t_end``.  ``_dt_ladder`` is the one dt-halving ladder of
a crossing time, for ``detect_blowup`` and ``harness``'s one-mode oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .caputo import L1History
from .errors import ConvergenceError, DomainError, StepFailureError
from .fraclap import (
    EigenPair,
    Grid1D,
    assemble_regional,
    mirror_eigenbasis,
    principal_eigenpair,
)

BLOW_THRESHOLD = 1e8  # a run has blown up once its value (max u for a field) reaches this
DT_FLOOR_REL = 1e-14  # an adaptive step below DT_FLOOR_REL * t_end ends the run unresolved

# --- initial-data profiles --------------------------------------------------
# All profiles are expressed in the relative coordinate xr = (x-a)/(b-a) and
# scaled by 'amplitude' (gauss also takes 'width'), so configs stay portable.


def _profile_constant(xr, p):
    return np.full_like(xr, p.get("amplitude", 1.0))


def _profile_sine(xr, p):
    return p.get("amplitude", 1.0) * np.sin(math.pi * xr)


def _profile_parabola(xr, p):
    return p.get("amplitude", 1.0) * 4.0 * xr * (1.0 - xr)


def _profile_plateau(xr, p):
    return p.get("amplitude", 1.0) * np.minimum(1.0, 20.0 * xr * (1.0 - xr))


def _profile_gauss(xr, p):
    width = p.get("width", 0.1)
    with np.errstate(over="ignore"):  # a square past the double range is exp(-inf) = 0
        return p.get("amplitude", 1.0) * np.exp(-(((xr - 0.5) / width) ** 2))


def _profile_step(xr, p):
    return p.get("amplitude", 1.0) * ((xr >= 0.25) & (xr <= 0.75)).astype(float)


def _profile_hat(xr, p):
    return p.get("amplitude", 1.0) * np.clip(1.0 - np.abs(xr - 0.5) / 0.25, 0.0, None)


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
    keys = {"amplitude", "width"} if profile == "gauss" else {"amplitude"}
    if not keys.issuperset(params):
        raise DomainError(f"profile '{profile}' takes only {', '.join(sorted(keys))}, "
                          f"got {', '.join(sorted(set(params) - keys))}")
    xr = (grid.nodes() - grid.a) / (grid.b - grid.a)
    values = PROFILES[profile](xr, params)
    if not np.all(np.isfinite(values)):
        raise DomainError(f"profile '{profile}' produced non-finite values")
    return values


# --- configuration and results ----------------------------------------------


_MAX_STEPS = 10_000_000  # SimConfig, _dt_ladder: uniform steps of one run, ~3 minutes at n = 128


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

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise DomainError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 < self.s < 1.0:
            raise DomainError(f"s must be in (0, 1), got {self.s}")
        if not self.t_end > 0:
            raise DomainError(f"t_end must be positive, got {self.t_end}")
        if not 0 < self.dt <= self.t_end:
            raise DomainError(f"need 0 < dt <= t_end, got dt={self.dt}")
        if not self.t_end / self.dt <= _MAX_STEPS:
            raise DomainError(
                f"t_end / dt = {self.t_end / self.dt:.6g} steps exceeds the limit of "
                f"{_MAX_STEPS:.0e} uniform steps per run"
            )
        if self.profile not in PROFILES:
            raise DomainError(f"unknown profile '{self.profile}'")
        Grid1D(self.a, self.b, self.n)  # validates the grid spec

    @property
    def grid(self) -> Grid1D:
        return Grid1D(self.a, self.b, self.n)


_BLOCK = 64  # _Monitors: recorded fields reduced at once


class _Monitors:
    """E, H, min u and max u at the recorded times.

    Recorded fields are copied into a block of ``_BLOCK`` rows, and E, H,
    min u and max u are reduced a block at a time.  The reductions are numpy's pairwise
    sums along each row, which give the same bits as the sums of one field and
    do not depend on the BLAS build.
    """

    def __init__(self, h: float, e1: np.ndarray, record_fields: bool):
        self._h = h
        self._e1 = e1
        self._block = np.empty((_BLOCK, len(e1)))
        self._filled = 0  # rows of the block not yet reduced
        self._times = []
        self._reduced = []  # (E, H, min u, max u) arrays, one per reduced block
        self.fields = [] if record_fields else None

    def record(self, t: float, u: np.ndarray):
        j = self._filled
        self._block[j] = u
        self._times.append(t)
        self._filled = j + 1
        if j + 1 == _BLOCK:
            self._reduce()
        if self.fields is not None:
            self.fields.append(u.copy())

    def _reduce(self):
        block, h = self._block[: self._filled], self._h
        self._reduced.append((
            h * (block * block).sum(axis=1),
            h * (block * self._e1).sum(axis=1),
            block.min(axis=1),
            block.max(axis=1),
        ))
        self._filled = 0

    def columns(self) -> np.ndarray:
        """(5, count) array of times, E, H, min u and max u; each row contiguous."""
        if self._filled:
            self._reduce()
        return np.array([self._times, *(np.concatenate(parts) for parts in zip(*self._reduced))])


@dataclass(frozen=True)
class BlowupBracket:
    """Two-sided enclosure of the blow-up time in terms of the weighted mass
    h0 = H(0); valid (admissible) when h0 >= 1 + lambda1."""

    h0: float
    lower: float
    upper: float
    admissible: bool


@dataclass
class SimulationResult:
    times: np.ndarray
    energy: np.ndarray
    h_functional: np.ndarray
    umin: np.ndarray
    umax: np.ndarray
    blowup: float | None  # the time max u crossed BLOW_THRESHOLD, umax[-1] its value
    decay_slope: float | None
    lambda1: float
    config: SimConfig
    inconclusive: str | None = None
    fields: list | None = None  # the field at each entry of times, with record_fields


@dataclass(frozen=True)
class BlowupFinding:
    """Outcome of a dt ladder, ``_dt_ladder``.

    status is 'blowup' (t_star is the settled Aitken limit of the ladder,
    ``settled_limit``), 'none' (a run stayed bounded to t_end), or
    'inconclusive' (a run ended unresolved, or the ladder ran out of
    halvings or of step budget before its limits settled).  estimates holds
    the raw crossing times of the rungs, coarsest first.
    """

    status: str
    t_star: float | None
    estimates: tuple


# --- stepping ----------------------------------------------------------------


def _definite_shift(lam: np.ndarray, w: float) -> float:
    """w + 1, after checking that (w + 1) I + A is positive definite (lam ascending)."""
    shift = w + 1.0
    if not shift + lam[0] > 0:
        raise StepFailureError(
            f"step matrix (w + 1)*I + A is not positive definite: "
            f"w = {w:.6g}, min eigenvalue of A = {lam[0]:.6g}"
        )
    return shift


def _check_finite(u: np.ndarray, rhs: np.ndarray, mat: np.ndarray, name: str) -> None:
    """Raise StepFailureError naming the cause when the solution u of a step
    with right-hand side rhs and solve matrix mat is not finite."""
    if np.isfinite(u).all():
        return
    if not np.isfinite(rhs).all():
        cause = "the right-hand side is not finite"
    elif not np.isfinite(mat).all():
        cause = f"the {name} is not finite"
    else:
        cause = "the solve overflowed"
    raise StepFailureError(f"linear solve gave a non-finite field: {cause}")


def _implicit_step(
    lam: np.ndarray, v: np.ndarray, w: float, rhs: np.ndarray
) -> tuple[np.ndarray, float]:
    """Solve ((w + 1) I + A) u = rhs for A = V diag(lam) V^T, lam ascending,
    as u = V ((V^T rhs) / (w + 1 + lam)); return u and u @ u.

    Raises StepFailureError before the solve when w + 1 + min lam <= 0 (the
    step matrix is not positive definite), and after it when u is not
    finite, naming the cause: a non-finite right-hand side or basis, or an
    overflow.
    """
    u = v @ ((rhs @ v) / (lam + _definite_shift(lam, w)))
    # u @ u is finite when every entry is, short of overflow past 1e154,
    # and one BLAS call is cheaper than an elementwise test
    norm2 = u @ u
    if not math.isfinite(norm2):
        _check_finite(u, rhs, v, "eigenbasis")
    return u, norm2


def _step_matrix(lam: np.ndarray, v: np.ndarray, w: float) -> np.ndarray:
    """((w + 1) I + A)^-1 = V diag(1 / (w + 1 + lam)) V^T, about n
    matrix-vector products of work.

    Raises StepFailureError, as ``_implicit_step`` does, before the product
    when the step matrix is not positive definite, and after it when the
    product is not finite.
    """
    shift = _definite_shift(lam, w)
    with np.errstate(invalid="ignore", over="ignore"):  # reported as the typed error below
        step_matrix = (v / (lam + shift)) @ v.T
    if not np.isfinite(step_matrix).all():
        cause = "the eigenbasis is not finite" if not np.isfinite(v).all() else "it overflowed"
        raise StepFailureError(f"step matrix ((w + 1)*I + A)^-1 is not finite: {cause}")
    return step_matrix


def _matrix_step(step_matrix: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """u = step_matrix @ rhs and u @ u, with the finiteness check of
    ``_implicit_step``; sqrt(u @ u) bounds max u."""
    u = step_matrix @ rhs
    norm2 = u @ u
    if not math.isfinite(norm2):
        _check_finite(u, rhs, step_matrix, "step matrix")
    return u, norm2


# --- full runs -----------------------------------------------------------------

_MAX_ADAPTIVE_STEPS = 200_000  # run: committed steps after the adaptive switch before giving up

# A few entries cover every campaign's working set.  An entry holds the
# principal eigenpair and the eigenbasis (lam, V) of A, not A itself, so it
# is n^2 doubles, 134 MB at n = 4096; the basis takes 5.5 s to build there
# (one Cholesky factor of the step matrix took 1.0 s, dense eigh of A 21 s).
# Keyed on the grid and s, since a SimConfig's profile_params dict is not
# hashable; concurrent misses on one key may each build it.
@functools.lru_cache(maxsize=4)
def _operator(
    a: float, b: float, n: int, s: float
) -> tuple[EigenPair, np.ndarray, np.ndarray]:
    grid = Grid1D(a, b, n)
    op = assemble_regional(grid, s)
    pair = principal_eigenpair(op, grid)  # checks A finite and centrosymmetric
    lam, v = mirror_eigenbasis(op.entries)
    # shared by every caller
    lam.flags.writeable = v.flags.writeable = pair.e1.flags.writeable = False
    return pair, lam, v


def _get_operator(config: SimConfig) -> tuple[EigenPair, np.ndarray, np.ndarray]:
    """The cached principal eigenpair and eigenbasis (lam, V) of a run's
    grid and s: A = V diag(lam) V^T with lam ascending."""
    return _operator(config.a, config.b, config.n, config.s)


def run(
    config: SimConfig,
    u0_override: np.ndarray | None = None,
    record_fields: bool = False,
) -> SimulationResult:
    """Advance the scheme to t_end or blow-up and collect the monitors.

    Builds the cached operator and the checked initial field, runs them
    through ``_march``, and fits the decay slope of a run that neither blew
    up nor ended unresolved.
    """
    grid = config.grid
    eigenpair, lam, v = _get_operator(config)

    if u0_override is not None:
        u0 = np.asarray(u0_override, dtype=float)
        if u0.shape != (config.n,):
            raise DomainError("u0 override has wrong shape")
    else:
        u0 = initial_field(grid, config.profile, config.profile_params)
    if not np.all(np.isfinite(u0)):
        raise DomainError("initial data must be finite")

    monitors, blowup, inconclusive = _march(
        lam, v, eigenpair.e1, grid.h, u0, config.alpha, config.dt, config.t_end, record_fields,
    )
    times, energy, h_func, umin, umax = monitors.columns()
    decay_slope = None
    if blowup is None and inconclusive is None:
        decay_slope = _maybe_decay_slope(times, energy, config)

    return SimulationResult(
        times=times,
        energy=energy,
        h_functional=h_func,
        umin=umin,
        umax=umax,
        blowup=blowup,
        decay_slope=decay_slope,
        lambda1=eigenpair.lambda1,
        config=config,
        inconclusive=inconclusive,
        fields=monitors.fields,
    )


def _march(
    lam: np.ndarray,
    v: np.ndarray,
    e1: np.ndarray,
    h: float,
    u0: np.ndarray,
    alpha: float,
    dt: float,
    t_end: float,
    record_fields: bool = False,
) -> tuple[_Monitors, float | None, str | None]:
    """Step D^alpha u + A u + u = u^2, A = V diag(lam) V^T with lam
    ascending, from u0 to t_end or blow-up; return the monitors, the time
    max u crossed ``BLOW_THRESHOLD`` (None without a crossing) and the
    reason a run ended unresolved.

    The uniform mesh is the one ``L1History(u0, alpha, dt, t_end)`` forms,
    which ends at t_end for any dt.  Records E, H and the field bounds every
    output stride (at most ~2000 entries) of that mesh.  Once max u exceeds
    10*(1 + lam[0]), or from the start when max u0 already does, the loop
    steps adaptively: every committed step is recorded, the L1 memory
    weights are evaluated from the actual step times, and a step is rejected
    and the step size halved whenever the relative growth of max u exceeds
    1/2.  The adaptive regime ends the run unresolved after
    ``_MAX_ADAPTIVE_STEPS`` committed steps or once its step falls below
    ``DT_FLOOR_REL * t_end``.
    """
    history = L1History(u0, alpha, dt, t_end)
    n_steps, dt = history.n_steps, history.dt
    step, append, scale = history.step, history.append, history.scale
    cur_dt = dt
    floor = DT_FLOOR_REL * t_end
    t_stop = t_end - 1e-12 * t_end
    stride = max(1, n_steps // 2000)
    # A step of the uniform size is one product with the step matrix, once
    # the run has enough steps to pay for its build
    step_matrix = _step_matrix(lam, v, scale) if n_steps >= len(u0) else None

    u_max = float(u0.max())
    monitors = _Monitors(h, e1, record_fields)
    monitors.record(0.0, u0)
    adaptive_trigger = 10.0 * (1.0 + float(lam[0]))  # a float: np.float64 slows each step
    # max u <= sqrt(u @ u), which each step solve returns: while that bound
    # stays below half of both thresholds, u_max holds it, not the max
    bound_norm2 = (0.5 * min(adaptive_trigger, BLOW_THRESHOLD)) ** 2
    adaptive, k, k_switch = u_max > adaptive_trigger, 0, 0  # k: committed steps
    blowup = inconclusive = None

    # an overflow in a step reaches its finiteness check, which raises the
    # typed StepFailureError, so numpy need not warn before it
    with np.errstate(over="ignore", invalid="ignore"):
        while history.t_last < t_stop:
            if not adaptive:
                t_new = (k + 1) * dt
            else:
                if k - k_switch >= _MAX_ADAPTIVE_STEPS:
                    inconclusive = "step budget exhausted in adaptive regime"
                    break
                t_new = min(history.t_last + cur_dt, t_end)
            w, memory = step(t_new)
            u_last = history.last
            rhs = u_last * (w + u_last)
            rhs -= memory
            if w == scale and step_matrix is not None:
                u_new, norm2 = _matrix_step(step_matrix, rhs)
            else:
                u_new, norm2 = _implicit_step(lam, v, w, rhs)
            if adaptive or not norm2 < bound_norm2:
                max_new = float(u_new.max())
            else:
                max_new = math.sqrt(norm2)
            if adaptive and max_new - u_max > 0.5 * max(u_max, 1.0):
                cur_dt *= 0.5
                if cur_dt < floor:
                    inconclusive = (
                        f"step size collapsed below floor {floor:g} "
                        "without crossing the blow-up threshold"
                    )
                    break
                continue
            append(u_new)
            k, u_max = k + 1, max_new
            blown = u_max >= BLOW_THRESHOLD
            if adaptive or blown or k % stride == 0 or k == n_steps:
                monitors.record(t_new, u_new)
            if blown:
                blowup = t_new
                break
            if not adaptive and u_max > adaptive_trigger:
                adaptive, k_switch = True, k
    return monitors, blowup, inconclusive


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

_REL_CHANGE = 0.01  # settled_limit: accepted relative gap of two successive limits
_MAX_REFINEMENTS = 12  # _dt_ladder: dt halvings before giving up


def blowup_bracket(h0: float, alpha: float, lambda1: float) -> BlowupBracket:
    """Two-sided blow-up time estimate from the weighted mass h0 = H(0)."""
    if not h0 > 0:
        raise DomainError(f"h0 must be positive, got {h0}")
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must be in (0, 1], got {alpha}")
    gamma_a1 = math.gamma(alpha + 1.0)
    try:
        lower = (gamma_a1 / (4.0 * (h0 + 0.5))) ** (1.0 / alpha)
        upper = (gamma_a1 / h0) ** (1.0 / alpha)
    except OverflowError:
        raise DomainError(
            f"blow-up bracket overflows at alpha = {alpha:g}, h0 = {h0:g}: "
            "(Gamma(alpha + 1) / h0)^(1/alpha) exceeds the double range"
        ) from None
    return BlowupBracket(h0=h0, lower=lower, upper=upper, admissible=h0 >= 1.0 + lambda1)


def settled_limit(estimates) -> float | None:
    """The Aitken limit of a dt ladder's crossing times, once it has settled.

    With d_k = t_k - t_(k-1), the Aitken delta-squared limit of the last
    three times (Aitken, Proc. R. Soc. Edinburgh 46 (1926) 289) is
    A_k = t_k - d_k^2 / (d_k - d_(k-1)), defined only when
    0 < d_k / d_(k-1) < 1, so the differences keep their sign and shrink.
    It is exact for an error c * r^k.  The crossing times converge at order
    0.6 to 1 in dt, so a raw time that moves by 1% under one halving can
    still lie about 1% off the limit.
    The ladder has settled when it has at least 4 times and the limits of
    its last two triples both exist and differ by less than ``_REL_CHANGE``
    relative; A_k is returned then and None otherwise.  A NaN time never
    settles.
    """
    if len(estimates) < 4:
        return None
    limits = []
    for t0, t1, t2 in (estimates[-4:-1], estimates[-3:]):
        d_prev, d = t1 - t0, t2 - t1
        if not (d_prev != 0.0 and 0.0 < d / d_prev < 1.0):
            return None
        limits.append(t2 - d * d / (d - d_prev))
    prev, cur = limits
    return cur if abs(cur - prev) < _REL_CHANGE * abs(cur) else None


def _dt_ladder(crossing, dt: float, t_end: float) -> BlowupFinding:
    """Call crossing(dt), crossing(dt/2), ... until ``settled_limit`` of the
    crossing times settles, and report it as 'blowup'.

    crossing(dt) runs to t_end on the requested step dt and returns its
    crossing time (None if it stayed bounded) and why it ended unresolved
    (None if it did not).  A bounded rung is 'none' at once.  An unresolved
    rung, no settled limit after ``_MAX_REFINEMENTS`` halvings, and a rung of
    more than ``_MAX_STEPS`` uniform steps are 'inconclusive'.
    """
    estimates = []
    for _ in range(_MAX_REFINEMENTS + 1):
        if not t_end / dt <= _MAX_STEPS:
            break
        t_star, unresolved = crossing(dt)
        if unresolved is not None:
            break
        if t_star is None:
            return BlowupFinding(status="none", t_star=None, estimates=tuple(estimates))
        estimates.append(t_star)
        limit = settled_limit(estimates)
        if limit is not None:
            return BlowupFinding(status="blowup", t_star=limit, estimates=tuple(estimates))
        dt *= 0.5
    return BlowupFinding(status="inconclusive", t_star=None, estimates=tuple(estimates))


def detect_blowup(config: SimConfig) -> BlowupFinding:
    """``_dt_ladder`` over ``run``, one run per rung, from config.dt."""

    def crossing(dt):
        result = run(replace(config, dt=dt))
        return result.blowup, result.inconclusive

    return _dt_ladder(crossing, config.dt, config.t_end)


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
