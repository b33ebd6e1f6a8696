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

Stepping.  ``run`` builds the cached operator (the principal eigenpair and
the two mirror blocks of A) and the initial field and hands them to
``_march``, the package's one stepping loop.  The scalar blow-up oracle
D^alpha y = y*(y+1) of ``harness`` runs through the same loop as one mode:
an even block [[-2]], no odd block, lam = [-2] and V = [[1]], so that
w + 1 + lam is the w - 1 of that equation.  The loop goes over committed
steps in two regimes.  The uniform regime steps to t = k*dt on the uniform
mesh of ``caputo.L1History``, whose dt divides t_end, and records every
output stride.  The loop turns adaptive the first time max u exceeds
10*(1 + lambda1), or starts adaptive when max u0 already does: it steps to
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
  matrix ((w + 1) I + A)^-1, formed once per run from Cholesky inverses of
  the two shifted mirror blocks, about n^3 / 4 flops (``_step_matrix``).
  Any other step solves in the eigenbasis A = V diag(lam) V^T,
  u = V ((V^T rhs) / (w + 1 + lam)), two products and one division for any
  w, so a step of a new size needs no new factor.  The basis is cached per
  operator and built only when a run takes its first such step, so a run
  that stays on the uniform mesh never builds it.  At n = 128 with one BLAS
  thread the step-matrix solve takes 4.1 us and the basis solve 8.0 us
  (13 and 25 us at n = 256).  Each
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
``DT_FLOOR_REL * max(t, dt)`` at the time t it has reached: a floor
relative to that time, not to the horizon t_end.  ``_dt_ladder`` is the one
dt-halving ladder of a crossing time, for ``detect_blowup`` and
``harness``'s one-mode oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri

from .caputo import L1History, uniform_mesh
from .errors import ConvergenceError, DomainError, StepFailureError
from .fraclap import (
    EigenPair,
    Grid1D,
    assemble_regional,
    mirror_blocks,
    mirror_eigenbasis,
    principal_eigenpair,
)

BLOW_THRESHOLD = 1e8  # a run has blown up once its value (max u for a field) reaches this
# an adaptive step below DT_FLOOR_REL * max(t_last, dt), t_last the time reached, ends the
# run unresolved
DT_FLOOR_REL = 1e-14
_STRIP_ROWS = 64  # rows per strip of the copies that form the step matrix

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
    if not 0.0 < width < math.inf:
        raise DomainError(f"gauss width must be positive and finite, got {width}")
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
        uniform_mesh(self.dt, self.t_end)  # the mesh and step budget of the run
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
    inconclusive: str | None = None
    slope_error: str | None = None  # decay_rate_fit's error type when it rejected the trace
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
    shift = w + 1.0
    if not shift + lam[0] > 0:
        raise StepFailureError(
            f"step matrix (w + 1)*I + A is not positive definite: "
            f"w = {w:.6g}, min eigenvalue of A = {lam[0]:.6g}"
        )
    u = v @ ((rhs @ v) / (lam + shift))
    # u @ u is finite when every entry is, short of overflow past 1e154,
    # and one BLAS call is cheaper than an elementwise test
    norm2 = u @ u
    if not math.isfinite(norm2):
        _check_finite(u, rhs, v, "eigenbasis")
    return u, norm2


def _shifted_inverse(block: np.ndarray, w: float) -> np.ndarray:
    """(block + (w + 1) I)^-1 of a finite symmetric mirror block, in a new
    array: LAPACK ``potrf`` and ``potri`` write the Cholesky factor and then
    the inverse over one shifted copy, whose other triangle is then filled
    from it a strip at a time.  Raises StepFailureError naming w when the
    shifted block is not positive definite."""
    inv = block.copy()
    k = len(inv)
    if k == 0:  # the one-mode operator has no odd block
        return inv
    inv.flat[:: k + 1] += w + 1.0
    # inv is symmetric, so its transpose is inv itself in the Fortran order
    # LAPACK takes: both calls write inv's lower triangle in place
    factor, info = dpotrf(inv.T, lower=0, overwrite_a=1, clean=0)
    if info == 0:
        info = dpotri(factor, lower=0, overwrite_c=1)[1]
    if info != 0:
        raise StepFailureError(
            f"step matrix (w + 1)*I + A is not positive definite: w = {w:.6g}"
        )
    for i in range(0, k, _STRIP_ROWS):
        j = min(i + _STRIP_ROWS, k)
        corner = inv[i:j, i:j]
        corner[...] = np.tril(corner) + np.tril(corner, -1).T
        inv[i:j, j:] = inv[j:, i:j].T
    return inv


def _step_matrix(even: np.ndarray, odd: np.ndarray, w: float) -> np.ndarray:
    """((w + 1) I + A)^-1 for the A whose ``fraclap.mirror_blocks`` are
    even and odd, from the inverses E and D of the two shifted blocks:
    about n^3 / 4 flops in all.

    With Q and P the mirror-even and mirror-odd bases, the step matrix is
    Q E Q^T + P D P^T.  Its top floor(n/2) rows hold (E11 + D) / 2 and, in
    reversed column order, (E11 - D) / 2, with E11 the leading floor(n/2)
    block of E; the middle row and column of an odd n hold E's last row
    and column, scaled by 1/sqrt(2) off the middle node; and the bottom rows
    are the top ones reversed in both axes.

    Raises StepFailureError naming w when a block is not finite or a
    shifted block is not positive definite, and when the result overflows.
    """
    if not (np.isfinite(even).all() and np.isfinite(odd).all()):
        raise StepFailureError(
            f"step matrix ((w + 1)*I + A)^-1 at w = {w:.6g}: a mirror block of A is not finite"
        )
    e = _shifted_inverse(even, w)
    d = _shifted_inverse(odd, w)
    k, m = len(e), len(d)
    n = k + m
    step_matrix = np.empty((n, n))
    top = step_matrix[:m]
    with np.errstate(invalid="ignore", over="ignore"):  # reported as the typed error below
        np.add(e[:m, :m], d, out=top[:, :m])
        np.subtract(e[:m, :m], d, out=top[:, ::-1][:, :m])
        top[:, :m] *= 0.5
        top[:, k:] *= 0.5
    if k > m:  # odd n: the middle node is its own mirror image
        middle = step_matrix[m]
        np.divide(e[:m, m], math.sqrt(2.0), out=top[:, m])
        middle[:m], middle[m], middle[k:] = top[:, m], e[m, m], top[::-1, m]
    del e, d
    for i in range(0, m, _STRIP_ROWS):
        j = min(i + _STRIP_ROWS, m)
        step_matrix[n - j : n - i] = step_matrix[i:j][::-1, ::-1]
    if not np.isfinite(step_matrix).all():
        raise StepFailureError(
            f"step matrix ((w + 1)*I + A)^-1 is not finite at w = {w:.6g}: it overflowed"
        )
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
# principal eigenpair and the two mirror blocks of A, not A itself, so it is
# n^2 / 2 doubles, 67 MB at n = 4096.  The step matrix takes 0.6 s to build
# from the blocks there; the eigenbasis, which only a run's first non-uniform
# step builds (``_eigenbasis``), takes 3.5 s, and dense eigh of A 13.9 s.
# Keyed on the grid and s, since a SimConfig's profile_params dict is not
# hashable; concurrent misses on one key may each build it.
@functools.lru_cache(maxsize=4)
def _operator(
    a: float, b: float, n: int, s: float
) -> tuple[EigenPair, np.ndarray, np.ndarray]:
    """The principal eigenpair and the mirror-even and mirror-odd blocks of
    A on the grid (a, b, n) at order s, all read-only."""
    grid = Grid1D(a, b, n)
    op = assemble_regional(grid, s)
    pair = principal_eigenpair(op, grid)
    even, odd = mirror_blocks(op.entries)
    # shared by every caller
    even.flags.writeable = odd.flags.writeable = pair.e1.flags.writeable = False
    return pair, even, odd


# n^2 doubles an entry; only runs that take a non-uniform step ask for one
@functools.lru_cache(maxsize=4)
def _eigenbasis(a: float, b: float, n: int, s: float) -> tuple[np.ndarray, np.ndarray]:
    """The eigenbasis (lam, V) of A on the grid (a, b, n) at order s,
    A = V diag(lam) V^T with lam ascending, from the blocks ``_operator``
    caches; both read-only."""
    _, even, odd = _operator(a, b, n, s)
    lam, v = mirror_eigenbasis(even, odd)
    lam.flags.writeable = v.flags.writeable = False
    return lam, v


def run(
    config: SimConfig,
    u0_override: np.ndarray | None = None,
    record_fields: bool = False,
) -> SimulationResult:
    """Advance the scheme to t_end or blow-up and collect the monitors.

    Builds the cached operator and the checked initial field, runs them
    through ``_march``, and fits the decay slope of a run that neither blew
    up nor ended unresolved: ``decay_rate_fit`` on (t_end/100, t_end), None
    when it rejects the trace, with the type of its error in ``slope_error``.
    """
    grid = config.grid
    key = (config.a, config.b, config.n, config.s)
    eigenpair, even, odd = _operator(*key)

    if u0_override is not None:
        u0 = np.asarray(u0_override, dtype=float)
        if u0.shape != (config.n,):
            raise DomainError("u0 override has wrong shape")
    else:
        u0 = initial_field(grid, config.profile, config.profile_params)
    if not np.all(np.isfinite(u0)):
        raise DomainError("initial data must be finite")

    monitors, blowup, inconclusive = _march(
        even, odd, eigenpair.lambda1, functools.partial(_eigenbasis, *key), eigenpair.e1,
        grid.h, u0, config.alpha, config.dt, config.t_end, record_fields,
    )
    times, energy, h_func, umin, umax = monitors.columns()
    decay_slope = slope_error = None
    if blowup is None and inconclusive is None:
        try:
            decay_slope = decay_rate_fit(times, energy, (config.t_end / 100.0, config.t_end))
        except (DomainError, ConvergenceError) as exc:  # a coarse mesh, or E reached 0
            slope_error = type(exc).__name__

    return SimulationResult(
        times=times,
        energy=energy,
        h_functional=h_func,
        umin=umin,
        umax=umax,
        blowup=blowup,
        decay_slope=decay_slope,
        lambda1=eigenpair.lambda1,
        inconclusive=inconclusive,
        slope_error=slope_error,
        fields=monitors.fields,
    )


def _march(
    even: np.ndarray,
    odd: np.ndarray,
    lam_min: float,
    eigenbasis,
    e1: np.ndarray,
    h: float,
    u0: np.ndarray,
    alpha: float,
    dt: float,
    t_end: float,
    record_fields: bool = False,
) -> tuple[_Monitors, float | None, str | None]:
    """Step D^alpha u + A u + u = u^2 from u0 to t_end or blow-up; return
    the monitors, the time max u crossed ``BLOW_THRESHOLD`` (None without a
    crossing) and the reason a run ended unresolved.

    A is given by its mirror blocks even and odd (``fraclap.mirror_blocks``),
    from which every step of the uniform size is taken through the step
    matrix, and by lam_min, its smallest eigenvalue.  eigenbasis() returns
    (lam, V), A = V diag(lam) V^T with lam ascending; the loop calls it
    once, at its first step of another size.

    The uniform mesh is the one ``L1History(u0, alpha, dt, t_end)`` forms,
    which ends at t_end for any dt.  Records E, H and the field bounds every
    output stride (at most ~2000 entries) of that mesh.  Once max u exceeds
    10*(1 + lam_min), or from the start when max u0 already does, the loop
    steps adaptively: every committed step is recorded, the L1 memory
    weights are evaluated from the actual step times, and a step is rejected
    and the step size halved whenever the relative growth of max u exceeds
    1/2.  The adaptive regime ends the run unresolved after
    ``_MAX_ADAPTIVE_STEPS`` committed steps or once its step falls below
    ``DT_FLOOR_REL * max(t_last, dt)``, t_last the last committed time: a
    floor relative to the time reached, not to t_end, and one that stays
    positive for a run adaptive from t = 0.
    """
    history = L1History(u0, alpha, dt, t_end)
    n_steps, dt = history.n_steps, history.dt
    step, append, scale = history.step, history.append, history.scale
    cur_dt = dt
    t_stop = t_end - 1e-12 * t_end
    stride = max(1, n_steps // 2000)
    step_matrix = _step_matrix(even, odd, scale)
    basis = None  # (lam, V), from the first step of another size on

    u_max = float(u0.max())
    monitors = _Monitors(h, e1, record_fields)
    monitors.record(0.0, u0)
    adaptive_trigger = 10.0 * (1.0 + float(lam_min))  # a float: np.float64 slows each step
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
            if w == scale:
                u_new, norm2 = _matrix_step(step_matrix, rhs)
            else:
                if basis is None:
                    basis = eigenbasis()
                u_new, norm2 = _implicit_step(*basis, w, rhs)
            if adaptive or not norm2 < bound_norm2:
                max_new = float(u_new.max())
            else:
                max_new = math.sqrt(norm2)
            if adaptive and max_new - u_max > 0.5 * max(u_max, 1.0):
                cur_dt *= 0.5
                floor = DT_FLOOR_REL * max(history.t_last, dt)
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
    rung, no settled limit after ``_MAX_REFINEMENTS`` halvings, and a rung
    whose mesh ``caputo.uniform_mesh`` rejects (past the step budget once dt
    has halved) are 'inconclusive'.
    """
    estimates = []
    for _ in range(_MAX_REFINEMENTS + 1):
        try:
            uniform_mesh(dt, t_end)
        except DomainError:
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
    """Least-squares slope of log(values) against log(times) on the window.

    The window (t_lo, t_hi) must span a decade and lie between the first
    and the last positive recorded time, so a trace that starts at t = 0
    still needs a record at or before t_lo; DomainError otherwise, and for
    a value <= 0 in the window.  Fewer than 8 points in the window raise
    ConvergenceError.
    """
    t_lo, t_hi = window
    if not (t_lo > 0 and t_hi >= 10.0 * t_lo):
        raise DomainError(f"window must satisfy 0 < t_lo and t_hi >= 10*t_lo, got {window}")
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    positive = times[times > 0]
    if not (positive.size and positive.min() <= t_lo and t_hi <= positive.max() + 1e-12 * t_hi):
        raise DomainError(f"window {window} must lie inside the positive recorded times")
    mask = (times >= t_lo) & (times <= t_hi)
    if np.count_nonzero(mask) < 8:
        raise ConvergenceError(
            f"degenerate fit: only {np.count_nonzero(mask)} points in window {window}"
        )
    if np.any(values[mask] <= 0):
        raise DomainError("trace must be positive on the fit window")
    slope, _ = np.polyfit(np.log(times[mask]), np.log(values[mask]), 1)
    return float(slope)
