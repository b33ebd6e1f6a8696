"""L1 discretization of the Caputo derivative and scalar fractional ODEs.

The uniform-mesh L1 scheme writes the Caputo derivative of order alpha at
t_n = n*dt as

    D^alpha y(t_n) ~ scale * sum_{j=0}^{n-1} b_j (y^(n-j) - y^(n-j-1)),
    b_j = (j+1)^(1-alpha) - j^(1-alpha),   scale = dt^(-alpha)/Gamma(2-alpha),

which reduces to backward Euler at alpha = 1.  Two comparison equations are
solved with it: the linear decay equation D^alpha y = -rate*y (implicit) and
the quadratic growth equation D^alpha y = y*(y+1) (linear part implicit,
square explicit) whose solutions reach infinity in finite time for y0 > 0.

The blow-up solvers refine their own step as the solution grows; the memory
sum then lives on a piecewise-uniform mesh, so it evaluates the L1 weights
from the actual step times,

    w_m = ((t_n - t_{m-1})^(1-alpha) - (t_n - t_m)^(1-alpha))
          / (Gamma(2-alpha) * (t_m - t_{m-1})),

which coincides with scale * b_j whenever the mesh is uniform.  Both forms
are differences of two nearby powers; ``_power_step`` evaluates them as
d^(1-alpha) * expm1((1-alpha) * log1p(tau/d)), which keeps every weight
accurate to a few ulps however old its interval is.

History.  One class, ``L1History``, owns the committed history of every L1
run here and in ``solver``, and ``L1History.memory(t_new)`` is the only
memory sum.  It does not keep the increments of a uniform mesh.  On
x in [1, N], in units of the uniform step dt, the kernel x^(-alpha) is a sum
of Q decaying exponentials (sum-of-exponentials, SOE; Jiang, Zhang, Zhang &
Zhang, Commun. Comput. Phys. 21 (2017) 650): a Gauss-Jacobi rule on
s in [0, 1/N] plus Gauss-Legendre panels in log s up to s = 30, about
8*log(30N) + 6 modes, within 3e-13 of the kernel for every alpha.  The
uniform intervals then sit in Q state vectors, each one the increments
weighted by exp(-s_q * age), and an interval at least one uniform step old
weighs scale * c_q * exp(-s_q * age) with c_q = (1-alpha) w_q (1-exp(-s_q))/s_q.
The newest intervals stay exact, with step-time weights, and enter the state
in blocks of ``_FOLD`` by one matrix product (a fold).  The state changes only
at a fold, so the fold also forms, by one more matrix product, its share of
the memory sum of each of the next ``_FOLD`` + 1 uniform steps.  A uniform
step then costs one matrix-vector product over at most ``_FOLD`` exact
intervals and one addition, whatever its index.  The first
interval off the uniform mesh (an adaptive halving, a short last step)
freezes the state; from then on every interval stays exact, and the frozen
state only decays with the time since the freeze.  Alpha = 1 keeps no
memory at all.

A run counts as blown up once its value reaches ``BLOW_THRESHOLD``, and ends
unresolved once its adaptive step falls below ``DT_FLOOR_REL * t_end``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ConvergenceError, DomainError

BLOW_THRESHOLD = 1e8  # a run has blown up once its value (max u for a field) reaches this
DT_FLOOR_REL = 1e-14  # an adaptive step below DT_FLOOR_REL * t_end ends the run unresolved
_MAX_LOGISTIC_STEPS = 500_000  # committed steps of one solve_logistic_fode call

# Sum-of-exponentials kernel (see the module docstring).
_SOE_JACOBI = 6  # Gauss-Jacobi nodes on s in [0, 1/N]
_SOE_PANEL = 8  # Gauss-Legendre nodes per panel of width 1 in log s
_SOE_S_MAX = 30.0  # panels end past s = 30: exp(-30) ~ 1e-13 one step after entry
_FOLD = 32  # uniform intervals that enter the SOE state at once
_UNIFORM_RTOL = 1e-9  # a step within this relative distance of dt is a uniform step


@dataclass(frozen=True)
class L1Weights:
    """Uniform-mesh L1 convolution weights.

    b[0] = 1 for every alpha; b is strictly decreasing and positive for
    alpha in (0,1) and degenerates to [1, 0, 0, ...] at alpha = 1.
    """

    alpha: float
    dt: float
    b: np.ndarray
    scale: float


@dataclass(frozen=True)
class ScalarTrace:
    """Time series of a scalar quantity on a strictly increasing time axis."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if len(self.times) != len(self.values):
            raise DomainError("times and values must have equal length")
        if len(self.times) == 0 or self.times[0] != 0.0 or np.any(np.diff(self.times) <= 0):
            raise DomainError("times must increase strictly from 0")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("trace values must be finite")


def _power_step(d, tau, alpha: float):
    """(d + tau)^(1-alpha) - d^(1-alpha) for d > 0, without cancellation."""
    return d ** (1.0 - alpha) * np.expm1((1.0 - alpha) * np.log1p(tau / d))


def l1_weights(alpha: float, dt: float, n_steps: int) -> L1Weights:
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must be in (0, 1], got {alpha}")
    if not dt > 0.0:
        raise DomainError(f"dt must be positive, got {dt}")
    if n_steps < 1:
        raise DomainError(f"n_steps must be >= 1, got {n_steps}")
    b = np.empty(n_steps)
    b[0] = 1.0
    b[1:] = _power_step(np.arange(1.0, n_steps), 1.0, alpha)
    scale = dt ** (-alpha) / math.gamma(2.0 - alpha)
    return L1Weights(alpha=alpha, dt=dt, b=b, scale=scale)


def _nonuniform_history_weights(alpha: float, times: np.ndarray, t_new: float) -> np.ndarray:
    """L1 weights of the intervals between ``times``, seen from t_new > times[-1]."""
    tau = np.diff(times)
    return _power_step(t_new - times[1:], tau, alpha) / (math.gamma(2.0 - alpha) * tau)


def _gauss_jacobi(m: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the m-point Gauss rule for (1+y)^beta on [-1, 1].

    Golub-Welsch on the three-term recurrence of the Jacobi polynomials
    P^(0, beta), beta > -1 and beta != 0.
    """
    k = np.arange(1.0, m)
    two_k = 2.0 * k + beta
    diag = np.empty(m)
    diag[0] = beta / (beta + 2.0)
    diag[1:] = beta * beta / (two_k * (two_k + 2.0))
    off = 4.0 * k * k * (k + beta) ** 2 / (two_k**2 * (two_k + 1.0) * (two_k - 1.0))
    nodes, vectors = eigh_tridiagonal(diag, np.sqrt(off))
    mass = 2.0 ** (beta + 1.0) / (beta + 1.0)  # integral of (1+y)^beta over [-1, 1]
    return nodes, mass * vectors[0] ** 2


@functools.lru_cache(maxsize=16)
def _soe_modes(alpha: float, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Rates s_q and weights c_q with b_j ~ sum_q c_q exp(-s_q j) for 1 <= j < n_steps.

    From x^(-alpha) = int_0^inf s^(alpha-1) exp(-s x) ds / Gamma(alpha) on
    x in [1, n_steps]: Gauss-Jacobi on [0, 1/n_steps], where s*x <= 1, then
    Gauss-Legendre panels of width 1 in log s up to ``_SOE_S_MAX``.  Each
    kernel weight w_q becomes the L1 weight of a unit interval,
    c_q = (1-alpha) w_q (1 - exp(-s_q)) / s_q.  alpha must lie in (0, 1).
    """
    if not alpha - 1.0 > -1.0:  # the Jacobi weight (1+y)^(alpha-1) is not integrable
        raise DomainError(f"alpha = {alpha:g} is too small for the SOE history: "
                          "1 - alpha rounds to 1")
    y, omega = _gauss_jacobi(_SOE_JACOBI, alpha - 1.0)
    s_jac = (1.0 + y) / (2.0 * n_steps)
    w_jac = omega * (2.0 * n_steps) ** (-alpha)
    lo = -math.log(n_steps)
    panels = math.ceil(math.log(_SOE_S_MAX) - lo)
    y, omega = np.polynomial.legendre.leggauss(_SOE_PANEL)
    log_s = (lo + np.arange(panels)[:, None] + 0.5 * (1.0 + y)).ravel()
    s_leg = np.exp(log_s)
    w_leg = np.tile(0.5 * omega, panels) * np.exp(alpha * log_s)
    s = np.concatenate([s_jac, s_leg])
    c = (1.0 - alpha) / math.gamma(alpha) * np.concatenate([w_jac, w_leg]) * (-np.expm1(-s)) / s
    s.flags.writeable = False
    c.flags.writeable = False
    return s, c


def _is_uniform(step: float, dt: float) -> bool:
    """Whether an interval of length ``step`` counts as a uniform step of ``dt``
    (``L1History`` makes the same test inline)."""
    return abs(step - dt) <= _UNIFORM_RTOL * dt


def _grown(buf: np.ndarray) -> np.ndarray:
    """``buf`` copied into a zero array with twice as many rows."""
    out = np.zeros((2 * buf.shape[0],) + buf.shape[1:])
    out[: buf.shape[0]] = buf
    return out


class L1History:
    """The committed history y^0 ... y^(n-1) of one L1 run of order alpha.

    ``dt`` is the uniform step and ``n_steps * dt`` the horizon: the memory
    sum is defined for t_last < t_new <= n_steps * dt.  The last value is
    kept as is (a float or a field); the increments are kept as Q SOE state
    vectors plus the exact increments of the newest intervals, ``_rows`` in
    that order, with the times of the exact intervals' ends in
    ``_tail_times`` (see the module docstring).
    """

    def __init__(self, y0, alpha: float, dt: float, n_steps: int):
        weights = l1_weights(alpha, dt, _FOLD + 1)
        if n_steps < 1:
            raise DomainError(f"n_steps must be >= 1, got {n_steps}")
        self.alpha, self.dt, self.scale = alpha, dt, weights.scale
        self.last = y0
        self.count = 1
        self.t_last = 0.0
        self._t_max = n_steps * dt * (1.0 + 1e-12)
        self._uniform_tol = _UNIFORM_RTOL * dt
        self._frozen = False
        if alpha == 1.0:  # memoryless: b_j = 0 for j >= 1
            return
        s, c = _soe_modes(alpha, n_steps)
        q = self._q = len(s)
        self._rates = s
        self._soe_weights = weights.scale * c
        self._rows = np.zeros((q + _FOLD + 1,) + np.shape(y0))
        self._field = np.ndim(y0) > 0
        self._tail_times = np.zeros(_FOLD + 2)  # _tail_times[0]: the state's reference time
        self._tail = 0
        # Entry k: weights of a uniform step with k exact intervals, the state k + 1 steps old.
        self._state_weights = self._soe_weights * np.exp(-np.arange(1.0, _FOLD + 2)[:, None] * s)
        self._tail_weights = [weights.scale * weights.b[k:0:-1] for k in range(_FOLD + 1)]
        # The state changes only at a fold, so its share of the next uniform
        # steps' memory sums is formed there, in one matrix product.
        self._state_part = np.zeros((_FOLD + 1,) + np.shape(y0))
        # one factor per state entry: a multiply broadcast along rows is twice as slow
        self._fold_decay = np.multiply.outer(np.exp(-_FOLD * s), np.ones(np.shape(y0)))
        self._fold_mix = np.exp(-np.outer(s, np.arange(_FOLD - 1.0, -1.0, -1.0)))

    def __len__(self):
        return self.count

    def append(self, value, t: float) -> None:
        step = t - self.t_last
        last = self.last
        self.last, self.count, self.t_last = value, self.count + 1, t
        if self.alpha == 1.0:
            return
        q, k = self._q, self._tail
        # the arrays fill up only once frozen; until then the tail folds at _FOLD + 1
        if self._frozen or abs(step - self.dt) > self._uniform_tol:
            self._frozen = True
            if q + k == len(self._rows):
                self._rows = _grown(self._rows)
            if k + 1 == len(self._tail_times):
                self._tail_times = _grown(self._tail_times)
        if self._field:
            np.subtract(value, last, out=self._rows[q + k])  # no temporary increment
        else:
            self._rows[q + k] = value - last
        self._tail_times[k + 1] = t
        self._tail = k + 1
        if k >= _FOLD and not self._frozen:
            self._fold()

    def _fold(self) -> None:
        """Move the _FOLD oldest exact intervals into the SOE state."""
        q, rows = self._q, self._rows
        state = rows[:q]
        state *= self._fold_decay
        state += self._fold_mix @ rows[q : q + _FOLD]
        np.matmul(self._state_weights, state, out=self._state_part)
        rows[q] = rows[q + _FOLD]
        self._tail_times[:2] = self._tail_times[_FOLD : _FOLD + 2]
        self._tail = 1

    def memory(self, t_new: float):
        """History part of the L1 sum at t_new: each committed interval's
        step-time weight times its increment, scale included."""
        t_last = self.t_last
        if not t_last < t_new <= self._t_max:
            raise DomainError(
                f"memory at t={t_new!r} is outside ({t_last!r}, {self._t_max!r}]"
            )
        if self.alpha == 1.0:
            return np.zeros(np.shape(self.last))
        q, k = self._q, self._tail
        if not self._frozen and abs(t_new - t_last - self.dt) <= self._uniform_tol:
            total = self._tail_weights[k] @ self._rows[q : q + k]
            total += self._state_part[k]
            return total
        times = self._tail_times[: k + 1]
        weights = np.empty(q + k)
        np.exp(self._rates * ((times[0] - t_new) / self.dt), out=weights[:q])
        weights[:q] *= self._soe_weights
        weights[q:] = _nonuniform_history_weights(self.alpha, times, t_new)
        return weights @ self._rows[: q + k]


def solve_linear_fode(
    alpha: float, rate: float, y0: float, dt: float, t_end: float
) -> ScalarTrace:
    """Implicit L1 solution of D^alpha y = -rate*y on [0, t_end].

    The mesh is uniform; when dt does not divide t_end evenly, the step is
    adjusted to the nearest value that does, so the trace always ends exactly
    at t_end.
    """
    if not rate >= 0:
        raise DomainError(f"rate must be >= 0, got rate={rate}")
    if not 0 < dt <= t_end:
        raise DomainError(f"need 0 < dt <= t_end, got dt={dt}, t_end={t_end}")
    n_steps = max(1, int(round(t_end / dt)))
    dt = t_end / n_steps
    y = np.empty(n_steps + 1)
    y[0] = y0
    history = L1History(y[0], alpha, dt, n_steps)
    scale = history.scale
    coef = scale + rate  # b0 = 1
    for n in range(1, n_steps + 1):
        y[n] = (scale * y[n - 1] - history.memory(n * dt)) / coef
        history.append(y[n], n * dt)
    times = dt * np.arange(n_steps + 1)
    return ScalarTrace(times=times, values=y)


def solve_logistic_fode(
    alpha: float,
    y0: float,
    dt: float,
    t_end: float,
) -> tuple[ScalarTrace, float | None]:
    """Semi-implicit L1 solution of D^alpha y = y*(y+1) with blow-up capture.

    The linear +y term is implicit, the square explicit from the previous
    value, so each step is one scalar division.  A step is rejected and the
    step size halved when the implicit coefficient closes, the relative
    increment exceeds 1/2, or monotonicity would break; near blow-up this
    resolves the threshold crossing to a fraction of the local growth time.

    Returns the computed trace and the first time y >= BLOW_THRESHOLD, or
    None when t_end is reached first.  Raises ConvergenceError when the step
    falls below ``DT_FLOOR_REL * t_end`` before either.
    """
    if y0 < 0:
        raise DomainError(f"y0 must be >= 0, got {y0}")
    if y0 >= BLOW_THRESHOLD:
        raise DomainError(f"y0 must be below the blow-up threshold {BLOW_THRESHOLD:g}, got {y0}")
    if not 0 < dt <= t_end:
        raise DomainError(f"need 0 < dt <= t_end, got dt={dt}, t_end={t_end}")
    floor = DT_FLOOR_REL * t_end
    g2 = math.gamma(2.0 - alpha)

    history = L1History(y0, alpha, dt, math.ceil(t_end / dt))
    times, values = [0.0], [y0]
    t_last, y_last = 0.0, y0
    cur_dt = dt
    blow_time = None
    eps_end = 1e-12 * t_end
    while t_last < t_end - eps_end:
        if len(history) > _MAX_LOGISTIC_STEPS:
            raise ConvergenceError("step budget exhausted before t_end or blow-up")
        t_new = min(t_last + cur_dt, t_end)
        step = t_new - t_last
        w_new = step ** (-alpha) / g2
        coef = w_new - 1.0
        if coef <= 0:
            cur_dt *= 0.5
            _check_floor(cur_dt, floor)
            continue
        hist = float(history.memory(t_new))
        y_new = (w_new * y_last - hist + y_last * y_last) / coef
        increment_ok = (y_new - y_last) <= 0.5 * max(y_last, 1e-12)
        if y_new < y_last or not increment_ok:
            cur_dt *= 0.5
            _check_floor(cur_dt, floor)
            continue
        history.append(y_new, t_new)
        times.append(t_new)
        values.append(y_new)
        t_last, y_last = t_new, y_new
        if y_new >= BLOW_THRESHOLD:
            blow_time = t_new
            break
    trace = ScalarTrace(times=np.array(times), values=np.array(values, dtype=float))
    return trace, blow_time


def _check_floor(cur_dt: float, floor: float) -> None:
    if cur_dt < floor:
        raise ConvergenceError(
            f"step size collapsed below floor {floor:g} without crossing the threshold"
        )
