"""L1 discretization of the Caputo derivative and scalar fractional ODEs.

The uniform-mesh L1 scheme writes the Caputo derivative of order alpha at
t_n = n*dt as

    D^alpha y(t_n) ~ scale * sum_{j=0}^{n-1} b_j (y^(n-j) - y^(n-j-1)),
    b_j = (j+1)^(1-alpha) - j^(1-alpha),   scale = dt^(-alpha)/Gamma(2-alpha),

which reduces to backward Euler at alpha = 1.  The linear decay equation
D^alpha y = -rate*y is solved with it here (implicit).  The quadratic growth
equation D^alpha y = y*(y+1), whose solutions reach infinity in finite time
for y0 > 0, is the PDE step of ``solver`` with one mode of eigenvalue -2 and
runs through that stepping loop.

That loop refines its step as the solution grows towards blow-up; the memory
sum then lives on a piecewise-uniform mesh, so it evaluates the L1 weights
from the actual step times,

    w_m = ((t_n - t_{m-1})^(1-alpha) - (t_n - t_m)^(1-alpha))
          / (Gamma(2-alpha) * (t_m - t_{m-1})),

which coincides with scale * b_j whenever the mesh is uniform.  Both forms
are differences of two nearby powers; ``_power_step`` evaluates them as
d^(1-alpha) * expm1((1-alpha) * log1p(tau/d)), which keeps every weight
accurate to a few ulps however old its interval is.

History.  One class, ``L1History``, owns the committed history of every L1
run here and in ``solver``, and its mesh.  ``uniform_mesh(dt, t_end)`` is
the one mesh rule: it needs 0 < dt <= t_end < inf and takes
round(t_end/dt) uniform steps of t_end/round(t_end/dt), so the mesh ends at
t_end for any dt, and at most ``_MAX_STEPS`` of them.  ``L1History``,
``solver.SimConfig`` and the dt ladder of ``solver`` all ask it, so a
scalar run has the step budget of a PDE run.  ``L1History.step(t_new)`` is
the only place that weighs an interval: it returns the weight w of the new
interval (t_last, t_new] and the memory sum, so the derivative at t_new is
w * (y_new - y_last) + memory, and keeps its test of whether the interval
is uniform pending; ``append(value)`` commits y_new on that interval.  A
step within ``_UNIFORM_RTOL`` of dt, or within 2 ulp of t_new (the rounding
of k*dt), while the state is not frozen is a uniform step, w = scale; any
other step has w = tau^(-alpha)/Gamma(2-alpha).  A step is defined for
t_last < t_new <= t_end, and ``append`` with no step pending raises.

The history does not keep the increments of a uniform mesh.  On
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
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import DomainError

# Sum-of-exponentials kernel (see the module docstring).
_SOE_JACOBI = 6  # Gauss-Jacobi nodes on s in [0, 1/N]
_SOE_PANEL = 8  # Gauss-Legendre nodes per panel of width 1 in log s
_SOE_S_MAX = 30.0  # panels end past s = 30: exp(-30) ~ 1e-13 one step after entry
_FOLD = 32  # uniform intervals that enter the SOE state at once
_UNIFORM_RTOL = 1e-9  # a step within this relative distance of dt is a uniform step
_MAX_STEPS = 10_000_000  # uniform_mesh: uniform steps of one run, ~3 minutes at n = 128


def _power_step(d, tau, alpha: float):
    """(d + tau)^(1-alpha) - d^(1-alpha) for d > 0, without cancellation."""
    return d ** (1.0 - alpha) * np.expm1((1.0 - alpha) * np.log1p(tau / d))


def l1_weights(alpha: float, n_steps: int) -> np.ndarray:
    """The uniform-mesh L1 weights b_0 ... b_(n_steps-1).

    b[0] = 1 for every alpha; b is strictly decreasing and positive for
    alpha in (0,1) and degenerates to [1, 0, 0, ...] at alpha = 1.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must be in (0, 1], got {alpha}")
    if n_steps < 1:
        raise DomainError(f"n_steps must be >= 1, got {n_steps}")
    b = np.empty(n_steps)
    b[0] = 1.0
    b[1:] = _power_step(np.arange(1.0, n_steps), 1.0, alpha)
    return b


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


def uniform_mesh(dt: float, t_end: float) -> tuple[int, float]:
    """(n_steps, dt) of the uniform mesh of [0, t_end] for a requested dt:
    round(t_end / dt) steps of t_end / n_steps, so it ends at t_end.

    Raises DomainError unless 0 < dt <= t_end < inf, and when the mesh has
    more than ``_MAX_STEPS`` steps (an overflowing t_end / dt included).
    """
    if not 0.0 < dt <= t_end < math.inf:
        raise DomainError(f"need 0 < dt <= t_end < inf, got dt={dt}, t_end={t_end}")
    ratio = t_end / dt
    n_steps = round(ratio) if ratio < _MAX_STEPS + 1 else _MAX_STEPS + 1  # ratio may be inf
    if n_steps > _MAX_STEPS:
        raise DomainError(f"t_end / dt = {ratio:.10g} steps exceeds the limit of "
                          f"{_MAX_STEPS:.0e} uniform steps per run")
    return n_steps, t_end / n_steps


def _grown(buf: np.ndarray) -> np.ndarray:
    """``buf`` copied into a zero array with twice as many rows."""
    out = np.zeros((2 * buf.shape[0],) + buf.shape[1:])
    out[: buf.shape[0]] = buf
    return out


class L1History:
    """The committed history y^0 ... y^(n-1) of one L1 run of order alpha
    on [0, t_end].

    The uniform mesh, ``n_steps`` steps of ``dt``, is the one
    ``uniform_mesh(dt, t_end)`` forms, and its DomainError is the
    history's; a step is defined for t_last < t_new <= t_end.  The last
    value is kept as is (a float or a field); the increments are kept as Q
    SOE state vectors plus the exact increments of the newest intervals,
    ``_rows`` in that order, with the times of the exact intervals' ends in
    ``_tail_times`` (see the module docstring).
    """

    def __init__(self, y0, alpha: float, dt: float, t_end: float):
        b = l1_weights(alpha, _FOLD + 1)
        self.n_steps, self.dt = uniform_mesh(dt, t_end)
        self.alpha = alpha
        self._gamma2 = math.gamma(2.0 - alpha)
        self.scale = self.dt ** (-alpha) / self._gamma2
        self.last = y0
        self.t_last = 0.0
        self._t_max = t_end * (1.0 + 1e-12)
        self._uniform_tol = _UNIFORM_RTOL * self.dt
        self._frozen = False
        self._pending = None  # (t_new, uniform) of the last step, until append commits it
        if alpha == 1.0:  # memoryless: b_j = 0 for j >= 1
            self._zeros = np.broadcast_to(0.0, np.shape(y0))  # read-only
            return
        s, c = _soe_modes(alpha, self.n_steps)
        q = self._q = len(s)
        self._rates = s
        self._soe_weights = self.scale * c
        self._rows = np.zeros((q + _FOLD + 1,) + np.shape(y0))
        self._field = np.ndim(y0) > 0
        self._tail_times = np.zeros(_FOLD + 2)  # _tail_times[0]: the state's reference time
        self._tail = 0
        # Entry k: weights of a uniform step with k exact intervals, the state k + 1 steps old.
        self._state_weights = self._soe_weights * np.exp(-np.arange(1.0, _FOLD + 2)[:, None] * s)
        self._tail_weights = [self.scale * b[k:0:-1] for k in range(_FOLD + 1)]
        # The state changes only at a fold, so its share of the next uniform
        # steps' memory sums is formed there, in one matrix product.
        self._state_part = np.zeros((_FOLD + 1,) + np.shape(y0))
        # one factor per state entry: a multiply broadcast along rows is twice as slow
        self._fold_decay = np.multiply.outer(np.exp(-_FOLD * s), np.ones(np.shape(y0)))
        self._fold_mix = np.exp(-np.outer(s, np.arange(_FOLD - 1.0, -1.0, -1.0)))

    def _uniform(self, tau: float, t_new: float) -> bool:
        """Whether tau, the step to t_new, is within ``_UNIFORM_RTOL`` of dt
        or within 2 ulp of t_new, the state not frozen.  From a few million
        steps on, the rounding of t_new = k*dt and t_last, up to ulp(t_new),
        passes the first."""
        off = abs(tau - self.dt)
        return not self._frozen and (off <= self._uniform_tol or off <= 2.0 * math.ulp(t_new))

    def append(self, value) -> None:
        """Commit value as y^n on the interval of the last step."""
        if self._pending is None:
            raise DomainError("append needs a step to commit: call step(t_new) first")
        t, uniform = self._pending
        self._pending = None
        if not uniform:
            self._frozen = True
        last = self.last
        self.last, self.t_last = value, t
        if self.alpha == 1.0:
            return
        q, k = self._q, self._tail
        # the arrays fill up only once frozen; until then the tail folds at _FOLD + 1
        if self._frozen:
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

    def step(self, t_new: float) -> tuple:
        """(w, memory) of the L1 step to t_new: the weight w of the new
        interval and the history part of the sum, each committed interval's
        step-time weight times its increment, scale included.  The memory of
        alpha = 1 is a read-only zero of the value's shape.  The step stays
        pending, for ``append`` to commit, until the next step or append."""
        t_last = self.t_last
        if not t_last < t_new <= self._t_max:
            raise DomainError(f"step to t={t_new!r} is outside ({t_last!r}, {self._t_max!r}]")
        tau = t_new - t_last
        uniform = self._uniform(tau, t_new)
        self._pending = t_new, uniform
        w = self.scale if uniform else tau ** (-self.alpha) / self._gamma2
        if self.alpha == 1.0:
            return w, self._zeros
        q, k = self._q, self._tail
        if uniform:
            total = self._tail_weights[k] @ self._rows[q : q + k]
            total += self._state_part[k]
            return w, total
        times = self._tail_times[: k + 1]
        weights = np.empty(q + k)
        np.exp(self._rates * ((times[0] - t_new) / self.dt), out=weights[:q])
        weights[:q] *= self._soe_weights
        weights[q:] = _nonuniform_history_weights(self.alpha, times, t_new)
        return w, weights @ self._rows[: q + k]


def solve_linear_fode(
    alpha: float, rate: float, y0: float, dt: float, t_end: float
) -> np.ndarray:
    """Implicit L1 solution y^0 ... y^N of D^alpha y = -rate*y on the
    uniform mesh of ``L1History``, which ends at t_end for any dt and has
    at most ``_MAX_STEPS`` steps."""
    if not rate >= 0:
        raise DomainError(f"rate must be >= 0, got rate={rate}")
    if not math.isfinite(y0):
        raise DomainError(f"y0 must be finite, got y0={y0}")
    history = L1History(y0, alpha, dt, t_end)
    n_steps, dt = history.n_steps, history.dt
    y = np.empty(n_steps + 1)
    y[0] = y0
    for n in range(1, n_steps + 1):
        w, memory = history.step(n * dt)
        y[n] = (w * history.last - memory) / (w + rate)
        history.append(y[n])
    return y
