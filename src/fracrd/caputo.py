"""L1 discretization of the Caputo derivative and scalar fractional ODEs.

The uniform-mesh L1 scheme writes the Caputo derivative of order alpha at
t_n = n*dt as

    D^alpha y(t_n) ~ scale * sum_{j=0}^{n-1} b_j (y^(n-j) - y^(n-j-1)),
    b_j = (j+1)^(1-alpha) - j^(1-alpha),   scale = dt^(-alpha)/Gamma(2-alpha),

which reduces to backward Euler at alpha = 1.  Two comparison equations are
solved with it: the linear decay equation D^alpha y = -rate*y (implicit) and
the quadratic growth equation D^alpha y = y*(y+1) (linear part implicit,
square explicit) whose solutions reach infinity in finite time for y0 > 0.

The blow-up solver refines its own step as the solution grows; its memory sum
then lives on a piecewise-uniform mesh, so it evaluates the L1 weights from
the actual step times,

    w_m = ((t_n - t_{m-1})^(1-alpha) - (t_n - t_m)^(1-alpha))
          / (Gamma(2-alpha) * (t_m - t_{m-1})),

which coincides with the b_j form whenever the mesh is uniform.

Layout.  One class, ``L1History``, owns the committed history of every L1
run here and in ``solver``: the last value (a float or a field), the
increments y^m - y^(m-1) and the step times, the latter two in arrays that
double when full, so a step does no O(n) list-to-array conversion.  The
uniform history sum multiplies the coefficients b_{n-1}, ..., b_1 into the
increments.  Read straight from b they form a reversed, negative-stride view,
which numpy does not pass to BLAS: the product then runs in numpy's generic
loop, some 15x slower over 4000 steps of 128 unknowns.  The weights therefore
also carry ``b_rev``, a contiguous reversed copy of b, from which the same
coefficients are the forward slice b_rev[N-n : N-1] and the sum is a single
BLAS matrix-vector product.  ``L1History.memory`` forms the step-time
weights w_m instead, for meshes that are not uniform.

A run counts as blown up once its value reaches ``BLOW_THRESHOLD``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError, StepFailureError

BLOW_THRESHOLD = 1e8  # a run has blown up once its value (max u for a field) reaches this
_MAX_LOGISTIC_STEPS = 500_000  # committed steps of one solve_logistic_fode call


@dataclass(frozen=True)
class L1Weights:
    """Uniform-mesh L1 convolution weights.

    b[0] = 1 for every alpha; b is strictly decreasing and positive for
    alpha in (0,1) and degenerates to [1, 0, 0, ...] at alpha = 1.
    ``b_rev`` is a read-only contiguous copy of b reversed, derived from b.
    """

    alpha: float
    dt: float
    b: np.ndarray
    scale: float
    b_rev: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b_rev = self.b[::-1].copy()  # contiguous: b[n-1:0:-1] == b_rev[N-n:N-1]
        b_rev.flags.writeable = False
        object.__setattr__(self, "b_rev", b_rev)


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


def l1_weights(alpha: float, dt: float, n_steps: int) -> L1Weights:
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must be in (0, 1], got {alpha}")
    if not dt > 0.0:
        raise DomainError(f"dt must be positive, got {dt}")
    if n_steps < 1:
        raise DomainError(f"n_steps must be >= 1, got {n_steps}")
    powers = np.arange(n_steps + 1, dtype=float) ** (1.0 - alpha)
    powers[0] = 0.0  # 0^(1-alpha), continued to 0 at alpha = 1
    b = np.diff(powers)
    scale = dt ** (-alpha) / math.gamma(2.0 - alpha)
    return L1Weights(alpha=alpha, dt=dt, b=b, scale=scale)


def caputo_convolution(weights: L1Weights, diffs: np.ndarray, n: int):
    """History part sum_{j=1}^{n-1} b_j * diffs[n-j] at step n.

    ``diffs[m]`` must hold y^m - y^(m-1) (entry 0 unused); works for scalar
    diffs of shape (n_max+1,) and field diffs of shape (n_max+1, nx).
    Raises DomainError when n exceeds the number of weights.
    """
    n_weights = len(weights.b)
    if n > n_weights:
        raise DomainError(f"step index {n} exceeds the {n_weights} L1 weights")
    if n <= 1 or weights.alpha == 1.0:  # memoryless at alpha = 1: b_j = 0 for j >= 1
        return 0.0 if diffs.ndim == 1 else np.zeros(diffs.shape[1])
    return weights.b_rev[n_weights - n : n_weights - 1] @ diffs[1:n]


def solve_linear_fode(
    alpha: float, rate: float, y0: float, dt: float, t_end: float
) -> ScalarTrace:
    """Implicit L1 solution of D^alpha y = -rate*y on [0, t_end].

    The mesh is uniform; when dt does not divide t_end evenly, the step is
    adjusted to the nearest value that does, so the trace always ends exactly
    at t_end.
    """
    if rate < 0:
        raise DomainError(f"rate must be >= 0, got {rate}")
    if not 0 < dt <= t_end:
        raise DomainError(f"need 0 < dt <= t_end, got dt={dt}, t_end={t_end}")
    n_steps = max(1, int(round(t_end / dt)))
    dt = t_end / n_steps
    w = l1_weights(alpha, dt, n_steps)
    y = np.empty(n_steps + 1)
    y[0] = y0
    history = L1History(y[0])
    coef = w.scale + rate  # b0 = 1
    if coef <= 0:
        raise StepFailureError("non-positive implicit coefficient")
    for n in range(1, n_steps + 1):
        hist = caputo_convolution(w, history.increments, n)
        y[n] = w.scale * (y[n - 1] - hist) / coef
        history.append(y[n], n * dt)
    times = dt * np.arange(n_steps + 1)
    return ScalarTrace(times=times, values=y)


def _nonuniform_history_weights(alpha: float, times: np.ndarray, t_new: float) -> np.ndarray:
    """L1 weights of the committed intervals, seen from t_new (exclusive)."""
    g2 = math.gamma(2.0 - alpha)
    powers = (t_new - times) ** (1.0 - alpha)
    return (powers[:-1] - powers[1:]) / (g2 * (times[1:] - times[:-1]))


def _grown(buf: np.ndarray) -> np.ndarray:
    """``buf`` copied into a zero array with twice as many rows."""
    out = np.zeros((2 * buf.shape[0],) + buf.shape[1:])
    out[: buf.shape[0]] = buf
    return out


class L1History:
    """Committed values y^0 ... y^(n-1) of one L1 run, as increments, with their times.

    Only the last value is kept; it is a float or a field.  The increments
    and the step times live in arrays that double when full, so each memory
    sum is one matrix-vector product: ``caputo_convolution`` over
    ``increments`` while the mesh is uniform, ``memory`` once it is not.
    """

    def __init__(self, y0):
        self.last = y0
        self.count = 1
        self._incs = np.zeros((16,) + np.shape(y0))
        self._times = np.zeros(16)

    def __len__(self):
        return self.count

    @property
    def increments(self) -> np.ndarray:
        """View whose row m holds y^m - y^(m-1); row 0 is zero."""
        return self._incs[: self.count]

    @property
    def times(self) -> np.ndarray:
        """View of the step times t_0 = 0, ..., t_(n-1)."""
        return self._times[: self.count]

    def append(self, value, t: float) -> None:
        n = self.count
        if n == len(self._times):
            self._incs, self._times = _grown(self._incs), _grown(self._times)
        self._incs[n] = value - self.last
        self._times[n] = t
        self.last = value
        self.count = n + 1

    def memory(self, alpha: float, t_new: float):
        """History part of the L1 sum at t_new, weighted by the actual step times."""
        n = self.count
        return _nonuniform_history_weights(alpha, self._times[:n], t_new) @ self._incs[1:n]


def solve_logistic_fode(
    alpha: float,
    y0: float,
    dt: float,
    t_end: float,
    dt_floor: float | None = None,
) -> tuple[ScalarTrace, float | None]:
    """Semi-implicit L1 solution of D^alpha y = y*(y+1) with blow-up capture.

    The linear +y term is implicit, the square explicit from the previous
    value, so each step is one scalar division.  A step is rejected and the
    step size halved when the implicit coefficient closes, the relative
    increment exceeds 1/2, or monotonicity would break; near blow-up this
    resolves the threshold crossing to a fraction of the local growth time.

    Returns the computed trace and the first time y >= BLOW_THRESHOLD, or
    None when t_end is reached first.
    """
    if y0 < 0:
        raise DomainError(f"y0 must be >= 0, got {y0}")
    if y0 >= BLOW_THRESHOLD:
        raise DomainError(f"y0 must be below the blow-up threshold {BLOW_THRESHOLD:g}, got {y0}")
    if not 0 < dt <= t_end:
        raise DomainError(f"need 0 < dt <= t_end, got dt={dt}, t_end={t_end}")
    if dt_floor is None:
        dt_floor = 1e-14 * t_end
    g2 = math.gamma(2.0 - alpha)

    history = L1History(y0)
    values = [y0]
    # t_last stays a Python float, never read back from history.times, so the
    # step's power is libm's: numpy's ** can differ from it in the last bit.
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
            _check_floor(cur_dt, dt_floor)
            continue
        hist = float(history.memory(alpha, t_new))
        y_new = (w_new * y_last - hist + y_last * y_last) / coef
        increment_ok = (y_new - y_last) <= 0.5 * max(y_last, 1e-12)
        if y_new < y_last or not increment_ok:
            cur_dt *= 0.5
            _check_floor(cur_dt, dt_floor)
            continue
        history.append(y_new, t_new)
        values.append(y_new)
        t_last, y_last = t_new, y_new
        if y_new >= BLOW_THRESHOLD:
            blow_time = t_new
            break
    trace = ScalarTrace(times=history.times.copy(), values=np.array(values, dtype=float))
    return trace, blow_time


def _check_floor(cur_dt: float, dt_floor: float) -> None:
    if cur_dt < dt_floor:
        raise ConvergenceError(
            f"step size collapsed below floor {dt_floor:g} without crossing the threshold"
        )
