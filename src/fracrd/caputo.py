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

Layout.  The uniform history sum multiplies the coefficients b_{n-1}, ..., b_1
into the stored increments.  Read straight from b they form a reversed,
negative-stride view, which numpy does not pass to BLAS: the product then runs
in numpy's generic loop, some 15x slower over 4000 steps of 128 unknowns.  The
weights therefore also carry ``b_rev``, a contiguous reversed copy of b, from
which the same coefficients are the forward slice b_rev[N-n : N-1] and the sum
is a single BLAS matrix-vector product.  The step-refined solvers keep their
step times and increments in preallocated arrays that double when full, so a
step does no O(n) list-to-array conversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError, StepFailureError


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
    diffs = np.zeros(n_steps + 1)
    y[0] = y0
    coef = w.scale + rate  # b0 = 1
    if coef <= 0:
        raise StepFailureError("non-positive implicit coefficient")
    for n in range(1, n_steps + 1):
        hist = caputo_convolution(w, diffs, n)
        y[n] = w.scale * (y[n - 1] - hist) / coef
        diffs[n] = y[n] - y[n - 1]
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


def solve_logistic_fode(
    alpha: float,
    y0: float,
    dt: float,
    t_end: float,
    blow_threshold: float = 1e8,
    dt_floor: float | None = None,
    max_steps: int = 500_000,
) -> tuple[ScalarTrace, float | None]:
    """Semi-implicit L1 solution of D^alpha y = y*(y+1) with blow-up capture.

    The linear +y term is implicit, the square explicit from the previous
    value, so each step is one scalar division.  A step is rejected and the
    step size halved when the implicit coefficient closes, the relative
    increment exceeds 1/2, or monotonicity would break; near blow-up this
    resolves the threshold crossing to a fraction of the local growth time.

    Returns the computed trace and the first time y >= blow_threshold, or
    None when t_end is reached first.
    """
    if y0 < 0:
        raise DomainError(f"y0 must be >= 0, got {y0}")
    if not 0 < dt <= t_end:
        raise DomainError(f"need 0 < dt <= t_end, got dt={dt}, t_end={t_end}")
    if blow_threshold <= max(y0, 1.0):
        raise DomainError("blow_threshold must exceed y0 and 1")
    if dt_floor is None:
        dt_floor = 1e-14 * t_end
    g2 = math.gamma(2.0 - alpha)

    # Committed step m holds times[m], values[m] and incs[m] = y^m - y^(m-1).
    times = np.zeros(1024)
    values = np.zeros(1024)
    incs = np.zeros(1024)
    values[0] = y0
    count = 1
    t_last, y_last = 0.0, y0
    cur_dt = dt
    blow_time = None
    eps_end = 1e-12 * t_end
    while t_last < t_end - eps_end:
        if count > max_steps:
            raise ConvergenceError("step budget exhausted before t_end or blow-up")
        t_new = min(t_last + cur_dt, t_end)
        step = t_new - t_last
        w_new = step ** (-alpha) / g2
        coef = w_new - 1.0
        if coef <= 0:
            cur_dt *= 0.5
            _check_floor(cur_dt, dt_floor)
            continue
        hist = 0.0
        if count > 1:
            w_hist = _nonuniform_history_weights(alpha, times[:count], t_new)
            hist = float(w_hist @ incs[1:count])
        y_new = (w_new * y_last - hist + y_last * y_last) / coef
        increment_ok = (y_new - y_last) <= 0.5 * max(y_last, 1e-12)
        if y_new < y_last or not increment_ok:
            cur_dt *= 0.5
            _check_floor(cur_dt, dt_floor)
            continue
        if count == len(times):
            times, values, incs = _grown(times), _grown(values), _grown(incs)
        times[count], values[count], incs[count] = t_new, y_new, y_new - y_last
        count += 1
        t_last, y_last = t_new, y_new
        if y_new >= blow_threshold:
            blow_time = t_new
            break
    trace = ScalarTrace(times=times[:count].copy(), values=values[:count].copy())
    return trace, blow_time


def _check_floor(cur_dt: float, dt_floor: float) -> None:
    if cur_dt < dt_floor:
        raise ConvergenceError(
            f"step size collapsed below floor {dt_floor:g} without crossing the threshold"
        )
