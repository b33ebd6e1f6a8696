"""One-parameter Mittag-Leffler evaluation.

``ml_eval(alpha, z)`` is the workhorse: it evaluates
E_alpha(z) = sum_m z^m/Gamma(alpha*m+1) in double precision, for a float z
or an array of them, by switching on the cancellation exponent
nats = x**(1/alpha), x = -z, between two regimes,

* the direct series for nonnegative z and for nats <= ``_F64_MAX_NATS``,
  where the alternating terms cancel mildly (at most e^3 of the sum), and
* a fixed-node Gauss-Legendre quadrature of the completely-monotone
  spectral integral (Gorenflo, Loutchko & Luchko, Fract. Calc. Appl. Anal.
  5 (2002)) for every larger nats, where the series would cancel
  catastrophically; the integrand is positive, so no precision is lost.

Past the seam the quadrature is one rational rule per alpha,
E_alpha(-x) = sin(alpha*pi)/(pi*x) * sum_i m_i / ((g_i/x + cos(alpha*pi))^2
+ sin(alpha*pi)^2), whose 1,620 nodes g and masses m do not depend on x:
they are built once per alpha, and applied to 32 values of x at a time.
Only where a sharp kernel resonance sits on the integration path (alpha
near 1) does the quadrature grade its panels per point.  An array call
evaluates each element exactly as a float call would, bit for bit.
``ml_eval`` takes alpha and z as plain values and makes every check of its
arguments itself.

Measured against ``fracrd.mlref`` (25 digits) on 947 points, 21 alphas from
0.25 to 1 - 2^-53 with nats from 3 to z = ``_Z_MIN``, the rule's worst
relative error is 7e-16 for every alpha; the graded panels' is 1.3e-15 for
alpha up to 0.999 and 6.1e-15 above.  Just below the seam the series loses
up to 1.2e-13 (alpha 0.98, 2.7 nats) to the rounding of its terms.  The
per-alpha rules sit in a bounded cache of read-only arrays and nothing else
is shared, so concurrent callers are safe and get the serial bits.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError, UnsupportedParameterError

# Validated parameter box.
_ALPHA_MIN = 0.25
_Z_MAX = 5.0
# The solver evaluates decay envelopes at z = -lambda1 * t^alpha, far below
# z = -50; the quadrature is checked against mlref's spectral route down to
# this z.
_Z_MIN = -1.0e12

# Seam between series and quadrature on the cancellation exponent
# x**(1/alpha), x = -z.
_F64_MAX_NATS = 3.0

# Series truncation: stop once the current term is below this fraction of the
# partial sum (and the tail is provably geometric).
_SERIES_RTOL = 1e-16

# Rows of x that one block of the rule evaluates at once.
_BLOCK = 32


def _tail_ratio_bound(alpha: float, x: float, m: int) -> float:
    """Wendel bound on every term ratio past index m; decreasing in m."""
    u = alpha * m + 1.0
    return (x / u**alpha) * (1.0 + alpha / u)


def _series_f64(alpha: float, z: float) -> float:
    """Direct series in doubles; valid while cancellation is mild."""
    if z == 0.0:
        return 1.0
    x = abs(z)
    logx = math.log(x)
    sign0 = -1.0 if z < 0 else 1.0
    total = 1.0  # m = 0 term
    m = 1
    while True:
        term = math.exp(m * logx - math.lgamma(alpha * m + 1.0)) * sign0**m
        total += term
        r = _tail_ratio_bound(alpha, x, m)
        if r < 1.0 and abs(term) * r / (1.0 - r) < _SERIES_RTOL * max(abs(total), 1e-300):
            return total
        m += 1
        if m > 1_000_000:  # pragma: no cover - cannot trigger inside the box
            raise UnsupportedParameterError(f"series stalled for alpha={alpha}, z={z}")


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def _panel_rule(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Gauss-Legendre rule on sorted edges."""
    a = edges[:-1, None]
    half = 0.5 * (edges[1:, None] - a)
    return (a + half + half * _GL_NODES).ravel(), (half * _GL_WEIGHTS).ravel()


# u in [0, 1], mapped to w = u**alpha; geometric panels resolve the branch
# point of exp(-w**(1/alpha)) at w = 0.
_W_NODES, _W_WEIGHTS = _panel_rule(np.concatenate(([0.0], 2.0 ** np.arange(-40.0, 1.0))))
_W_LOG = np.log(_W_NODES)
# u in [1, 48]; beyond 48, exp(-u) leaves under 1e-19 of the integral, except
# where the resonance of alpha near 1 sits past 48: the graded panels then
# run on to 1 past its centre.
_U_STEP = 0.5
_U_EDGES = np.arange(1.0, 48.0 + _U_STEP, _U_STEP)
_U_NODES, _U_WEIGHTS = _panel_rule(_U_EDGES)
_U_MASS = _U_WEIGHTS * np.exp(-_U_NODES)
# A sharp resonance centred at u holds about exp(-u) * nats / (1 - alpha) of
# the value; with 1 - alpha >= 2^-53 that is under 1e-17 past this centre.
_RESONANCE_END = 81.0


def _graded(alpha: float, x: float, nats: float) -> float:
    """E_alpha(-x) for 1/2 < alpha < 1 when the kernel resonance is sharp.

    The integral is that of the one rule (see ``_rule``),

        E_alpha(-x) = (sin(alpha*pi)/(pi*x)) * int_0^inf u^(alpha-1) e^(-u) / D(u) du,
        D(u) = (u^alpha/x + cos(alpha*pi))^2 + sin(alpha*pi)^2,

    whose D has zeros at u = nats * exp(+-i*theta), theta = pi*(1-alpha)/alpha.
    ``ml_eval`` calls it when they lie within distance 1 of the real axis,
    centred below ``_RESONANCE_END``.  Panel edges are graded geometrically
    around their real part, the u range runs at least 1 past it, and
    u/nats - 1 is formed relative to it.  With
    1 + cos(alpha*pi) = 2*sin(pi*(1-alpha)/2)^2, D keeps its relative
    accuracy as alpha -> 1.
    """
    beta = math.pi * (1.0 - alpha)
    sin_a = math.sin(beta)
    sin2 = sin_a * sin_a
    one_plus_cos = 2.0 * math.sin(0.5 * beta) ** 2
    d = _W_NODES / x + (one_plus_cos - 1.0)
    part1 = np.dot(_W_WEIGHTS, np.exp(-np.exp(_W_LOG / alpha)) / (d * d + sin2)) / alpha

    theta = beta / alpha
    height = nats * math.sin(theta)
    centre = nats * math.cos(theta)
    edges = np.arange(1.0, max(_U_EDGES[-1], centre + 1.0) + _U_STEP, _U_STEP)
    offsets = height * 2.0 ** np.arange(-3.0, math.ceil(-math.log2(height)) + 1.0)
    graded = np.concatenate((-offsets, [0.0], offsets))
    graded = graded[(graded > 1.0 - centre) & (graded < edges[-1] - centre)]
    # Panels relative to the centre, so u/nats - 1 keeps its relative
    # accuracy there.
    r, weights = _panel_rule(np.sort(np.concatenate((edges - centre, graded))))
    mass = weights * np.exp(-(centre + r))
    log_ratio = np.log1p((r - 2.0 * nats * math.sin(0.5 * theta) ** 2) / nats)
    d = np.expm1(alpha * log_ratio) + one_plus_cos
    # u^(alpha-1) = nats^(alpha-1) * (u/nats)^(alpha-1)
    part2 = np.dot(mass, np.exp((alpha - 1.0) * log_ratio) / (d * d + sin2)) * nats ** (alpha - 1.0)
    return float(sin_a / (math.pi * x) * (part1 + part2))


@functools.lru_cache(maxsize=16)
def _rule(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes g and masses m of the spectral rule for 0 < alpha < 1:

        E_alpha(-x) = sin(alpha*pi)/(pi*x) * sum_i m_i / ((g_i/x + cos(alpha*pi))^2 + sin(alpha*pi)^2)

    The integral of ``_graded`` on the w panels (w = u^alpha, u in [0, 1])
    gives g = w, m = w-weight * exp(-w^(1/alpha)) / alpha, and on the u
    panels (u in [1, 48]) g = u^alpha, m = u-weight * e^(-u) * u^(alpha-1).
    """
    g = np.concatenate((_W_NODES, _U_NODES**alpha))
    m = np.concatenate((
        _W_WEIGHTS * np.exp(-np.exp(_W_LOG / alpha)) / alpha,
        _U_MASS * _U_NODES ** (alpha - 1.0),
    ))
    g.setflags(write=False)
    m.setflags(write=False)
    return g, m


def _rule_eval(alpha: float, x: np.ndarray) -> np.ndarray:
    """E_alpha(-x) by the one rule, ``_BLOCK`` values of x at a time.

    Each row is summed on its own (numpy's pairwise sum along the row), so
    a value's bits do not depend on the block it is in."""
    g, m = _rule(alpha)
    beta = math.pi * (1.0 - alpha)
    sin_a = math.sin(beta)
    sin2 = sin_a * sin_a
    cos_a = 2.0 * math.sin(0.5 * beta) ** 2 - 1.0
    out = np.empty(len(x))
    work = np.empty((min(len(x), _BLOCK), len(g)))
    for start in range(0, len(x), _BLOCK):
        xb = x[start : start + _BLOCK]
        d = work[: len(xb)]
        np.divide(g, xb[:, None], out=d)
        d += cos_a
        np.multiply(d, d, out=d)
        d += sin2
        np.divide(m, d, out=d)
        out[start : start + len(xb)] = sin_a / (math.pi * xb) * d.sum(axis=1)
    return out


def ml_eval(alpha: float, z) -> float | np.ndarray:
    """Evaluate E_alpha(z) for the validated parameter box.

    For an int or float z a float is returned; for anything else (an
    array, a list) an array of its shape, each element the value a float
    call returns.  The caller's array is read, never written or returned.
    Raises DomainError for alpha outside (0, 1] or a non-finite z, and
    UnsupportedParameterError for alpha below 0.25 or z outside
    [_Z_MIN, 5]; an error about z names its first element at fault.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must be in (0, 1], got {alpha}")
    if alpha < _ALPHA_MIN:
        raise UnsupportedParameterError(
            f"alpha={alpha} below validated minimum {_ALPHA_MIN}"
        )
    zs = np.ravel(z).astype(float, copy=False)
    out = np.empty(len(zs))
    # the resonance of ``_graded`` sits at nats * exp(+-i*theta)
    theta = math.pi * (1.0 - alpha) / alpha
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    rule = []  # elements left to the one rule
    for i, v in enumerate(zs.tolist()):
        if not _Z_MIN <= v <= _Z_MAX:  # a non-finite z anywhere is named first
            bad = next((u for u in zs.tolist() if not math.isfinite(u)), None)
            if bad is not None:
                raise DomainError(f"z must be finite, got {bad}")
            raise UnsupportedParameterError(f"z={v} outside validated range [{_Z_MIN}, {_Z_MAX}]")
        if alpha == 1.0:
            out[i] = math.exp(v)
            continue
        nats = max(-v, 0.0) ** (1.0 / alpha)
        if nats <= _F64_MAX_NATS:
            out[i] = _series_f64(alpha, v)
        elif alpha > 0.5 and nats * sin_t < 1.0 and nats * cos_t < _RESONANCE_END:
            out[i] = _graded(alpha, -v, nats)
        else:
            rule.append(i)
    if rule:
        out[rule] = _rule_eval(alpha, -zs[rule])
    if isinstance(z, (int, float)):
        return float(out[0])
    return out.reshape(np.shape(z))
