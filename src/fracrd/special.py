"""One-parameter Mittag-Leffler evaluation.

``ml_eval`` is the workhorse: it evaluates E_alpha(z) = sum_m z^m/Gamma(alpha*m+1)
in double precision by switching on the cancellation exponent
nats = x**(1/alpha), x = -z, between three regimes,

* the direct series for nonnegative z and for nats <= ``_F64_MAX_NATS``,
  where the alternating terms cancel mildly (at most e^3 of the sum),
* a fixed-node Gauss-Legendre quadrature of the completely-monotone
  spectral integral (Gorenflo, Loutchko & Luchko, Fract. Calc. Appl. Anal.
  5 (2002)) for the middle range, where the series would cancel
  catastrophically; the integrand is positive, so no precision is lost, and
* the algebraic large-argument expansion
      E_alpha(-x) ~ sum_{k>=1} (-1)^(k+1) x^(-k) / Gamma(1 - alpha*k)
  summed adaptively to its optimal truncation for nats >= ``_asym_min_nats``
  (36, rising towards 46 as alpha -> 1), where its floor exp(-nats) is
  negligible at double precision.

Measured against ``fracrd.mlref`` (25 digits): the quadrature is accurate to
7e-15 relative for alpha in [0.25, 1 - 1e-10], and to 6e-16 out to 46 nats
for alpha in [0.999, 1 - 1e-7]; over all three regimes the worst relative
error is 8e-12 for alpha in [0.25, 0.999] and z in [-50, 5], and 2e-11 for
alpha up to 1 - 1e-7 (just above the upper seam, where the expansion's floor
exp(-nats) is largest relative to E_alpha).  On the extended negative range
(z down to ``_Z_MIN``) the asymptotic branch only gains accuracy as |z|
grows.  Nothing here holds mutable state, so concurrent callers are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedParameterError

# Validated parameter box.
_ALPHA_MIN = 0.25
_Z_MAX = 5.0
# The solver evaluates decay envelopes at z = -lambda1 * t^alpha, far below
# z = -50, where the mlref comparison ends; the asymptotic branch handles this
# with accuracy that improves as z -> -inf, so the supported range extends
# accordingly.
_Z_MIN = -1.0e12

# Branch thresholds on the cancellation exponent x**(1/alpha), x = -z.
_F64_MAX_NATS = 3.0
_ASYM_MIN_NATS = 36.0
# The quadrature is verified against mlref up to this many nats.
_ASYM_MAX_NATS = 46.0

# Series truncation: stop once the current term is below this fraction of the
# partial sum (and the tail is provably geometric).
_SERIES_RTOL = 1e-16


@dataclass(frozen=True)
class MLParams:
    """Arguments of the one-parameter Mittag-Leffler function E_alpha(z)."""

    alpha: float
    z: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise DomainError(f"alpha must be in (0, 1], got {self.alpha}")
        if not math.isfinite(self.z):
            raise DomainError(f"z must be finite, got {self.z}")


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
# u in [1, 48]; beyond 48, exp(-u) leaves under 1e-19 of the integral.
_U_EDGES = np.arange(1.0, 48.5, 0.5)
_U_NODES, _U_WEIGHTS = _panel_rule(_U_EDGES)
_U_MASS = _U_WEIGHTS * np.exp(-_U_NODES)


def _spectral(alpha: float, x: float, nats: float) -> float:
    """E_alpha(-x) for 0 < alpha < 1 from the completely-monotone integral

        E_alpha(-x) = (sin(alpha*pi)/(pi*x)) * int_0^inf u^(alpha-1) e^(-u) / D(u) du,
        D(u) = (u^alpha/x + cos(alpha*pi))^2 + sin(alpha*pi)^2,

    on fixed Gauss-Legendre panels.  The integrand is positive, so the sum
    has no cancellation.  For alpha > 1/2, D has zeros at
    u = nats * exp(+-i*theta), theta = pi*(1-alpha)/alpha; when they come
    within distance 1 of the real axis, panel edges are graded geometrically
    around their real part.  Near them D is formed from q = u/nats - 1 and
    1 + cos(alpha*pi) = 2*sin(pi*(1-alpha)/2)^2, which keeps its relative
    accuracy as alpha -> 1.
    """
    beta = math.pi * (1.0 - alpha)
    sin_a = math.sin(beta)
    sin2 = sin_a * sin_a
    one_plus_cos = 2.0 * math.sin(0.5 * beta) ** 2
    d = _W_NODES / x + (one_plus_cos - 1.0)
    part1 = np.dot(_W_WEIGHTS, np.exp(-np.exp(_W_LOG / alpha)) / (d * d + sin2)) / alpha

    mass = _U_MASS
    q = _U_NODES / nats - 1.0
    theta = beta / alpha
    height = nats * math.sin(theta)
    if alpha > 0.5 and height < 1.0:
        centre = nats * math.cos(theta)
        offsets = height * 2.0 ** np.arange(-3.0, math.ceil(-math.log2(height)) + 1.0)
        graded = np.concatenate((-offsets, [0.0], offsets))
        graded = graded[(graded > 1.0 - centre) & (graded < 48.0 - centre)]
        # Panels relative to the centre, so q keeps its relative accuracy there.
        r, weights = _panel_rule(np.sort(np.concatenate((_U_EDGES - centre, graded))))
        mass = weights * np.exp(-(centre + r))
        q = (r - 2.0 * nats * math.sin(0.5 * theta) ** 2) / nats
    log1p_q = np.log1p(q)
    d = np.expm1(alpha * log1p_q) + one_plus_cos
    # u^(alpha-1) = nats^(alpha-1) * (1+q)^(alpha-1)
    part2 = np.dot(mass, np.exp((alpha - 1.0) * log1p_q) / (d * d + sin2)) * nats ** (alpha - 1.0)
    return float(sin_a / (math.pi * x) * (part1 + part2))


def _asymptotic(alpha: float, z: float) -> float:
    """Algebraic expansion at large negative z, optimally truncated.

    The term magnitudes x^(-k)/|Gamma(1-alpha*k)| bottom out near
    k* = x**(1/alpha)/alpha at the scale exp(-x**(1/alpha)), which is
    negligible whenever this branch is selected.  Individual magnitudes
    oscillate on the way down (the reflection sine modulates the Gamma
    factors), so the loop runs to k* (or until terms are negligible) rather
    than stopping at the first local increase.
    """
    x = -z
    nats = x ** (1.0 / alpha)
    k_opt = min(500, max(8, int(nats / alpha)))
    log_x = math.log(x)
    total = 0.0
    inv = 1.0 / x
    powx = 1.0
    for k in range(1, k_opt + 1):
        powx *= inv
        term = powx * _rgamma(1.0 - alpha * k)
        if k % 2 == 0:
            term = -term
        total += term
        # Sound early exit: |1/Gamma(1-alpha*k')| <= Gamma(alpha*k')/pi, so
        # once the envelope x^-k Gamma(alpha*k)/pi is tiny and still shrinking
        # by at least half per term, the remaining tail is negligible.
        if (alpha * (k + 1)) ** alpha <= 0.5 * x:
            log_env = -k * log_x + math.lgamma(alpha * k) - math.log(math.pi)
            if log_env < math.log(5e-18 * abs(total) + 1e-300):
                break
    return total


def _rgamma(x: float) -> float:
    """1/Gamma(x) for real x, zero at the poles."""
    if x > 0:
        return 1.0 / math.gamma(x)
    if x == math.floor(x):
        return 0.0
    # Reflection: 1/Gamma(x) = Gamma(1-x) * sin(pi*x) / pi.
    return math.gamma(1.0 - x) * math.sin(math.pi * x) / math.pi


def _asym_min_nats(alpha: float) -> float:
    """Seam between the quadrature and the large-argument expansion.

    The expansion drops a term of about exp(-nats), which relative to
    E_alpha(-x) ~ (1-alpha)/x is about nats*exp(-nats)/(1-alpha): 8e-12 at
    alpha = 0.999 and 36 nats.  Closer to alpha = 1 the seam moves up by
    log(1e-3/(1-alpha)) nats, which holds that error near 8e-12, until it
    reaches ``_ASYM_MAX_NATS`` near alpha = 1 - 4.5e-8.  For alpha <= 0.999 it
    stays at ``_ASYM_MIN_NATS``.
    """
    return min(_ASYM_MAX_NATS, _ASYM_MIN_NATS + max(0.0, math.log(1e-3 / (1.0 - alpha))))


def ml_eval(params: MLParams) -> float:
    """Evaluate E_alpha(z) for the validated parameter box.

    Raises UnsupportedParameterError outside alpha in [0.25, 1] or
    z in [_Z_MIN, 5].
    """
    alpha, z = params.alpha, params.z
    if alpha < _ALPHA_MIN:
        raise UnsupportedParameterError(
            f"alpha={alpha} below validated minimum {_ALPHA_MIN}"
        )
    if z > _Z_MAX or z < _Z_MIN:
        raise UnsupportedParameterError(f"z={z} outside validated range [{_Z_MIN}, {_Z_MAX}]")
    if alpha == 1.0:
        return math.exp(z)
    if z >= 0.0:
        return _series_f64(alpha, z)
    nats = (-z) ** (1.0 / alpha)
    if nats <= _F64_MAX_NATS:
        return _series_f64(alpha, z)
    if nats >= _asym_min_nats(alpha):
        return _asymptotic(alpha, z)
    return _spectral(alpha, -z, nats)

