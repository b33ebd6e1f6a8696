"""One-parameter Mittag-Leffler evaluation.

``ml_eval`` is the workhorse: it evaluates E_alpha(z) = sum_m z^m/Gamma(alpha*m+1)
in double precision by switching on the cancellation exponent
nats = x**(1/alpha), x = -z, between two regimes,

* the direct series for nonnegative z and for nats <= ``_F64_MAX_NATS``,
  where the alternating terms cancel mildly (at most e^3 of the sum), and
* a fixed-node Gauss-Legendre quadrature of the completely-monotone
  spectral integral (Gorenflo, Loutchko & Luchko, Fract. Calc. Appl. Anal.
  5 (2002)) for every larger nats, where the series would cancel
  catastrophically; the integrand is positive, so no precision is lost.

Measured against ``fracrd.mlref`` (25 digits) on 788 points with nats from 3
to z = ``_Z_MIN``, the quadrature's worst relative error is 7e-16 for alpha
in [0.25, 0.999], 4e-13 for alpha up to 1 - 1e-7, and 4e-10 for alpha up to
1 - 1e-10; the last two come from the kernel resonance sitting just past the
end of the quadrature's u range, near 48.5 nats.  Just below the seam the
series loses up to 1.2e-13 (alpha 0.98, 2.7 nats) to the rounding of its
terms.  Nothing here holds mutable state, so concurrent callers are safe.
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
# z = -50; the quadrature is checked against mlref's spectral route down to
# this z.
_Z_MIN = -1.0e12

# Seam between series and quadrature on the cancellation exponent
# x**(1/alpha), x = -z.
_F64_MAX_NATS = 3.0

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
# u in [1, 48]; beyond 48, exp(-u) leaves under 1e-19 of the integral, except
# where the resonance of alpha > 1 - 1e-7 sits just past 48 and holds up to
# 4e-10 of it (alpha = 1 - 1e-10, 48.5 nats).
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
    within distance 1 of the real axis and their real part lies at most 1
    past the u range, panel edges are graded geometrically around that real
    part, and u/nats - 1 is formed relative to it; elsewhere D is formed from
    log(u/nats), which keeps its relative accuracy however large nats is.
    With 1 + cos(alpha*pi) = 2*sin(pi*(1-alpha)/2)^2, D keeps its relative
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
    u_end = _U_EDGES[-1]
    if alpha > 0.5 and height < 1.0 and centre < u_end + 1.0:
        offsets = height * 2.0 ** np.arange(-3.0, math.ceil(-math.log2(height)) + 1.0)
        graded = np.concatenate((-offsets, [0.0], offsets))
        graded = graded[(graded > 1.0 - centre) & (graded < u_end - centre)]
        # Panels relative to the centre, so u/nats - 1 keeps its relative
        # accuracy there.
        r, weights = _panel_rule(np.sort(np.concatenate((_U_EDGES - centre, graded))))
        mass = weights * np.exp(-(centre + r))
        log_ratio = np.log1p((r - 2.0 * nats * math.sin(0.5 * theta) ** 2) / nats)
    else:
        mass = _U_MASS
        log_ratio = np.log(_U_NODES / nats)
    d = np.expm1(alpha * log_ratio) + one_plus_cos
    # u^(alpha-1) = nats^(alpha-1) * (u/nats)^(alpha-1)
    part2 = np.dot(mass, np.exp((alpha - 1.0) * log_ratio) / (d * d + sin2)) * nats ** (alpha - 1.0)
    return float(sin_a / (math.pi * x) * (part1 + part2))


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
    nats = max(-z, 0.0) ** (1.0 / alpha)
    if nats <= _F64_MAX_NATS:
        return _series_f64(alpha, z)
    return _spectral(alpha, -z, nats)

