"""Extended-precision reference values for the one-parameter Mittag-Leffler
function.

This module is the slow, high-precision side of the dual-route check for
``fracrd.special.ml_eval``.  It is used to generate the frozen oracle table
shipped with the package and by the test suite.  It is intentionally
independent of the fast evaluator: the routes here are

* direct power-series summation in mpmath with an explicit geometric tail
  bound, at a working precision chosen from the worst intermediate term, and
* the complete-monotonicity (spectral) integral representation for negative
  real arguments, where the series would need impractical precision.

The two routes, plus the closed forms at ``alpha = 1`` (exp) and
``alpha = 1/2`` (scaled erfc), cross-validate each other; see
``scripts/gen_ml_oracle.py``.
"""

from __future__ import annotations

import math

import mpmath as mp

from .errors import DomainError

# Above this exponent the series needs more than ~450 decimal digits to absorb
# cancellation and is considered intractable here.
_SERIES_MAX_EXPONENT = 1000.0


def _cancellation_exponent(alpha: float, z: float) -> float:
    """Natural log of the largest series term magnitude for negative z.

    For z = -x (x > 0) the terms x^m / Gamma(alpha*m + 1) peak at roughly
    exp(x**(1/alpha)); that exponent is the number of nats lost to
    cancellation when the series is summed directly.
    """
    if z >= 0:
        return 0.0
    return abs(z) ** (1.0 / alpha)


def ml_series(alpha: float, z: float, digits: int = 30) -> mp.mpf:
    """Sum E_alpha(z) = sum_m z^m / Gamma(alpha*m + 1) in mpmath.

    The working precision is raised by the cancellation estimate so the
    returned value carries ``digits`` correct significant digits.  Summation
    stops only once the term ratio is provably below 1/2 (so the remaining
    tail is bounded by twice the last term) and the last term is negligible
    at working precision.

    Raises DomainError when the required precision is impractical; use
    ml_spectral for those arguments.
    """
    if not 0 < alpha <= 1:
        raise DomainError(f"alpha must be in (0, 1], got {alpha}")
    nats = _cancellation_exponent(alpha, z)
    if nats > _SERIES_MAX_EXPONENT:
        raise DomainError(
            f"series for alpha={alpha}, z={z} needs ~{nats / math.log(10):.0f} "
            "guard digits; use ml_spectral instead"
        )
    dps = digits + 10 + int(math.ceil(nats / math.log(10)))
    x = abs(z)
    with mp.workdps(dps):
        zz = mp.mpf(z)
        aa = mp.mpf(alpha)  # gamma argument must be formed at working precision
        total = mp.mpf(0)
        tiny = mp.mpf(10) ** (-dps)
        m = 0
        while True:
            term = zz**m / mp.gamma(aa * m + 1)
            total += term
            # By Wendel's inequality every later term ratio is bounded by
            # r = (x/u^alpha)*(1 + alpha/u), u = alpha*m + 1, which decreases
            # in m; once r < 1 the tail is at most |term| * r/(1-r).
            u = alpha * m + 1.0
            r = (x / u**alpha) * (1.0 + alpha / u)
            if r < 1.0 and abs(term) * r / (1.0 - r) < tiny * max(abs(total), mp.mpf(1)):
                break
            if m > 500_000:  # pragma: no cover - safety valve
                raise DomainError("series did not terminate")
            m += 1
        result = +total
    return result


def ml_spectral(alpha: float, z: float, digits: int = 30) -> mp.mpf:
    """Evaluate E_alpha(z) for z <= 0, 0 < alpha < 1 via the spectral integral.

    E_alpha(-x) is completely monotone and equals

        int_0^inf K(r) * exp(-x**(1/alpha) * r) dr,
        K(r) = (1/pi) * sin(alpha*pi) * r^(alpha-1)
               / (r^(2*alpha) + 2*r^alpha*cos(alpha*pi) + 1),

    which is numerically benign for any x >= 0, including arguments far
    beyond the reach of the series.
    """
    if not 0 < alpha < 1:
        raise DomainError(f"spectral route requires alpha in (0, 1), got {alpha}")
    if z > 0:
        raise DomainError(f"spectral route requires z <= 0, got {z}")
    if z == 0:
        return mp.mpf(1)
    with mp.workdps(digits + 25):
        a = mp.mpf(alpha)
        scale = abs(mp.mpf(z)) ** (1 / a)
        sin_api = mp.sinpi(a)
        cos_api = mp.cospi(a)

        # Substituting r = u/scale puts the exponential factor at unit scale:
        #   E = int_0^inf u^(a-1) * G(u) du,
        #   G(u) = (sin(a*pi)/pi) * scale^(-a) * exp(-u) / den(u/scale).
        def smooth_part(u):
            r = u / scale
            den = mp.pi * (r ** (2 * a) + 2 * r**a * cos_api + 1)
            return sin_api * scale ** (-a) / den * mp.exp(-u)

        # On [0, 1] the endpoint singularity u^(a-1) is removed exactly by
        # u = w^(1/a), leaving (1/a) * int_0^1 G(w^(1/a)) dw.
        part1 = mp.quad(lambda w: smooth_part(w ** (1 / a)) / a, [0, 1], maxdegree=12)

        # On [1, inf) the integrand is smooth with exp(-u) decay; split at the
        # kernel resonance r ~ (-cos(a*pi))^(1/a) when it exists (a > 1/2).
        points = {mp.mpf(1), mp.mpf(5), mp.mpf(20), mp.mpf(60)}
        if cos_api < 0:
            u_res = (-cos_api) ** (1 / a) * scale
            width = sin_api * scale
            for p in (u_res - width, u_res, u_res + width, u_res + 5 * width):
                if p > 1:
                    points.add(p)
        if scale > 1:
            points.add(scale)  # r = 1
        part2 = mp.quad(
            lambda u: u ** (a - 1) * smooth_part(u), sorted(points) + [mp.inf], maxdegree=12
        )
        result = +(part1 + part2)
    return result


def ml_reference(alpha: float, z: float, digits: int = 30) -> mp.mpf:
    """Best-available high-precision value of E_alpha(z).

    Dispatches to exp for alpha = 1, the series where tractable, and the
    spectral integral otherwise.
    """
    if not 0 < alpha <= 1:
        raise DomainError(f"alpha must be in (0, 1], got {alpha}")
    if alpha == 1:
        with mp.workdps(digits + 10):
            return +mp.exp(z)
    if _cancellation_exponent(alpha, z) <= _SERIES_MAX_EXPONENT:
        return ml_series(alpha, z, digits=digits)
    return ml_spectral(alpha, z, digits=digits)


def ml_half_erfc(z: float, digits: int = 30) -> mp.mpf:
    """E_{1/2}(z) = exp(z^2) * erfc(-z), exact identity used for cross-checks."""
    with mp.workdps(digits + 10):
        zz = mp.mpf(z)
        return +(mp.exp(zz**2) * mp.erfc(-zz))
