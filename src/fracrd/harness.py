"""Campaign orchestration: configuration parsing, deterministic execution of
the verification campaigns, and report/trace output.

Campaign kinds:

* ``ml_table``          -- Mittag-Leffler evaluator against the frozen
                           extended-precision oracle table (plus a closed-form
                           erfc identity and a bit-repeatability check),
* ``eigen_convergence`` -- operator structure (symmetry, positive
                           semidefiniteness, constant annihilation), the
                           principal eigenvalue against a dense
                           eigendecomposition, and its grid Cauchy sequence,
* ``decay``             -- linear fractional-ODE stepper convergence, the
                           fitted late-time decay slope of E(t) against its
                           sharp rate -2*alpha, and the Mittag-Leffler
                           comparison envelope,
* ``blowup``            -- scalar quadratic-growth blow-up oracle and the
                           two-sided blow-up-time bracket with refinement
                           stability,
* ``invariant_region``  -- bounds preservation for data in [0,1] and the
                           discrete comparison principle on random ordered
                           pairs.

Reports are plain text, one record per line, sorted by campaign/name/params;
wall times are excluded from the canonical form used for determinism checks.
"""

from __future__ import annotations

import configparser
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np
from scipy.linalg import eigh

from .caputo import solve_linear_fode, solve_logistic_fode
from .errors import ConfigError, FracRDError
from .fraclap import (
    Grid1D,
    assemble_regional,
    assemble_regional_untruncated,
    principal_eigenpair,
)
from .solver import (
    SimConfig,
    blowup_bracket,
    detect_blowup,
    initial_field,
    run,
)
from .special import MLParams, ml_eval

CAMPAIGN_KINDS = ("invariant_region", "decay", "blowup", "ml_table", "eigen_convergence")

_PROBE_SEED = 20240601  # fixed so repeated campaigns are bit-identical


@dataclass(frozen=True)
class Campaign:
    name: str
    kind: str
    params: dict


@dataclass
class CheckRecord:
    campaign: str
    name: str
    params: str
    measured: float
    expected: str
    tol: float
    passed: bool
    wall: float

    def line(self, with_wall: bool = True) -> str:
        base = (
            f"check={self.campaign}/{self.name} params={self.params or '-'} "
            f"measured={self.measured:.15g} expected={self.expected} "
            f"tol={self.tol:.15g} pass={'true' if self.passed else 'false'}"
        )
        if with_wall:
            base += f" wall={self.wall:.3f}"
        return base


@dataclass
class Report:
    records: list = field(default_factory=list)

    def sorted_records(self):
        return sorted(self.records, key=lambda r: (r.campaign, r.name, r.params))

    @property
    def overall(self) -> bool:
        return all(r.passed for r in self.records)

    def text(self) -> str:
        lines = [r.line(with_wall=True) for r in self.sorted_records()]
        failures = sum(not r.passed for r in self.records)
        lines.append("# summary")
        lines.append(
            f"overall={'pass' if self.overall else 'fail'} "
            f"checks={len(self.records)} failures={failures}"
        )
        return "\n".join(lines) + "\n"

    def canonical_text(self) -> str:
        """Report body with wall times stripped; bit-identical across reruns."""
        return "\n".join(r.line(with_wall=False) for r in self.sorted_records()) + "\n"


def _record(campaign, name, params, measured, expected, tol, passed, t0):
    return CheckRecord(
        campaign=campaign,
        name=name,
        params=params,
        measured=float(measured),
        expected=expected,
        tol=tol,
        passed=bool(passed),
        wall=time.perf_counter() - t0,
    )


# --- configuration ------------------------------------------------------------


def _parse_float(section, options, key, *, required=False, default=None, lo=None, hi=None,
                 lo_open=False, hi_open=False):
    if key not in options:
        if required:
            raise ConfigError("required key is missing", key=key, section=section)
        return default
    raw = options[key]
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"cannot parse '{raw}' as a number", key=key, section=section)
    _check_range(section, key, value, lo, hi, lo_open, hi_open)
    return value


def _check_range(section, key, value, lo, hi, lo_open, hi_open):
    if lo is not None and (value <= lo if lo_open else value < lo):
        raise ConfigError(
            f"value {value:g} violates lower bound {'(' if lo_open else '['}{lo:g}",
            key=key,
            section=section,
        )
    if hi is not None and (value >= hi if hi_open else value > hi):
        raise ConfigError(
            f"value {value:g} violates upper bound {hi:g}{')' if hi_open else ']'}",
            key=key,
            section=section,
        )


def _parse_float_list(section, options, key, *, required=False, default=None,
                      lo=None, hi=None, lo_open=False, hi_open=False):
    if key not in options:
        if required:
            raise ConfigError("required key is missing", key=key, section=section)
        return list(default) if default is not None else None
    values = []
    for chunk in options[key].split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            v = float(chunk)
        except ValueError:
            raise ConfigError(f"cannot parse '{chunk}' as a number", key=key, section=section)
        _check_range(section, key, v, lo, hi, lo_open, hi_open)
        values.append(v)
    if not values:
        raise ConfigError("list key is empty", key=key, section=section)
    return values


def _parse_int(section, options, key, *, default=None, lo=None, hi=None):
    if key not in options:
        return default
    try:
        value = int(options[key])
    except ValueError:
        raise ConfigError(
            f"cannot parse '{options[key]}' as an integer", key=key, section=section
        )
    _check_range(section, key, value, lo, hi, False, False)
    return value


def _parse_domain(section, options, key="domain", default=(0.0, 1.0)):
    if key not in options:
        return default
    parts = options[key].split(",")
    if len(parts) != 2:
        raise ConfigError("domain must be 'a,b'", key=key, section=section)
    try:
        a, b = float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError("domain endpoints must be numbers", key=key, section=section)
    if not a < b:
        raise ConfigError(f"domain endpoints must satisfy a < b, got {a}, {b}",
                          key=key, section=section)
    return (a, b)


def parse_config(path) -> list:
    """Parse an INI-style campaign file: one section per campaign."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"configuration file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse configuration: {exc}")
    campaigns = []
    for section in cp.sections():
        options = dict(cp[section])
        if "kind" not in options:
            raise ConfigError("required key is missing", key="kind", section=section)
        kind = options["kind"].strip()
        if kind not in CAMPAIGN_KINDS:
            raise ConfigError(
                f"unknown kind '{kind}' (choose from {CAMPAIGN_KINDS})",
                key="kind",
                section=section,
            )
        params = _validate_params(section, kind, options)
        campaigns.append(Campaign(name=section, kind=kind, params=params))
    if not campaigns:
        raise ConfigError(f"no campaign sections found in {path}")
    return campaigns


def _validate_params(section, kind, options) -> dict:
    p = {}
    if kind == "ml_table":
        p["tol"] = _parse_float(section, options, "tol", default=1e-10, lo=0, lo_open=True)
    elif kind == "eigen_convergence":
        p["s_values"] = _parse_float_list(
            section, options, "s_values", default=(0.3, 0.5, 0.7), lo=0, hi=1,
            lo_open=True, hi_open=True,
        )
        p["cauchy_s"] = _parse_float(
            section, options, "cauchy_s", default=0.9, lo=0, hi=1, lo_open=True, hi_open=True
        )
        p["domain"] = _parse_domain(section, options)
        p["oracle_n"] = _parse_int(section, options, "oracle_n", default=64, lo=2, hi=4096)
        p["probes"] = _parse_int(section, options, "probes", default=100, lo=1)
    elif kind == "decay":
        p["alpha"] = _parse_float(
            section, options, "alpha", required=True, lo=0, hi=1, lo_open=True
        )
        p["s"] = _parse_float(
            section, options, "s", required=True, lo=0, hi=1, lo_open=True, hi_open=True
        )
        p["domain"] = _parse_domain(section, options)
        p["n"] = _parse_int(section, options, "n", default=128, lo=2, hi=4096)
        p["dt"] = _parse_float(section, options, "dt", default=0.5, lo=0, lo_open=True)
        p["t_end"] = _parse_float(section, options, "t_end", default=1000.0, lo=0, lo_open=True)
        p["profile"] = options.get("profile", "parabola").strip()
        p["amplitude"] = _parse_float(section, options, "amplitude", default=0.9, lo=0, hi=1)
        # Below 2, the slope interval -alpha*(2 +- band) excludes growth.
        p["slope_band"] = _parse_float(
            section, options, "slope_band", default=0.15, lo=0, hi=2, lo_open=True, hi_open=True
        )
        p["envelope_slack"] = _parse_float(
            section, options, "envelope_slack", default=1.05, lo=1
        )
        p["l1_check"] = options.get("l1_check", "true").strip().lower() != "false"
    elif kind == "blowup":
        p["alphas"] = _parse_float_list(
            section, options, "alphas", required=True, lo=0, hi=1, lo_open=True
        )
        p["s"] = _parse_float(
            section, options, "s", required=True, lo=0, hi=1, lo_open=True, hi_open=True
        )
        p["domain"] = _parse_domain(section, options, default=(0.0, 2.0))
        p["n"] = _parse_int(section, options, "n", default=128, lo=2, hi=4096)
        p["dt"] = _parse_float(section, options, "dt", default=2e-3, lo=0, lo_open=True)
        p["h0_factors"] = _parse_float_list(
            section, options, "h0_factors", default=(1.2, 1.6), lo=1
        )
        p["width"] = _parse_float(section, options, "width", default=0.2, lo=0, lo_open=True)
        p["logistic_check"] = options.get("logistic_check", "true").strip().lower() != "false"
        p["stability_tol"] = _parse_float(
            section, options, "stability_tol", default=0.05, lo=0, lo_open=True
        )
    elif kind == "invariant_region":
        p["alphas"] = _parse_float_list(
            section, options, "alphas", required=True, lo=0, hi=1, lo_open=True
        )
        p["s_values"] = _parse_float_list(
            section, options, "s_values", required=True, lo=0, hi=1, lo_open=True, hi_open=True
        )
        p["domain"] = _parse_domain(section, options)
        p["n"] = _parse_int(section, options, "n", default=128, lo=2, hi=4096)
        p["dt"] = _parse_float(section, options, "dt", default=0.1, lo=0, lo_open=True)
        p["t_end"] = _parse_float(section, options, "t_end", default=50.0, lo=0, lo_open=True)
        p["bound_tol"] = _parse_float(
            section, options, "bound_tol", default=1e-8, lo=0, lo_open=True
        )
        p["comparison_pairs"] = _parse_int(section, options, "comparison_pairs", default=20, lo=0)
    return p


# --- oracle table ---------------------------------------------------------------


def load_oracle_table() -> list:
    """(alpha, z, value) rows of the frozen extended-precision table."""
    text = resources.files("fracrd").joinpath("data/ml_oracle_table.txt").read_text()
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        a_str, z_str, v_str = line.split()
        rows.append((float(a_str), float(z_str), float(v_str)))
    return rows


# --- campaign implementations ----------------------------------------------------


def _run_ml_table(campaign) -> tuple:
    tol = campaign.params.get("tol", 1e-10)
    name = campaign.name

    def compute_fragment():
        frag = []
        t0 = time.perf_counter()
        table = load_oracle_table()
        worst = 0.0
        for alpha, z, ref in table:
            val = ml_eval(MLParams(alpha=alpha, z=z))
            err = abs(val - ref) / max(abs(ref), 1e-300)
            worst = max(worst, err)
        frag.append(
            _record(name, "max_rel_err", f"points:{len(table)}", worst,
                    f"<={tol:g}", tol, worst <= tol, t0)
        )
        t0 = time.perf_counter()
        erfc_ref = 0.4275835762
        val = ml_eval(MLParams(alpha=0.5, z=-1.0))
        err = abs(val - erfc_ref)
        frag.append(
            _record(name, "erfc_identity", "alpha:0.5;z:-1", err,
                    "<=1e-09", 1e-9, err <= 1e-9, t0)
        )
        return frag

    frag1 = compute_fragment()
    t0 = time.perf_counter()
    frag2 = compute_fragment()
    first = "".join(r.line(with_wall=False) for r in frag1)
    second = "".join(r.line(with_wall=False) for r in frag2)
    identical = first == second
    frag1.append(
        _record(name, "repeat_identical", "-", 0.0 if identical else 1.0,
                "==0", 0.0, identical, t0)
    )
    return frag1, {}


def _run_eigen_convergence(campaign) -> tuple:
    p = campaign.params
    name = campaign.name
    a, b = p["domain"]
    frag = []

    t0 = time.perf_counter()
    grid = Grid1D(a, b, p["oracle_n"])
    op = assemble_regional(grid, p["cauchy_s"])
    asym = np.max(np.abs(op.entries - op.entries.T)) / np.max(np.abs(op.entries))
    frag.append(
        _record(name, "symmetry", f"n:{p['oracle_n']};s:{p['cauchy_s']:g}", asym,
                "<=1e-12", 1e-12, asym <= 1e-12, t0)
    )

    t0 = time.perf_counter()
    rng = np.random.default_rng(_PROBE_SEED)
    worst_quad = math.inf
    for _ in range(p["probes"]):
        v = rng.standard_normal(grid.n)
        worst_quad = min(worst_quad, float(v @ (op.entries @ v)) / float(v @ v))
    frag.append(
        _record(name, "psd_probes", f"probes:{p['probes']}", worst_quad,
                ">=-1e-10", 1e-10, worst_quad >= -1e-10, t0)
    )

    t0 = time.perf_counter()
    op_aux = assemble_regional_untruncated(a, b, p["oracle_n"], p["cauchy_s"])
    resid = np.max(np.abs(op_aux.entries @ np.ones(p["oracle_n"])))
    scale = np.max(np.abs(np.diag(op_aux.entries)))
    rel = resid / scale
    frag.append(
        _record(name, "annihilate_constants", f"n:{p['oracle_n']}", rel,
                "<=1e-12", 1e-12, rel <= 1e-12, t0)
    )

    for s in p["s_values"]:
        t0 = time.perf_counter()
        g = Grid1D(a, b, p["oracle_n"])
        operator = assemble_regional(g, s)
        pair = principal_eigenpair(operator, g)
        vals = eigh(operator.entries, eigvals_only=True, subset_by_index=[0, 0])
        rel = abs(pair.lambda1 - vals[0]) / vals[0]
        frag.append(
            _record(name, f"lambda1_vs_dense_s{s:g}", f"n:{p['oracle_n']};s:{s:g}", rel,
                    "<=1e-10", 1e-10, rel <= 1e-10, t0)
        )

    t0 = time.perf_counter()
    lams = []
    for n in (64, 128, 256, 512):
        g = Grid1D(a, b, n)
        pair = principal_eigenpair(assemble_regional(g, p["cauchy_s"]), g)
        lams.append(pair.lambda1)
    diffs = [abs(lams[i + 1] - lams[i]) for i in range(3)]
    ratios = [diffs[i] / diffs[i + 1] for i in range(2)]
    min_ratio = min(ratios)
    frag.append(
        _record(name, "cauchy_lambda1", f"s:{p['cauchy_s']:g};n:64..512", min_ratio,
                ">=1.5", 1.5, min_ratio >= 1.5, t0)
    )
    return frag, {}


def _run_decay(campaign) -> tuple:
    p = campaign.params
    name = campaign.name
    alpha = p["alpha"]
    frag = []
    traces = {}

    if p["l1_check"]:
        t0 = time.perf_counter()
        exact = ml_eval(MLParams(alpha=alpha, z=-1.0))
        errors = []
        for k in range(6, 13):
            dt = 2.0**-k
            trace = solve_linear_fode(alpha, 1.0, 1.0, dt, 1.0)
            errors.append(abs(trace.values[-1] - exact))
        monotone = all(errors[i] > errors[i + 1] for i in range(len(errors) - 1))
        frag.append(
            _record(name, "l1_monotone", f"alpha:{alpha:g}", float(monotone),
                    "==1", 0.0, monotone, t0)
        )
        t0 = time.perf_counter()
        dts = [2.0**-k for k in range(6, 13)]
        # error ~ dt^p, so the slope of log2(err) against log2(dt) is +p
        order = float(np.polyfit(np.log2(dts), np.log2(errors), 1)[0])
        lo, hi = alpha - 0.1, 2.0 - alpha + 0.2
        frag.append(
            _record(name, "l1_order", f"alpha:{alpha:g}", order,
                    f"in[{lo:.15g},{hi:.15g}]", hi - lo, lo <= order <= hi, t0)
        )

    t0 = time.perf_counter()
    a, b = p["domain"]
    cfg = SimConfig(
        alpha=alpha, s=p["s"], a=a, b=b, n=p["n"], dt=p["dt"], t_end=p["t_end"],
        profile=p["profile"], profile_params={"amplitude": p["amplitude"]},
    )
    result = run(cfg)
    traces[f"{name}_alpha{alpha:g}"] = result
    slope = result.decay_slope
    # E(t) = ||u||^2 and each mode's amplitude decays like t^-alpha, so the
    # sharp rate of E is t^(-2 alpha); the band's half-width is alpha*slope_band.
    band = p["slope_band"]
    lo, hi = -alpha * (2 + band), -alpha * (2 - band)
    ok = slope is not None and lo <= slope <= hi
    frag.append(
        _record(name, "slope", f"alpha:{alpha:g};s:{p['s']:g}",
                slope if slope is not None else math.nan,
                f"in[{lo:.15g},{hi:.15g}]", alpha * band, ok, t0)
    )

    t0 = time.perf_counter()
    e0 = result.energy[0]
    slack = p["envelope_slack"]
    worst = 0.0
    for t, e in zip(result.times, result.energy):
        envelope = e0 * ml_eval(MLParams(alpha=alpha, z=-result.lambda1 * t**alpha))
        if envelope > 0:
            worst = max(worst, e / envelope)
    frag.append(
        _record(name, "envelope", f"alpha:{alpha:g};lambda1:{result.lambda1:.15g}", worst,
                f"<={slack:g}", slack, worst <= slack, t0)
    )
    return frag, traces


def scaled_blowup_config(p, alpha, factor):
    """Blow-up run whose initial mass is h0 = factor*(1 + lambda1).

    ``p`` holds a blowup campaign's ``domain``, ``s``, ``n``, ``dt`` and
    ``width``.  The data are a Gaussian bump of that width, scaled to the
    target mass; t_end is 1.5 times the upper end of the blow-up window.
    Returns ``(config, lambda1, h0)``.
    """
    from .solver import _get_operator

    a, b = p["domain"]
    cfg = SimConfig(
        alpha=alpha, s=p["s"], a=a, b=b, n=p["n"], dt=p["dt"], t_end=1.0,
        profile="gauss", profile_params={"amplitude": 1.0, "width": p["width"]},
    )
    _, pair = _get_operator(cfg)
    lam1 = pair.lambda1
    grid = cfg.grid
    unit = initial_field(grid, cfg.profile, cfg.profile_params)
    h0_unit = float(grid.h * np.sum(unit * pair.e1.values))
    h0_target = factor * (1.0 + lam1)
    amplitude = h0_target / h0_unit
    bracket = blowup_bracket(h0_target, alpha, lam1)
    t_end = 1.5 * bracket.upper
    dt = min(p["dt"], t_end / 400.0)
    cfg = replace(
        cfg,
        t_end=t_end,
        dt=dt,
        profile_params={"amplitude": amplitude, "width": p["width"]},
    )
    return cfg, lam1, h0_target


def _run_blowup(campaign) -> tuple:
    p = campaign.params
    name = campaign.name
    frag = []
    traces = {}

    if p["logistic_check"]:
        for y0 in (0.5, 1.0, 2.0):
            t0 = time.perf_counter()
            exact = math.log(1.0 + 1.0 / y0)
            estimates = []
            dt = exact / 50.0
            for _ in range(10):
                _, t_star = solve_logistic_fode(1.0, y0, dt, 10.0 * exact)
                estimates.append(t_star)
                if len(estimates) >= 2 and abs(estimates[-1] - estimates[-2]) < 2.5e-3 * estimates[-1]:
                    break
                dt *= 0.5
            rel = abs(estimates[-1] - exact) / exact
            frag.append(
                _record(name, f"logistic_T_y0_{y0:g}", f"alpha:1;y0:{y0:g}", rel,
                        "<=0.01", 0.01, rel <= 0.01, t0)
            )

    for alpha in p["alphas"]:
        for factor in p["h0_factors"]:
            t0 = time.perf_counter()
            cfg, lam1, h0 = scaled_blowup_config(p, alpha, factor)
            bracket = blowup_bracket(h0, alpha, lam1)
            finding = detect_blowup(cfg)
            tag = f"alpha:{alpha:g};h0:{h0:.15g}"
            if finding.status != "blowup":
                frag.append(
                    _record(name, f"containment_a{alpha:g}_f{factor:g}", tag, math.nan,
                            f"in[{bracket.lower:.15g},{bracket.upper:.15g}]",
                            0.0, False, t0)
                )
                continue
            t_star = finding.t_star
            contained = bracket.lower <= t_star <= bracket.upper
            frag.append(
                _record(name, f"containment_a{alpha:g}_f{factor:g}", tag, t_star,
                        f"in[{bracket.lower:.15g},{bracket.upper:.15g}]",
                        bracket.upper - bracket.lower, contained, t0)
            )

            t0 = time.perf_counter()
            refined_dt = detect_blowup(replace(cfg, dt=cfg.dt * 0.5))
            cfg_fine = replace(cfg, n=2 * cfg.n)
            refined_n = detect_blowup(cfg_fine)
            drift = 0.0
            ok = True
            for other in (refined_dt, refined_n):
                if other.status != "blowup":
                    ok = False
                    continue
                drift = max(drift, abs(other.t_star - t_star) / t_star)
            tol = p["stability_tol"]
            frag.append(
                _record(name, f"stability_a{alpha:g}_f{factor:g}", tag, drift,
                        f"<={tol:g}", tol, ok and drift <= tol, t0)
            )
    return frag, traces


_INVARIANT_PROFILES = (
    ("constant", {"amplitude": 0.5}),
    ("constant", {"amplitude": 1.0}),
    ("sine", {"amplitude": 1.0}),
    ("parabola", {"amplitude": 0.9}),
    ("plateau", {"amplitude": 0.9, "steepness": 20.0}),
    ("step", {"amplitude": 1.0, "lo": 0.25, "hi": 0.75}),
)


def _random_ordered_pair(rng, n):
    """Random fields 0 <= uA <= uB <= 1 built from a few sine modes."""
    xr = (np.arange(1, n + 1)) / (n + 1)
    coeffs = rng.normal(size=4)
    base = sum(c * np.sin((k + 1) * math.pi * xr) for k, c in enumerate(coeffs))
    lo, hi = float(np.min(base)), float(np.max(base))
    ub = (base - lo) / (hi - lo) if hi > lo else np.full(n, 0.5)
    ua = ub * rng.uniform(0.0, 1.0, size=n)
    return ua, ub


def _run_invariant_region(campaign) -> tuple:
    p = campaign.params
    name = campaign.name
    a, b = p["domain"]
    frag = []
    traces = {}
    tol = p["bound_tol"]

    for profile, params in _INVARIANT_PROFILES:
        for alpha in p["alphas"]:
            for s in p["s_values"]:
                t0 = time.perf_counter()
                cfg = SimConfig(
                    alpha=alpha, s=s, a=a, b=b, n=p["n"], dt=p["dt"], t_end=p["t_end"],
                    profile=profile, profile_params=params,
                )
                result = run(cfg)
                violation = max(
                    float(np.max(result.umax) - 1.0), float(-np.min(result.umin)), 0.0
                )
                ok = violation <= tol and result.blowup is None
                amp = params.get("amplitude", 1.0)
                tag = f"profile:{profile}({amp:g});alpha:{alpha:g};s:{s:g}"
                frag.append(
                    _record(name, f"bounds_{profile}{amp:g}_a{alpha:g}_s{s:g}", tag,
                            violation, f"<={tol:g}", tol, ok, t0)
                )
                if profile == "parabola" and alpha == p["alphas"][0] and s == p["s_values"][0]:
                    traces[f"{name}_{profile}_a{alpha:g}_s{s:g}"] = result

    if p["comparison_pairs"] > 0:
        t0 = time.perf_counter()
        rng = np.random.default_rng(_PROBE_SEED)
        worst = 0.0
        alphas_cycle = p["alphas"]
        for k in range(p["comparison_pairs"]):
            alpha = alphas_cycle[k % len(alphas_cycle)]
            s = p["s_values"][k % len(p["s_values"])]
            cfg = SimConfig(
                alpha=alpha, s=s, a=a, b=b, n=64, dt=0.025, t_end=5.0, profile="constant"
            )
            ua, ub = _random_ordered_pair(rng, 64)
            res_a = run(cfg, u0_override=ua, record_fields=True)
            res_b = run(cfg, u0_override=ub, record_fields=True)
            for fa, fb in zip(res_a.fields, res_b.fields):
                worst = max(worst, float(np.max(fa - fb)))
        frag.append(
            _record(name, "comparison_principle", f"pairs:{p['comparison_pairs']}", worst,
                    "<=1e-08", 1e-8, worst <= 1e-8, t0)
        )
    return frag, traces


_RUNNERS = {
    "ml_table": _run_ml_table,
    "eigen_convergence": _run_eigen_convergence,
    "decay": _run_decay,
    "blowup": _run_blowup,
    "invariant_region": _run_invariant_region,
}


def run_campaign(campaign: Campaign) -> tuple:
    """Execute one campaign; module errors become failed records, not aborts."""
    try:
        return _RUNNERS[campaign.kind](campaign)
    except FracRDError as exc:
        rec = CheckRecord(
            campaign=campaign.name,
            name="campaign_error",
            params=f"kind:{campaign.kind}",
            measured=math.nan,
            expected=f"no error, got: {exc}",
            tol=0.0,
            passed=False,
            wall=0.0,
        )
        return [rec], {}


def run_campaigns(campaigns, workers: int = 1) -> tuple:
    """Run campaigns (optionally concurrently) and merge deterministically."""
    results = []
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_campaign, campaigns))
    else:
        results = [run_campaign(c) for c in campaigns]
    report = Report()
    traces = {}
    for frag, tr in results:
        report.records.extend(frag)
        traces.update(tr)
    return report, traces


# --- outputs -------------------------------------------------------------------


def write_outputs(report: Report, traces: dict, out_dir) -> list:
    """Write per-run CSV traces and the report; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for key in sorted(traces):
        result = traces[key]
        path = out / f"{key}.csv"
        with open(path, "w") as fh:
            fh.write("t,E,H,umin,umax\n")
            for row in zip(result.times, result.energy, result.h_functional,
                           result.umin, result.umax):
                fh.write(",".join(f"{v:.15g}" for v in row) + "\n")
        written.append(path)
    report_path = out / "report.txt"
    with open(report_path, "w") as fh:
        fh.write(report.text())
    written.append(report_path)
    return written


# --- default (acceptance) suite ---------------------------------------------------


def default_campaigns() -> list:
    """The built-in suite; mirrors the acceptance checks one-to-one."""
    return [
        Campaign(name="ml", kind="ml_table", params={"tol": 1e-10}),
        Campaign(
            name="eigen",
            kind="eigen_convergence",
            params={
                "s_values": [0.3, 0.5, 0.7],
                "cauchy_s": 0.9,
                "domain": (0.0, 1.0),
                "oracle_n": 64,
                "probes": 100,
            },
        ),
        Campaign(
            name="decay-a05",
            kind="decay",
            params=_decay_defaults(0.5),
        ),
        Campaign(
            name="decay-a08",
            kind="decay",
            params=_decay_defaults(0.8),
        ),
        Campaign(
            name="blowup",
            kind="blowup",
            params={
                "alphas": [0.6, 0.8, 1.0],
                "s": 0.4,
                "domain": (0.0, 2.0),
                "n": 128,
                "dt": 2e-3,
                "h0_factors": [1.2, 1.6],
                "width": 0.2,
                "logistic_check": True,
                "stability_tol": 0.05,
            },
        ),
        Campaign(
            name="invariant",
            kind="invariant_region",
            params={
                "alphas": [0.5, 0.8, 1.0],
                "s_values": [0.4, 0.7],
                "domain": (0.0, 1.0),
                "n": 128,
                "dt": 0.1,
                "t_end": 50.0,
                "bound_tol": 1e-8,
                "comparison_pairs": 20,
            },
        ),
    ]


def _decay_defaults(alpha):
    return {
        "alpha": alpha,
        "s": 0.4,
        "domain": (0.0, 1.0),
        "n": 128,
        "dt": 0.5,
        "t_end": 1000.0,
        "profile": "parabola",
        "amplitude": 0.9,
        "slope_band": 0.15,
        "envelope_slack": 1.05,
        "l1_check": True,
    }
