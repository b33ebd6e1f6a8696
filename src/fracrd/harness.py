"""Campaign orchestration: configuration parsing, deterministic execution of
the verification campaigns, and report/trace output.

Campaign kinds:

* ``ml_table``          -- Mittag-Leffler evaluator against the frozen
                           extended-precision oracle table (plus a closed-form
                           erfc identity and a bit-repeatability check),
* ``eigen_convergence`` -- operator structure (symmetry, smallest
                           eigenvalue), the energy of a parabola against
                           its closed form, the principal eigenvalue
                           against a dense eigendecomposition, and its grid
                           Cauchy sequence,
* ``decay``             -- linear fractional-ODE stepper convergence, the
                           fitted late-time decay slope of E(t) against its
                           sharp rate -2*alpha, and the Mittag-Leffler
                           comparison envelope,
* ``blowup``            -- the closed-form blow-up time ln(1 + 1/y0) of the
                           scalar quadratic-growth equation at alpha = 1,
                           solved by the PDE stepping loop with one mode,
                           and the two-sided blow-up-time bracket with
                           refinement stability; every blow-up time comes
                           from the one dt-halving ladder,
                           ``solver._dt_ladder``, as its settled Aitken
                           limit,
* ``invariant_region``  -- bounds preservation for data in [0,1] and the
                           discrete comparison principle on random ordered
                           pairs.

A campaign's keys set only the problem: physics, grid and initial data.
Every record runs and every gate is a fixed value at its record, so each
kind's record set follows from its lists (``alphas``, ``s_values``,
``h0_factors``).

A gate is built by one of four constructors, which write its ``expected``
text and its ``tol``; NaN fails every gate:

* ``at_most(x)``  -- ``<=x``, tol ``|x|``: ``max_rel_err`` 1e-10,
  ``erfc_identity`` 1e-9, ``symmetry`` 1e-12, ``energy_s*`` 1e-4,
  ``lambda1_vs_dense_*`` 1e-10, ``envelope`` 1.05, ``logistic_T_*`` 0.01,
  ``stability_*`` 0.05, ``bounds_*`` and ``comparison_principle`` 1e-8;
* ``at_least(x)`` -- ``>=x``, tol ``|x|``: ``min_eigenvalue`` -1e-10,
  ``cauchy_lambda1`` 1.5;
* ``equals(x)``   -- ``==x``, tol 0: ``repeat_identical`` 0, ``l1_monotone`` 1;
* ``within(lo, hi, tol)`` -- ``in[lo,hi]``, tol as given: ``l1_order``
  ``[alpha - 0.1, 2.2 - alpha]`` with tol its width, ``slope``
  ``-alpha * (2 -/+ 0.15)`` with tol its half-width ``0.15 * alpha``, and
  ``containment_*`` the blow-up bracket with tol its width.

A record's note (``;finding:...``, ``;dt:...``, ``;n:...``, ``;error:...``)
follows ``expected`` and fails the record.

Reports are plain text, one record per line, sorted by campaign/name/params;
wall times are excluded from the canonical form used for determinism checks.
The summary also names the BLAS thread variables as the run saw them,
which move the last bits of lambda1; the canonical form leaves it out.
"""

from __future__ import annotations

import configparser
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np
from scipy.linalg import eigh

from .caputo import solve_linear_fode
from .errors import ConfigError, DomainError, FracRDError, UnsupportedParameterError
from .fraclap import Grid1D, assemble_regional, normalizing_constant, principal_eigenpair
from .solver import (
    BLOW_THRESHOLD,
    PROFILES,
    SimConfig,
    _dt_ladder,
    _march,
    _operator,
    blowup_bracket,
    detect_blowup,
    initial_field,
    run,
)
from .special import ml_eval


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
        lines.append(" ".join(f"{v}={os.environ.get(v, 'unset')}"
                              for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")))
        return "\n".join(lines) + "\n"

    def canonical_text(self) -> str:
        """Report body with wall times stripped; bit-identical across reruns."""
        return "\n".join(r.line(with_wall=False) for r in self.sorted_records()) + "\n"


@dataclass(frozen=True)
class Gate:
    """A record's fixed pass condition, lo <= measured <= hi.

    NaN fails every gate: each comparison with it is false.
    """

    expected: str
    tol: float
    lo: float = -math.inf
    hi: float = math.inf

    def passes(self, measured: float) -> bool:
        return self.lo <= measured <= self.hi


def at_most(x):
    return Gate(f"<={x:g}", abs(x), hi=x)


def at_least(x):
    return Gate(f">={x:g}", abs(x), lo=x)


def equals(x):
    return Gate(f"=={x:g}", 0.0, x, x)


def within(lo, hi, tol):
    return Gate(f"in[{lo:.15g},{hi:.15g}]", tol, lo, hi)


def _record(campaign, name, params, measured, gate, t0, note=""):
    """A check record; a non-empty note follows ``expected`` and fails it."""
    measured = float(measured)
    return CheckRecord(campaign, name, params, measured, gate.expected + note, gate.tol,
                       not note and gate.passes(measured), time.perf_counter() - t0)


# --- configuration ------------------------------------------------------------

# One table says what every campaign kind accepts:
# {kind: {key: (value type, default, bounds)}}.  A default of None marks a
# required key.  Value types: "float", "int", "floats" (comma-separated
# list), "domain" ("a, b" with a < b) and "profile" (a name in
# solver.PROFILES).  Every number, including each list entry and domain
# endpoint, must lie in its key's bounds, an interval such as "(0, 1]"; an
# open end at inf rejects infinite values.
CAMPAIGN_SCHEMA = {
    "invariant_region": {
        "alphas": ("floats", None, "(0, 1]"),
        "s_values": ("floats", None, "(0, 1)"),
        "domain": ("domain", (0.0, 1.0), "(-inf, inf)"),
        "n": ("int", 128, "[2, 4096]"),
        "dt": ("float", 0.1, "(0, inf)"),
        "t_end": ("float", 50.0, "(0, inf)"),
        # a pair is two 200-step n = 64 runs, about 11 ms: 1e4 pairs about 2 minutes
        "comparison_pairs": ("int", 20, "[1, 10000]"),
    },
    "decay": {
        "alpha": ("float", None, "(0, 1]"),
        "s": ("float", None, "(0, 1)"),
        "domain": ("domain", (0.0, 1.0), "(-inf, inf)"),
        "n": ("int", 128, "[2, 4096]"),
        "dt": ("float", 0.5, "(0, inf)"),
        "t_end": ("float", 1000.0, "(0, inf)"),
        "profile": ("profile", "parabola", None),
        "amplitude": ("float", 0.9, "[0, 1]"),
    },
    "blowup": {
        "alphas": ("floats", None, "(0, 1]"),
        "s": ("float", None, "(0, 1)"),
        "domain": ("domain", (0.0, 2.0), "(-inf, inf)"),
        # the stability arm runs at 2 n, and the operator stops at n = 4096
        "n": ("int", 128, "[2, 2048]"),
        "dt": ("float", 2e-3, "(0, inf)"),
        "h0_factors": ("floats", (1.2, 1.6), "[1, inf)"),
        "width": ("float", 0.2, "(0, inf)"),
    },
    "ml_table": {},
    "eigen_convergence": {
        "s_values": ("floats", (0.3, 0.5, 0.7), "(0, 1)"),
        "cauchy_s": ("float", 0.9, "(0, 1)"),
        "domain": ("domain", (0.0, 1.0), "(-inf, inf)"),
        "oracle_n": ("int", 64, "[2, 4096]"),
    },
}

CAMPAIGN_KINDS = tuple(CAMPAIGN_SCHEMA)


def parse_config(path) -> list:
    """Parse an INI-style campaign file: one section per campaign."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"configuration file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cp.read(path, encoding="utf-8-sig")  # a leading byte-order mark is dropped
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8: byte {exc.object[exc.start]:#04x} "
                          f"at offset {exc.start}") from None
    except configparser.Error as exc:  # its message spans lines; the CLI prints one
        raise ConfigError(f"cannot parse configuration: {' '.join(str(exc).split())}") from None
    campaigns = []
    for section in cp.sections():
        if "/" in section or "\\" in section:
            raise ConfigError("a campaign name must not contain '/' or '\\': it names "
                              "the campaign's output files", section=section)
        options = dict(cp[section])
        if "kind" not in options:
            raise ConfigError("required key is missing", key="kind", section=section)
        kind = options.pop("kind").strip()
        if kind not in CAMPAIGN_KINDS:
            raise ConfigError(
                f"unknown kind '{kind}' (choose from {CAMPAIGN_KINDS})",
                key="kind",
                section=section,
            )
        campaigns.append(Campaign(name=section, kind=kind,
                                  params=_campaign_params(section, kind, options)))
    if not campaigns:
        raise ConfigError(f"no campaign sections found in {path}")
    return campaigns


def _campaign_params(section, kind, options) -> dict:
    """Typed params of one campaign from its raw options and the schema."""
    schema = CAMPAIGN_SCHEMA[kind]
    for key in options:
        if key not in schema:
            choices = f"choose from {sorted(schema)}" if schema else "it takes no keys"
            raise ConfigError(f"unknown key for kind '{kind}' ({choices})",
                              key=key, section=section)
    params = {}
    for key, (value_type, default, bounds) in schema.items():
        if key in options:
            params[key] = _parse_value(section, key, value_type, bounds, options[key].strip())
        elif default is None:
            raise ConfigError("required key is missing", key=key, section=section)
        else:
            params[key] = list(default) if value_type == "floats" else default
    return params


def _parse_value(section, key, value_type, bounds, raw):
    """One raw option as its schema type, checked against its bounds."""

    def error(message):
        return ConfigError(message, key=key, section=section)

    if value_type == "profile":
        if raw not in PROFILES:
            raise error(f"unknown profile '{raw}' (choose from {sorted(PROFILES)})")
        return raw
    if value_type in ("floats", "domain"):
        chunks = [chunk.strip() for chunk in raw.split(",") if chunk.strip()]
    else:
        chunks = [raw]
    if value_type == "domain" and len(chunks) != 2:
        raise error("domain must be 'a,b'")
    if not chunks:
        raise error("list key is empty")
    number = int if value_type == "int" else float
    values = []
    for chunk in chunks:
        try:
            value = number(chunk)
        except ValueError:
            raise error(f"cannot parse '{chunk}' as {'an integer' if number is int else 'a number'}")
        # Written so that NaN violates the lower bound.
        lo_text, hi_text = (part.strip() for part in bounds.split(","))
        lo, hi = float(lo_text[1:]), float(hi_text[:-1])
        if not (value > lo if lo_text[0] == "(" else value >= lo):
            raise error(f"value {value:g} violates lower bound {lo_text}")
        if not (value < hi if hi_text[-1] == ")" else value <= hi):
            raise error(f"value {value:g} violates upper bound {hi_text}")
        values.append(value)
    if value_type == "domain":
        a, b = values
        if not a < b:
            raise error(f"domain endpoints must satisfy a < b, got {a}, {b}")
        return (a, b)
    return values if value_type == "floats" else values[0]


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
    name = campaign.name

    def compute_fragment():
        t0 = time.perf_counter()
        table = load_oracle_table()
        worst = 0.0
        for alpha, z, ref in table:
            err = abs(ml_eval(alpha, z) - ref) / max(abs(ref), 1e-300)
            worst = max(worst, err)
        frag = [_record(name, "max_rel_err", f"points:{len(table)}", worst, at_most(1e-10), t0)]
        t0 = time.perf_counter()
        erfc_dev = abs(ml_eval(0.5, -1.0) - math.exp(1.0) * math.erfc(1.0))
        frag.append(_record(name, "erfc_identity", "alpha:0.5;z:-1", erfc_dev, at_most(1e-9), t0))
        return frag

    frag1 = compute_fragment()
    t0 = time.perf_counter()
    frag2 = compute_fragment()
    first = "".join(r.line(with_wall=False) for r in frag1)
    second = "".join(r.line(with_wall=False) for r in frag2)
    frag1.append(_record(name, "repeat_identical", "-", first != second, equals(0), t0))
    return frag1, {}


_ENERGY_N = 256  # interior nodes of the energy record's grid


def _parabola_energy(a: float, b: float, s: float) -> float:
    """Regional energy (C_{1,s}/2) int int_Omega (u(x) - u(y))^2 |x - y|^(-1-2s)
    of u = xi (1 - xi), xi = (x - a)/(b - a), on Omega = (a, b).

    With eta = (y - a)/(b - a), u(x) - u(y) = (xi - eta)(1 - xi - eta), so
    in d = xi - eta and m = xi + eta the integral is elementary: (b - a)^(1-2s) C_{1,s}
    B(2 - 2s, 4) / 3 = (b - a)^(1-2s) C_{1,s} 2 Gamma(2 - 2s) / Gamma(6 - 2s);
    1/(12 pi) on (0, 1) at s = 1/2."""
    return ((b - a) ** (1.0 - 2.0 * s) * normalizing_constant(s)
            * 2.0 * math.gamma(2.0 - 2.0 * s) / math.gamma(6.0 - 2.0 * s))


def _energy_error(a: float, b: float, s: float) -> float:
    """|h u^T A u - E| / E for the nodal values u of the parabola of
    ``_parabola_energy`` on Grid1D(a, b, _ENERGY_N), A the solver's operator.

    h u^T A u is the exact energy of the hat interpolant of u, so the error
    falls like h^(4-2s): 4.3e-6 at s = 0.9, at most 1.5e-5 (s -> 1) for s in
    (0, 1), the same on any (a, b)."""
    grid = Grid1D(a, b, _ENERGY_N)
    xi = (grid.nodes() - a) / (b - a)
    u = xi * (1.0 - xi)
    exact = _parabola_energy(a, b, s)
    return abs(grid.h * (u @ (assemble_regional(grid, s).entries @ u)) - exact) / exact


def _run_eigen_convergence(campaign) -> tuple:
    p = campaign.params
    name = campaign.name
    a, b = p["domain"]
    frag = []

    t0 = time.perf_counter()
    grid = Grid1D(a, b, p["oracle_n"])
    op = assemble_regional(grid, p["cauchy_s"])
    asym = np.max(np.abs(op.entries - op.entries.T)) / np.max(np.abs(op.entries))
    frag.append(_record(name, "symmetry", f"n:{p['oracle_n']};s:{p['cauchy_s']:g}", asym,
                        at_most(1e-12), t0))

    t0 = time.perf_counter()
    lam_min = float(eigh(op.entries, eigvals_only=True, subset_by_index=[0, 0])[0])
    frag.append(_record(name, "min_eigenvalue", f"n:{p['oracle_n']};s:{p['cauchy_s']:g}",
                        lam_min, at_least(-1e-10), t0))

    t0 = time.perf_counter()
    s = p["cauchy_s"]
    frag.append(_record(name, f"energy_s{s:g}", f"n:{_ENERGY_N};s:{s:g}",
                        _energy_error(a, b, s), at_most(1e-4), t0))

    for s in p["s_values"]:
        t0 = time.perf_counter()
        g = Grid1D(a, b, p["oracle_n"])
        operator = assemble_regional(g, s)
        pair = principal_eigenpair(operator, g)
        vals = eigh(operator.entries, eigvals_only=True, subset_by_index=[0, 0])
        rel = abs(pair.lambda1 - vals[0]) / vals[0]
        frag.append(_record(name, f"lambda1_vs_dense_s{s:g}", f"n:{p['oracle_n']};s:{s:g}",
                            rel, at_most(1e-10), t0))

    t0 = time.perf_counter()
    lams = []
    for n in (64, 128, 256, 512):
        g = Grid1D(a, b, n)
        pair = principal_eigenpair(assemble_regional(g, p["cauchy_s"]), g)
        lams.append(pair.lambda1)
    diffs = [abs(lams[i + 1] - lams[i]) for i in range(3)]
    ratios = [diffs[i] / diffs[i + 1] for i in range(2)]
    frag.append(_record(name, "cauchy_lambda1", f"s:{p['cauchy_s']:g};n:64..512", min(ratios),
                        at_least(1.5), t0))
    return frag, {}


def _run_decay(campaign) -> tuple:
    p = campaign.params
    name = campaign.name
    alpha = p["alpha"]
    frag = []
    traces = {}

    t0 = time.perf_counter()
    exact = ml_eval(alpha, -1.0)
    errors = []
    for k in range(6, 13):
        dt = 2.0**-k
        errors.append(abs(solve_linear_fode(alpha, 1.0, 1.0, dt, 1.0)[-1] - exact))
    frag.append(_record(name, "l1_monotone", f"alpha:{alpha:g}",
                        all(errors[i] > errors[i + 1] for i in range(len(errors) - 1)),
                        equals(1), t0))
    t0 = time.perf_counter()
    dts = [2.0**-k for k in range(6, 13)]
    # error ~ dt^p, so the slope of log2(err) against log2(dt) is +p
    order = float(np.polyfit(np.log2(dts), np.log2(errors), 1)[0])
    lo, hi = alpha - 0.1, 2.0 - alpha + 0.2
    frag.append(_record(name, "l1_order", f"alpha:{alpha:g}", order, within(lo, hi, hi - lo), t0))

    t0 = time.perf_counter()
    a, b = p["domain"]
    cfg = SimConfig(
        alpha=alpha, s=p["s"], a=a, b=b, n=p["n"], dt=p["dt"], t_end=p["t_end"],
        profile=p["profile"], profile_params={"amplitude": p["amplitude"]},
    )
    result = run(cfg)
    traces[f"{name}_alpha{alpha:g}"] = result
    slope = result.decay_slope
    note = f";error:{result.slope_error}" if result.slope_error else ""
    # E(t) = ||u||^2 and each mode's amplitude decays like t^-alpha, so the
    # sharp rate of E is t^(-2 alpha); the band's half-width is alpha*band.
    band = 0.15
    frag.append(_record(name, "slope", f"alpha:{alpha:g};s:{p['s']:g}",
                        slope if slope is not None else math.nan,
                        within(-alpha * (2 + band), -alpha * (2 - band), alpha * band), t0, note))

    t0 = time.perf_counter()
    e0 = result.energy[0]
    worst, note = 0.0, ""
    z = np.array([-result.lambda1 * t**alpha for t in result.times])
    try:
        envelope = e0 * ml_eval(alpha, z)
        positive = envelope > 0
        # fmax skips a NaN ratio, as the running max of a scalar loop did
        worst = float(np.fmax.reduce(result.energy[positive] / envelope[positive], initial=0.0))
    except UnsupportedParameterError:  # lambda1 * t^alpha past ml_eval's range
        worst, note = math.nan, ";error:UnsupportedParameterError"
    frag.append(_record(name, "envelope", f"alpha:{alpha:g};lambda1:{result.lambda1:.15g}",
                        worst, at_most(1.05), t0, note))
    return frag, traces


def scaled_blowup_config(p, alpha, factor):
    """Blow-up run whose initial mass is h0 = factor*(1 + lambda1).

    ``p`` holds a blowup campaign's ``domain``, ``s``, ``n``, ``dt`` and
    ``width``.  The data are a Gaussian bump of that width, scaled to the
    target mass; t_end is 1.5 times the upper end of the blow-up window.
    The step is min(dt, t_end / 400), so any dt > 0 runs.  Returns
    ``(config, bracket)``, the one SimConfig built at the end; the bracket
    carries h0.  Raises DomainError when h0 overflows, when the scaled data
    are not below ``BLOW_THRESHOLD``, or when the window is too short for a
    step of t_end / 400.
    """
    a, b = p["domain"]
    pair = _operator(a, b, p["n"], p["s"])[0]
    lam1 = pair.lambda1
    grid = Grid1D(a, b, p["n"])
    unit = initial_field(grid, "gauss", {"amplitude": 1.0, "width": p["width"]})
    h0_unit = float(grid.h * np.sum(unit * pair.e1))
    if not (h0_unit > 0 and math.isfinite(h0_unit)):
        raise DomainError(
            f"gauss profile of width {p['width']:g} has weighted mass {h0_unit:g} on "
            f"the grid; it cannot be scaled to h0 = {factor:g} * (1 + lambda1)"
        )
    h0_target = factor * (1.0 + lam1)
    if not math.isfinite(h0_target):
        raise DomainError(
            f"h0 = factor * (1 + lambda1) = {factor:g} * {1.0 + lam1:.6g} overflows at "
            f"alpha = {alpha:g}; no blow-up window can be formed"
        )
    amplitude = h0_target / h0_unit
    u0_max = amplitude * float(unit.max())
    if not u0_max < BLOW_THRESHOLD:
        raise DomainError(
            f"h0 factor {factor:g} scales the data to max u0 = {u0_max:g}, not below the "
            f"blow-up threshold {BLOW_THRESHOLD:g}"
        )
    bracket = blowup_bracket(h0_target, alpha, lam1)
    t_end = 1.5 * bracket.upper
    if not t_end / 400.0 >= sys.float_info.min:
        raise DomainError(
            f"blow-up window [{bracket.lower:g}, {bracket.upper:g}] at alpha = {alpha:g}, "
            f"h0 = {h0_target:g} underflows: its step t_end / 400 is below the smallest "
            "normal double"
        )
    cfg = SimConfig(
        alpha=alpha, s=p["s"], a=a, b=b, n=p["n"], dt=min(p["dt"], t_end / 400.0), t_end=t_end,
        profile="gauss", profile_params={"amplitude": amplitude, "width": p["width"]},
    )
    return cfg, bracket


def _logistic_crossing(alpha, y0, t_end):
    """crossing(dt) for ``solver._dt_ladder`` of D^alpha y = y (y + 1),
    y(0) = y0, to t_end: the PDE step with one mode of eigenvalue -2."""
    even, odd, u0 = np.array([[-2.0]]), np.empty((0, 0)), np.array([y0])
    basis = np.array([-2.0]), np.eye(1)

    def crossing(dt):
        _, t_star, unresolved = _march(even, odd, -2.0, lambda: basis, np.ones(1), 1.0, u0,
                                       alpha, dt, t_end)
        return t_star, unresolved

    return crossing


def _run_blowup(campaign) -> tuple:
    p = campaign.params
    name = campaign.name
    frag = []
    traces = {}

    for y0 in (0.5, 1.0, 2.0):
        t0 = time.perf_counter()
        exact = math.log(1.0 + 1.0 / y0)
        finding = _dt_ladder(_logistic_crossing(1.0, y0, 10.0 * exact), exact / 50.0,
                             10.0 * exact)
        error = abs(finding.t_star - exact) / exact if finding.status == "blowup" else math.nan
        note = "" if finding.status == "blowup" else f";finding:{finding.status}"
        frag.append(_record(name, f"logistic_T_y0_{y0:g}", f"alpha:1;y0:{y0:g}",
                            error, at_most(0.01), t0, note))

    for alpha in p["alphas"]:
        for factor in p["h0_factors"]:
            t0 = time.perf_counter()
            cfg, bracket = scaled_blowup_config(p, alpha, factor)
            finding = detect_blowup(cfg)
            tag = f"alpha:{alpha:g};h0:{bracket.h0:.15g}"
            lo, hi = bracket.lower, bracket.upper
            t_star = finding.t_star if finding.status == "blowup" else math.nan
            note = "" if finding.status == "blowup" else f";finding:{finding.status}"
            frag.append(_record(name, f"containment_a{alpha:g}_f{factor:g}", tag, t_star,
                                within(lo, hi, hi - lo), t0, note))
            if note:
                continue

            t0 = time.perf_counter()
            arms = {  # dt / sqrt(2) starts a mesh family disjoint from containment's halvings
                "dt": detect_blowup(replace(cfg, dt=cfg.dt * 2.0**-0.5)),
                "n": detect_blowup(replace(cfg, n=2 * cfg.n)),
            }
            drift = max([0.0] + [abs(other.t_star - t_star) / t_star
                                 for other in arms.values() if other.status == "blowup"])
            note = "".join(f";{arm}:{other.status}"
                           for arm, other in arms.items() if other.status != "blowup")
            frag.append(_record(name, f"stability_a{alpha:g}_f{factor:g}", tag, drift,
                                at_most(0.05), t0, note))
    return frag, traces


_INVARIANT_PROFILES = (  # (profile, amplitude)
    ("constant", 0.5),
    ("constant", 1.0),
    ("sine", 1.0),
    ("parabola", 0.9),
    ("plateau", 0.9),
    ("step", 1.0),
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

    for profile, amp in _INVARIANT_PROFILES:
        for alpha in p["alphas"]:
            for s in p["s_values"]:
                t0 = time.perf_counter()
                cfg = SimConfig(
                    alpha=alpha, s=s, a=a, b=b, n=p["n"], dt=p["dt"], t_end=p["t_end"],
                    profile=profile, profile_params={"amplitude": amp},
                )
                result = run(cfg)
                violation = max(
                    float(np.max(result.umax) - 1.0), float(-np.min(result.umin)), 0.0
                )
                # run records the blown field, so a blow-up reads umax >= 1e8
                tag = f"profile:{profile}({amp:g});alpha:{alpha:g};s:{s:g}"
                frag.append(_record(name, f"bounds_{profile}{amp:g}_a{alpha:g}_s{s:g}", tag,
                                    violation, at_most(1e-8), t0))
                if profile == "parabola" and alpha == p["alphas"][0] and s == p["s_values"][0]:
                    traces[f"{name}_{profile}_a{alpha:g}_s{s:g}"] = result

    t0 = time.perf_counter()
    rng = np.random.default_rng(20240601)  # fixed so repeated campaigns are bit-identical
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
    frag.append(_record(name, "comparison_principle", f"pairs:{p['comparison_pairs']}", worst,
                        at_most(1e-8), t0))
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
        return [CheckRecord(campaign.name, "campaign_error", f"kind:{campaign.kind}", math.nan,
                            f"no error, got: {exc}", 0.0, False, 0.0)], {}


def run_campaigns(campaigns) -> tuple:
    """Run campaigns in order and merge their records and traces."""
    report = Report()
    traces = {}
    for campaign in campaigns:
        frag, tr = run_campaign(campaign)
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
    """The built-in suite; mirrors the acceptance checks one-to-one.

    Each campaign sets only its kind's required keys; every other key takes
    its schema default.
    """
    suite = {
        "ml": ("ml_table", {}),
        "eigen": ("eigen_convergence", {}),
        "decay-a05": ("decay", {"alpha": "0.5", "s": "0.4"}),
        "decay-a08": ("decay", {"alpha": "0.8", "s": "0.4"}),
        "blowup": ("blowup", {"alphas": "0.6, 0.8, 1.0", "s": "0.4"}),
        "invariant": ("invariant_region", {"alphas": "0.5, 0.8, 1.0", "s_values": "0.4, 0.7"}),
    }
    return [
        Campaign(name=name, kind=kind, params=_campaign_params(name, kind, options))
        for name, (kind, options) in suite.items()
    ]
