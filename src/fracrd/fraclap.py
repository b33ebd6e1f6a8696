"""Discrete regional fractional Laplacian on a uniform 1D grid.

The operator acts on functions supported in Omega = (a, b) and extended by
zero outside:

    L u(x) = C_{1,s} P.V. int_Omega (u(x) - u(xi)) / |x - xi|^(1+2s) dxi.

``assemble_regional`` discretizes the associated energy form on piecewise
linear hat functions at the interior nodes x_i = a + i*h, h = (b-a)/(n+1)
(the zero-exterior condition is carried by the basis itself).  All kernel
integrals reduce to closed forms: writing u(x) - u(y) as the integral of u'
over (y, x) turns the full-line energy into

    int int u'(t) v'(tau) |t - tau|^(1-2s) / (2s(2s-1)) dt dtau,

whose cell-pair integrals are fourth differences of |k|^(3-2s) (a quadratic
log form at s = 1/2), and the difference between the full-line and the
Omega-restricted energy is a weighted mass term with the explicit weight
omega(x) = ((x-a)^(-2s) + (b-x)^(-2s)) / (2s), integrable against products
of interior hats.  That mass is tridiagonal and is subtracted in place from
the Toeplitz full-line matrix as two diagonals.  Its cell integrals need
powers at the n + 1 knots k*h only; they come from libm (Python ``**`` and
``math.log``), since numpy's ``power`` and ``log`` differ from it in the last
bit on some inputs and the matrix is reproducible bit for bit.  Dividing the
stiffness matrix by h (lumped mass) yields a nodal operator matrix.  The
variational origin makes the matrix symmetric positive semidefinite with
nonpositive off-diagonal entries and nonnegative row sums, and its
eigenvalues converge at the energy (squared) rate, which the pointwise
collocation alternative does not achieve for the boundary-singular
eigenfunctions of this operator.

``assemble_regional_untruncated`` keeps a cell-collocation construction on a
cell-centred grid tiling all of (a, b): midpoint values against exact
cell-wise kernel integrals plus a symmetric-cancellation treatment of the
singular cell.  It annihilates constant fields exactly, which is the
property it exists to check; quadrature of the kernel itself would blow up
near the singularity, hence the closed-form cell integrals

    int_cell |x_i - xi|^(-1-2s) dxi
        = ((d - h/2)^(-2s) - (d + h/2)^(-2s)) / (2s),   d = |i-j| h.

Both variants pass a tiled symmetry check and use the normalization
C_{1,s} = 4^s Gamma(1/2+s) / (sqrt(pi) |Gamma(-s)|), under which the s -> 1
limit is the classical Dirichlet Laplacian.

``principal_eigenpair`` is one inverse-iteration loop on the Cholesky factor
of the assembled matrix, stopped by a backward-error bound on the residual,
16 * eps * ||A||_1; A is checked finite once, and each iteration is one
LAPACK ``potrs`` solve.  Dense ``eigh`` serves only as the independent
oracle (tests, the eigen_convergence campaign, the benchmark).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, toeplitz
from scipy.linalg.lapack import dpotrs

from .errors import AssemblyError, ConvergenceError, DomainError

_MAX_NODES = 4096  # dense storage; the kernel has global support
_RESIDUAL_FACTOR = 16.0  # eigen residual bound in units of eps * ||A||_1
_MAX_ITERATIONS = 100  # the suite and the tests meet the bound in 9 to 17
_SYMMETRY_TILE = 64  # edge of the symmetry check's tiles; a tile pair is 64 kB


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on (a, b) with n interior nodes; exterior values are 0."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError(f"endpoints must be finite, got ({self.a}, {self.b})")
        if not self.a < self.b:
            raise DomainError(f"need a < b, got ({self.a}, {self.b})")
        if self.n < 2:
            raise DomainError(f"need n >= 2 interior nodes, got {self.n}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.n + 1)

    def nodes(self) -> np.ndarray:
        return self.a + self.h * np.arange(1, self.n + 1)


@dataclass
class Field:
    """Nodal values of a grid function at the interior nodes."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n,):
            raise DomainError(
                f"field has {self.values.shape} values for a grid with n={self.grid.n}"
            )
        if not np.all(np.isfinite(self.values)):
            raise DomainError("field values must be finite")


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense symmetric positive-semidefinite discretization of the operator."""

    entries: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class EigenPair:
    """Principal eigenpair: smallest eigenvalue with positive eigenvector
    rescaled to unit discrete integral h * sum(e1) = 1.

    ``residual`` is the backward error at which inverse iteration stopped,
    ||A w - lambda1 w|| for the unit iterate w = e1 / ||e1||; it is at most
    16 * eps * ||A||_1."""

    lambda1: float
    e1: Field
    residual: float


def normalizing_constant(s: float) -> float:
    """Full-space constant C_{1,s}; makes the s->1 limit the classical -d2/dx2."""
    return 4.0**s * math.gamma(0.5 + s) / (math.sqrt(math.pi) * abs(math.gamma(-s)))


def _cell_kernel_integrals(h: float, offsets: np.ndarray, s: float) -> np.ndarray:
    """Exact integral of |x - xi|^(-1-2s) over a width-h cell at distance k*h."""
    d = offsets * h
    return ((d - 0.5 * h) ** (-2.0 * s) - (d + 0.5 * h) ** (-2.0 * s)) / (2.0 * s)


def _check_symmetry(entries: np.ndarray) -> None:
    """Raise AssemblyError unless A is finite and max|A - A^T| <= 1e-12 * max|A|,
    comparing tiles A[I, J] with A[J, I]^T for I <= J; max|A| comes from the
    same tiles.  A NaN or infinite entry makes the skew or the scale non-finite."""
    n, t = len(entries), _SYMMETRY_TILE
    skews, scales = [], []
    for i in range(0, n, t):
        for j in range(i, n, t):
            upper, lower = entries[i : i + t, j : j + t], entries[j : j + t, i : i + t]
            skews.append(np.max(np.abs(upper - lower.T)))
            scales.append(max(np.max(np.abs(upper)), np.max(np.abs(lower))))
    skew, scale = np.max(skews), np.max(scales)
    if not math.isfinite(skew + scale):
        raise AssemblyError(
            "assembled matrix has non-finite entries: the cell width is outside "
            "the range its kernel powers can represent in double precision"
        )
    if skew > 1e-12 * scale:
        raise AssemblyError(f"assembled matrix asymmetric: {skew:g} vs scale {scale:g}")


def _slope_kernel_primitive(t: np.ndarray, s: float) -> np.ndarray:
    """Double cell primitive of |t|^(1-2s)/(2s(2s-1)); log form at s = 1/2.

    Fourth differences of this function give the energy of hat-function
    pairs; affine pieces are irrelevant because hat slopes integrate to 0.
    """
    t = np.abs(np.asarray(t, dtype=float))
    if abs(s - 0.5) > 1e-12:
        c = 1.0 / (2.0 * s * (2.0 * s - 1.0) * (2.0 - 2.0 * s) * (3.0 - 2.0 * s))
        return t ** (3.0 - 2.0 * s) * c
    out = np.zeros_like(t)
    pos = t > 0
    tp = t[pos]
    out[pos] = 0.75 * tp**2 - 0.5 * tp**2 * np.log(tp)
    return out


def _fullspace_energy_toeplitz(n: int, h: float, s: float) -> np.ndarray:
    """Energy of interior hat pairs for the full-line kernel (Toeplitz)."""
    k = np.arange(n, dtype=float)
    fourth = (
        _slope_kernel_primitive(k + 2, s)
        - 4.0 * _slope_kernel_primitive(k + 1, s)
        + 6.0 * _slope_kernel_primitive(k, s)
        - 4.0 * _slope_kernel_primitive(k - 1, s)
        + _slope_kernel_primitive(k - 2, s)
    )
    return toeplitz(-(h ** (1.0 - 2.0 * s)) * fourth)


def _boundary_weight_mass(n: int, h: float, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the tridiagonal mass matrix of the hats
    against omega(x) = ((x-a)^(-2s) + (b-x)^(-2s)) / (2s), the difference
    between the full-line and the Omega-restricted energies."""
    i = np.arange(1.0, n + 1.0)
    knots = [k * h for k in range(1, n + 2)]

    def mono(p):
        # integral of t^(p-2s) over each cell [kh, (k+1)h], k = 1..n;
        # p - 2s = -1 only at s = 1/2, p = 0
        e = p - 2.0 * s + 1.0
        if abs(e) < 1e-13:
            return np.array([math.log(t1 / t0) for t0, t1 in zip(knots, knots[1:])])
        t = np.array([x**e for x in knots])
        return (t[1:] - t[:-1]) / e

    m0, m1, m2 = mono(0), mono(1), mono(2)
    # rising flank of hat i: phi = A + B t on [(i-1)h, ih], A = -(i-1), B = 1/h;
    # for i = 1, A = 0 and only the t^2 monomial remains, integrable at t = 0
    a1, b1 = -(i[1:] - 1.0), 1.0 / h
    rise = np.empty(n)
    rise[0] = (b1 * b1) * h ** (3.0 - 2.0 * s) / (3.0 - 2.0 * s)
    rise[1:] = a1 * a1 * m0[:-1] + 2.0 * a1 * b1 * m1[:-1] + b1 * b1 * m2[:-1]
    # falling flank: phi = (i+1) - t/h on [ih, (i+1)h]
    a2, b2 = i + 1.0, -1.0 / h
    diag = rise + (a2 * a2 * m0 + 2.0 * a2 * b2 * m1 + b2 * b2 * m2)
    # overlap of hats i, i+1 on [ih, (i+1)h]: second hat is t/h - i
    a, c = a2[:-1], -i[:-1]
    off = a * c * m0[:-1] + (a / h + b2 * c) * m1[:-1] + (b2 / h) * m2[:-1]
    return (diag + diag[::-1]) / (2.0 * s), (off + off[::-1]) / (2.0 * s)


def assemble_regional(grid: Grid1D, s: float) -> OperatorMatrix:
    """Assemble the operator on the zero-exterior (Dirichlet) subspace."""
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must be in (0, 1), got {s}")
    if grid.n > _MAX_NODES:
        raise DomainError(f"n={grid.n} exceeds the supported dense range {_MAX_NODES}")
    n, h = grid.n, grid.h
    c = normalizing_constant(s)
    # On extreme domains the powers of h leave the double range; the NaN or
    # infinite entries that result are reported by _check_symmetry as an
    # AssemblyError, so numpy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        entries = _fullspace_energy_toeplitz(n, h, s)
        try:
            diag, off = _boundary_weight_mass(n, h, s)
        except OverflowError:
            raise AssemblyError(
                f"cell width h = {h:g} overflows the boundary-mass knot powers at s = {s:g}"
            ) from None
        entries.flat[:: n + 1] -= diag
        entries.flat[1 :: n + 1] -= off
        entries.flat[n :: n + 1] -= off
        entries *= c / h  # lumped mass turns the energy matrix into a nodal operator
        _check_symmetry(entries)
    return OperatorMatrix(entries)


def assemble_regional_untruncated(a: float, b: float, n: int, s: float) -> OperatorMatrix:
    """Auxiliary assembly with cell-centred nodes tiling all of (a, b).

    No exterior-zero mass is imposed, so the discrete operator annihilates
    constant fields exactly; used to check consistency with the principal-
    value definition, which kills u(x) - u(xi) for constants.
    """
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must be in (0, 1), got {s}")
    if not (2 <= n <= _MAX_NODES):
        raise DomainError(f"n={n} outside supported range [2, {_MAX_NODES}]")
    if not a < b:
        raise DomainError(f"need a < b, got ({a}, {b})")
    h = (b - a) / n
    c = normalizing_constant(s)

    kernel = _cell_kernel_integrals(h, np.arange(1, n, dtype=float), s)
    entries = toeplitz(np.concatenate(([0.0], -kernel)))
    csum = np.concatenate(([0.0], np.cumsum(kernel)))
    # Singular-cell curvature correction as a second difference with
    # reflected ends (no exterior coupling), so constants stay in the kernel.
    gh2 = (0.5 * h) ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s) / (h * h)
    diag_corr = np.full(n, 2.0 * gh2)
    diag_corr[0] = diag_corr[-1] = gh2
    entries.flat[:: n + 1] = csum + csum[::-1] + diag_corr
    entries.flat[1 :: n + 1] -= gh2
    entries.flat[n :: n + 1] -= gh2

    entries *= c
    _check_symmetry(entries)
    return OperatorMatrix(entries)


def principal_eigenpair(op: OperatorMatrix, grid: Grid1D) -> EigenPair:
    """Smallest eigenpair by zero-shift inverse iteration on the Cholesky
    factor of A.

    The matrix is positive definite on the zero-exterior subspace, so plain
    inverse iteration converges to the ground state.  It stops at the first
    unit iterate w whose residual ||A w - lambda w|| (a backward error: w is
    an exact eigenvector of a matrix within that distance of A) is at most
    16 * eps * ||A||_1.  The floating-point floor of that residual measures
    0.3 to 2.3 eps * ||A||_1 for n from 8 to 4096 and s from 0.01 to 0.99,
    so the factor 16 leaves about 7x headroom; a bound relative to lambda1
    instead would sit below the floor on fine grids with s near 1.  The
    eigenvector is sign-fixed (largest-magnitude entry positive), checked
    positive, and rescaled to h * sum(e1) = 1.

    Raises DomainError when grid and matrix differ in size; ConvergenceError
    when A is not finite or not positive definite, when an iterate's norm
    underflows to 0 or overflows (the scale of A is too far from 1), when the
    bound is not met within 100 iterations, or when the limit is not a
    positive eigenpair.
    """
    if grid.n != op.dim:
        raise DomainError(f"grid has n={grid.n} nodes but the operator has dim={op.dim}")
    a = op.entries
    if not np.isfinite(a).all():
        raise ConvergenceError("operator matrix has non-finite entries")
    a_norm = np.linalg.norm(a, 1)
    bound = _RESIDUAL_FACTOR * np.finfo(float).eps * a_norm
    try:
        factor = cho_factor(a, check_finite=False)[0]
    except np.linalg.LinAlgError:
        raise ConvergenceError("operator matrix is not positive definite") from None
    w = np.full(op.dim, 1.0 / math.sqrt(op.dim))
    for _ in range(_MAX_ITERATIONS):
        w = dpotrs(factor, w)[0]  # its info is nonzero only for an illegal argument
        with np.errstate(over="ignore"):  # an infinite norm is reported below
            norm = np.linalg.norm(w)
        if not 0.0 < norm < math.inf:
            raise ConvergenceError(
                f"inverse iterate's norm {'underflowed to 0' if norm == 0 else 'overflowed'} "
                f"at operator scale ||A||_1 = {a_norm:g} on the domain ({grid.a:g}, {grid.b:g})"
            )
        w /= norm
        aw = a @ w
        lam = float(w @ aw)
        residual = float(np.linalg.norm(aw - lam * w))
        if residual <= bound:
            break
    else:
        raise ConvergenceError(
            f"inverse iteration residual {residual:g} exceeds the bound "
            f"{_RESIDUAL_FACTOR:g} * eps * ||A||_1 = {bound:g} after {_MAX_ITERATIONS} iterations"
        )
    if lam <= 0:
        raise ConvergenceError(f"principal eigenvalue must be positive, got {lam:g}")
    if w[np.argmax(np.abs(w))] < 0:
        w = -w
    if np.min(w) <= 0:
        raise ConvergenceError("principal eigenvector is not strictly positive")
    e1 = w / (grid.h * np.sum(w))
    return EigenPair(lambda1=lam, e1=Field(grid=grid, values=e1), residual=residual)


def dump_eigenpair(pair: EigenPair, path) -> None:
    """Two-column CSV ``x, e1`` at the interior nodes."""
    xs = pair.e1.grid.nodes()
    with open(path, "w") as fh:
        fh.write("x,e1\n")
        for x, v in zip(xs, pair.e1.values):
            fh.write(f"{x:.15g},{v:.15g}\n")
