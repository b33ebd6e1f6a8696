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
of interior hats.  Dividing the stiffness matrix by h (lumped mass) yields a
nodal operator matrix.  The variational origin makes the matrix symmetric
positive semidefinite with nonpositive off-diagonal entries and nonnegative
row sums, and its eigenvalues converge at the energy (squared) rate, which
the pointwise collocation alternative does not achieve for the boundary-
singular eigenfunctions of this operator.

``assemble_regional_untruncated`` keeps a cell-collocation construction on a
cell-centred grid tiling all of (a, b): midpoint values against exact
cell-wise kernel integrals plus a symmetric-cancellation treatment of the
singular cell.  It annihilates constant fields exactly, which is the
property it exists to check; quadrature of the kernel itself would blow up
near the singularity, hence the closed-form cell integrals

    int_cell |x_i - xi|^(-1-2s) dxi
        = ((d - h/2)^(-2s) - (d + h/2)^(-2s)) / (2s),   d = |i-j| h.

Both variants use the normalization
C_{1,s} = 4^s Gamma(1/2+s) / (sqrt(pi) |Gamma(-s)|), under which the s -> 1
limit is the classical Dirichlet Laplacian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh, toeplitz

from .errors import AssemblyError, ConvergenceError, DomainError

_MAX_NODES = 4096  # dense storage; the kernel has global support


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on (a, b) with n interior nodes; exterior values are 0."""

    a: float
    b: float
    n: int

    def __post_init__(self):
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

    dim: int
    entries: np.ndarray
    s: float
    c_ns: float


@dataclass(frozen=True)
class EigenPair:
    """Principal eigenpair: smallest eigenvalue with positive eigenvector
    rescaled to unit discrete integral h * sum(e1) = 1.

    ``residual`` is scale-invariant: ||A e1 - lambda1 e1|| / ||e1||."""

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
    skew = np.max(np.abs(entries - entries.T))
    scale = np.max(np.abs(entries))
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


def _boundary_weight_mass(n: int, h: float, s: float) -> np.ndarray:
    """Tridiagonal mass matrix of the hats against the boundary weight
    omega(x) = ((x-a)^(-2s) + (b-x)^(-2s)) / (2s); this is the difference
    between the full-line and the Omega-restricted energies."""

    def mono(p, t0, t1):
        # integral of t^(p-2s) on [t0, t1]; p - 2s = -1 only at s = 1/2, p = 0
        e = p - 2.0 * s + 1.0
        if abs(e) < 1e-13:
            return math.log(t1 / t0)
        return (t1**e - t0**e) / e

    diag = np.zeros(n)
    off = np.zeros(n - 1)
    for i in range(1, n + 1):
        # rising flank of hat i: phi = (t - (i-1)h)/h = A + B t on [(i-1)h, ih]
        t0, t1 = (i - 1) * h, i * h
        a1, b1 = -(i - 1.0), 1.0 / h
        if i == 1:
            # A = 0: only the t^2 monomial, integrable at t = 0 for s < 1
            val = (b1 * b1) * t1 ** (3.0 - 2.0 * s) / (3.0 - 2.0 * s)
        else:
            val = (
                a1 * a1 * mono(0, t0, t1)
                + 2.0 * a1 * b1 * mono(1, t0, t1)
                + b1 * b1 * mono(2, t0, t1)
            )
        # falling flank: phi = (i+1) - t/h on [ih, (i+1)h]
        t0, t1 = i * h, (i + 1) * h
        a2, b2 = i + 1.0, -1.0 / h
        val += (
            a2 * a2 * mono(0, t0, t1)
            + 2.0 * a2 * b2 * mono(1, t0, t1)
            + b2 * b2 * mono(2, t0, t1)
        )
        diag[i - 1] = val
        if i < n:
            # overlap of hats i, i+1 on [ih, (i+1)h]: second hat is t/h - i
            t0, t1 = i * h, (i + 1) * h
            off[i - 1] = (
                a2 * (-float(i)) * mono(0, t0, t1)
                + (a2 / h + b2 * (-float(i))) * mono(1, t0, t1)
                + (b2 / h) * mono(2, t0, t1)
            )
    mass = np.zeros((n, n))
    mass[np.diag_indices(n)] = diag + diag[::-1]
    idx = np.arange(n - 1)
    off_sym = off + off[::-1]
    mass[idx, idx + 1] = off_sym
    mass[idx + 1, idx] = off_sym
    return mass / (2.0 * s)


def assemble_regional(grid: Grid1D, s: float) -> OperatorMatrix:
    """Assemble the operator on the zero-exterior (Dirichlet) subspace."""
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must be in (0, 1), got {s}")
    if grid.n > _MAX_NODES:
        raise DomainError(f"n={grid.n} exceeds the supported dense range {_MAX_NODES}")
    n, h = grid.n, grid.h
    c = normalizing_constant(s)
    entries = _fullspace_energy_toeplitz(n, h, s)
    entries -= _boundary_weight_mass(n, h, s)
    entries *= c / h  # lumped mass turns the energy matrix into a nodal operator
    _check_symmetry(entries)
    return OperatorMatrix(dim=n, entries=entries, s=s, c_ns=c)


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
    entries[np.diag_indices(n)] = csum[np.arange(n)] + csum[n - 1 - np.arange(n)]

    # Singular-cell curvature correction as a second difference with
    # reflected ends (no exterior coupling), so constants stay in the kernel.
    g = (0.5 * h) ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
    gh2 = g / (h * h)
    diag_corr = np.full(n, 2.0 * gh2)
    diag_corr[0] = diag_corr[-1] = gh2
    entries[np.diag_indices(n)] += diag_corr
    off = np.arange(n - 1)
    entries[off, off + 1] -= gh2
    entries[off + 1, off] -= gh2

    entries *= c
    _check_symmetry(entries)
    return OperatorMatrix(dim=n, entries=entries, s=s, c_ns=c)


def principal_eigenpair(
    op: OperatorMatrix,
    grid: Grid1D,
    tol: float = 1e-12,
    max_iter: int = 10_000,
) -> EigenPair:
    """Smallest eigenpair by zero-shift inverse iteration.

    The matrix is positive definite on the zero-exterior subspace, so A
    itself is Cholesky-factorable and plain inverse iteration converges to
    the ground state.  Falls back to a full symmetric eigendecomposition
    for n <= 512 if the iteration stalls.  The eigenvector is sign-fixed
    (largest-magnitude entry positive), checked positive, and rescaled to
    h * sum(e1) = 1.
    """
    a = op.entries
    n = op.dim
    lam = None
    vec = None
    try:
        factor = cho_factor(a)
        v = np.full(n, 1.0 / math.sqrt(n))
        lam_prev = math.inf
        best_resid = math.inf
        stall = 0
        for _ in range(max_iter):
            w = cho_solve(factor, v)
            w /= np.linalg.norm(w)
            aw = a @ w
            lam_new = float(w @ aw)
            resid = float(np.linalg.norm(aw - lam_new * w))
            v = w
            if resid < 0.99 * best_resid:
                best_resid = resid
                lam, vec = lam_new, w
                stall = 0
            else:
                stall += 1
            # Converge on the residual (the contract) together with eigenvalue
            # stagnation; a stagnant eigenvalue alone can hide a slowly
            # converging eigenvector when the spectral gap is small.  Once the
            # residual stops improving it has hit its floating-point floor;
            # keep the best iterate and let the contract check below decide.
            if resid <= 0.4e-10 * abs(lam_new) and abs(lam_new - lam_prev) <= tol * abs(lam_new):
                lam, vec = lam_new, w
                break
            if stall >= 12:
                break
            lam_prev = lam_new
    except np.linalg.LinAlgError:
        pass
    if lam is None:
        if n > 512:
            raise ConvergenceError(
                f"inverse iteration did not converge within {max_iter} iterations"
            )
        vals, vecs = eigh(a, subset_by_index=[0, 0])
        lam, vec = float(vals[0]), vecs[:, 0]

    pair = _finalize_eigenpair(op, grid, lam, vec)
    if pair.residual > 1e-10 * pair.lambda1 and n <= 512:
        vals, vecs = eigh(a, subset_by_index=[0, 0])
        pair = _finalize_eigenpair(op, grid, float(vals[0]), vecs[:, 0])
    if pair.residual > 1e-10 * pair.lambda1:
        raise ConvergenceError(
            f"eigen residual {pair.residual:g} exceeds 1e-10 * lambda1 = {1e-10 * pair.lambda1:g}"
        )
    return pair


def _finalize_eigenpair(op, grid, lam, vec) -> EigenPair:
    if lam <= 0:
        raise ConvergenceError(f"principal eigenvalue must be positive, got {lam:g}")
    if vec[np.argmax(np.abs(vec))] < 0:
        vec = -vec
    if np.min(vec) <= 0:
        raise ConvergenceError("principal eigenvector is not strictly positive")
    e1 = vec / (grid.h * np.sum(vec))
    residual = float(
        np.linalg.norm(op.entries @ e1 - lam * e1) / np.linalg.norm(e1)
    )
    return EigenPair(lambda1=lam, e1=Field(grid=grid, values=e1), residual=residual)


def dump_matrix(op: OperatorMatrix, path) -> None:
    """Plain-text triplet dump (``i j value`` per line, zero-based indices)."""
    with open(path, "w") as fh:
        for i in range(op.dim):
            row = op.entries[i]
            for j in range(op.dim):
                fh.write(f"{i} {j} {row[j]:.15g}\n")


def dump_eigenpair(pair: EigenPair, path) -> None:
    """Two-column CSV ``x, e1`` at the interior nodes."""
    xs = pair.e1.grid.nodes()
    with open(path, "w") as fh:
        fh.write("x,e1\n")
        for x, v in zip(xs, pair.e1.values):
            fh.write(f"{x:.15g},{v:.15g}\n")
