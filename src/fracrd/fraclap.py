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
log form at s = 1/2).  From offset 3 on, where those differences cancel,
they are Gauss-Legendre integrals of the cubic B-spline against t^(-1-2s),
the fourth derivative of that primitive.  The difference between the
full-line and the Omega-restricted energy is a weighted mass term with the
explicit weight omega(x) = ((x-a)^(-2s) + (b-x)^(-2s)) / (2s), integrable
against products of interior hats.  That mass is tridiagonal and is
subtracted in place from the Toeplitz full-line matrix as two diagonals.
Its cell integrals need
powers at the n + 1 knots k*h only; they come from libm (Python ``**`` and
``math.log``), since numpy's ``power`` and ``log`` differ from it in the last
bit on some inputs and the matrix is reproducible bit for bit.  Dividing the
stiffness matrix by h (lumped mass) yields a nodal operator matrix.  The
variational origin makes the matrix symmetric positive semidefinite, and its
eigenvalues converge at the energy (squared) rate, which the pointwise
collocation alternative does not achieve for the boundary-singular
eigenfunctions of this operator.  Off the diagonal it is nonpositive, with
nonnegative row sums (an M-matrix), only for s above a threshold that rises
with n: the nearest-neighbour entry is positive below it.  Measured on
(0, 1), the largest failing s on a 0.01 grid is 0.08 at n = 16, 0.17 at
n = 64, 0.21 at n = 256, 0.22 at n = 1024 and 2048, and 0.23 at n = 4096.

``assemble_regional_untruncated`` keeps a cell-collocation construction on a
cell-centred grid tiling all of (a, b): midpoint values against exact
cell-wise kernel integrals plus a symmetric-cancellation treatment of the
singular cell.  It annihilates constant fields exactly, which is the
property it exists to check; quadrature of the kernel itself would blow up
near the singularity, hence the closed-form cell integrals

    int_cell |x_i - xi|^(-1-2s) dxi
        = ((d - h/2)^(-2s) - (d + h/2)^(-2s)) / (2s),   d = |i-j| h.

Both variants build A symmetric by construction, a Toeplitz matrix with its
three central diagonals overwritten, and check its 3n distinct values finite
before forming it.  Both use the normalization
C_{1,s} = 4^s Gamma(1/2+s) / (sqrt(pi) |Gamma(-s)|), under which the s -> 1
limit is the classical Dirichlet Laplacian.

Both matrices are centrosymmetric bit for bit: the grid is its own mirror
image under x -> a + b - x.  ``principal_eigenpair`` uses that.  One pass
over A checks it finite and equal to its mirror image and takes ||A||_1;
then one inverse-iteration loop runs on the Cholesky factor of the
ceil(n/2) mirror-even block B = Q^T A Q, one LAPACK ``potrs`` solve per
iteration, and stops on a backward-error bound, 16 * eps * ||A||_1, met by
the residual on A itself.  ``mirror_eigenbasis`` uses the same fold for the
full eigendecomposition A = V diag(lam) V^T on which the solver takes its
implicit steps: ``eigh`` of the even block and of the floor(n/2) mirror-odd
block.  Dense ``eigh`` of A itself serves only as the independent oracle
(tests, the eigen_convergence campaign, the benchmark).
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
# The suite meets the bound in 9 to 13 iterations, the tests in 9 to 14, and
# n <= 1025 with s in [1e-3, 1 - 1e-6] in at most 22.
_MAX_ITERATIONS = 100
_STRIP_ROWS = 64  # rows per strip of principal_eigenpair's one pass over A


def _spline_rule(points: int = 12) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on each unit piece of [-2, 2], and their weights
    times the centred cubic B-spline M4 at the nodes."""
    x, wx = np.polynomial.legendre.leggauss(points)
    u = (np.arange(-2.0, 2.0)[:, None] + 0.5 * (x + 1.0)).ravel()
    au = np.abs(u)
    m4 = np.where(au >= 1.0, (2.0 - au) ** 3 / 6.0, 2.0 / 3.0 - au**2 + 0.5 * au**3)
    return u, 0.5 * np.tile(wx, 4) * m4


_SPLINE_NODES, _SPLINE_WEIGHTS = _spline_rule()


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
        if not self.h > 0:
            raise DomainError(f"cell width h = (b - a) / (n + 1) underflows to 0 on "
                              f"({self.a:g}, {self.b:g})")

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
    """Dense symmetric positive-semidefinite discretization of the operator.

    On a uniform grid the matrix is also centrosymmetric, J A J = A with J
    the reversal, exactly; ``principal_eigenpair`` requires that."""

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
    try:
        gamma_s = math.gamma(-s)
    except OverflowError:  # Gamma(-s) ~ -1/s
        raise DomainError(f"s = {s:g} is too small: Gamma(-s) overflows") from None
    return 4.0**s * math.gamma(0.5 + s) / (math.sqrt(math.pi) * abs(gamma_s))


def _cell_kernel_integrals(h: float, offsets: np.ndarray, s: float) -> np.ndarray:
    """Exact integral of |x - xi|^(-1-2s) over a width-h cell at distance k*h."""
    d = offsets * h
    return ((d - 0.5 * h) ** (-2.0 * s) - (d + 0.5 * h) ** (-2.0 * s)) / (2.0 * s)


def _symmetric_operator(h: float, s: float, column, diag, off) -> OperatorMatrix:
    """A = toeplitz(column) with its diagonal set to diag and both neighbouring
    diagonals to off, symmetric by construction.  Every entry of A is one of
    these O(n) values, so checking them finite checks A; AssemblyError if not."""
    if not all(np.isfinite(v).all() for v in (column, diag, off)):
        raise AssemblyError(
            f"assembled matrix has non-finite entries: the cell width h = {h:g} is "
            f"outside the range its kernel powers can represent at s = {s:g}"
        )
    n = len(column)
    entries = toeplitz(column)
    entries.flat[:: n + 1] = diag
    entries.flat[1 :: n + 1] = off
    entries.flat[n :: n + 1] = off
    return OperatorMatrix(entries)


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


def _fullspace_energy_column(n: int, h: float, s: float) -> np.ndarray:
    """First column of the Toeplitz energy matrix of interior hat pairs for
    the full-line kernel.

    The entry at offset k is -h^(1-2s) times the fourth difference of the
    primitive P at k.  For k <= 2 that difference is taken directly.  For
    k >= 3 it equals the integral of M4(u) (k + u)^(-1-2s) over [-2, 2],
    with M4 the centred cubic B-spline (the fourth derivative of P is
    t^(-1-2s) for every s), taken by Gauss-Legendre on each unit piece: the
    direct difference of values ~k^(3-2s) keeps a relative error of about
    eps * k^4, all of the entry's digits at k ~ 4000.
    """
    k = np.arange(n, dtype=float)
    near = k[:3]
    fourth = np.empty(n)
    fourth[:3] = (
        _slope_kernel_primitive(near + 2, s)
        - 4.0 * _slope_kernel_primitive(near + 1, s)
        + 6.0 * _slope_kernel_primitive(near, s)
        - 4.0 * _slope_kernel_primitive(near - 1, s)
        + _slope_kernel_primitive(near - 2, s)
    )
    far = k[3:, None] + _SPLINE_NODES
    fourth[3:] = np.sum(far ** (-1.0 - 2.0 * s) * _SPLINE_WEIGHTS, axis=1)
    return -(h ** (1.0 - 2.0 * s)) * fourth


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
    # A's 3n distinct values: the scaled Toeplitz column, and its first two
    # entries less the boundary mass.  Powers of h that leave the double range
    # are an AssemblyError from _symmetric_operator; numpy's warnings would repeat it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        column = _fullspace_energy_column(n, h, s)
        try:
            diag, off = _boundary_weight_mass(n, h, s)
        except OverflowError:
            raise AssemblyError(
                f"cell width h = {h:g} overflows the boundary-mass knot powers at s = {s:g}"
            ) from None
        scale = c / h  # lumped mass turns the energy matrix into a nodal operator
        diag = (column[0] - diag) * scale
        off = (column[1] - off) * scale
        column *= scale
    return _symmetric_operator(h, s, column, diag, off)


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

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        kernel = _cell_kernel_integrals(h, np.arange(1, n, dtype=float), s)
        csum = np.concatenate(([0.0], np.cumsum(kernel)))
        # Singular-cell curvature correction as a second difference with
        # reflected ends (no exterior coupling), so constants stay in the kernel;
        # a numpy scalar, so that h * h = 0 or an overflow gives inf, not an error.
        gh2 = np.float64(0.5 * h) ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s) / (h * h)
        diag_corr = np.full(n, 2.0 * gh2)
        diag_corr[0] = diag_corr[-1] = gh2
        column = np.concatenate(([0.0], -kernel)) * c
        diag = (csum + csum[::-1] + diag_corr) * c
        off = (-kernel[0] - gh2) * c
    return _symmetric_operator(h, s, column, diag, off)


def _centrosymmetric_norm1(a: np.ndarray) -> float:
    """||A||_1 from one pass over strips of A; ConvergenceError unless A is
    finite, DomainError unless A equals its mirror image J A J exactly.

    Each strip of _STRIP_ROWS rows is compared with its mirror strip
    reversed in both axes, and |A| is summed by column, so the pass forms no
    n x n temporary."""
    n, t = len(a), _STRIP_ROWS
    colsum = np.zeros(n)
    finite = mirrored = True
    for i in range(0, n, t):
        rows = a[i : i + t]
        finite = finite and bool(np.isfinite(rows).all())
        mirrored = mirrored and np.array_equal(rows, a[n - i - len(rows) : n - i][::-1, ::-1])
        colsum += np.abs(rows).sum(axis=0)
    if not finite:
        raise ConvergenceError("operator matrix has non-finite entries")
    if not mirrored:
        raise DomainError(
            "operator matrix is not centrosymmetric (A != J A J, J the reversal): "
            "principal_eigenpair needs the mirror symmetry of a uniform grid"
        )
    return float(np.max(colsum))


def _mirror_even_block(a: np.ndarray) -> np.ndarray:
    """B = Q^T A Q for the orthonormal basis Q of mirror-even vectors: the
    first ceil(n/2) entries of w = Q y are y, scaled by 1/sqrt(2) off the
    middle node, and the rest are their mirror image."""
    n = len(a)
    k, m = (n + 1) // 2, n // 2
    b = a[:k, :k].copy()
    b[:, :m] += a[:k, ::-1][:, :m]
    if k > m:  # odd n: the middle node is its own mirror image
        b[:m, m] *= math.sqrt(2.0)
        b[m, :m] = b[:m, m]
    return b


def _mirror_odd_block(a: np.ndarray) -> np.ndarray:
    """C = P^T A P for the orthonormal basis P of mirror-odd vectors: the
    first floor(n/2) entries of w = P z are z / sqrt(2), the middle node of
    an odd n is 0, and the rest are their mirror image negated."""
    m = len(a) // 2
    return a[:m, :m] - a[:m, ::-1][:, :m]


def _unfold(y: np.ndarray, n: int, odd: bool = False) -> np.ndarray:
    """w = Q y (P y when odd): the mirror-even (mirror-odd) vector of length
    n with half y, or one such column per column of a matrix y."""
    m = n // 2
    half = y[:m] / math.sqrt(2.0)
    if odd:
        return np.concatenate((half, np.zeros((n - 2 * m,) + y.shape[1:]), -half[::-1]))
    return np.concatenate((half, y[m:], half[::-1]))


def mirror_eigenbasis(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues lam, ascending, and orthonormal eigenvectors V, by column,
    of a symmetric centrosymmetric A, so that A = V diag(lam) V^T.

    A commutes with the reversal J, so its eigenvectors split into
    mirror-even and mirror-odd ones: ``eigh`` of the ceil(n/2) block
    Q^T A Q and of the floor(n/2) block P^T A P, unfolded by Q and P, gives
    all n, at a third to a quarter of the cost of ``eigh`` of A (1.6 against
    2.4 ms at n = 128, 107 against 311 ms at n = 1024, 5.5 against 21 s at
    n = 4096, one BLAS thread).  ``eigh`` is LAPACK's divide and conquer
    ``syevd``: ||V^T V - I||_max is 0.007 to 0.05 n*eps for n from 128 to
    4096, where ``syevr`` gave up to 1.1 n*eps.  A is not checked:
    ``principal_eigenpair`` checks it finite and centrosymmetric."""
    n = len(a)
    lam_even, y = np.linalg.eigh(_mirror_even_block(a))
    lam_odd, z = np.linalg.eigh(_mirror_odd_block(a))
    lam = np.concatenate((lam_even, lam_odd))
    order = np.argsort(lam, kind="stable")
    column = np.empty(n, dtype=np.intp)  # the column of V each block eigenvector goes to
    column[order] = np.arange(n)
    v = np.empty((n, n))
    v[:, column[: len(lam_even)]] = _unfold(y, n)
    v[:, column[len(lam_even) :]] = _unfold(z, n, odd=True)
    return lam[order], v


def principal_eigenpair(op: OperatorMatrix, grid: Grid1D) -> EigenPair:
    """Smallest eigenpair by zero-shift inverse iteration on the mirror-even
    half of A.

    A uniform grid maps onto itself under x -> a + b - x, so the assembled
    matrix is centrosymmetric (J A J = A) and its positive ground state is
    mirror-even.  With Q the orthonormal basis of mirror-even vectors, the
    loop iterates on the Cholesky factor of the ceil(n/2) block B = Q^T A Q,
    a quarter of A's size and an eighth of its factorization cost (Cantoni &
    Butler, Linear Algebra Appl. 13 (1976) 275).  B is positive definite
    when A is, and its eigenvalues are those of A's mirror-even modes.  A
    positive ground state is among them (a positive vector is never odd),
    so plain inverse iteration on B finds it.  Odd modes are never seen:
    the result is A's ground state when that is positive, as this
    operator's is (dense eigh agrees for n up to 1025 and s from 1e-3 to
    1 - 1e-6).  Once
    B's residual ||B y - lambda y|| for the unit iterate y is at most
    16 * eps * ||A||_1, lambda and the residual are recomputed on A itself
    for w = Q y, and the loop stops when that residual (a backward error: w
    is an exact eigenvector of a matrix within that distance of A) meets the
    same bound.  The floating-point floor of that residual measures 0.27 to
    2.4 eps * ||A||_1 for n from 8 to 4096 and s from 0.01 to 0.99, so the
    factor 16 leaves about 7x headroom; a bound relative to lambda1 instead
    would sit below the floor on fine grids with s near 1.  The eigenvector
    is sign-fixed (largest-magnitude entry positive), checked positive,
    rescaled to h * sum(e1) = 1, and is mirror-symmetric bit for bit.

    Raises DomainError when grid and matrix differ in size or A is not
    centrosymmetric; ConvergenceError when A is not finite or not positive
    definite, when an iterate's norm underflows to 0 or overflows (the scale
    of A is too far from 1), when the bound is not met within 100
    iterations, or when the limit is not a positive eigenpair.
    """
    if grid.n != op.dim:
        raise DomainError(f"grid has n={grid.n} nodes but the operator has dim={op.dim}")
    a, n = op.entries, op.dim
    a_norm = _centrosymmetric_norm1(a)
    bound = _RESIDUAL_FACTOR * np.finfo(float).eps * a_norm
    b = _mirror_even_block(a)
    try:
        factor = cho_factor(b, check_finite=False)[0]
    except np.linalg.LinAlgError:
        raise ConvergenceError("operator matrix is not positive definite") from None
    y = np.full(len(b), 1.0 / math.sqrt(len(b)))
    for _ in range(_MAX_ITERATIONS):
        y = dpotrs(factor, y)[0]  # its info is nonzero only for an illegal argument
        with np.errstate(over="ignore"):  # an infinite norm is reported below
            norm = np.linalg.norm(y)
        if not 0.0 < norm < math.inf:
            raise ConvergenceError(
                f"inverse iterate's norm {'underflowed to 0' if norm == 0 else 'overflowed'} "
                f"at operator scale ||A||_1 = {a_norm:g} on the domain ({grid.a:g}, {grid.b:g})"
            )
        y /= norm
        by = b @ y
        lam = float(y @ by)
        residual = float(np.linalg.norm(by - lam * y))
        if residual <= bound:
            w = _unfold(y, n)
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
