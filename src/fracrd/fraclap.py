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

``assemble_regional`` builds A symmetric by construction, a Toeplitz matrix
with its three central diagonals overwritten, and checks its 3n distinct
values finite before forming it.  It uses the normalization
C_{1,s} = 4^s Gamma(1/2+s) / (sqrt(pi) |Gamma(-s)|), under which the s -> 1
limit is the classical Dirichlet Laplacian.  The eigen_convergence
campaign's ``energy_s*`` record checks A against an independent value: the
closed-form regional energy of the parabola xi (1 - xi), xi = (x-a)/(b-a),
against h u^T A u for its nodal values u.

The matrix is centrosymmetric bit for bit: the grid is its own mirror
image under x -> a + b - x.  ``principal_eigenpair`` uses that.  One pass
over A, strips of its top half against their mirror strips, checks it
finite and equal to its mirror image, takes ||A||_1 and forms the
ceil(n/2) mirror-even block B = Q^T A Q; then one inverse-iteration loop
runs on the Cholesky factor of B, which LAPACK ``potrf`` writes over B
(read as its Fortran-ordered transpose, B itself), one ``potrs`` solve
per iteration, and stops on a backward-error bound, 16 * eps * ||A||_1,
met by the residual on A itself; it returns lambda1 and e1 as a plain
array of the values at the interior nodes, which ``dump_eigenpair`` writes
against the grid's nodes.  ``mirror_blocks`` runs the same pass and also
forms the floor(n/2) mirror-odd block; the solver builds its uniform-step
matrix from Cholesky inverses of the two.  ``mirror_eigenbasis`` turns the
two blocks into the full eigendecomposition A = V diag(lam) V^T, ``eigh``
of each, which serves only the solver's non-uniform (adaptive) steps.
Dense ``eigh`` of A itself serves only as the independent oracle (tests,
the eigen_convergence campaign, the benchmark).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import AssemblyError, ConvergenceError, DomainError

_MAX_NODES = 4096  # dense storage; the kernel has global support
_RESIDUAL_FACTOR = 16.0  # eigen residual bound in units of eps * ||A||_1
# The suite meets the bound in 9 to 13 iterations, the tests in 9 to 14, and
# n <= 1025 with s in [1e-3, 1 - 1e-6] in at most 22.
_MAX_ITERATIONS = 100
_STRIP_ROWS = 64  # rows per strip of the pass over A and of the sort of V


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
        try:
            operator.index(self.n)
        except TypeError:
            raise DomainError(f"n must be an integer, got {self.n!r}") from None
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
    """Principal eigenpair: smallest eigenvalue with positive eigenvector,
    the array of its values at the grid's interior nodes, rescaled to unit
    discrete integral h * sum(e1) = 1.

    ``residual`` is the backward error at which inverse iteration stopped,
    ||A w - lambda1 w|| for the unit iterate w = e1 / ||e1||; it is at most
    16 * eps * ||A||_1."""

    lambda1: float
    e1: np.ndarray
    residual: float


def normalizing_constant(s: float) -> float:
    """Full-space constant C_{1,s}; makes the s->1 limit the classical -d2/dx2."""
    try:
        gamma_s = math.gamma(-s)
    except OverflowError:  # Gamma(-s) ~ -1/s
        raise DomainError(f"s = {s:g} is too small: Gamma(-s) overflows") from None
    return 4.0**s * math.gamma(0.5 + s) / (math.sqrt(math.pi) * abs(gamma_s))


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
    # are an AssemblyError below; numpy's warnings would repeat it.
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
    # every entry of A is one of these values, so checking them finite checks A
    if not all(np.isfinite(v).all() for v in (column, diag, off)):
        raise AssemblyError(
            f"assembled matrix has non-finite entries: the cell width h = {h:g} is "
            f"outside the range its kernel powers can represent at s = {s:g}"
        )
    # symmetric by construction: the diagonal and both neighbouring diagonals
    # of toeplitz(column) are overwritten with equal values
    entries = toeplitz(column)
    entries.flat[:: n + 1] = diag
    entries.flat[1 :: n + 1] = off
    entries.flat[n :: n + 1] = off
    return OperatorMatrix(entries)


def _mirror_even_block(
    a: np.ndarray, odd: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """(B, ||A||_1) from one pass over A, with B = Q^T A Q for the orthonormal
    basis Q of mirror-even vectors: the first ceil(n/2) entries of w = Q y
    are y, scaled by 1/sqrt(2) off the middle node, and the rest are their
    mirror image.  Given a floor(n/2) square array ``odd``, the same pass
    writes the mirror-odd block P^T A P = A[:m, :m] - A[:m, ::-1][:, :m]
    into it (P as in ``mirror_eigenbasis``).

    Each strip of _STRIP_ROWS rows of the top floor(n/2) is compared with
    its mirror strip reversed in both axes, which covers every entry of A
    once; the middle row of an odd n is compared with its own reverse.  |A|
    is summed by column over the top half, and the bottom half adds the
    mirrored sums.  ConvergenceError unless A is finite, DomainError unless
    A equals its mirror image J A J exactly."""
    n, t = len(a), _STRIP_ROWS
    k, m = (n + 1) // 2, n // 2
    b = np.empty((k, k))
    colsum = np.zeros(n)
    mirrored = True
    for i in range(0, m, t):
        rows = a[i : min(i + t, m)]
        mirrored = mirrored and np.array_equal(rows, a[n - i - len(rows) : n - i][::-1, ::-1])
        colsum += np.abs(rows).sum(axis=0)
        np.add(rows[:, :m], rows[:, ::-1][:, :m], out=b[i : i + len(rows), :m])
        if odd is not None:
            np.subtract(rows[:, :m], rows[:, ::-1][:, :m], out=odd[i : i + len(rows)])
    colsum = colsum + colsum[::-1]
    if k > m:  # odd n: the middle node is its own mirror image
        middle = a[m]
        mirrored = mirrored and np.array_equal(middle, middle[::-1])
        colsum += np.abs(middle)
        b[:m, m] = a[:m, m] * math.sqrt(2.0)
        b[m, :m] = b[:m, m]
        b[m, m] = middle[m]
    norm = float(np.max(colsum))
    if not (mirrored and math.isfinite(norm)):
        # a NaN or inf off the top half shows only as a mismatch
        if not np.isfinite(a).all():
            raise ConvergenceError("operator matrix has non-finite entries")
        if not mirrored:
            raise DomainError(
                "operator matrix is not centrosymmetric (A != J A J, J the reversal): "
                "principal_eigenpair needs the mirror symmetry of a uniform grid"
            )
    return b, norm


def _unfold(y: np.ndarray, n: int) -> np.ndarray:
    """w = Q y: the mirror-even vector of length n with half y."""
    m = n // 2
    half = y[:m] / math.sqrt(2.0)
    return np.concatenate((half, y[m:], half[::-1]))


def mirror_blocks(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ceil(n/2) mirror-even block Q^T A Q and the floor(n/2)
    mirror-odd block P^T A P of a symmetric centrosymmetric A (Q and P as
    in ``mirror_eigenbasis``), from one pass over A that checks it finite
    (ConvergenceError) and centrosymmetric (DomainError).  Both blocks are
    symmetric bit for bit, and A = Q B Q^T + P C P^T for the even block B
    and the odd block C."""
    m = len(a) // 2
    odd = np.empty((m, m))
    return _mirror_even_block(a, odd)[0], odd


def mirror_eigenbasis(even: np.ndarray, odd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues lam, ascending, and orthonormal eigenvectors V, by column,
    of the symmetric centrosymmetric A whose ``mirror_blocks`` are even and
    odd, so that A = V diag(lam) V^T.

    A commutes with the reversal J, so its eigenvectors split into
    mirror-even and mirror-odd ones: ``eigh`` of the ceil(n/2) block
    Q^T A Q and of the floor(n/2) block P^T A P, unfolded by Q and P, gives
    all n.  P z has z / sqrt(2) in its first floor(n/2) entries, 0 at the
    middle node of an odd n and their mirror image negated in the rest.
    Both unfold straight into V, whose columns are then sorted by lam a
    strip of rows at a time, so V is the call's one n x n array (0.9 against
    1.4 ms for ``eigh`` of A at n = 128, 78 against 266 ms at n = 1024, 3.7
    against 13.9 s at n = 4096, one BLAS thread).  ``eigh`` is the divide
    and conquer ``syevd``: ||V^T V - I||_max is 0.007 to 0.05 n*eps for n
    from 128 to 4096, where ``syevr`` gave up to 1.1 n*eps."""
    k, m = len(even), len(odd)
    n = k + m
    lam_even, y = np.linalg.eigh(even)
    lam_odd, z = np.linalg.eigh(odd)
    lam = np.concatenate((lam_even, lam_odd))
    order = np.argsort(lam, kind="stable")
    v = np.empty((n, n))  # Q y in the first k columns, P z in the rest
    np.divide(y[:m], math.sqrt(2.0), out=v[:m, :k])
    v[m:k, :k], v[m:k, k:] = y[m:], 0.0  # the middle row of an odd n
    v[k:, :k] = v[:m, :k][::-1]
    np.divide(z, math.sqrt(2.0), out=v[:m, k:])
    np.negative(v[:m, k:][::-1], out=v[k:, k:])
    del y, z
    for i in range(0, n, _STRIP_ROWS):
        v[i : i + _STRIP_ROWS] = v[i : i + _STRIP_ROWS].take(order, axis=1)
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
    1 - 1e-6).  One pass over A checks it, takes ||A||_1 and forms B
    (``_mirror_even_block``); B is symmetric bit for bit, so its transpose
    is the same matrix in the Fortran order LAPACK's ``potrf`` takes, and
    the factor is written over B, with no copy.  The solve B x = y for the
    unit iterate y gives B y' = y / ||x|| for the next, y' = x / ||x||, up
    to its backward error; once the residual ||B y' - lambda y'|| is at most
    16 * eps * ||A||_1, lambda and the residual are recomputed on A itself
    for w = Q y', and the loop stops when that residual (a backward error: w
    is an exact eigenvector of a matrix within that distance of A) meets the
    same bound.  The floating-point floor of that residual measures 0.27 to
    2.4 eps * ||A||_1 for n from 8 to 4096 and s from 0.01 to 0.99, so the
    factor 16 leaves about 7x headroom; a bound relative to lambda1 instead
    would sit below the floor on fine grids with s near 1.  The eigenvector
    is sign-fixed (largest-magnitude entry positive), checked positive,
    rescaled to h * sum(e1) = 1, and is mirror-symmetric bit for bit.

    Raises DomainError when grid and matrix differ in size, when A is not
    centrosymmetric, or when the rescaled e1 overflows (a cell width near
    the bottom of the double range); ConvergenceError when A is not finite
    or not positive definite, when an iterate's norm underflows to 0 or
    overflows (the scale of A is too far from 1), when the bound is not met
    within 100 iterations, or when the limit is not a positive eigenpair.
    """
    if grid.n != op.dim:
        raise DomainError(f"grid has n={grid.n} nodes but the operator has dim={op.dim}")
    a, n = op.entries, op.dim
    b, a_norm = _mirror_even_block(a)
    bound = _RESIDUAL_FACTOR * np.finfo(float).eps * a_norm
    factor, info = dpotrf(b.T, lower=0, overwrite_a=1, clean=0)
    if info > 0:
        raise ConvergenceError("operator matrix is not positive definite")
    y = np.full(len(b), 1.0 / math.sqrt(len(b)))
    for _ in range(_MAX_ITERATIONS):
        x = dpotrs(factor, y)[0]  # its info is nonzero only for an illegal argument
        with np.errstate(over="ignore"):  # an infinite norm is reported below
            norm = np.linalg.norm(x)
        if not 0.0 < norm < math.inf:
            raise ConvergenceError(
                f"inverse iterate's norm {'underflowed to 0' if norm == 0 else 'overflowed'} "
                f"at operator scale ||A||_1 = {a_norm:g} on the domain ({grid.a:g}, {grid.b:g})"
            )
        by, y = y / norm, x / norm  # B x = y, so by is B y up to the solve's error
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
    with np.errstate(over="ignore"):  # reported as the typed error below
        e1 = w / (grid.h * np.sum(w))
    if not np.isfinite(e1).all():
        raise DomainError(
            f"principal eigenvector scaled to h * sum(e1) = 1 overflows at cell width "
            f"h = {grid.h:g} on the domain ({grid.a:g}, {grid.b:g})"
        )
    return EigenPair(lambda1=lam, e1=e1, residual=residual)


def dump_eigenpair(pair: EigenPair, grid: Grid1D, path) -> None:
    """Two-column CSV ``x, e1`` at the interior nodes of the pair's grid."""
    with open(path, "w") as fh:
        fh.write("x,e1\n")
        for x, v in zip(grid.nodes(), pair.e1):
            fh.write(f"{x:.15g},{v:.15g}\n")
