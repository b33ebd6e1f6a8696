import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh, toeplitz

from fracrd import solver
from fracrd.errors import AssemblyError, ConvergenceError, DomainError
from fracrd.fraclap import (
    Grid1D,
    OperatorMatrix,
    _boundary_weight_mass,
    _fullspace_energy_column,
    _norm1,
    assemble_regional,
    dump_eigenpair,
    mirror_blocks,
    mirror_eigenbasis,
    principal_eigenpair,
)
from fracrd.solver import _step_matrix


def backward_error_bound(op):
    """The eigen residual contract: 16 * eps * ||A||_1."""
    return 16.0 * np.finfo(float).eps * np.linalg.norm(op.entries, 1)


def reference_mirror_pass(a, strip=64):
    """(B, C, ||A||_1) by the dense pass over A that formed the mirror blocks
    before A was held as its values: strips of the top floor(n/2) rows, each
    added to and subtracted from its column-reversed self, |A| summed by
    column over the top half and mirrored.  The oracle for
    ``mirror_blocks`` and ``_norm1``."""
    n = len(a)
    k, m = (n + 1) // 2, n // 2
    b, odd = np.empty((k, k)), np.empty((m, m))
    colsum = np.zeros(n)
    for i in range(0, m, strip):
        rows = a[i : min(i + strip, m)]
        colsum += np.abs(rows).sum(axis=0)
        np.add(rows[:, :m], rows[:, ::-1][:, :m], out=b[i : i + len(rows), :m])
        np.subtract(rows[:, :m], rows[:, ::-1][:, :m], out=odd[i : i + len(rows)])
    colsum = colsum + colsum[::-1]
    if k > m:  # odd n: the middle node is its own mirror image
        colsum += np.abs(a[m])
        b[:m, m] = a[:m, m] * math.sqrt(2.0)
        b[m, :m] = b[:m, m]
        b[m, m] = a[m, m]
    return b, odd, float(np.max(colsum))


def reference_boundary_mass(n, h, s):
    """Scalar cell-by-cell boundary mass: the diagonals of the tridiagonal
    matrix, the oracle for the vectorised ``_boundary_weight_mass``."""

    def mono(p, t0, t1):
        e = p - 2.0 * s + 1.0
        if abs(e) < 1e-13:
            return math.log(t1 / t0)
        return (t1**e - t0**e) / e

    diag = np.zeros(n)
    off = np.zeros(n - 1)
    for i in range(1, n + 1):
        t0, t1 = (i - 1) * h, i * h
        a1, b1 = -(i - 1.0), 1.0 / h
        if i == 1:
            val = (b1 * b1) * t1 ** (3.0 - 2.0 * s) / (3.0 - 2.0 * s)
        else:
            val = (
                a1 * a1 * mono(0, t0, t1)
                + 2.0 * a1 * b1 * mono(1, t0, t1)
                + b1 * b1 * mono(2, t0, t1)
            )
        t0, t1 = i * h, (i + 1) * h
        a2, b2 = i + 1.0, -1.0 / h
        val += (
            a2 * a2 * mono(0, t0, t1)
            + 2.0 * a2 * b2 * mono(1, t0, t1)
            + b2 * b2 * mono(2, t0, t1)
        )
        diag[i - 1] = val
        if i < n:
            off[i - 1] = (
                a2 * (-float(i)) * mono(0, t0, t1)
                + (a2 / h + b2 * (-float(i))) * mono(1, t0, t1)
                + (b2 / h) * mono(2, t0, t1)
            )
    return (diag + diag[::-1]) / (2.0 * s), (off + off[::-1]) / (2.0 * s)


def reference_energy_column(k, s):
    """-(fourth difference of the double primitive of |t|^(1-2s)/(2s(2s-1)))
    at offset k in 40-digit arithmetic, where the cancellation costs nothing."""
    mpmath = pytest.importorskip("mpmath")

    def primitive(t):
        t = abs(mpmath.mpf(t))
        if t == 0:
            return mpmath.mpf(0)
        if s == 0.5:
            return mpmath.mpf(3) / 4 * t**2 - t**2 * mpmath.log(t) / 2
        p = mpmath.mpf(s)
        return t ** (3 - 2 * p) / (2 * p * (2 * p - 1) * (2 - 2 * p) * (3 - 2 * p))

    with mpmath.workdps(40):
        fourth = sum(c * primitive(k + d) for c, d in zip((1, -4, 6, -4, 1), (2, 1, 0, -1, -2)))
        return float(-fourth)


@pytest.fixture(scope="module")
def op64():
    grid = Grid1D(0.0, 1.0, 64)
    return grid, assemble_regional(grid, 0.5)


class TestGrid:
    def test_spacing(self):
        g = Grid1D(0.0, 1.0, 9)
        assert g.h == pytest.approx(0.1)
        assert g.nodes()[0] == pytest.approx(0.1)
        assert g.nodes()[-1] == pytest.approx(0.9)

    def test_validation(self):
        with pytest.raises(DomainError):
            Grid1D(1.0, 0.0, 8)
        with pytest.raises(DomainError):
            Grid1D(0.0, 1.0, 1)
        with pytest.raises(DomainError):
            Grid1D(0.0, math.inf, 8)


class TestAssembly:
    @pytest.mark.parametrize("n", [64, 130, 131])
    def test_exactly_symmetric(self, n):
        # The assembly overwrites three diagonals of a Toeplitz matrix with
        # equal values, so no runtime check re-verifies the symmetry.
        a, b = (-1.0, 3.0) if n % 2 else (0.0, 1.0)
        for s in (0.1, 0.5, 0.9):
            op = assemble_regional(Grid1D(a, b, n), s)
            assert np.array_equal(op.entries, op.entries.T), s

    @pytest.mark.parametrize("n", [2, 3, 65, 1000])
    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_boundary_mass_matches_scalar_reference(self, n, s):
        # Bit for bit: the vectorised diagonals take their powers from libm
        # and keep the scalar loop's operation order; s = 1/2 is the log branch.
        h = 1.0 / (n + 1)
        diag, off = _boundary_weight_mass(n, h, s)
        ref_diag, ref_off = reference_boundary_mass(n, h, s)
        assert diag.tobytes() == ref_diag.tobytes()
        assert off.tobytes() == ref_off.tobytes()

    @pytest.mark.parametrize("width,cause", [(1e-300, "non-finite entries"), (1e300, "overflows")])
    def test_extreme_domain_is_named(self, width, cause):
        # One typed error that names the cell width, with no warning.
        for s in (0.01, 0.9):
            with pytest.raises(AssemblyError, match=cause) as info:
                assemble_regional(Grid1D(0.0, width, 8), s)
            assert "cell width h = " in str(info.value), s

    def test_positive_semidefinite_probes(self, op64):
        _, op = op64
        rng = np.random.default_rng(20240601)
        for _ in range(100):
            v = rng.standard_normal(op.dim)
            assert v @ (op.entries @ v) >= -1e-10 * (v @ v)

    def test_m_matrix_structure(self, op64):
        _, op = op64
        a = op.entries
        off = a[~np.eye(op.dim, dtype=bool)]
        assert np.all(off < 0)
        assert np.all(np.diag(a) > 0)
        assert np.all(a @ np.ones(op.dim) > 0)

    @pytest.mark.parametrize("s", [0.01, 0.3, 0.5, 0.9, 0.99])
    def test_energy_column_matches_extended_precision(self, s):
        # The far entries are integrals of the spline against the kernel; a
        # direct fourth difference of values ~k^(3-2s) loses all digits by
        # k ~ 4000.
        column = _fullspace_energy_column(4096, 1.0, s)
        for k in (0, 1, 2, 3, 10, 100, 1000, 4095):
            ref = reference_energy_column(k, s)
            assert abs(column[k] - ref) <= 1e-12 * abs(ref), k

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.9])
    def test_m_matrix_structure_on_the_largest_grid(self, s):
        a = assemble_regional(Grid1D(0.0, 1.0, 4096), s).entries.copy()
        assert np.all(a.sum(axis=1) >= 0)
        np.fill_diagonal(a, -np.inf)
        assert np.max(a) <= 0

    def test_centrosymmetric_bit_for_bit(self):
        for grid, s in ((Grid1D(-1.0, 3.0, 131), 0.3), (Grid1D(0.0, 1.0, 130), 0.7)):
            a = assemble_regional(grid, s).entries
            assert np.array_equal(a, a[::-1, ::-1])

    def test_classical_limit_action_in_bulk(self):
        # For s -> 1 the bulk action approaches -u''; near the boundary the
        # regional operator of the zero-extended sine genuinely grows like
        # dist^(1-2s), so the shape comparison is made away from the edges.
        grid = Grid1D(0.0, 1.0, 256)
        op = assemble_regional(grid, 0.95)
        x = grid.nodes()
        u = np.sin(np.pi * x)
        action = op.entries @ u
        ref = np.pi**2 * u
        bulk = (x >= 0.05) & (x <= 0.95)
        corr = np.corrcoef(action[bulk], ref[bulk])[0, 1]
        assert corr >= 0.99

    def test_validation(self):
        grid = Grid1D(0.0, 1.0, 8)
        with pytest.raises(DomainError):
            assemble_regional(grid, 0.0)
        with pytest.raises(DomainError):
            assemble_regional(grid, 1.0)
        with pytest.raises(DomainError):
            assemble_regional(Grid1D(0.0, 1.0, 5000), 0.5)


class TestApply:
    def test_eigenpair_is_fixed_direction(self, op64):
        grid, op = op64
        pair = principal_eigenpair(op, grid)
        out = op.entries @ pair.e1
        assert np.allclose(out, pair.lambda1 * pair.e1, rtol=0,
                           atol=2e-10 * pair.lambda1 * np.max(pair.e1))


class TestEigenpair:
    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    def test_matches_dense_oracle(self, s):
        grid = Grid1D(0.0, 1.0, 64)
        op = assemble_regional(grid, s)
        pair = principal_eigenpair(op, grid)
        lam_dense = eigh(op.entries, eigvals_only=True, subset_by_index=[0, 0])[0]
        assert pair.lambda1 > 0
        assert abs(pair.lambda1 - lam_dense) <= 1e-10 * lam_dense

    def test_normalization_and_positivity(self, op64):
        grid, op = op64
        pair = principal_eigenpair(op, grid)
        assert abs(grid.h * pair.e1.sum() - 1.0) <= 1e-12
        assert pair.e1.min() > 0
        assert pair.residual <= backward_error_bound(op)

    def test_fine_grid_matches_dense_within_backward_error(self):
        # Residual and dense eigh are each within 16 eps ||A||_1 of an exact
        # eigenvalue of A (symmetric: the eigenvalue error is at most the
        # residual), so they agree within twice that.
        grid = Grid1D(0.0, 1.0, 2048)
        op = assemble_regional(grid, 0.9)
        pair = principal_eigenpair(op, grid)
        lam_dense = eigh(op.entries, eigvals_only=True, subset_by_index=[0, 0])[0]
        assert abs(pair.lambda1 - lam_dense) <= 2.0 * backward_error_bound(op)

    def test_largest_grid_meets_contract(self):
        # No dense oracle here: eigh takes seconds at n = 4096; the residual
        # is recomputed from the returned pair.
        grid = Grid1D(0.0, 1.0, 4096)
        op = assemble_regional(grid, 0.9)
        pair = principal_eigenpair(op, grid)
        e1 = pair.e1
        residual = np.linalg.norm(op.entries @ e1 - pair.lambda1 * e1) / np.linalg.norm(e1)
        assert residual <= backward_error_bound(op)
        assert e1.min() > 0

    @pytest.mark.parametrize("n", [2, 3, 7, 8, 65, 1025])
    def test_fold_matches_dense_oracle(self, n):
        # The loop runs on the mirror-even half; lambda1 is still checked
        # against the full matrix, and e1 is its own mirror image bit for bit.
        grid = Grid1D(0.0, 1.0, n)
        op = assemble_regional(grid, 0.7)
        pair = principal_eigenpair(op, grid)
        lam_dense = eigh(op.entries, eigvals_only=True, subset_by_index=[0, 0])[0]
        assert abs(pair.lambda1 - lam_dense) <= 2.0 * backward_error_bound(op)
        assert pair.residual <= backward_error_bound(op)
        e1 = pair.e1
        assert np.array_equal(e1, e1[::-1])

    @pytest.mark.parametrize("n", [8, 600])
    def test_not_positive_definite_is_named(self, n):
        # -I as values: column [-1, 0, ...], both diagonals -1 and 0
        column = np.zeros(n)
        column[0] = -1.0
        op = OperatorMatrix(column, np.full(n, -1.0), np.zeros(n - 1))
        with pytest.raises(ConvergenceError, match="not positive definite"):
            principal_eigenpair(op, Grid1D(0.0, 1.0, n))

    @staticmethod
    def _values(n):
        op = assemble_regional(Grid1D(0.0, 1.0, n), 0.5)
        return {"column": op.column.copy(), "diag": op.diag.copy(), "off": op.off.copy()}

    # (n, array, index): both ends and the middle of each array, even and odd n
    _PLACES = [(8, "column", 0), (9, "column", 8), (9, "diag", 0), (9, "diag", 4),
               (8, "diag", 7), (8, "off", 0), (9, "off", 3), (9, "off", 7)]

    @pytest.mark.parametrize("where", _PLACES)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_are_named(self, where, value):
        # every entry of A is one of the values, so they are checked when the
        # operator is made, before any solve
        n, name, i = where
        values = self._values(n)
        values[name][i] = value
        with pytest.raises(AssemblyError, match="non-finite entries"):
            OperatorMatrix(**values)

    # a change at the centre of a palindrome keeps J A J = A
    @pytest.mark.parametrize("where", [p for p in _PLACES if p[1] != "column" and p[2] != 4])
    def test_not_centrosymmetric_is_named(self, where):
        n, name, i = where
        values = self._values(n)
        values[name][i] *= 1.5
        with pytest.raises(DomainError, match="not centrosymmetric"):
            OperatorMatrix(**values)

    def test_value_shapes_are_checked(self):
        values = self._values(8)
        for name, bad in (("column", np.zeros((8, 8))), ("diag", np.zeros(7)),
                          ("off", np.zeros(8))):
            with pytest.raises(AssemblyError, match=r"shapes \(n,\), \(n,\) and \(n - 1,\)"):
                OperatorMatrix(**{**values, name: bad})
        with pytest.raises(AssemblyError, match="n >= 2"):
            OperatorMatrix([1.0], [1.0], [])

    @pytest.mark.parametrize("n", [8, 65, 600])
    def test_operator_values_are_read_only_and_left_intact(self, n):
        grid = Grid1D(0.0, 1.0, n)
        values = self._values(n)
        op = OperatorMatrix(**values)
        values["diag"][:] = 0.0  # the operator holds copies
        before = [v.tobytes() for v in (op.column, op.diag, op.off)]
        assert before[1] != values["diag"].tobytes()
        principal_eigenpair(op, grid)
        mirror_blocks(op)
        assert [v.tobytes() for v in (op.column, op.diag, op.off)] == before
        assert "entries" not in vars(op)  # no dense A on either path
        assert not any(v.flags.writeable for v in (op.column, op.diag, op.off, op.entries))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 63, 64, 65, 127, 128, 129, 513, 1023, 1024, 1025])
    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_mirror_blocks_match_the_dense_pass_bit_for_bit(self, n, s):
        op = assemble_regional(Grid1D(0.0, 1.0, n), s)
        even, odd = mirror_blocks(op)
        assert "entries" not in vars(op)  # formed from the values alone
        a = op.entries
        k, m = (n + 1) // 2, n // 2
        b, c, norm = reference_mirror_pass(a)
        assert even.tobytes() == b.tobytes()
        assert odd.tobytes() == c.tobytes()
        expected = a[:k, :k].copy()
        expected[:, :m] = a[:k, :m] + a[:k, ::-1][:, :m]
        if k > m:  # the middle column, and row, carry sqrt(2)
            expected[:m, m] *= math.sqrt(2.0)
            expected[m, :m] = expected[:m, m]
        assert b.tobytes() == expected.tobytes()
        assert c.tobytes() == (a[:m, :m] - a[:m, ::-1][:, :m]).tobytes()
        assert np.array_equal(even, even.T)  # so potrf may read even.T as even
        assert np.array_equal(odd, odd.T)
        # only the summation order differs, each a sum of n nonnegative terms
        # within (n - 1) * eps of the exact one
        for ref in (norm, np.linalg.norm(a, 1)):
            assert math.isclose(_norm1(op), ref, rel_tol=2 * n * np.finfo(float).eps)

    @pytest.mark.parametrize("n", [65, 513, 1025, 4096])
    def test_matvec_is_the_dense_product_bit_for_bit(self, n):
        # 513 and 1025 end in a strip that would hold one row
        op = assemble_regional(Grid1D(0.0, 1.0, n), 0.7)
        rng = np.random.default_rng(n)
        for _ in range(3):
            w = rng.standard_normal(n)
            assert op.matvec(w).tobytes() == (op.entries @ w).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 64, 65, 1025])
    def test_entries_are_the_toeplitz_matrix_with_three_diagonals_written(self, n):
        op = assemble_regional(Grid1D(0.0, 1.0, n), 0.3)
        expected = toeplitz(op.column)
        expected.flat[:: n + 1] = op.diag
        expected.flat[1 :: n + 1] = op.off
        expected.flat[n :: n + 1] = op.off
        assert op.entries.tobytes() == expected.tobytes()
        assert op.entries is op.entries  # built once

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 127, 128, 1023, 1024])
    def test_basis_matches_unfold_and_column_scatter_bit_for_bit(self, n):
        # the reference builds V the direct way: each block's eigenvectors
        # unfolded into n x k and n x m arrays, scattered to their columns
        k, m = (n + 1) // 2, n // 2
        even, odd = mirror_blocks(assemble_regional(Grid1D(0.0, 1.0, n), 0.3))
        lam_even, y = np.linalg.eigh(even)
        lam_odd, z = np.linalg.eigh(odd)
        half_y, half_z = y[:m] / math.sqrt(2.0), z / math.sqrt(2.0)
        lam = np.concatenate((lam_even, lam_odd))
        order = np.argsort(lam, kind="stable")
        column = np.empty(n, dtype=np.intp)
        column[order] = np.arange(n)
        v = np.empty((n, n))
        v[:, column[:k]] = np.concatenate((half_y, y[m:], half_y[::-1]))
        v[:, column[k:]] = np.concatenate((half_z, np.zeros((k - m, m)), -half_z[::-1]))
        lam_got, v_got = mirror_eigenbasis(even, odd)
        assert lam_got.tobytes() == lam[order].tobytes()
        assert v_got.tobytes() == v.tobytes()

    def test_eigenvector_overflow_is_named(self):
        # an operator paired with a grid of subnormal cell width: e1 = w / (h * sum w)
        # leaves the double range
        op = assemble_regional(Grid1D(0.0, 1.0, 8), 0.5)
        assert np.isfinite(principal_eigenpair(op, Grid1D(0.0, 1e-308, 8)).e1).all()
        with pytest.raises(DomainError, match=r"e1\) = 1 overflows at cell width h = 1.11111e-310"):
            principal_eigenpair(op, Grid1D(0.0, 1e-309, 8))

    def test_grid_size_mismatch_is_named(self):
        op = assemble_regional(Grid1D(0.0, 1.0, 8), 0.5)
        with pytest.raises(DomainError, match="n=9 .* dim=8"):
            principal_eigenpair(op, Grid1D(0.0, 1.0, 9))
        with pytest.raises(DomainError, match="n=8 .* dim=3"):
            principal_eigenpair(OperatorMatrix([2.0, 0.0, 0.0], [2.0] * 3, [0.0] * 2),
                                Grid1D(0.0, 1.0, 8))

    def test_discrete_poincare(self, op64):
        grid, op = op64
        pair = principal_eigenpair(op, grid)
        rng = np.random.default_rng(20240601)
        for _ in range(50):
            f = rng.standard_normal(64)
            quad = f @ (op.entries @ f)
            assert quad >= (pair.lambda1 - 1e-9) * (f @ f)


def traced_peak(call) -> int:
    """Peak bytes traced by tracemalloc during call(), above what was live
    before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestEigenMemory:
    """The eigen layer holds no dense copy it does not need (n = 1024, s = 0.5;
    the operator's values are built before tracing starts)."""

    N = 1024

    @pytest.fixture(scope="class")
    def op1024(self):
        grid = Grid1D(0.0, 1.0, self.N)
        return grid, assemble_regional(grid, 0.5)

    def test_principal_eigenpair_factors_the_even_block_in_place(self, op1024):
        # B (k^2 doubles, k = ceil(n/2)) and its factor share one array; the
        # rest is a strip of A's rows for the residual, and vectors
        grid, op = op1024
        k = (self.N + 1) // 2
        assert traced_peak(lambda: principal_eigenpair(op, grid)) <= 1.5 * k * k * 8

    def test_mirror_eigenbasis_holds_one_n_by_n_array(self, op1024):
        # V (n^2 doubles) and the two blocks' eigenvectors (n^2 / 4 each)
        blocks = mirror_blocks(op1024[1])
        assert traced_peak(lambda: mirror_eigenbasis(*blocks)) <= 1.75 * self.N**2 * 8

    def test_solver_operator_holds_no_dense_matrix(self, monkeypatch):
        # the eigenpair's B and then the two cached blocks (n^2 / 4 doubles
        # each); holding A as well, n^2 doubles, exceeds the bound
        built = []

        def assemble(grid, s):
            built.append(assemble_regional(grid, s))
            return built[-1]

        monkeypatch.setattr(solver, "assemble_regional", assemble)
        solver._operator.cache_clear()
        try:
            peak = traced_peak(lambda: solver._operator(0.0, 1.0, self.N, 0.5))
        finally:
            solver._operator.cache_clear()
        assert peak < 0.8 * self.N**2 * 8
        assert len(built) == 1 and "entries" not in vars(built[0])

    def test_step_matrix_holds_one_n_by_n_array(self, op1024):
        # S (n^2 doubles) and the two blocks' inverses (n^2 / 4 each); one
        # temporary of a block's size while all three are held exceeds the
        # bound
        blocks = mirror_blocks(op1024[1])
        assert traced_peak(lambda: _step_matrix(*blocks, 2.0)) <= 1.75 * self.N**2 * 8


class TestAgainstIndependentOracles:
    @pytest.mark.parametrize("s,tol", [(0.3, 5e-3), (0.75, 5e-4)])
    def test_action_matches_direct_quadrature(self, s, tol):
        # Independent route: adaptive quadrature of the principal-value
        # integral itself, with the odd part subtracted on a symmetric
        # window around the evaluation point so the integrand is bounded.
        from scipy.integrate import quad

        from fracrd.fraclap import normalizing_constant

        def u(x):
            return np.sin(np.pi * x) ** 4

        def du(x):
            return 4.0 * np.pi * np.sin(np.pi * x) ** 3 * np.cos(np.pi * x)

        def action_quad(x0):
            delta = min(x0, 1.0 - x0) / 2.0
            u0, du0 = u(x0), du(x0)

            def near(xi):
                return (u0 - u(xi) + du0 * (xi - x0)) * abs(x0 - xi) ** (-1 - 2 * s)

            def far(xi):
                return (u0 - u(xi)) * abs(x0 - xi) ** (-1 - 2 * s)

            val, _ = quad(near, x0 - delta, x0 + delta, points=[x0], limit=400)
            v2, _ = quad(far, 0.0, x0 - delta, limit=400)
            v3, _ = quad(far, x0 + delta, 1.0, limit=400)
            return normalizing_constant(s) * (val + v2 + v3)

        grid = Grid1D(0.0, 1.0, 512)
        action = assemble_regional(grid, s).entries @ u(grid.nodes())
        xs = grid.nodes()
        for x0 in (0.413, 0.687):
            i = int(np.argmin(np.abs(xs - x0)))
            ref = action_quad(xs[i])
            assert abs(action[i] - ref) <= tol * abs(ref)

    def test_fullspace_form_reference_eigenvalue(self):
        # With the boundary-weight correction disabled the assembly is the
        # full-kernel (restricted) fractional Dirichlet operator; its ground
        # state on (-1, 1) at s = 1/2 is known to high precision: 1.157773883.
        from fracrd.fraclap import normalizing_constant

        n = 1024
        h = 2.0 / (n + 1)
        entries = toeplitz(_fullspace_energy_column(n, h, 0.5)) * (normalizing_constant(0.5) / h)
        lam = eigh(entries, eigvals_only=True, subset_by_index=[0, 0])[0]
        assert lam == pytest.approx(1.157773883, abs=5e-4)


def test_dumps(tmp_path, op64):
    grid, op = op64
    pair = principal_eigenpair(op, grid)
    epath = tmp_path / "e1.csv"
    dump_eigenpair(pair, grid, epath)
    lines = epath.read_text().splitlines()
    assert lines[0] == "x,e1"
    assert len(lines) == 65
