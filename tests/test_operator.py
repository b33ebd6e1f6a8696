import math

import numpy as np
import pytest
from scipy.linalg import eigh

from fracrd.errors import AssemblyError, ConvergenceError, DomainError
from fracrd.fraclap import (
    Grid1D,
    OperatorMatrix,
    _boundary_weight_mass,
    _check_symmetry,
    assemble_regional,
    assemble_regional_untruncated,
    dump_eigenpair,
    principal_eigenpair,
)


def backward_error_bound(op):
    """The eigen residual contract: 16 * eps * ||A||_1."""
    return 16.0 * np.finfo(float).eps * np.linalg.norm(op.entries, 1)


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
    def test_symmetry(self, op64):
        _, op = op64
        a = op.entries
        assert np.max(np.abs(a - a.T)) <= 1e-12 * np.max(np.abs(a))

    @pytest.mark.parametrize("n", [64, 130])
    def test_exactly_symmetric(self, n):
        a = assemble_regional(Grid1D(0.0, 1.0, n), 0.5).entries
        assert np.array_equal(a, a.T)

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

    @pytest.mark.parametrize("i,j", [(5, 100), (129, 3), (128, 129)])
    def test_symmetry_check_finds_perturbation(self, i, j):
        # n = 130 leaves a ragged last tile; (5, 100) sits in an off-diagonal
        # tile, (129, 3) in the ragged row, (128, 129) in the ragged corner.
        a = assemble_regional(Grid1D(0.0, 1.0, 130), 0.5).entries.copy()
        _check_symmetry(a)
        a[i, j] += 1e-10 * np.max(np.abs(a))
        with pytest.raises(AssemblyError, match="asymmetric"):
            _check_symmetry(a)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_symmetry_check_rejects_non_finite(self, bad):
        a = assemble_regional(Grid1D(0.0, 1.0, 130), 0.5).entries.copy()
        a[5, 100] = bad
        with pytest.raises(AssemblyError, match="non-finite"):
            _check_symmetry(a)

    @pytest.mark.parametrize("width,cause", [(1e-300, "non-finite entries"), (1e300, "overflows")])
    def test_extreme_domain_is_named(self, width, cause):
        with pytest.raises(AssemblyError, match=cause):
            assemble_regional(Grid1D(0.0, width, 8), 0.9)

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

    def test_untruncated_annihilates_constants(self):
        op = assemble_regional_untruncated(0.0, 1.0, 64, 0.5)
        resid = np.max(np.abs(op.entries @ np.ones(64)))
        assert resid <= 1e-12 * np.max(np.abs(np.diag(op.entries)))

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
        with pytest.raises(DomainError):
            assemble_regional_untruncated(0.0, 1.0, 1, 0.5)


class TestApply:
    def test_eigenpair_is_fixed_direction(self, op64):
        grid, op = op64
        pair = principal_eigenpair(op, grid)
        out = op.entries @ pair.e1.values
        assert np.allclose(out, pair.lambda1 * pair.e1.values, rtol=0,
                           atol=2e-10 * pair.lambda1 * np.max(pair.e1.values))


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
        assert abs(grid.h * pair.e1.values.sum() - 1.0) <= 1e-12
        assert pair.e1.values.min() > 0
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
        # No dense oracle here: eigh takes seconds at n = 4096 and is itself
        # about 1e-10 off; the residual is recomputed from the returned pair.
        grid = Grid1D(0.0, 1.0, 4096)
        op = assemble_regional(grid, 0.9)
        pair = principal_eigenpair(op, grid)
        e1 = pair.e1.values
        residual = np.linalg.norm(op.entries @ e1 - pair.lambda1 * e1) / np.linalg.norm(e1)
        assert residual <= backward_error_bound(op)
        assert e1.min() > 0

    @pytest.mark.parametrize("n", [8, 600])
    def test_not_positive_definite_is_named(self, n):
        grid = Grid1D(0.0, 1.0, n)
        op = OperatorMatrix(-np.eye(n))
        with pytest.raises(ConvergenceError, match="not positive definite"):
            principal_eigenpair(op, grid)

    def test_non_finite_entries_are_named(self):
        grid = Grid1D(0.0, 1.0, 8)
        a = assemble_regional(grid, 0.5).entries.copy()
        a[3, 5] = np.nan
        op = OperatorMatrix(a)
        with pytest.raises(ConvergenceError, match="non-finite entries"):
            principal_eigenpair(op, grid)

    def test_grid_size_mismatch_is_named(self):
        op = assemble_regional(Grid1D(0.0, 1.0, 8), 0.5)
        with pytest.raises(DomainError, match="n=9 .* dim=8"):
            principal_eigenpair(op, Grid1D(0.0, 1.0, 9))
        with pytest.raises(DomainError, match="n=8 .* dim=3"):
            principal_eigenpair(OperatorMatrix(2.0 * np.eye(3)), Grid1D(0.0, 1.0, 8))

    def test_discrete_poincare(self, op64):
        grid, op = op64
        pair = principal_eigenpair(op, grid)
        rng = np.random.default_rng(20240601)
        for _ in range(50):
            f = rng.standard_normal(64)
            quad = f @ (op.entries @ f)
            assert quad >= (pair.lambda1 - 1e-9) * (f @ f)


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
        from fracrd.fraclap import _fullspace_energy_toeplitz, normalizing_constant

        n = 1024
        h = 2.0 / (n + 1)
        entries = _fullspace_energy_toeplitz(n, h, 0.5) * (normalizing_constant(0.5) / h)
        lam = eigh(entries, eigvals_only=True, subset_by_index=[0, 0])[0]
        assert lam == pytest.approx(1.157773883, abs=5e-4)


def test_dumps(tmp_path, op64):
    grid, op = op64
    pair = principal_eigenpair(op, grid)
    epath = tmp_path / "e1.csv"
    dump_eigenpair(pair, epath)
    lines = epath.read_text().splitlines()
    assert lines[0] == "x,e1"
    assert len(lines) == 65
