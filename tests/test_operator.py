import numpy as np
import pytest
from scipy.linalg import eigh

from fracrd.errors import DomainError
from fracrd.fraclap import (
    Grid1D,
    assemble_regional,
    assemble_regional_untruncated,
    dump_eigenpair,
    dump_matrix,
    principal_eigenpair,
)


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


class TestAssembly:
    def test_symmetry(self, op64):
        _, op = op64
        a = op.entries
        assert np.max(np.abs(a - a.T)) <= 1e-12 * np.max(np.abs(a))

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
        assert pair.residual <= 1e-10 * pair.lambda1

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
    mpath = tmp_path / "matrix.txt"
    dump_matrix(op, mpath)
    first = mpath.read_text().splitlines()[0].split()
    assert len(first) == 3 and first[0] == "0" and first[1] == "0"

    pair = principal_eigenpair(op, grid)
    epath = tmp_path / "e1.csv"
    dump_eigenpair(pair, epath)
    lines = epath.read_text().splitlines()
    assert lines[0] == "x,e1"
    assert len(lines) == 65
