import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix, diags, identity

from conftest import DenseOracle
from domainuq import fem, lowrank
from domainuq.errors import NotPSD
from domainuq.fem import mass_arrays
from domainuq.fields import (CHOL_TOL_FACTOR, CoefficientCovariance,
                             HoldAllGrid, ScalarFieldKL, VectorFieldCovariance,
                             _grid_mass, load_scalar_field, save_scalar_field)
from domainuq.lowrank import (KLBasis, kept_count, pivoted_cholesky,
                              reduced_eigs)
from domainuq.mesh import build_disc_mesh

#: Trace-level truncation target of a KL build at the default tolerance 1e-2.
KL_TOL = 1e-2 ** 2


def gaussian_kernel_matrix(n):
    x = np.linspace(0.0, 1.0, n)
    return np.exp(-(x[:, None] - x[None, :]) ** 2)


class TestPivotedCholesky:
    def test_identity(self):
        factor = pivoted_cholesky(DenseOracle(np.eye(3)), 1e-12)
        assert factor.rank == 3
        assert factor.trace_residual == 0.0
        # columns are unit vectors (in pivot order)
        recon = factor.columns @ factor.columns.T
        assert np.array_equal(recon, np.eye(3))

    def test_rank_one(self):
        v = np.array([2.0, 1.0])
        factor = pivoted_cholesky(DenseOracle(np.outer(v, v)), 1e-12)
        assert factor.rank == 1
        assert factor.pivots[0] == 0
        assert np.allclose(factor.columns[:, 0], v, rtol=1e-15)

    def test_gaussian_kernel_rank_matches_dense_count(self):
        C = gaussian_kernel_matrix(10)
        factor = pivoted_cholesky(DenseOracle(C), 1e-6)
        w = np.linalg.eigvalsh(C)
        count = int(np.sum(w > 1e-6 * np.trace(C)))
        assert abs(factor.rank - count) <= 1

    def test_residual_history_monotone(self):
        C = gaussian_kernel_matrix(30)
        factor = pivoted_cholesky(DenseOracle(C), 1e-10)
        hist = factor.residual_history
        assert (hist >= 0.0).all()
        assert (np.diff(hist) <= 0.0).all()
        assert factor.trace_residual <= 1e-10 * np.trace(C)

    def test_diagonal_reconstruction_at_pivots(self):
        C = gaussian_kernel_matrix(25) + np.diag(np.linspace(0, 0.5, 25))
        factor = pivoted_cholesky(DenseOracle(C), 1e-8)
        recon = np.einsum("ik,ik->i", factor.columns, factor.columns)
        for p in factor.pivots:
            assert np.isclose(recon[p], C[p, p], rtol=1e-12)

    def test_trace_norm_reconstruction(self):
        C = gaussian_kernel_matrix(40)
        tol = 1e-7
        factor = pivoted_cholesky(DenseOracle(C), tol)
        resid = C - factor.columns @ factor.columns.T
        # residual of a PSD matrix: trace norm equals the trace
        assert np.trace(resid) <= tol * np.trace(C) * (1 + 1e-9)

    def test_lower_triangular_in_pivot_order(self):
        C = gaussian_kernel_matrix(20)
        factor = pivoted_cholesky(DenseOracle(C), 1e-10)
        for k in range(factor.rank):
            assert np.array_equal(
                factor.columns[factor.pivots[:k], k], np.zeros(k))

    def test_buffer_growth_past_initial_width(self, monkeypatch):
        n = 40
        C = gaussian_kernel_matrix(n) + np.diag(np.linspace(0.1, 0.5, n))
        width = lowrank.INITIAL_BUFFER_COLUMNS
        assert 2 * width < n < 3 * width  # grows twice, the second time to n
        factor = pivoted_cholesky(DenseOracle(C), 1e-12)
        assert factor.rank == n
        assert factor.columns.shape == (n, factor.rank)
        L = factor.columns
        piv = factor.pivots
        assert np.allclose((L @ L.T)[np.ix_(piv, piv)], C[np.ix_(piv, piv)],
                           rtol=1e-12, atol=1e-14)

        # the grown buffer holds the bits one preallocated buffer holds:
        # the buffer width (BLAS's leading dimension) moves no rounding
        monkeypatch.setattr(lowrank, "INITIAL_BUFFER_COLUMNS", n)
        wide = pivoted_cholesky(DenseOracle(C), 1e-12)
        assert np.array_equal(wide.pivots, piv)
        assert np.array_equal(wide.columns, L)

    def test_not_psd_raises(self):
        C = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        with pytest.raises(NotPSD):
            pivoted_cholesky(DenseOracle(C), 1e-12)

    def test_deterministic_tie_break(self):
        factor = pivoted_cholesky(DenseOracle(np.eye(4)), 1e-12)
        assert np.array_equal(factor.pivots, [0, 1, 2, 3])


class TestReducedEigs:
    def test_identity_factor_and_mass(self):
        factor = pivoted_cholesky(DenseOracle(np.eye(2)), 1e-12)
        basis = reduced_eigs(factor, csr_matrix(identity(2)), block=1)
        assert np.allclose(basis.mu, [1.0, 1.0])
        # modes are (signed, possibly reordered) unit vectors
        assert np.allclose(np.sort(np.abs(basis.modes), axis=1),
                           [[0.0, 1.0], [0.0, 1.0]])

    def test_diagonal_mass_sorting(self):
        factor = pivoted_cholesky(DenseOracle(np.eye(2)), 1e-12)
        basis = reduced_eigs(factor, csr_matrix(diags([2.0, 3.0])), block=1)
        assert np.allclose(basis.mu, [3.0, 2.0])

    def test_matches_dense_generalized_solver(self):
        rng = np.random.default_rng(3)
        L = rng.standard_normal((8, 3))
        A = rng.standard_normal((8, 8))
        M = csr_matrix(A @ A.T + 8 * np.eye(8))
        from domainuq.lowrank import LowRankFactor
        factor = LowRankFactor(columns=L, pivots=np.arange(3),
                               trace_residual=0.0,
                               residual_history=np.zeros(4))
        basis = reduced_eigs(factor, M, block=1)
        # dense oracle: M C M v = mu M v with C = L L^T
        from scipy.linalg import eigh
        Md = M.toarray()
        w = eigh(Md @ (L @ L.T) @ Md, Md, eigvals_only=True)[::-1]
        assert np.allclose(basis.mu, w[:3], atol=1e-10)
        assert np.abs(w[3:]).max() < 1e-10

    def test_mass_orthogonality(self, mesh3):
        import domainuq as dq
        from domainuq.fem import assemble_mass
        from domainuq.fields import VectorFieldCovariance
        oracle = VectorFieldCovariance(mesh3.nodes)
        factor = pivoted_cholesky(oracle, 1e-5)
        mass = assemble_mass(mesh3)
        basis = reduced_eigs(factor, mass, block=2)
        n = mesh3.n_nodes
        MV = np.hstack([(mass @ basis.modes[:, :n].T).T,
                        (mass @ basis.modes[:, n:].T).T])
        gram = basis.modes @ MV.T
        resid = np.abs(gram - np.diag(basis.mu)).max()
        assert resid <= 1e-8 * basis.mu.max()

    def test_shape_mismatch_rejected(self):
        factor = pivoted_cholesky(DenseOracle(np.eye(4)), 1e-12)
        for shape in ((3, 3), (4, 3)):  # too few rows, not square
            with pytest.raises(ValueError):
                reduced_eigs(factor, csr_matrix(np.eye(*shape)), block=1)

    def test_basis_reconstructs_covariance_in_trace_norm(self):
        C = gaussian_kernel_matrix(20)
        tol = 1e-7
        factor = pivoted_cholesky(DenseOracle(C), tol)
        h = 1.0 / 19
        main = np.full(20, 4.0)
        main[0] = main[-1] = 2.0
        mass = (diags([np.ones(19), main, np.ones(19)], [-1, 0, 1])
                * (h / 6.0)).tocsr()
        basis = reduced_eigs(factor, mass, block=1)
        resid = C - basis.modes.T @ basis.modes
        assert np.trace(resid) <= tol * np.trace(C) * (1 + 1e-9)


class TestTruncate:
    def test_no_discard(self):
        assert kept_count(np.array([1.0, 0.5]), 1e-12) == 2

    def test_direct_criterion(self):
        assert kept_count(np.array([0.9, 0.09, 0.01]), 0.02) == 2

    def test_mode_count_bracket_at_desk_scale(self, mesh5):
        import domainuq as dq
        vf = dq.build_vector_field_kl(mesh5, 1e-2)
        assert 40 <= vf.n_modes <= 70

    def test_tol_bounds(self):
        for tol in (0.0, 1.0):
            with pytest.raises(ValueError):
                kept_count(np.array([1.0]), tol)


def vector_field_problem(mesh):
    """Factor and mass arrays of the vector-field KL build on `mesh`."""
    mass = mass_arrays(mesh)
    factor = pivoted_cholesky(VectorFieldCovariance(mesh.nodes),
                              CHOL_TOL_FACTOR * KL_TOL)
    return factor, mass


def whole_lift(factor, mass, block, keep):
    """Reference kept modes: `mass @ L[sl]` products into temporaries, with
    scipy's matrix on the CSR arrays `mass`, the eigensolve of
    `reduced_eigs`, then one lift of all n rows and its contiguous
    transpose."""
    L = factor.columns
    n = mass.shape[0]
    matrix = csr_matrix((mass.data, mass.indices, mass.indptr),
                        shape=mass.shape)
    ML = np.vstack([matrix @ L[b * n:(b + 1) * n] for b in range(block)])
    S = L.T @ ML
    w, V = np.linalg.eigh(0.5 * (S + S.T))
    return np.ascontiguousarray((L @ V[:, ::-1][:, :keep]).T)


def traced_peak(fn):
    """fn() and the peak of its traced allocations beyond those live
    before the call."""
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


class TestKeptLift:
    def test_bit_equal_to_lift_then_truncate(self, mesh4):
        grid = HoldAllGrid(64)
        coefficient = (pivoted_cholesky(
            CoefficientCovariance(grid.vertex_points()),
            CHOL_TOL_FACTOR * KL_TOL), _grid_mass(grid))
        for (factor, mass), block in ((vector_field_problem(mesh4), 2),
                                      (coefficient, 1)):
            lifted = reduced_eigs(factor, mass, block)
            keep = kept_count(lifted.mu, KL_TOL)
            kept = reduced_eigs(factor, mass, block, tol=KL_TOL)
            assert 0 < kept.n_modes == keep < factor.rank
            assert np.array_equal(kept.mu, lifted.mu[:keep])
            assert np.array_equal(kept.modes, lifted.modes[:keep])
            assert np.array_equal(kept.modes,
                                  whole_lift(factor, mass, block, keep))
            assert kept.modes.flags.c_contiguous

    def test_rank_zero_factor(self):
        factor = pivoted_cholesky(DenseOracle(np.zeros((3, 3))), 1e-12)
        assert factor.rank == 0
        for tol in (None, KL_TOL):
            basis = reduced_eigs(factor, csr_matrix(identity(3)), 1, tol=tol)
            assert basis.mu.shape == (0,) and basis.modes.shape == (0, 3)
        with pytest.raises(ValueError):
            reduced_eigs(factor, csr_matrix(identity(3)), 1, tol=1.0)

    @pytest.mark.parametrize("level, bound", [(3, 2.0), (4, 1.25)],
                             ids=["3", "4"])
    def test_eigen_step_peak_memory(self, level, bound, request):
        """The eigen step holds about one factor-sized array beyond the
        factor: `M_hat L`, then the kept modes with one mass block's lift,
        not the whole lift and its transposed copy as well."""
        factor, mass = vector_field_problem(
            request.getfixturevalue(f"mesh{level}"))
        basis, peak = traced_peak(
            lambda: reduced_eigs(factor, mass, block=2, tol=KL_TOL))
        assert basis.n_modes < factor.rank
        assert peak <= bound * factor.columns.nbytes

    def test_cholesky_peak_memory(self, mesh4):
        """The column buffer grows by one step at a time, so the buffer
        and the factor copied out of it take about two factor sizes, not
        a doubled buffer of 128 columns beside 78."""
        oracle = VectorFieldCovariance(mesh4.nodes)
        factor, peak = traced_peak(
            lambda: pivoted_cholesky(oracle, CHOL_TOL_FACTOR * KL_TOL))
        assert factor.rank > 4 * lowrank.INITIAL_BUFFER_COLUMNS
        assert peak <= 2.25 * factor.columns.nbytes


def scipy_product(mass, X):
    """Reference `mass @ X`: scipy's `@` of its matrix on the CSR arrays."""
    return csr_matrix((mass.data, mass.indices, mass.indptr),
                      shape=mass.shape) @ X


class TestMassProduct:
    """`fem.csr_product`, which `reduced_eigs` adds each mass block through
    into zeros, against scipy's `@`."""

    @pytest.mark.parametrize("level", [2, 3, 4, 5])
    def test_vector_mass_blocks_bit_equal_to_scipy(self, level):
        mass = mass_arrays(build_disc_mesh(level))
        n = mass.shape[0]
        L = np.random.default_rng(level).standard_normal((2 * n, 9))
        out = np.zeros_like(L)
        for sl in (slice(0, n), slice(n, 2 * n)):
            fem.csr_product(mass, L[sl], out=out[sl])
        assert np.array_equal(out, np.vstack([scipy_product(mass, L[:n]),
                                              scipy_product(mass, L[n:])]))

    @pytest.mark.parametrize("cells", [16, 64, 256])
    def test_grid_mass_bit_equal_to_scipy(self, cells):
        mass = _grid_mass(HoldAllGrid(cells))
        rng = np.random.default_rng(cells)
        for X in (rng.standard_normal((mass.shape[0], 5)),
                  rng.standard_normal((mass.shape[0], 1)),
                  rng.standard_normal(mass.shape[0])):
            assert np.array_equal(fem.csr_product(mass, X),
                                  scipy_product(mass, X))

    def test_rank_zero_block(self):
        mass = _grid_mass(HoldAllGrid(16))
        X = np.zeros((mass.shape[0], 0))
        out = np.zeros_like(X)
        assert fem.csr_product(mass, X, out=out) is out
        assert np.array_equal(out, scipy_product(mass, X))

    def test_matrix_with_an_empty_row(self):
        rng = np.random.default_rng(4)
        dense = rng.standard_normal((40, 40)) * (rng.random((40, 40)) < 0.2)
        dense[7] = 0.0
        mass = csr_matrix(dense)
        assert mass.indptr[7] == mass.indptr[8]
        X = rng.standard_normal((40, 3))
        out = np.zeros_like(X)
        fem.csr_product(mass, X, out=out)
        assert np.array_equal(out, scipy_product(mass, X))
        assert not out[7].any()
        with pytest.raises(ValueError):  # the kernel would write a copy
            fem.csr_product(mass, X, out=np.zeros((3, 40)).T)


def test_klbasis_roundtrip_bit_exact(tmp_path):
    """A random basis saved in a coefficient artifact loads bit for bit,
    and saving it again writes the same bytes."""
    rng = np.random.default_rng(11)
    grid = HoldAllGrid(16)
    basis = KLBasis(np.sort(rng.random(4))[::-1],
                    rng.standard_normal((4, grid.n_vertices)))
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    save_scalar_field(ScalarFieldKL(grid, rng.standard_normal(grid.n_vertices),
                                    basis), first)
    back = load_scalar_field(first).basis
    for a, b in ((back.mu, basis.mu), (back.modes, basis.modes)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    save_scalar_field(load_scalar_field(first), second)
    assert second.read_bytes() == first.read_bytes()
