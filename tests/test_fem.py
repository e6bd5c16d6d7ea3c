import importlib.machinery
import importlib.util
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import domainuq as dq
import domainuq.fem as fem
from conftest import (at_quadrature, interior_gather, interior_matrix,
                      matrix_solve, nodal_sum, reference_geometry,
                      reference_load, reference_mass, reference_pattern,
                      reference_perturbation_load, reference_scatter,
                      reference_stiffness, scipy_hierarchy,
                      smoothly_displaced)
from domainuq.errors import MeshMismatch, NonFiniteValue, SolverDiverged
from domainuq.fem import (_h1_gram, _prolongation,
                          assemble_mass, field_to_text,
                          h1_norm, l2_norm, perturbation_load_from_qvalues,
                          reference_solver, solve_dirichlet,
                          stiffness_from_qvalues, w11_norm)
from domainuq.mesh import build_disc_mesh, displace, signed_areas


def field_from_text(text):
    """The field that `field_to_text` wrote."""
    lines = text.splitlines()
    assert lines[0].split() == ["field", str(len(lines) - 1)]
    return np.array([float(v) for v in lines[1:]])


def poisson_solve(mesh, coeff=lambda p: 1.0, f=lambda p: 1.0):
    K = reference_stiffness(mesh, coeff)
    b = reference_load(mesh, f)
    return K, b, matrix_solve(K, b, mesh)


def h1_error_vs_analytic(mesh, u):
    """H1 distance to the exact Poisson solution (1 - |x|^2)/4, evaluated
    by the element quadrature rule (independent of the discrete norms)."""
    areas, grads, qpts, _ = reference_geometry(mesh)
    t = mesh.triangles
    vt = u[t]
    vmid = 0.5 * (vt.sum(axis=1)[:, None] - vt)
    grad_u = np.einsum("mi,mid->md", vt, grads)
    uex = 0.25 * (1.0 - np.sum(qpts ** 2, axis=2))
    gex = -0.5 * qpts
    l2part = areas * np.mean((vmid - uex) ** 2, axis=1)
    gdiff = grad_u[:, None, :] - gex
    h1part = areas * np.mean(np.sum(gdiff ** 2, axis=2), axis=1)
    return float(np.sqrt(np.sum(l2part + h1part)))


def stiffness(mesh, coeff):
    """Interior stiffness data of a coefficient given as a function of
    the points."""
    return stiffness_from_qvalues(mesh, at_quadrature(mesh, coeff))


def perturbation_load(mesh, a_r, u0):
    """Interior perturbation load of a direction given as a function of
    the points."""
    return perturbation_load_from_qvalues(mesh, at_quadrature(mesh, a_r),
                                          u0)


class TestAssembly:
    def test_unit_triangle_stiffness(self, unit_triangle):
        K = reference_stiffness(unit_triangle, lambda p: 1.0).toarray()
        expected = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]])
        assert np.allclose(K, expected, atol=1e-15)

    def test_stiffness_scales_with_coefficient(self, unit_triangle):
        K1 = reference_stiffness(unit_triangle, lambda p: 1.0).toarray()
        K2 = reference_stiffness(unit_triangle, lambda p: 2.0).toarray()
        assert np.array_equal(K2, 2.0 * K1)

    def test_interior_row_sums_vanish(self, mesh3):
        K = reference_stiffness(mesh3, lambda p: 1.0)
        rowsums = np.asarray(K.sum(axis=1)).ravel()
        interior = np.setdiff1d(np.arange(mesh3.n_nodes), mesh3.boundary)
        assert np.abs(rowsums[interior]).max() < 1e-13

    def test_stiffness_additivity(self, mesh3):
        a = lambda p: 1.0 + 0.3 * p[..., 0] ** 2
        b = lambda p: 2.0 + 0.1 * p[..., 1]
        ab = lambda p: a(p) + b(p)
        Ka = stiffness(mesh3, a)
        Kb = stiffness(mesh3, b)
        Kab = stiffness(mesh3, ab)
        diff = np.abs(Ka + Kb - Kab).max()
        scale = np.abs(Kab).max()
        assert diff <= 1e-12 * scale

    @pytest.mark.parametrize("level", range(6))
    def test_stiffness_bit_equal_to_einsum(self, level):
        moved = smoothly_displaced(level, seed=10 + level)
        coeff_q = np.random.default_rng(level).uniform(
            0.5, 2.0, size=(moved.n_triangles, 3))
        areas, _, _, products = reference_geometry(moved)
        expected = reference_scatter(
            moved, (coeff_q.mean(axis=1) * areas)[:, None, None] * products)
        data = stiffness_from_qvalues(moved, coeff_q)
        assert np.array_equal(data, interior_gather(moved, expected))

    @pytest.mark.parametrize("level", range(1, 6))
    def test_interior_assembly_bit_equal_to_gather(self, level):
        moved = smoothly_displaced(level, seed=20 + level)
        rng = np.random.default_rng(level)
        coeff_q, fq = rng.uniform(0.5, 2.0, size=(2, moved.n_triangles, 3))
        ref = reference_solver(moved)
        data = stiffness_from_qvalues(moved, coeff_q)
        assert data.shape == (len(ref.slots),)
        assert np.array_equal(
            data, interior_gather(moved, reference_stiffness(moved, coeff_q)))
        assert np.array_equal(ref.interior_vector(fq),
                              nodal_sum(moved, fq)[ref.interior])
        u0 = rng.standard_normal(moved.n_nodes)
        assert np.array_equal(
            perturbation_load_from_qvalues(moved, coeff_q, u0),
            reference_perturbation_load(moved, coeff_q, u0)[ref.interior])
        assert ref.element_nodes.dtype == np.int32

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(-4.0, 4.0), b=st.floats(-4.0, 4.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_assembly_linear_in_coefficient(self, a, b, seed):
        mesh = smoothly_displaced(2, seed=3)
        q1, q2 = np.random.default_rng(seed).uniform(
            -1.0, 1.0, size=(2, mesh.n_triangles, 3))

        def K(q):
            return stiffness_from_qvalues(mesh, q)

        # For |q| <= 1 the element contributions to any entry sum in
        # magnitude to at most the largest diagonal entry of K(1) on its
        # row or column (Cauchy-Schwarz on the gradient products), which
        # scales the rounding error; `tiny` covers amplitudes so small
        # that the products are subnormal.
        scale = (abs(a) + abs(b)) * K(np.ones_like(q1)).max()
        assert (np.abs(K(a * q1 + b * q2) - (a * K(q1) + b * K(q2))).max()
                <= 1e-13 * scale + np.finfo(float).tiny)

    def test_stiffness_symmetric(self, mesh3):
        ref = reference_solver(mesh3)
        K = interior_matrix(
            ref, stiffness(mesh3, lambda p: 1.0 + 0.2 * p[..., 0]))
        asym = np.abs((K - K.T).toarray()).max()
        assert asym <= 1e-12 * np.abs(K.toarray()).max()

    def test_unit_triangle_mass(self, unit_triangle):
        M = assemble_mass(unit_triangle).toarray()
        expected = (0.5 / 12.0) * np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
        assert np.allclose(M, expected, atol=1e-16)

    def test_mass_total_equals_area(self, mesh3):
        M = assemble_mass(mesh3)
        assert np.isclose(M.sum(), signed_areas(mesh3).sum(), rtol=1e-13)

    def test_mass_total_near_pi(self, mesh4):
        assert abs(assemble_mass(mesh4).sum() - np.pi) < 2e-2

    def test_load_unit_f_equals_mass_rowsums(self, mesh2):
        b = reference_load(mesh2, lambda p: 1.0)
        rowsums = np.asarray(assemble_mass(mesh2).sum(axis=1)).ravel()
        assert np.allclose(b, rowsums, rtol=1e-14)

    def test_load_zero_f(self, mesh2):
        assert np.array_equal(reference_load(mesh2, lambda p: 0.0),
                              np.zeros(mesh2.n_nodes))

    def test_load_odd_integrand_cancels(self, mesh4):
        b = reference_load(mesh4, lambda p: p[..., 0])
        assert abs(b.sum()) < 1e-12

    @pytest.mark.parametrize("level", [2, 3, 4])
    def test_h1_gram_bit_equal_to_reference(self, level):
        mesh = build_disc_mesh(level)
        expected = (reference_stiffness(mesh, lambda p: 1.0)
                    + reference_mass(mesh))
        gram = _h1_gram(mesh)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(gram, name),
                                  getattr(expected, name))

    @pytest.mark.parametrize("level", range(6))
    def test_edge_and_corner_terms_bit_equal_to_element_matrices(
            self, level, monkeypatch):
        """The pattern built from the edges, the mass, the H1 gram and the
        V-cycle's interior reference operator equal the sums of full 3x3
        element matrices in element order, bit for bit."""
        moved = smoothly_displaced(level, seed=30 + level)
        indptr, indices, _ = reference_pattern(moved)
        pattern = fem._pattern(moved)
        assert np.array_equal(pattern.indptr, indptr)
        assert np.array_equal(pattern.indices, indices)
        areas, _, _, products = reference_geometry(moved)
        mass = reference_mass(moved)
        unit = reference_scatter(moved, areas[:, None, None] * products)
        for got, want in ((assemble_mass(moved), mass),
                          (_h1_gram(moved), unit + mass)):
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, name),
                                      getattr(want, name))
        reference = build_disc_mesh(level)
        areas, _, _, products = reference_geometry(reference)
        want = interior_gather(reference, reference_scatter(
            reference, areas[:, None, None] * products))
        built = []
        terms = fem._stiffness_terms
        monkeypatch.setattr(fem, "_stiffness_terms",
                            lambda *args: built.append(terms(*args))
                            or built[-1])
        ref = fem.ReferenceSolver(moved)
        assert len(built) == 1 and np.array_equal(built[0][ref.slots], want)


class TestPerturbationLoad:
    def test_zero_direction(self, mesh3):
        u0 = np.ones(mesh3.n_nodes)
        b = perturbation_load(mesh3, lambda p: 0.0, u0)
        assert np.array_equal(
            b, np.zeros(len(reference_solver(mesh3).interior)))

    def test_constant_direction_matches_stiffness(self, mesh3):
        rng = np.random.default_rng(1)
        u0 = rng.standard_normal(mesh3.n_nodes)
        c = 0.7
        b = perturbation_load(mesh3, lambda p: c, u0)
        K1 = reference_stiffness(mesh3, lambda p: 1.0)
        assert np.allclose(
            b, -c * (K1 @ u0)[reference_solver(mesh3).interior],
            rtol=1e-12, atol=1e-15)

    def test_linear_in_direction(self, mesh3):
        rng = np.random.default_rng(2)
        u0 = rng.standard_normal(mesh3.n_nodes)
        a_r = lambda p: np.sin(p[..., 0]) + 0.5
        b1 = perturbation_load(mesh3, a_r, u0)
        b2 = perturbation_load(mesh3, lambda p: 2.0 * a_r(p), u0)
        assert np.array_equal(b2, 2.0 * b1)


def rough_pair(mesh):
    """Smooth and rough stiffness matrices and the unit load on `mesh`."""
    K = reference_stiffness(mesh, lambda p: 1.0 + 0.2 * p[..., 0] ** 2)
    K_r = reference_stiffness(mesh,
                              lambda p: 0.5 + 0.4 * np.sin(3 * p[..., 1]))
    return K, K_r, reference_load(mesh, lambda p: 1.0)


def amplitude_block(K, K_r, b, mesh, amplitudes):
    """Block-form arrays of the systems `(K + c K_r) u = b`, one column
    per amplitude c."""
    ref = reference_solver(mesh)
    data = interior_gather(mesh, K) + np.multiply.outer(
        amplitudes, interior_gather(mesh, K_r))
    return data, np.tile(b[ref.interior], (len(amplitudes), 1))


class TestDirichletSolve:
    def test_poisson_disc_center_value(self):
        mesh = build_disc_mesh(5)
        _, _, u = poisson_solve(mesh)
        assert abs(u[0] - 0.25) < 5e-3

    def test_zero_rhs(self, mesh3):
        K = reference_stiffness(mesh3, lambda p: 1.0)
        u = matrix_solve(K, np.zeros(mesh3.n_nodes), mesh3)
        assert np.array_equal(u, np.zeros(mesh3.n_nodes))

    def test_coefficient_scaling_halves_solution(self, mesh3):
        _, _, u1 = poisson_solve(mesh3)
        _, _, u2 = poisson_solve(mesh3, coeff=lambda p: 2.0)
        assert np.abs(u2 - 0.5 * u1).max() <= 1e-8 * np.abs(u1).max()

    def test_boundary_values_exact_zero(self, mesh3):
        _, _, u = poisson_solve(mesh3)
        assert np.array_equal(u[mesh3.boundary],
                              np.zeros(len(mesh3.boundary)))

    def test_residual_contract(self, mesh3):
        K, b, u = poisson_solve(mesh3)
        interior = np.setdiff1d(np.arange(mesh3.n_nodes), mesh3.boundary)
        r = (K @ u - b)[interior]
        bi = b[interior]
        assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(bi) * (1 + 1e-6)

    def test_iteration_cap_raises(self, mesh2, monkeypatch):
        import domainuq.fem as fem
        monkeypatch.setattr(fem, "CG_CAP_FACTOR", 0)
        K = reference_stiffness(mesh2, lambda p: 1.0)
        b = reference_load(mesh2, lambda p: 1.0)
        with pytest.raises(SolverDiverged):
            matrix_solve(K, b, mesh2)

    def test_nan_load_raises(self, mesh3):
        K = reference_stiffness(mesh3, lambda p: 1.0)
        b = reference_load(mesh3, lambda p: 1.0)
        b[0] = np.nan  # the disc centre, an interior node
        with pytest.raises(NonFiniteValue):
            matrix_solve(K, b, mesh3)

    def test_nan_matrix_entry_raises(self, mesh3):
        K = reference_stiffness(mesh3, lambda p: 1.0)
        b = reference_load(mesh3, lambda p: 1.0)
        K.data[K.indptr[0]] = np.nan  # first entry of the centre's row
        with pytest.raises(NonFiniteValue):
            matrix_solve(K, b, mesh3)

    def test_foreign_sparsity_pattern_raises(self, mesh2, mesh3):
        K = reference_stiffness(mesh2, lambda p: 1.0)
        b = reference_load(mesh3, lambda p: 1.0)
        with pytest.raises(MeshMismatch):
            matrix_solve(K, b, mesh3)

    AMPLITUDES = [0.0, 0.25, -0.25, 1.0, -1.0]

    def test_columns_match_one_column_solves(self, mesh4):
        K, K_r, b = rough_pair(mesh4)
        diag = {}
        fields = solve_dirichlet(
            *amplitude_block(K, K_r, b, mesh4, self.AMPLITUDES), mesh4,
            diag_out=diag)
        assert isinstance(diag["iterations"], int)
        assert diag["iterations"] == max(diag["column_iterations"])
        for c, u, iterations in zip(self.AMPLITUDES, fields,
                                    diag["column_iterations"]):
            K_c = K.copy()
            K_c.data = K.data + c * K_r.data
            one = {}
            single = matrix_solve(K_c, b, mesh4, diag_out=one)
            assert iterations == one["iterations"]
            assert (np.abs(u - single).max()
                    <= 1e-12 * np.abs(single).max())

    def test_load_columns_match_one_column_solves(self, mesh4):
        K, _, b = rough_pair(mesh4)
        loads = np.column_stack([b, reference_load(mesh4, lambda p: p[:, 0]),
                                 np.zeros(mesh4.n_nodes), 3.0 * b])
        diag = {}
        fields = matrix_solve(K, loads, mesh4, diag_out=diag)
        assert fields.dtype == float
        assert fields.shape == (4, mesh4.n_nodes)
        assert diag["column_iterations"][2] == 0
        assert np.array_equal(fields[2], np.zeros(mesh4.n_nodes))
        for j in (0, 1, 3):
            one = {}
            single = matrix_solve(K, loads[:, j], mesh4, diag_out=one)
            assert diag["column_iterations"][j] == one["iterations"]
            assert (np.abs(fields[j] - single).max()
                    <= 1e-12 * np.abs(single).max())

    def test_zero_amplitude_column_equals_plain_solve(self, mesh3):
        K, K_r, b = rough_pair(mesh3)
        plain = matrix_solve(K, b, mesh3)
        block = solve_dirichlet(*amplitude_block(K, K_r, b, mesh3, [0.0]),
                                mesh3)
        assert np.array_equal(block[0], plain)

    def test_non_finite_load_column_raises(self, mesh3):
        K, _, b = rough_pair(mesh3)
        loads = np.column_stack([b, b, b])
        loads[0, 1] = np.inf  # the disc centre, an interior node
        with pytest.raises(NonFiniteValue):
            matrix_solve(K, loads, mesh3)

    def test_non_finite_amplitude_raises(self, mesh3):
        K, K_r, b = rough_pair(mesh3)
        with pytest.raises(NonFiniteValue, match="column 1"):
            solve_dirichlet(
                *amplitude_block(K, K_r, b, mesh3, [0.5, np.nan]), mesh3)

    def test_non_finite_rough_matrix_raises(self, mesh3):
        K, K_r, b = rough_pair(mesh3)
        K_r.data[K_r.indptr[0]] = np.nan
        with pytest.raises(NonFiniteValue):
            solve_dirichlet(*amplitude_block(K, K_r, b, mesh3, [0.5]), mesh3)

    def test_foreign_rough_pattern_raises(self, mesh2, mesh3):
        K, _, b = rough_pair(mesh3)
        K_r, _, _ = rough_pair(mesh2)
        with pytest.raises(MeshMismatch):
            solve_dirichlet(*amplitude_block(K, K_r, b, mesh3, [0.5]), mesh3)

    def test_iteration_cap_raises_for_block(self, mesh3, monkeypatch):
        import domainuq.fem as fem
        K, K_r, b = rough_pair(mesh3)
        one = {}
        matrix_solve(K, b, mesh3, diag_out=one)
        # a cap that allows one iteration fewer than column 0 needs
        m = mesh3.n_nodes - len(mesh3.boundary)
        monkeypatch.setattr(fem, "CG_CAP_FACTOR",
                            (one["iterations"] - 1.5) / m)
        with pytest.raises(SolverDiverged, match="column"):
            solve_dirichlet(*amplitude_block(K, K_r, b, mesh3, [0.0, 0.5]),
                            mesh3)


def realization_block(mesh, count):
    """Block-form arrays of `count` smoothly displaced copies of `mesh`,
    each with its own coefficient and load, and their matrix-form
    systems: (data, loads, [(K, b), ...])."""
    ref = reference_solver(mesh)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    systems = []
    for i in range(count):
        a = np.random.default_rng(i).uniform(-1.0, 1.0, size=5)
        disp = 0.03 * np.column_stack([np.sin(a[0] * x + a[1] * y),
                                       np.cos(a[2] * x - a[3] * y)])
        deformed = displace(mesh, disp)
        K = reference_stiffness(deformed,
                                lambda p, c=a[4]: 1.5 + c * p[..., 0])
        b = reference_load(deformed, lambda p, c=a[4]: 1.0 + c * p[..., 1])
        systems.append((K, b))
    data = np.array([interior_gather(mesh, K) for K, _ in systems])
    loads = np.array([b[ref.interior] for _, b in systems])
    return data, loads, systems


class TestBlockSolve:
    """Blocks of columns drawn from several domain realizations."""

    def test_columns_match_one_column_solves(self, mesh4):
        data, loads, systems = realization_block(mesh4, 5)
        diag = {}
        fields = solve_dirichlet(data, loads, mesh4, diag_out=diag)
        assert len(fields) == 5
        assert diag["iterations"] == max(diag["column_iterations"])
        for (K, b), u, iterations in zip(systems, fields,
                                         diag["column_iterations"]):
            one = {}
            single = matrix_solve(K, b, mesh4, diag_out=one)
            assert iterations == one["iterations"]
            assert (np.abs(u - single).max()
                    <= 1e-12 * np.abs(single).max())

    def test_zero_load_column_is_zero(self, mesh3):
        data, loads, systems = realization_block(mesh3, 4)
        loads[1] = 0.0
        diag = {}
        fields = solve_dirichlet(data, loads, mesh3, diag_out=diag)
        assert diag["column_iterations"][1] == 0
        assert np.array_equal(fields[1], np.zeros(mesh3.n_nodes))
        K, b = systems[2]
        single = matrix_solve(K, b, mesh3)
        assert (np.abs(fields[2] - single).max()
                <= 1e-12 * np.abs(single).max())

    @pytest.mark.parametrize("which", ["load", "matrix"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_third_column_is_named(self, mesh3, which, bad):
        data, loads, _ = realization_block(mesh3, 4)
        (loads if which == "load" else data)[2, 0] = bad
        with pytest.raises(NonFiniteValue, match="column 2") as info:
            solve_dirichlet(data, loads, mesh3)
        assert info.value.index == 2

    def test_foreign_pattern_raises(self, mesh3, mesh4):
        data, loads, _ = realization_block(mesh4, 3)
        with pytest.raises(MeshMismatch):
            solve_dirichlet(data[:, :-1], loads, mesh4)
        with pytest.raises(MeshMismatch):
            solve_dirichlet(data, loads, mesh3)

    def test_diverged_names_a_column_still_running(self, mesh3,
                                                   monkeypatch):
        import domainuq.fem as fem
        data, loads, _ = realization_block(mesh3, 4)
        diag = {}
        solve_dirichlet(data, loads, mesh3, diag_out=diag)
        longest = max(diag["column_iterations"])
        m = len(reference_solver(mesh3).interior)
        monkeypatch.setattr(fem, "CG_CAP_FACTOR", (longest - 1.5) / m)
        with pytest.raises(SolverDiverged, match=r"in column \d") as info:
            solve_dirichlet(data, loads, mesh3)
        j = info.value.index
        assert diag["column_iterations"][j] == longest
        assert str(info.value).endswith(f"in column {j}")

    def test_block_data_is_left_in_place(self, mesh3, monkeypatch):
        import domainuq.fem as fem
        data, loads, _ = realization_block(mesh3, 4)
        loads[1] = 0.0  # its row leaves the work block before iterating
        before = data.copy()
        solve_dirichlet(data, loads, mesh3)
        assert np.array_equal(data, before)
        monkeypatch.setattr(fem, "CG_CAP_FACTOR", 0.0)
        with pytest.raises(SolverDiverged):
            solve_dirichlet(data, loads, mesh3)
        assert np.array_equal(data, before)

    @pytest.mark.parametrize("level", [3, 5])
    @pytest.mark.parametrize("k", [1, 5])
    def test_matvec_rows_are_interior_matrix_products(self, request, level,
                                                      k, monkeypatch):
        mesh = request.getfixturevalue(f"mesh{level}")
        ref = reference_solver(mesh)
        data, _, _ = realization_block(mesh, 2 * k)
        x = np.random.default_rng(k).standard_normal((k, len(ref.interior)))
        # contiguous rows, a row-strided view, and rows picked out of order
        for block, rows in [(data[:k], range(k)), (data[::2], range(k)),
                            (data, np.arange(0, 2 * k, 2)[::-1])]:
            q = ref.matvec(block, rows, x)
            assert q.shape == x.shape
            for i, j in enumerate(rows):
                assert np.array_equal(q[i],
                                      interior_matrix(ref, block[j]) @ x[i])
        with monkeypatch.context() as patch:  # raised before any kernel
            patch.setattr(fem, "_kernels", None)
            with pytest.raises(MeshMismatch):  # csr_matvec reads past the end
                ref.matvec(data[:, :-1], range(k), x)
            with pytest.raises(MeshMismatch):
                ref.matvec(data, range(k), x[:, :-1])

    def test_wide_block_adds_no_solver_arrays(self):
        def array_bytes(obj):
            if isinstance(obj, np.ndarray):
                return obj.nbytes
            if isinstance(obj, (tuple, list)):
                return sum(array_bytes(o) for o in obj)
            if hasattr(obj, "indptr"):  # a sparse matrix
                return sum(array_bytes(getattr(obj, name))
                           for name in ("data", "indices", "indptr"))
            return 0

        mesh = build_disc_mesh(3)  # a topology no other test has solved on
        ref = reference_solver(mesh)
        before = array_bytes(list(vars(ref).values()))
        data, loads, _ = realization_block(mesh, 28)
        solve_dirichlet(data, loads, mesh)
        assert array_bytes(list(vars(ref).values())) == before

    def test_read_only_and_strided_blocks_are_read_in_place(self, mesh3,
                                                           monkeypatch):
        import domainuq.fem as fem
        data, loads, _ = realization_block(mesh3, 6)
        frozen = data.copy()
        frozen.setflags(write=False)
        seen = []
        matvec = fem.ReferenceSolver.matvec

        def recording(self, block, rows, x):
            seen.append(block)
            return matvec(self, block, rows, x)

        for block, rhs in [(frozen, loads), (data[::2], loads[::2])]:
            before = np.array(block)
            want = solve_dirichlet(np.array(block), np.array(rhs), mesh3)
            with monkeypatch.context() as patch:
                patch.setattr(fem.ReferenceSolver, "matvec", recording)
                got = solve_dirichlet(block, rhs, mesh3)
            assert seen and all(used is block for used in seen)
            seen.clear()
            for g, w in zip(got, want, strict=True):
                assert np.array_equal(g, w)
            assert np.array_equal(block, before)


class TestReferenceSolver:
    def test_vcycle_symmetric_positive_definite(self, mesh5):
        ref = reference_solver(mesh5)
        rng = np.random.default_rng(3)
        for _ in range(5):
            r1, r2 = rng.standard_normal((2, 1, len(ref.interior)))
            a = r1[0] @ ref.precondition(r2)[0]
            b = r2[0] @ ref.precondition(r1)[0]
            assert abs(a - b) <= 1e-12 * abs(a)
            assert r1[0] @ ref.precondition(r1)[0] > 0.0

    def test_prolongation_reproduces_linear_functions(self, mesh5):
        edges = mesh5.refinements[-1]
        n_coarse = mesh5.n_nodes - len(edges)
        interior = np.setdiff1d(np.arange(mesh5.n_nodes), mesh5.boundary)
        coarse = interior[interior < n_coarse]
        P = _prolongation(edges, n_coarse, interior, coarse)
        g = lambda p: 0.3 + 2.0 * p[:, 0] - 1.5 * p[:, 1]
        fine = fem.csr_product(P, g(mesh5.nodes[coarse]))
        # midpoints of edges that touch the rim see the Dirichlet zero there
        touches_rim = np.zeros(mesh5.n_nodes, dtype=bool)
        touches_rim[n_coarse:] = np.isin(edges, mesh5.boundary).any(axis=1)
        rows = np.flatnonzero(~touches_rim[interior])
        exact = interior[rows]
        assert len(exact) > 0.9 * len(interior)
        assert np.allclose(fine[rows], g(mesh5.nodes[exact]),
                           rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("level", [2, 4, 5, 6])
    def test_hierarchy_bit_equal_to_scipy_operators(self, level):
        """Every prolongation, each level's S, G and G^T, entry order
        included, and the coarse inverse are what scipy's operators
        build."""
        mesh = build_disc_mesh(level)
        ref = reference_solver(mesh)
        transfers, levels, coarse = scipy_hierarchy(mesh)
        assert len(ref._levels) == len(levels) == len(transfers)
        pairs = [(_prolongation(*args), P) for args, P in transfers]
        pairs += [pair for got, want in zip(ref._levels, levels)
                  for pair in zip(got, want, strict=True)]
        assert ref.indptr.dtype == ref.indices.dtype == np.int32
        for got, want in pairs:
            assert got.shape == want.shape
            assert got.indptr.dtype == got.indices.dtype == np.int32
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b)
        inverse = np.linalg.inv(coarse)
        assert np.array_equal(ref._coarse_inverse,
                              0.5 * (inverse + inverse.T))

    @pytest.mark.parametrize("k", [1, 3])
    def test_vcycle_bit_equal_to_scipy_operators(self, mesh5, k):
        ref = reference_solver(mesh5)
        _, levels, coarse = scipy_hierarchy(mesh5)
        inverse = np.linalg.inv(coarse)
        inverse = 0.5 * (inverse + inverse.T)

        def vcycle(j, r):
            if j == len(levels):
                return inverse @ r
            S, G, Gt = levels[j]
            x = S @ r
            x += G @ vcycle(j + 1, Gt @ r)
            return x

        r = np.random.default_rng(k).standard_normal((k, len(ref.interior)))
        assert np.array_equal(ref.precondition(r), vcycle(0, r.T.copy()).T)

    def test_hierarchy_bottoms_out_at_coarse_level(self, mesh2, mesh5):
        # level 5 coarsens twice down to the 113 unknowns of level 3;
        # level 2 is inverted directly
        assert len(reference_solver(mesh5)._levels) == 2
        assert reference_solver(mesh5)._coarse_inverse.shape == (113, 113)
        assert reference_solver(mesh2)._levels == []


class TestKernels:
    @pytest.fixture(autouse=True)
    def fresh_loader(self):
        fem._kernels.cache_clear()
        yield
        fem._kernels.cache_clear()

    def test_returns_the_module_scipy_sparse_imported(self):
        from scipy.sparse import _sparsetools
        assert fem._kernels() is _sparsetools
        assert sys.modules[fem.KERNELS_MODULE] is _sparsetools

    def test_missing_extension_names_the_folder(self, tmp_path, monkeypatch):
        (tmp_path / "sparse").mkdir()
        (tmp_path / "sparse" / "_sparsetools.py").write_text("")
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations.append(str(tmp_path))
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
        monkeypatch.delitem(sys.modules, fem.KERNELS_MODULE)
        with pytest.raises(ImportError,
                           match=re.escape(str(tmp_path / "sparse"))):
            fem._kernels()


class TestNorms:
    def test_zero_field(self, mesh3):
        v = np.zeros(mesh3.n_nodes)
        assert h1_norm(mesh3, v) == 0.0
        assert w11_norm(mesh3, v) == 0.0
        assert l2_norm(mesh3, v) == 0.0

    def test_h1_of_coordinate_interpolant(self, mesh4):
        v = mesh4.nodes[:, 0]
        # integral of (x1^2 + 1) over the disc
        assert abs(h1_norm(mesh4, v) ** 2 - 1.25 * np.pi) < 3e-2

    def test_w11_of_constant(self, mesh4):
        v = np.ones(mesh4.n_nodes)
        assert abs(w11_norm(mesh4, v) - np.pi) < 2e-2


class TestConvergence:
    def test_h1_error_slope(self):
        points = []
        energies = []
        for level in (2, 3, 4, 5):
            mesh = build_disc_mesh(level)
            K, b, u = poisson_solve(mesh)
            points.append((0.5 ** level, h1_error_vs_analytic(mesh, u)))
            energies.append(0.5 * u @ (K @ u) - b @ u)
        slope = dq.slope_fit(points)
        assert 0.85 <= slope <= 1.15
        # energy is non-increasing under refinement
        for e0, e1 in zip(energies, energies[1:]):
            assert e1 <= e0 + 1e-14


def test_field_roundtrip_bit_exact(mesh3):
    rng = np.random.default_rng(7)
    v = rng.standard_normal(mesh3.n_nodes)
    text = field_to_text(v)
    back = field_from_text(text)
    assert np.array_equal(back, v)
    assert field_to_text(back) == text
