import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import domainuq as dq
from conftest import reference_geometry, smoothly_displaced
from domainuq.errors import (MeshMismatch, NonFiniteValue,
                             NonPositiveCoefficient, SolverDiverged)
from domainuq.fem import (NodalField, _prolongation, _scatter, assemble_load,
                          assemble_mass, assemble_perturbation_load,
                          assemble_stiffness, element_geometry,
                          field_from_text, field_to_text, h1_norm, l2_norm,
                          reference_solver, solve_dirichlet,
                          stiffness_from_qvalues, w11_norm)
from domainuq.mesh import build_disc_mesh, signed_areas


def poisson_solve(mesh, coeff=lambda p: 1.0, f=lambda p: 1.0):
    K = assemble_stiffness(mesh, coeff)
    b = assemble_load(mesh, f)
    return K, b, solve_dirichlet(K, b, mesh)


def h1_error_vs_analytic(mesh, u):
    """H1 distance to the exact Poisson solution (1 - |x|^2)/4, evaluated
    by the element quadrature rule (independent of the discrete norms)."""
    areas, grads, qpts = element_geometry(mesh)
    t = mesh.triangles
    vt = u.values[t]
    vmid = 0.5 * (vt.sum(axis=1)[:, None] - vt)
    grad_u = np.einsum("mi,mid->md", vt, grads)
    uex = 0.25 * (1.0 - np.sum(qpts ** 2, axis=2))
    gex = -0.5 * qpts
    l2part = areas * np.mean((vmid - uex) ** 2, axis=1)
    gdiff = grad_u[:, None, :] - gex
    h1part = areas * np.mean(np.sum(gdiff ** 2, axis=2), axis=1)
    return float(np.sqrt(np.sum(l2part + h1part)))


class TestAssembly:
    def test_unit_triangle_stiffness(self, unit_triangle):
        K = assemble_stiffness(unit_triangle, lambda p: 1.0).toarray()
        expected = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]])
        assert np.allclose(K, expected, atol=1e-15)

    def test_stiffness_scales_with_coefficient(self, unit_triangle):
        K1 = assemble_stiffness(unit_triangle, lambda p: 1.0).toarray()
        K2 = assemble_stiffness(unit_triangle, lambda p: 2.0).toarray()
        assert np.array_equal(K2, 2.0 * K1)

    def test_interior_row_sums_vanish(self, mesh3):
        K = assemble_stiffness(mesh3, lambda p: 1.0)
        rowsums = np.asarray(K.sum(axis=1)).ravel()
        interior = np.setdiff1d(np.arange(mesh3.n_nodes), mesh3.boundary)
        assert np.abs(rowsums[interior]).max() < 1e-13

    def test_stiffness_rejects_nonpositive_coefficient(self, mesh2):
        with pytest.raises(NonPositiveCoefficient):
            assemble_stiffness(mesh2, lambda p: 0.0)

    def test_stiffness_rejects_nan_coefficient(self, mesh2):
        coeff_q = np.ones((mesh2.n_triangles, 3))
        coeff_q[3, 1] = np.nan
        with pytest.raises(NonPositiveCoefficient):
            stiffness_from_qvalues(mesh2, coeff_q)

    def test_stiffness_additivity(self, mesh3):
        a = lambda p: 1.0 + 0.3 * p[..., 0] ** 2
        b = lambda p: 2.0 + 0.1 * p[..., 1]
        ab = lambda p: a(p) + b(p)
        Ka = assemble_stiffness(mesh3, a)
        Kb = assemble_stiffness(mesh3, b)
        Kab = assemble_stiffness(mesh3, ab)
        diff = np.abs((Ka + Kb - Kab).toarray()).max()
        scale = np.abs(Kab.toarray()).max()
        assert diff <= 1e-12 * scale

    @pytest.mark.parametrize("level", range(6))
    def test_stiffness_bit_equal_to_einsum(self, level):
        moved = smoothly_displaced(level, seed=10 + level)
        coeff_q = np.random.default_rng(level).uniform(
            0.5, 2.0, size=(moved.n_triangles, 3))
        areas, _, _, products = reference_geometry(moved)
        expected = _scatter(
            moved, (coeff_q.mean(axis=1) * areas)[:, None, None] * products)
        K = stiffness_from_qvalues(moved, coeff_q)
        assert np.array_equal(K.data, expected.data)
        assert np.array_equal(K.indices, expected.indices)

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(-4.0, 4.0), b=st.floats(-4.0, 4.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_assembly_linear_in_coefficient(self, a, b, seed):
        mesh = smoothly_displaced(2, seed=3)
        q1, q2 = np.random.default_rng(seed).uniform(
            -1.0, 1.0, size=(2, mesh.n_triangles, 3))

        def K(q):
            return stiffness_from_qvalues(mesh, q, require_positive=False).data

        # For |q| <= 1 the element contributions to any entry sum in
        # magnitude to at most the largest entry of K(1) (Cauchy-Schwarz on
        # the gradient products), which scales the rounding error; `tiny`
        # covers amplitudes so small that the products are subnormal.
        scale = (abs(a) + abs(b)) * K(np.ones_like(q1)).max()
        assert (np.abs(K(a * q1 + b * q2) - (a * K(q1) + b * K(q2))).max()
                <= 1e-13 * scale + np.finfo(float).tiny)

    def test_stiffness_symmetric(self, mesh3):
        K = assemble_stiffness(mesh3, lambda p: 1.0 + 0.2 * p[..., 0])
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
        b = assemble_load(mesh2, lambda p: 1.0)
        rowsums = np.asarray(assemble_mass(mesh2).sum(axis=1)).ravel()
        assert np.allclose(b, rowsums, rtol=1e-14)

    def test_load_zero_f(self, mesh2):
        assert np.array_equal(assemble_load(mesh2, lambda p: 0.0),
                              np.zeros(mesh2.n_nodes))

    def test_load_odd_integrand_cancels(self, mesh4):
        b = assemble_load(mesh4, lambda p: p[..., 0])
        assert abs(b.sum()) < 1e-12

    @pytest.mark.parametrize("shape", [lambda k: (k + 1,),
                                       lambda k: (k, 1),
                                       lambda k: (1,)],
                             ids=["one_extra", "column", "single"])
    def test_wrong_shape_callable_raises(self, mesh2, shape):
        k = 3 * len(mesh2.triangles)
        expected = re.escape(f"shape {shape(k)}, expected ({k},)")
        with pytest.raises(ValueError, match=expected):
            assemble_load(mesh2, lambda p: np.ones(shape(len(p))))

    def test_callable_exception_propagates(self, mesh2):
        def one_point_only(p):
            if np.ndim(p) != 1:
                raise TypeError("takes a single point")
            return 1.0

        with pytest.raises(TypeError, match="takes a single point"):
            assemble_stiffness(mesh2, one_point_only)


class TestPerturbationLoad:
    def test_zero_direction(self, mesh3):
        u0 = NodalField(np.ones(mesh3.n_nodes), mesh3.level)
        b = assemble_perturbation_load(mesh3, lambda p: 0.0, u0)
        assert np.array_equal(b, np.zeros(mesh3.n_nodes))

    def test_constant_direction_matches_stiffness(self, mesh3):
        rng = np.random.default_rng(1)
        u0 = NodalField(rng.standard_normal(mesh3.n_nodes), mesh3.level)
        c = 0.7
        b = assemble_perturbation_load(mesh3, lambda p: c, u0)
        K1 = assemble_stiffness(mesh3, lambda p: 1.0)
        assert np.allclose(b, -c * (K1 @ u0.values), rtol=1e-12, atol=1e-15)

    def test_linear_in_direction(self, mesh3):
        rng = np.random.default_rng(2)
        u0 = NodalField(rng.standard_normal(mesh3.n_nodes), mesh3.level)
        a_r = lambda p: np.sin(p[..., 0]) + 0.5
        b1 = assemble_perturbation_load(mesh3, a_r, u0)
        b2 = assemble_perturbation_load(mesh3, lambda p: 2.0 * a_r(p), u0)
        assert np.array_equal(b2, 2.0 * b1)


def rough_pair(mesh):
    """Smooth and rough stiffness matrices and the unit load on `mesh`."""
    K = assemble_stiffness(mesh, lambda p: 1.0 + 0.2 * p[..., 0] ** 2)
    K_r = assemble_stiffness(mesh, lambda p: 0.5 + 0.4 * np.sin(3 * p[..., 1]))
    return K, K_r, assemble_load(mesh, lambda p: 1.0)


class TestDirichletSolve:
    def test_poisson_disc_center_value(self):
        mesh = build_disc_mesh(5)
        _, _, u = poisson_solve(mesh)
        assert abs(u.values[0] - 0.25) < 5e-3

    def test_zero_rhs(self, mesh3):
        K = assemble_stiffness(mesh3, lambda p: 1.0)
        u = solve_dirichlet(K, np.zeros(mesh3.n_nodes), mesh3)
        assert np.array_equal(u.values, np.zeros(mesh3.n_nodes))

    def test_coefficient_scaling_halves_solution(self, mesh3):
        _, _, u1 = poisson_solve(mesh3)
        _, _, u2 = poisson_solve(mesh3, coeff=lambda p: 2.0)
        assert np.abs(u2.values - 0.5 * u1.values).max() <= 1e-8 * np.abs(
            u1.values).max()

    def test_boundary_values_exact_zero(self, mesh3):
        _, _, u = poisson_solve(mesh3)
        assert np.array_equal(u.values[mesh3.boundary],
                              np.zeros(len(mesh3.boundary)))

    def test_residual_contract(self, mesh3):
        K, b, u = poisson_solve(mesh3)
        interior = np.setdiff1d(np.arange(mesh3.n_nodes), mesh3.boundary)
        r = (K @ u.values - b)[interior]
        bi = b[interior]
        assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(bi) * (1 + 1e-6)

    def test_iteration_cap_raises(self, mesh2, monkeypatch):
        import domainuq.fem as fem
        monkeypatch.setattr(fem, "CG_CAP_FACTOR", 0)
        K = assemble_stiffness(mesh2, lambda p: 1.0)
        b = assemble_load(mesh2, lambda p: 1.0)
        with pytest.raises(SolverDiverged):
            solve_dirichlet(K, b, mesh2)

    def test_nan_load_raises(self, mesh3):
        K = assemble_stiffness(mesh3, lambda p: 1.0)
        b = assemble_load(mesh3, lambda p: 1.0)
        b[0] = np.nan  # the disc centre, an interior node
        with pytest.raises(NonFiniteValue):
            solve_dirichlet(K, b, mesh3)

    def test_nan_matrix_entry_raises(self, mesh3):
        K = assemble_stiffness(mesh3, lambda p: 1.0)
        b = assemble_load(mesh3, lambda p: 1.0)
        K.data[K.indptr[0]] = np.nan  # first entry of the centre's row
        with pytest.raises(NonFiniteValue):
            solve_dirichlet(K, b, mesh3)

    def test_foreign_sparsity_pattern_raises(self, mesh2, mesh3):
        K = assemble_stiffness(mesh2, lambda p: 1.0)
        b = assemble_load(mesh3, lambda p: 1.0)
        with pytest.raises(MeshMismatch):
            solve_dirichlet(K, b, mesh3)

    AMPLITUDES = [0.0, 0.25, -0.25, 1.0, -1.0]

    def test_columns_match_one_column_solves(self, mesh4):
        K, K_r, b = rough_pair(mesh4)
        diag = {}
        fields = solve_dirichlet(K, b, mesh4, diag_out=diag, K_r=K_r,
                                 amplitudes=self.AMPLITUDES)
        assert isinstance(diag["iterations"], int)
        assert diag["iterations"] == max(diag["column_iterations"])
        for c, u, iterations in zip(self.AMPLITUDES, fields,
                                    diag["column_iterations"]):
            K_c = K.copy()
            K_c.data = K.data + c * K_r.data
            one = {}
            single = solve_dirichlet(K_c, b, mesh4, diag_out=one)
            assert iterations == one["iterations"]
            assert (np.abs(u.values - single.values).max()
                    <= 1e-12 * np.abs(single.values).max())

    def test_load_columns_match_one_column_solves(self, mesh4):
        K, _, b = rough_pair(mesh4)
        loads = np.column_stack([b, assemble_load(mesh4, lambda p: p[:, 0]),
                                 np.zeros(mesh4.n_nodes), 3.0 * b])
        diag = {}
        fields = solve_dirichlet(K, loads, mesh4, diag_out=diag)
        assert len(fields) == 4
        assert diag["column_iterations"][2] == 0
        assert np.array_equal(fields[2].values, np.zeros(mesh4.n_nodes))
        for j in (0, 1, 3):
            one = {}
            single = solve_dirichlet(K, loads[:, j], mesh4, diag_out=one)
            assert diag["column_iterations"][j] == one["iterations"]
            assert (np.abs(fields[j].values - single.values).max()
                    <= 1e-12 * np.abs(single.values).max())

    def test_zero_amplitude_column_equals_plain_solve(self, mesh3):
        K, K_r, b = rough_pair(mesh3)
        plain = solve_dirichlet(K, b, mesh3)
        block = solve_dirichlet(K, b, mesh3, K_r=K_r, amplitudes=[0.0])
        assert np.array_equal(block[0].values, plain.values)

    def test_non_finite_load_column_raises(self, mesh3):
        K, _, b = rough_pair(mesh3)
        loads = np.column_stack([b, b, b])
        loads[0, 1] = np.inf  # the disc centre, an interior node
        with pytest.raises(NonFiniteValue):
            solve_dirichlet(K, loads, mesh3)

    def test_non_finite_amplitude_raises(self, mesh3):
        K, K_r, b = rough_pair(mesh3)
        with pytest.raises(NonFiniteValue, match="column 1"):
            solve_dirichlet(K, b, mesh3, K_r=K_r, amplitudes=[0.5, np.nan])

    def test_non_finite_rough_matrix_raises(self, mesh3):
        K, K_r, b = rough_pair(mesh3)
        K_r.data[K_r.indptr[0]] = np.nan
        with pytest.raises(NonFiniteValue):
            solve_dirichlet(K, b, mesh3, K_r=K_r, amplitudes=[0.5])

    def test_foreign_rough_pattern_raises(self, mesh2, mesh3):
        K, _, b = rough_pair(mesh3)
        K_r, _, _ = rough_pair(mesh2)
        with pytest.raises(MeshMismatch):
            solve_dirichlet(K, b, mesh3, K_r=K_r, amplitudes=[0.5])

    def test_iteration_cap_raises_for_block(self, mesh3, monkeypatch):
        import domainuq.fem as fem
        K, K_r, b = rough_pair(mesh3)
        one = {}
        solve_dirichlet(K, b, mesh3, diag_out=one)
        # a cap that allows one iteration fewer than column 0 needs
        m = mesh3.n_nodes - len(mesh3.boundary)
        monkeypatch.setattr(fem, "CG_CAP_FACTOR",
                            (one["iterations"] - 1.5) / m)
        with pytest.raises(SolverDiverged, match="column"):
            solve_dirichlet(K, b, mesh3, K_r=K_r, amplitudes=[0.0, 0.5])


class TestReferenceSolver:
    def test_vcycle_symmetric_positive_definite(self, mesh5):
        ref = reference_solver(mesh5)
        rng = np.random.default_rng(3)
        for _ in range(5):
            r1, r2 = rng.standard_normal((2, len(ref.interior)))
            a = r1 @ ref.precondition(r2)
            b = r2 @ ref.precondition(r1)
            assert abs(a - b) <= 1e-12 * abs(a)
            assert r1 @ ref.precondition(r1) > 0.0

    def test_prolongation_reproduces_linear_functions(self, mesh5):
        edges = mesh5.refinements[-1]
        n_coarse = mesh5.n_nodes - len(edges)
        interior = np.setdiff1d(np.arange(mesh5.n_nodes), mesh5.boundary)
        coarse = interior[interior < n_coarse]
        P = _prolongation(edges, n_coarse, interior, coarse)
        g = lambda p: 0.3 + 2.0 * p[:, 0] - 1.5 * p[:, 1]
        fine = P @ g(mesh5.nodes[coarse])
        # midpoints of edges that touch the rim see the Dirichlet zero there
        touches_rim = np.zeros(mesh5.n_nodes, dtype=bool)
        touches_rim[n_coarse:] = np.isin(edges, mesh5.boundary).any(axis=1)
        rows = np.flatnonzero(~touches_rim[interior])
        exact = interior[rows]
        assert len(exact) > 0.9 * len(interior)
        assert np.allclose(fine[rows], g(mesh5.nodes[exact]),
                           rtol=0.0, atol=1e-14)

    def test_hierarchy_bottoms_out_at_coarse_level(self, mesh2, mesh5):
        # level 5 coarsens twice down to the 113 unknowns of level 3;
        # level 2 is inverted directly
        assert len(reference_solver(mesh5)._levels) == 2
        assert reference_solver(mesh5)._coarse_inverse.shape == (113, 113)
        assert reference_solver(mesh2)._levels == []


class TestNorms:
    def test_zero_field(self, mesh3):
        v = NodalField(np.zeros(mesh3.n_nodes), mesh3.level)
        assert h1_norm(mesh3, v) == 0.0
        assert w11_norm(mesh3, v) == 0.0
        assert l2_norm(mesh3, v) == 0.0

    def test_h1_of_coordinate_interpolant(self, mesh4):
        v = NodalField(mesh4.nodes[:, 0], mesh4.level)
        # integral of (x1^2 + 1) over the disc
        assert abs(h1_norm(mesh4, v) ** 2 - 1.25 * np.pi) < 3e-2

    def test_w11_of_constant(self, mesh4):
        v = NodalField(np.ones(mesh4.n_nodes), mesh4.level)
        assert abs(w11_norm(mesh4, v) - np.pi) < 2e-2


class TestConvergence:
    def test_h1_error_slope(self):
        points = []
        energies = []
        for level in (2, 3, 4, 5):
            mesh = build_disc_mesh(level)
            K, b, u = poisson_solve(mesh)
            points.append((0.5 ** level, h1_error_vs_analytic(mesh, u)))
            energies.append(0.5 * u.values @ (K @ u.values) - b @ u.values)
        slope = dq.slope_fit(points)
        assert 0.85 <= slope <= 1.15
        # energy is non-increasing under refinement
        for e0, e1 in zip(energies, energies[1:]):
            assert e1 <= e0 + 1e-14


def test_field_roundtrip_bit_exact(mesh3):
    rng = np.random.default_rng(7)
    v = NodalField(rng.standard_normal(mesh3.n_nodes), mesh3.level)
    text = field_to_text(v)
    back = field_from_text(text, mesh3.level)
    assert np.array_equal(back.values, v.values)
    assert field_to_text(back) == text
