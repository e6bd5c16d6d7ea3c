import dataclasses
import sys
import threading

import numpy as np
import pytest

import domainuq as dq
import domainuq.fem as fem
import domainuq.mesh as mesh_module
from conftest import reference_geometry
from domainuq.fields import HoldAllGrid
from domainuq.fem import NodalField, h1_norm
from domainuq.fields import rng_stream, sample_uniform
from domainuq.perturb import (DeformedProblem, solve_pair, solve_sample,
                              solve_transported, taylor_remainders)
from domainuq.uq import smolyak_rule


def negation_partner(mesh):
    """Index map i -> j with nodes[j] == -nodes[i] (disc meshes are
    symmetric under point reflection, bitwise)."""
    lookup = {(x, y): i for i, (x, y) in enumerate(map(tuple, mesh.nodes))}
    return np.array([lookup[(-x, -y)] for x, y in mesh.nodes])


class TestSmoothSolve:
    def test_unit_coefficient_matches_poisson(self, mesh4, vf4,
                                              unit_coefficient):
        u = DeformedProblem(mesh4, vf4, unit_coefficient,
                            np.zeros(vf4.n_modes)).solve_u0()
        assert abs(u.values[0] - 0.25) < 5e-3

    def test_even_symmetry_at_nominal_domain(self, mesh3, vf3, sf64):
        u = DeformedProblem(mesh3, vf3, sf64, np.zeros(vf3.n_modes)).solve_u0()
        partner = negation_partner(mesh3)
        assert np.abs(u.values - u.values[partner]).max() <= 1e-8

    def test_load_scaling(self, mesh3, vf3, sf64):
        z = sample_uniform(vf3.n_modes, rng_stream(0, 0))
        u1 = DeformedProblem(mesh3, vf3, sf64, z).solve_u0()
        u2 = DeformedProblem(mesh3, vf3, sf64, z, f=lambda p: 2.0).solve_u0()
        assert np.abs(u2.values - 2.0 * u1.values).max() <= 1e-8 * np.abs(
            u1.values).max()


class TestDerivativeSolve:
    def test_zero_direction(self, mesh3, vf3, sf64):
        s = dq.draw_sample(sf64.n_modes, vf3.n_modes, 1, 0)
        dp = DeformedProblem(mesh3, vf3, sf64, s.z)
        u0 = dp.solve_u0()
        d = dp.solve_delta_u(np.zeros(sf64.n_modes), u0)
        assert np.array_equal(d.values, np.zeros(mesh3.n_nodes))

    def test_exact_negation(self, mesh3, vf3, sf64):
        s = dq.draw_sample(sf64.n_modes, vf3.n_modes, 5, 3)
        dp = DeformedProblem(mesh3, vf3, sf64, s.z)
        u0 = dp.solve_u0()
        d_plus = dp.solve_delta_u(s.y, u0)
        d_minus = dp.solve_delta_u(-s.y, u0)
        assert np.array_equal(d_minus.values, -d_plus.values)

    def test_superposition(self, mesh3, vf3, sf64):
        rng = rng_stream(6, 0)
        s = dq.draw_sample(sf64.n_modes, vf3.n_modes, 6, 1)
        y1 = sample_uniform(sf64.n_modes, rng) * 0.5
        y2 = sample_uniform(sf64.n_modes, rng) * 0.5
        dp = DeformedProblem(mesh3, vf3, sf64, s.z)
        u0 = dp.solve_u0()
        d12 = dp.solve_delta_u(y1 + y2, u0)
        d1 = dp.solve_delta_u(y1, u0)
        d2 = dp.solve_delta_u(y2, u0)
        scale = h1_norm(mesh3, d12)
        diff = h1_norm(mesh3, d12 - (d1 + d2))
        assert diff <= 1e-9 * max(scale, 1e-12) + 1e-14


class TestFullSolve:
    def test_zero_amplitude_bitwise_equals_smooth(self, mesh3, vf3, sf64):
        s = dq.draw_sample(sf64.n_modes, vf3.n_modes, 7, 2)
        dp = DeformedProblem(mesh3, vf3, sf64, s.z)
        u0 = dp.solve_u0()
        ue = dp.solve_u_eps(s.y, 0.0)
        assert np.array_equal(ue.values, u0.values)

    def test_full_amplitude_sample_sweep(self, mesh3, vf3, sf64):
        interior = np.setdiff1d(np.arange(mesh3.n_nodes), mesh3.boundary)
        for i in range(100):
            s = dq.draw_sample(sf64.n_modes, vf3.n_modes, 77, i)
            u = DeformedProblem(mesh3, vf3, sf64, s.z).solve_u_eps(s.y, 1.0)
            assert (u.values[interior] > 0.0).all()
            assert np.array_equal(u.values[mesh3.boundary],
                                  np.zeros(len(mesh3.boundary)))

    def test_rejects_coefficient_sign_loss(self, mesh3, vf3, sf64):
        # pick the parameter corner that pushes the rough part down hardest
        # at the origin, then blow the amplitude past the positivity margin
        from domainuq.fields import SQRT3
        at_origin = sf64.grid.interpolate(sf64.basis.modes,
                                          np.zeros((1, 2)))[:, 0]
        y = -SQRT3 * np.sign(at_origin)
        y[y == 0.0] = SQRT3
        s = dq.Sample(y=y, z=np.zeros(vf3.n_modes))
        with pytest.raises(dq.NonPositiveCoefficient):
            DeformedProblem(mesh3, vf3, sf64, s.z).solve_u_eps(s.y, 50.0)

    AMPLITUDES = [0.0, 0.25, 0.5, 1.0, -0.25, -0.5, -1.0]

    def parts(self, mesh, vf, sf, seed):
        s = dq.draw_sample(sf.n_modes, vf.n_modes, seed, 0)
        dp = DeformedProblem(mesh, vf, sf, s.z)
        a_r_q = dp.rough_qvalues(s.y)
        return dp, a_r_q, dp.rough_stiffness(a_r_q)

    def test_columns_match_one_amplitude_solves(self, mesh4, vf4, sf64):
        dp, a_r_q, K_r = self.parts(mesh4, vf4, sf64, 21)
        diag = {}
        fields = dp.solve_amplitudes(a_r_q, K_r, self.AMPLITUDES, diag)
        assert diag["iterations"] == max(diag["column_iterations"])
        for eps, u, iterations in zip(self.AMPLITUDES, fields,
                                      diag["column_iterations"]):
            one = {}
            single = dp.solve_u_eps_from_parts(a_r_q, K_r, eps, one)
            assert iterations == one["iterations"]
            assert (np.abs(u.values - single.values).max()
                    <= 1e-12 * np.abs(single.values).max())

    def test_nonpositive_amplitude_is_named(self, mesh3, vf3, sf64):
        dp, a_r_q, K_r = self.parts(mesh3, vf3, sf64, 22)
        with pytest.raises(dq.NonPositiveCoefficient,
                           match="amplitude 1000000.0"):
            dp.solve_amplitudes(a_r_q, K_r, [0.5, 1e6])

    def test_nan_amplitude_raises(self, mesh3, vf3, sf64):
        dp, a_r_q, K_r = self.parts(mesh3, vf3, sf64, 23)
        with pytest.raises(dq.NonPositiveCoefficient, match="amplitude nan"):
            dp.solve_amplitudes(a_r_q, K_r, [0.5, float("nan")])

    def test_nan_rough_value_raises(self, mesh3, vf3, sf64):
        dp, a_r_q, K_r = self.parts(mesh3, vf3, sf64, 24)
        a_r_q = a_r_q.copy()
        a_r_q[0, 0] = np.nan
        with pytest.raises(dq.NonPositiveCoefficient):
            dp.solve_amplitudes(a_r_q, K_r, [0.5])

    def test_nan_smooth_part_raises(self, mesh3, vf3, sf64):
        mean = sf64.mean.copy()
        mean[len(mean) // 2] = np.nan  # a vertex at the disc centre
        sf = dataclasses.replace(sf64, mean=mean)
        with pytest.raises(dq.NonPositiveCoefficient):
            DeformedProblem(mesh3, vf3, sf, np.zeros(vf3.n_modes))

    def test_pair_serves_listed_amplitudes_only(self, mesh3, vf3, sf64):
        s = dq.draw_sample(sf64.n_modes, vf3.n_modes, 25, 0)
        u0, solve, _ = solve_pair(mesh3, vf3, sf64, s, [0.5, -0.5])
        dp = DeformedProblem(mesh3, vf3, sf64, s.z)
        minus = dp.solve_u_eps(-s.y, 0.5).values
        assert (np.abs(solve(-1.0, 0.5) - minus).max()
                <= 1e-12 * np.abs(minus).max())
        smooth = dp.solve_u0().values
        assert np.abs(u0 - smooth).max() <= 1e-12 * np.abs(smooth).max()
        with pytest.raises(KeyError):
            solve(1.0, 0.25)


class TestTaylorRemainder:
    def test_zero_amplitude_exactly_zero(self, mesh3, vf3, sf64):
        s = dq.draw_sample(sf64.n_modes, vf3.n_modes, 9, 0)
        assert taylor_remainders(mesh3, vf3, sf64, s, [0.0])[0] == 0.0

    def test_halving_ratios(self, mesh3, vf3, sf64):
        eps = [1.0, 0.5, 0.25, 0.125]
        ratios = []
        for i in range(5):
            s = dq.draw_sample(sf64.n_modes, vf3.n_modes, 99, i)
            rems = taylor_remainders(mesh3, vf3, sf64, s, eps)
            ratios.append([rems[k] / rems[k + 1] for k in range(3)])
        mean_ratios = np.mean(ratios, axis=0)
        assert ((3.2 <= mean_ratios) & (mean_ratios <= 5.0)).all()

    def test_triangle_inequality(self, mesh3, vf3, sf64):
        s = dq.draw_sample(sf64.n_modes, vf3.n_modes, 10, 1)
        eps = 0.5
        ss = solve_sample(mesh3, vf3, sf64, s, eps)
        rem = taylor_remainders(mesh3, vf3, sf64, s, [eps])[0]
        bound = (h1_norm(mesh3, ss.u_eps - ss.u0)
                 + eps * h1_norm(mesh3, ss.delta_u))
        assert rem <= bound * (1 + 1e-12)

    def test_loglog_slope_per_sample(self, mesh3, vf3, sf64):
        eps = [2.0 ** -k for k in range(4, -1, -1)]
        for i in range(3):
            s = dq.draw_sample(sf64.n_modes, vf3.n_modes, 123, i)
            rems = taylor_remainders(mesh3, vf3, sf64, s, eps)
            slope = dq.slope_fit(list(zip(eps, rems)))
            assert 1.8 <= slope <= 2.2

    def test_slope_robust_under_refinement(self, mesh3, mesh4, vf3, vf4, sf64):
        eps = [2.0 ** -k for k in range(4, -1, -1)]
        means = []
        for mesh, vf in ((mesh3, vf3), (mesh4, vf4)):
            slopes = []
            for i in range(5):
                s = dq.draw_sample(sf64.n_modes, vf.n_modes, 123, i)
                rems = taylor_remainders(mesh, vf, sf64, s, eps)
                slopes.append(dq.slope_fit(list(zip(eps, rems))))
            means.append(np.mean(slopes))
        assert abs(means[0] - means[1]) < 0.1


class TestCenteredness:
    def test_symmetric_rule_cancels_derivative(self, mesh3, vf3, sf64):
        rule = smolyak_rule(sf64.n_modes, 1)
        for zi in range(3):
            s = dq.draw_sample(sf64.n_modes, vf3.n_modes, 17, zi)
            dp = DeformedProblem(mesh3, vf3, sf64, s.z)
            u0 = dp.solve_u0()
            acc = np.zeros(mesh3.n_nodes)
            largest = 0.0
            for node, w in zip(rule.nodes, rule.weights):
                d = dp.solve_delta_u(node, u0)
                acc += w * d.values
                largest = max(largest, h1_norm(mesh3, d))
            total = h1_norm(mesh3, NodalField(acc, mesh3.level))
            assert total <= 1e-12 * largest


class TestSecondOrderCorrection:
    def test_matches_symmetric_quadrature_of_squares(self, mesh3, vf3, sf64):
        from domainuq.perturb import delta_second_moment
        from domainuq.uq import quadrature_estimate
        s = dq.draw_sample(sf64.n_modes, vf3.n_modes, 21, 0)
        direct = delta_second_moment(mesh3, vf3, sf64, s.z)
        dp = DeformedProblem(mesh3, vf3, sf64, s.z)
        u0 = dp.solve_u0()
        # a level-1 rule integrates the diagonal quadratic terms exactly and
        # kills the mixed ones at every node
        rule = smolyak_rule(sf64.n_modes, 1)
        qstats = quadrature_estimate(
            lambda y: NodalField(dp.solve_delta_u(y, u0).values ** 2,
                                 mesh3.level), rule)
        assert np.allclose(qstats.mean.values, direct.values,
                           rtol=1e-7, atol=1e-14)


class TestTransportedCrossCheck:
    @pytest.mark.parametrize("level", [3, 4, 5])
    def test_paths_agree(self, level, sf64):
        mesh = dq.build_disc_mesh(level)
        vf = dq.build_vector_field_kl(mesh, 1e-2)
        s = dq.draw_sample(sf64.n_modes, vf.n_modes, 42, 1)
        u_moving = DeformedProblem(mesh, vf, sf64, s.z).solve_u_eps(s.y, 0.5)
        u_transported = solve_transported(mesh, vf, sf64, s, 0.5)
        rel = (h1_norm(mesh, u_moving - u_transported)
               / h1_norm(mesh, u_moving))
        assert rel <= 1e-8


    def test_nan_amplitude_raises(self, mesh3, vf3, sf64):
        s = dq.draw_sample(sf64.n_modes, vf3.n_modes, 42, 2)
        with pytest.raises(dq.NonPositiveCoefficient):
            solve_transported(mesh3, vf3, sf64, s, float("nan"))


class TestDiagnostics:
    def test_sample_solve_records_iterations(self, mesh3, vf3, sf64):
        s = dq.draw_sample(sf64.n_modes, vf3.n_modes, 11, 0)
        ss = solve_sample(mesh3, vf3, sf64, s, 0.5)
        assert set(ss.iterations) == {"u0", "delta_u", "u_eps"}
        assert all(v > 0 for v in ss.iterations.values())
        assert all(v >= 0.0 for v in ss.residuals.values())
        assert ss.eps == 0.5
        assert ss.deformed.n_nodes == mesh3.n_nodes
        assert not np.array_equal(ss.deformed.nodes, mesh3.nodes)


def counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records its calls; returns the
    list of calls."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestPerRealizationWork:
    def test_one_geometry_pass_and_one_stencil_per_realization(
            self, mesh3, vf3, sf64, monkeypatch):
        fem.reference_solver(mesh3)  # the topology's own pass comes first
        passes = counting(monkeypatch, mesh_module, "compute_geometry")
        stencils = counting(monkeypatch, HoldAllGrid, "stencil")
        s = dq.draw_sample(sf64.n_modes, vf3.n_modes, 14, 0)
        _, solve, delta = solve_pair(mesh3, vf3, sf64, s, [0.5, -0.5])
        solve(1.0, 0.5)
        delta()
        assert len(passes) == 1
        assert len(stencils) == 1

    def test_rough_stiffness_reuses_gradient_products(self, mesh3, vf3, sf64,
                                                      monkeypatch):
        s = dq.draw_sample(sf64.n_modes, vf3.n_modes, 14, 1)
        dp = DeformedProblem(mesh3, vf3, sf64, s.z)
        a_r_q = dp.rough_qvalues(s.y)
        areas, _, _, products = reference_geometry(dp.deformed)
        expected = fem._scatter(
            dp.deformed,
            (a_r_q.mean(axis=1) * areas)[:, None, None] * products)
        passes = counting(monkeypatch, mesh_module, "compute_geometry")

        def no_einsum(*args, **kwargs):
            raise AssertionError("einsum called during assembly")

        monkeypatch.setattr(np, "einsum", no_einsum)
        K_r = dp.rough_stiffness(a_r_q)
        assert passes == []
        assert np.array_equal(K_r.data, expected.data)


class TestMultigridPCG:
    def test_iterations_independent_of_mesh_size(self, mesh3, mesh4, mesh5,
                                                 vf3, vf4, vf5, sf64):
        for mesh, vf in ((mesh3, vf3), (mesh4, vf4), (mesh5, vf5)):
            iterations = []
            for i in range(3):
                s = dq.draw_sample(sf64.n_modes, vf.n_modes, 31, i)
                dp = DeformedProblem(mesh, vf, sf64, s.z)
                diag = {}
                u0 = dp.solve_u0(diag_out=diag)
                iterations.append(diag["iterations"])
                dp.solve_delta_u(s.y, u0, diag_out=diag)
                iterations.append(diag["iterations"])
                dp.solve_u_eps(s.y, 1.0, diag_out=diag)
                iterations.append(diag["iterations"])
            assert 0 < min(iterations) and max(iterations) <= 30, (
                mesh.level, iterations)

    def test_matches_dense_direct_solve(self, mesh3, vf3, sf64):
        s = dq.draw_sample(sf64.n_modes, vf3.n_modes, 8, 0)
        dp = DeformedProblem(mesh3, vf3, sf64, s.z)
        u = dp.solve_u_eps(s.y, 1.0)
        K = (dp.K_s + dp.rough_stiffness(dp.rough_qvalues(s.y))).toarray()
        interior = np.setdiff1d(np.arange(mesh3.n_nodes), mesh3.boundary)
        direct = np.linalg.solve(K[np.ix_(interior, interior)],
                                 dp.b[interior])
        assert (np.abs(u.values[interior] - direct).max()
                <= 1e-9 * np.abs(direct).max())

    def test_shared_mesh_builds_hierarchy_once(self, vf4, sf64, monkeypatch):
        builds = []

        class CountingSolver(fem.ReferenceSolver):
            def __init__(self, mesh):
                builds.append(threading.get_ident())
                super().__init__(mesh)

        monkeypatch.setattr(fem, "ReferenceSolver", CountingSolver)
        mesh = dq.build_disc_mesh(4)  # fresh topology, nothing cached yet
        s = dq.draw_sample(sf64.n_modes, vf4.n_modes, 12, 0)
        start = threading.Barrier(4)
        fields = [None] * 4

        def work(k):
            dp = DeformedProblem(mesh, vf4, sf64, s.z)
            start.wait(timeout=30)
            fields[k] = dp.solve_u_eps(s.y, 1.0).values

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,))
                      for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(builds) == 1
        serial = DeformedProblem(mesh, vf4, sf64, s.z).solve_u_eps(s.y, 1.0)
        for values in fields:
            assert np.array_equal(values, serial.values)
