import dataclasses
import sys
import threading

import numpy as np
import pytest

import domainuq as dq
import domainuq.fem as fem
import domainuq.mesh as mesh_module
from conftest import (interior_gather, matrix_solve, reference_geometry,
                      reference_load, reference_realization)
from domainuq.fields import HoldAllGrid
from domainuq.fem import NodalField, h1_norm
from domainuq.fields import (SQRT3, VectorFieldKL, eval_displacement,
                             eval_mean, eval_rough, rng_stream,
                             sample_uniform)
from domainuq.lowrank import KLBasis
from domainuq.perturb import (DeformedProblem, _fill_realization, solve_block,
                              solve_pairs, solve_sample, taylor_remainders)
from domainuq.uq import smolyak_rule


def smooth_solve(mesh, vf, sf, z, diag_out=None):
    """u0 of the domain realization z, as a one-column block."""
    return solve_block(mesh, vf, sf, [z], diag_out=diag_out)[0][0][0]


def full_solve(mesh, vf, sf, z, y, eps, diag_out=None):
    """u_eps of the realization z at the coefficient a_s + eps * a_r(y),
    as a one-column block."""
    return solve_block(mesh, vf, sf, [z], [y], [eps],
                       diag_out=diag_out)[0][0][0]


def derivative_solves(mesh, vf, sf, z, ys):
    """The derivative solves of the realization z at each of `ys`, one
    `solve_block` call per direction."""
    return [solve_block(mesh, vf, sf, [z], [y], [0.0], with_delta=True)[1][0]
            for y in ys]


def negation_partner(mesh):
    """Index map i -> j with nodes[j] == -nodes[i] (disc meshes are
    symmetric under point reflection, bitwise)."""
    lookup = {(x, y): i for i, (x, y) in enumerate(map(tuple, mesh.nodes))}
    return np.array([lookup[(-x, -y)] for x, y in mesh.nodes])


class TestSmoothSolve:
    def test_unit_coefficient_matches_poisson(self, mesh4, vf4,
                                              unit_coefficient):
        u = smooth_solve(mesh4, vf4, unit_coefficient, np.zeros(vf4.n_modes))
        assert abs(u.values[0] - 0.25) < 5e-3

    def test_even_symmetry_at_nominal_domain(self, mesh3, vf3, sf64):
        u = smooth_solve(mesh3, vf3, sf64, np.zeros(vf3.n_modes))
        partner = negation_partner(mesh3)
        assert np.abs(u.values - u.values[partner]).max() <= 1e-8

    def test_load_scaling(self, mesh3, vf3, sf64):
        z = sample_uniform(vf3.n_modes, rng_stream(0, 0))
        dp = DeformedProblem(mesh3, vf3, sf64, z)
        u1, u2 = fem.solve_dirichlet(np.stack([dp.K_s, dp.K_s]),
                                     np.stack([dp.b, 2.0 * dp.b]), mesh3)
        assert np.abs(u2.values - 2.0 * u1.values).max() <= 1e-8 * np.abs(
            u1.values).max()


class TestDerivativeSolve:
    def test_zero_direction(self, mesh3, vf3, sf64):
        s = dq.draw_sample(sf64.n_modes, vf3.n_modes, 1, 0)
        (d,) = derivative_solves(mesh3, vf3, sf64, s.z,
                                 [np.zeros(sf64.n_modes)])
        assert np.array_equal(d.values, np.zeros(mesh3.n_nodes))

    def test_exact_negation(self, mesh3, vf3, sf64):
        s = dq.draw_sample(sf64.n_modes, vf3.n_modes, 5, 3)
        d_plus, d_minus = derivative_solves(mesh3, vf3, sf64, s.z,
                                            [s.y, -s.y])
        assert np.array_equal(d_minus.values, -d_plus.values)

    def test_superposition(self, mesh3, vf3, sf64):
        rng = rng_stream(6, 0)
        s = dq.draw_sample(sf64.n_modes, vf3.n_modes, 6, 1)
        y1 = sample_uniform(sf64.n_modes, rng) * 0.5
        y2 = sample_uniform(sf64.n_modes, rng) * 0.5
        d12, d1, d2 = derivative_solves(mesh3, vf3, sf64, s.z,
                                        [y1 + y2, y1, y2])
        scale = h1_norm(mesh3, d12)
        diff = h1_norm(mesh3, d12 - (d1 + d2))
        assert diff <= 1e-9 * max(scale, 1e-12) + 1e-14


class TestFullSolve:
    def test_zero_amplitude_bitwise_equals_smooth(self, mesh3, vf3, sf64):
        s = dq.draw_sample(sf64.n_modes, vf3.n_modes, 7, 2)
        u0 = smooth_solve(mesh3, vf3, sf64, s.z)
        ue = full_solve(mesh3, vf3, sf64, s.z, s.y, 0.0)
        assert np.array_equal(ue.values, u0.values)

    def test_full_amplitude_sample_sweep(self, mesh3, vf3, sf64):
        interior = np.setdiff1d(np.arange(mesh3.n_nodes), mesh3.boundary)
        for i in range(100):
            s = dq.draw_sample(sf64.n_modes, vf3.n_modes, 77, i)
            u = full_solve(mesh3, vf3, sf64, s.z, s.y, 1.0)
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
            full_solve(mesh3, vf3, sf64, s.z, s.y, 50.0)

    AMPLITUDES = [0.0, 0.25, 0.5, 1.0, -0.25, -0.5, -1.0]

    def test_columns_match_one_amplitude_solves(self, mesh4, vf4, sf64):
        s = dq.draw_sample(sf64.n_modes, vf4.n_modes, 21, 0)
        diag = {}
        (fields,), _ = solve_block(mesh4, vf4, sf64, [s.z], [s.y],
                                   self.AMPLITUDES, diag_out=diag)
        assert diag["iterations"] == max(diag["column_iterations"])
        for eps, u, iterations in zip(self.AMPLITUDES, fields,
                                      diag["column_iterations"]):
            one = {}
            single = full_solve(mesh4, vf4, sf64, s.z, s.y, eps, one)
            assert iterations == one["iterations"]
            assert (np.abs(u.values - single.values).max()
                    <= 1e-12 * np.abs(single.values).max())

    def test_nonpositive_amplitude_is_named(self, mesh3, vf3, sf64):
        s = dq.draw_sample(sf64.n_modes, vf3.n_modes, 22, 0)
        with pytest.raises(dq.NonPositiveCoefficient,
                           match="amplitude 1000000.0"):
            solve_block(mesh3, vf3, sf64, [s.z], [s.y], [0.5, 1e6])

    def test_nan_amplitude_raises(self, mesh3, vf3, sf64):
        s = dq.draw_sample(sf64.n_modes, vf3.n_modes, 23, 0)
        with pytest.raises(dq.NonPositiveCoefficient, match="amplitude nan"):
            solve_block(mesh3, vf3, sf64, [s.z], [s.y], [0.5, float("nan")])

    def test_nan_rough_value_raises(self, mesh3, vf3, sf64):
        s = dq.draw_sample(sf64.n_modes, vf3.n_modes, 24, 0)
        dp = DeformedProblem(mesh3, vf3, sf64, s.z)
        a_r_q = dp.rough_qvalues(s.y)
        K_r = dp.rough_stiffness(a_r_q)
        a_r_q[0] = np.nan
        with pytest.raises(dq.NonPositiveCoefficient):
            dp.matrix_data(a_r_q, K_r, [0.5], np.empty((1, len(K_r))))

    def test_nan_smooth_part_raises(self, mesh3, vf3, sf64):
        for bad in (np.nan, 0.0, -1.0):
            mean = sf64.mean.copy()
            if np.isnan(bad):
                mean[len(mean) // 2] = bad  # a vertex at the disc centre
            else:
                mean = np.minimum(mean, bad)  # nowhere positive
            sf = dataclasses.replace(sf64, mean=mean)
            with pytest.raises(dq.NonPositiveCoefficient):
                DeformedProblem(mesh3, vf3, sf, np.zeros(vf3.n_modes))

    def test_pair_serves_listed_amplitudes_only(self, mesh3, vf3, sf64):
        s = dq.draw_sample(sf64.n_modes, vf3.n_modes, 25, 0)
        u0, u_eps, _ = solve_pairs(mesh3, vf3, sf64, [s], [0.5, -0.5],
                                   with_delta=True)[0]
        minus = full_solve(mesh3, vf3, sf64, s.z, -s.y, 0.5).values
        assert (np.abs(u_eps[-0.5] - minus).max()
                <= 1e-12 * np.abs(minus).max())
        smooth = smooth_solve(mesh3, vf3, sf64, s.z).values
        assert np.abs(u0 - smooth).max() <= 1e-12 * np.abs(smooth).max()
        with pytest.raises(KeyError):
            u_eps[0.25]


class TestSolveBlock:
    """Blocks of domain realizations solved in one lockstep call."""

    AMPLITUDES = [0.0, 0.5, -0.5]

    def samples(self, vf, sf, count=4, seed=41):
        return [dq.draw_sample(sf.n_modes, vf.n_modes, seed, i)
                for i in range(count)]

    def test_matches_one_realization_solves(self, mesh4, vf4, sf64):
        samples = self.samples(vf4, sf64)
        diag = {}
        u, delta = solve_block(mesh4, vf4, sf64, [s.z for s in samples],
                               [s.y for s in samples], self.AMPLITUDES,
                               with_delta=True, diag_out=diag)
        k = len(self.AMPLITUDES)
        for i, s in enumerate(samples):
            one = {}
            (single,), (d,) = solve_block(mesh4, vf4, sf64, [s.z], [s.y],
                                          self.AMPLITUDES, with_delta=True,
                                          diag_out=one)
            assert (diag["column_iterations"][i * k:(i + 1) * k]
                    == one["column_iterations"])
            assert (diag["delta"]["column_iterations"][i]
                    == one["delta"]["column_iterations"][0])
            for got, want in zip(u[i], single):
                assert (np.abs(got.values - want.values).max()
                        <= 1e-12 * np.abs(want.values).max())
            assert (np.abs(delta[i].values - d.values).max()
                    <= 1e-12 * np.abs(d.values).max())

    def test_smooth_block_matches_u0(self, mesh3, vf3, sf64):
        zs = [s.z for s in self.samples(vf3, sf64, seed=42)]
        u, delta = solve_block(mesh3, vf3, sf64, zs)
        assert delta is None
        for z, fields in zip(zs, u):
            want = smooth_solve(mesh3, vf3, sf64, z).values
            assert np.abs(fields[0].values - want).max() <= 1e-12 * np.abs(
                want).max()

    @pytest.mark.parametrize("bad", ["nan", "negative"])
    def test_third_realization_failure_is_indexed(self, mesh3, vf3, sf64,
                                                  bad):
        from domainuq.fields import SQRT3
        samples = self.samples(vf3, sf64, seed=43)
        ys = [s.y for s in samples]
        if bad == "nan":
            ys[2] = np.full(sf64.n_modes, np.nan)
            amplitudes = self.AMPLITUDES
        else:
            # a zero rough part for the others, and for the third the
            # corner that pushes it down hardest at the origin
            at_origin = sf64.grid.interpolate(sf64.basis.modes,
                                              np.zeros((1, 2)))[:, 0]
            ys = [np.zeros(sf64.n_modes)] * 4
            ys[2] = -SQRT3 * np.where(at_origin < 0.0, -1.0, 1.0)
            amplitudes = [0.0, 50.0]
        with pytest.raises(dq.NonPositiveCoefficient) as info:
            solve_block(mesh3, vf3, sf64, [s.z for s in samples], ys,
                        amplitudes)
        assert info.value.index == 2

    def test_failing_column_names_its_realization(self, mesh3, vf3, sf64,
                                                  monkeypatch):
        samples = self.samples(vf3, sf64, seed=44)
        monkeypatch.setattr(fem, "CG_CAP_FACTOR", 0)
        with pytest.raises(dq.SolverDiverged) as info:
            solve_block(mesh3, vf3, sf64, [s.z for s in samples],
                        [s.y for s in samples], self.AMPLITUDES)
        column = int(str(info.value).rsplit(" ", 1)[1])
        assert info.value.index == column // len(self.AMPLITUDES)


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
            deltas = derivative_solves(mesh3, vf3, sf64, s.z, rule.nodes)
            acc = np.zeros(mesh3.n_nodes)
            largest = 0.0
            for d, w in zip(deltas, rule.weights):
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
        # a level-1 rule integrates the diagonal quadratic terms exactly and
        # kills the mixed ones at every node
        rule = smolyak_rule(sf64.n_modes, 1)
        qstats = quadrature_estimate(
            lambda ys: [NodalField(d.values ** 2, mesh3.level) for d in
                        derivative_solves(mesh3, vf3, sf64, s.z, ys)],
            rule)
        assert np.allclose(qstats.mean.values, direct.values,
                           rtol=1e-7, atol=1e-14)


def stiffness_from_element_tensors(mesh, tensors):
    """Stiffness matrix for a per-element constant 2x2 matrix coefficient."""
    areas, grads, _, _ = reference_geometry(mesh)
    local = areas[:, None, None] * np.einsum(
        "mid,mde,mje->mij", grads, tensors, grads)
    return fem._scatter(mesh, local)


def solve_transported(mesh, vf, sf, sample, eps):
    """Cross-check path: assemble the transported matrix coefficient
    (a o V) (V'^T V')^{-1} det V' on the reference disc and solve there.

    For the piecewise affine deformation this is algebraically equivalent
    to solving on the deformed mesh and pulling back node values.
    """
    deformed = mesh_module.displace(mesh, eval_displacement(vf, sample.z))
    p_ref, p_def = mesh.nodes, deformed.nodes
    t = mesh.triangles
    m = len(t)

    J_ref = np.stack([p_ref[t[:, 1]] - p_ref[t[:, 0]],
                      p_ref[t[:, 2]] - p_ref[t[:, 0]]], axis=2)
    J_def = np.stack([p_def[t[:, 1]] - p_def[t[:, 0]],
                      p_def[t[:, 2]] - p_def[t[:, 0]]], axis=2)
    Vp = J_def @ np.linalg.inv(J_ref)
    detVp = np.linalg.det(Vp)
    B = np.linalg.inv(np.transpose(Vp, (0, 2, 1)) @ Vp) * detVp[:, None, None]

    qflat = reference_geometry(deformed)[2].reshape(-1, 2)
    a_q = (eval_mean(sf, qflat)
           + eps * eval_rough(sf, qflat, sample.y)).reshape(m, 3)
    if not np.all(a_q > 0.0):
        raise dq.NonPositiveCoefficient(
            f"coefficient minimum {a_q.min():.6e} at amplitude {eps}")
    tensors = a_q.mean(axis=1)[:, None, None] * B
    K = stiffness_from_element_tensors(mesh, tensors)
    b = reference_load(mesh, np.ones((m, 3)) * detVp[:, None])
    return matrix_solve(K, b, mesh)


class TestTransportedCrossCheck:
    @pytest.mark.parametrize("level", [3, 4, 5])
    def test_paths_agree(self, level, sf64):
        mesh = dq.build_disc_mesh(level)
        vf = dq.build_vector_field_kl(mesh, 1e-2)
        s = dq.draw_sample(sf64.n_modes, vf.n_modes, 42, 1)
        u_moving = full_solve(mesh, vf, sf64, s.z, s.y, 0.5)
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

    def test_sample_solve_matches_pairs_and_one_column_solves(self, mesh4,
                                                              vf4, sf64):
        s = dq.draw_sample(sf64.n_modes, vf4.n_modes, 13, 0)
        ss = solve_sample(mesh4, vf4, sf64, s, 0.5)
        u0, u_eps, delta = solve_pairs(mesh4, vf4, sf64, [s], [0.5],
                                       with_delta=True)[0]
        for got, want in ((ss.u0, u0), (ss.u_eps, u_eps[0.5]),
                          (ss.delta_u, delta)):
            assert np.abs(got.values - want).max() <= 1e-12 * np.abs(
                want).max()
        one = {"u0": {}, "u_eps": {}, "delta_u": {}}
        smooth_solve(mesh4, vf4, sf64, s.z, one["u0"])
        full_solve(mesh4, vf4, sf64, s.z, s.y, 0.5, one["u_eps"])
        # a one-column derivative solve follows a one-column u0 solve
        solve_block(mesh4, vf4, sf64, [s.z], [s.y], [0.0], with_delta=True,
                    diag_out=one["delta_u"])
        one["delta_u"] = one["delta_u"]["delta"]
        assert ss.iterations == {k: d["iterations"] for k, d in one.items()}


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
        solve_pairs(mesh3, vf3, sf64, [s], [0.5, -0.5], with_delta=True)
        assert len(passes) == 1
        assert len(stencils) == 1

    def test_rough_stiffness_reuses_gradient_products(self, mesh3, vf3, sf64,
                                                      monkeypatch):
        s = dq.draw_sample(sf64.n_modes, vf3.n_modes, 14, 1)
        dp = DeformedProblem(mesh3, vf3, sf64, s.z)
        a_r_q = dp.rough_qvalues(s.y)
        areas, _, _, products = reference_geometry(dp.deformed)
        per_element = a_r_q[mesh_module.edges(mesh3).of_element]
        expected = interior_gather(mesh3, fem._scatter(
            dp.deformed,
            (per_element.mean(axis=1) * areas)[:, None, None] * products))
        passes = counting(monkeypatch, mesh_module, "compute_geometry")

        def no_einsum(*args, **kwargs):
            raise AssertionError("einsum called during assembly")

        monkeypatch.setattr(np, "einsum", no_einsum)
        K_r = dp.rough_stiffness(a_r_q)
        assert passes == []
        assert np.array_equal(K_r, expected)


class TestRealizationSetUp:
    """Edge-midpoint coefficients and interior-layout assembly against the
    per-element, full-matrix route of `conftest.reference_realization`."""

    AMPLITUDES = [0.0, 0.25, -0.5, 1.0, -1.0]

    @pytest.mark.parametrize("level", [2, 3, 4, 5])
    def test_interior_data_and_loads_bit_equal_to_reference(self, level,
                                                            request, sf64):
        if level == 2:
            mesh = request.getfixturevalue("mesh2")
            vf = dq.build_vector_field_kl(mesh, 1e-2)
        else:
            mesh = request.getfixturevalue(f"mesh{level}")
            vf = request.getfixturevalue(f"vf{level}")
        ref = fem.reference_solver(mesh)
        rng = rng_stream(60 + level, 0)
        for amplitudes in (self.AMPLITUDES, [0.0], [-0.5]):
            z = sample_uniform(vf.n_modes, rng)
            y = sample_uniform(sf64.n_modes, rng)
            for rough in (y, None):
                k = len(amplitudes)
                data = np.empty((k, len(ref.slots)))
                loads = np.empty((k, len(ref.interior)))
                _fill_realization(mesh, vf, sf64, z, rough, amplitudes,
                                  data, loads, None)
                want_data, want_load = reference_realization(
                    mesh, vf, sf64, z, rough, amplitudes)
                assert np.array_equal(data, want_data)
                assert all(np.array_equal(row, want_load) for row in loads)

    @staticmethod
    def collapsing_field(mesh):
        """A one-mode deformation field whose displacement is -z times
        the node positions: z = 1 collapses the disc, z = -2 triples it."""
        modes = -mesh.nodes.T.reshape(1, -1)
        return VectorFieldKL(mean=mesh.nodes.copy(),
                             basis=KLBasis(np.ones(1), modes),
                             level=mesh.level)

    @pytest.mark.parametrize("z, error", [
        (1.0, dq.DegenerateDeformation),
        (-2.0, dq.OutOfHoldAll),
        (np.nan, dq.DegenerateDeformation),
    ])
    def test_bad_domain_names_its_realization(self, mesh3, sf64, z, error):
        zs = [np.zeros(1), np.array([0.1]), np.array([z]), np.zeros(1)]
        with pytest.raises(error) as info:
            solve_block(mesh3, self.collapsing_field(mesh3), sf64, zs)
        assert info.value.index == 2

    @pytest.mark.parametrize("bad", ["nan", "negative"])
    def test_bad_coefficient_names_amplitude_and_realization(
            self, mesh3, vf3, sf64, bad):
        at_origin = sf64.grid.interpolate(sf64.basis.modes,
                                          np.zeros((1, 2)))[:, 0]
        ys = [np.zeros(sf64.n_modes)] * 4
        if bad == "nan":
            ys[2] = np.full(sf64.n_modes, np.nan)
            match = "coefficient minimum nan at amplitude 0.0"
        else:
            ys[2] = -SQRT3 * np.where(at_origin < 0.0, -1.0, 1.0)
            match = "coefficient minimum -.* at amplitude 50.0"
        zs = [np.zeros(vf3.n_modes)] * 4
        with pytest.raises(dq.NonPositiveCoefficient, match=match) as info:
            solve_block(mesh3, vf3, sf64, zs, ys, [0.0, 0.5, 50.0])
        assert info.value.index == 2


class TestMultigridPCG:
    def test_iterations_independent_of_mesh_size(self, mesh3, mesh4, mesh5,
                                                 vf3, vf4, vf5, sf64):
        for mesh, vf in ((mesh3, vf3), (mesh4, vf4), (mesh5, vf5)):
            iterations = []
            for i in range(3):
                s = dq.draw_sample(sf64.n_modes, vf.n_modes, 31, i)
                diag = {}
                solve_block(mesh, vf, sf64, [s.z], [s.y], [0.0, 1.0],
                            with_delta=True, diag_out=diag)
                iterations += (diag["column_iterations"]
                               + diag["delta"]["column_iterations"])
            assert 0 < min(iterations) and max(iterations) <= 30, (
                mesh.level, iterations)

    def test_matches_dense_direct_solve(self, mesh3, vf3, sf64):
        s = dq.draw_sample(sf64.n_modes, vf3.n_modes, 8, 0)
        u = full_solve(mesh3, vf3, sf64, s.z, s.y, 1.0)
        dp = DeformedProblem(mesh3, vf3, sf64, s.z)
        ref = fem.reference_solver(mesh3)
        K = ref.interior_matrix(
            dp.K_s + dp.rough_stiffness(dp.rough_qvalues(s.y))).toarray()
        interior = np.setdiff1d(np.arange(mesh3.n_nodes), mesh3.boundary)
        assert np.array_equal(ref.interior, interior)
        direct = np.linalg.solve(K, dp.b)
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
            start.wait(timeout=30)
            fields[k] = full_solve(mesh, vf4, sf64, s.z, s.y, 1.0).values

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
        serial = full_solve(mesh, vf4, sf64, s.z, s.y, 1.0)
        for values in fields:
            assert np.array_equal(values, serial.values)
