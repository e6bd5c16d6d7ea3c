import tracemalloc

import numpy as np
import pytest

import domainuq as dq
from domainuq.errors import OutOfHoldAll
from domainuq.fields import (CoefficientCovariance, HoldAllGrid, SQRT3,
                             VectorFieldCovariance, coefficient_mean,
                             eval_coefficient, eval_displacement, eval_mean,
                             eval_rough, g_hat, rng_stream, sample_uniform,
                             scalar_field_from_text, scalar_field_to_text,
                             vector_field_from_text, vector_field_to_text)
from domainuq.mesh import displace


def reference_interpolate(grid, vertex_values, pts):
    """Bilinear interpolation that locates the points on every call, the
    formula the stencil path must reproduce bit for bit."""
    f = (pts - (-2.0)) / grid.spacing
    idx = np.minimum(f.astype(np.int64), grid.cells - 1)
    t = f - idx
    tx, ty = t[:, 0], t[:, 1]
    stride = grid.cells + 1
    v00 = idx[:, 1] * stride + idx[:, 0]
    vals = np.asarray(vertex_values, dtype=float)
    return (vals[..., v00] * (1.0 - tx) * (1.0 - ty)
            + vals[..., v00 + 1] * tx * (1.0 - ty)
            + vals[..., v00 + stride] * (1.0 - tx) * ty
            + vals[..., v00 + stride + 1] * tx * ty)


class TestCovarianceOracles:
    def test_vector_covariance_at_origin(self):
        oracle = VectorFieldCovariance(np.array([[0.0, 0.0]]))
        block = np.array([[oracle.entry(0, 0), oracle.entry(0, 1)],
                          [oracle.entry(1, 0), oracle.entry(1, 1)]])
        assert np.allclose(block, np.array([[5.0, 1.0], [1.0, 5.0]]) / 1000.0)

    def test_vector_covariance_symmetry(self, mesh2):
        oracle = VectorFieldCovariance(mesh2.nodes)
        rng = np.random.default_rng(0)
        for _ in range(50):
            i, j = rng.integers(0, oracle.n, size=2)
            assert np.isclose(oracle.entry(i, j), oracle.entry(j, i),
                              rtol=1e-15)

    def test_vector_covariance_column_consistent(self, mesh2):
        oracle = VectorFieldCovariance(mesh2.nodes)
        for j in (0, 3, oracle.n - 1):
            col = oracle.column(j)
            direct = np.array([oracle.entry(i, j) for i in range(oracle.n)])
            assert np.allclose(col, direct, rtol=1e-15)

    def test_coefficient_covariance_at_origin(self):
        oracle = CoefficientCovariance(np.array([[0.0, 0.0]]))
        assert np.isclose(oracle.entry(0, 0), 0.11, rtol=1e-15)

    def test_coefficient_diagonal(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.5], [1.5, 0.0]])
        oracle = CoefficientCovariance(pts)
        expected = 0.01 * (2.0 + 9.0 * g_hat(pts) ** 2)
        assert np.allclose(oracle.diagonal(), expected, rtol=1e-15)


class TestHatFunction:
    def test_values(self):
        assert g_hat(np.array([0.0, 0.0])) == 1.0
        assert g_hat(np.array([1.0, 0.5])) == 0.0
        assert g_hat(np.array([0.5, 0.5])) == 0.25
        assert g_hat(np.array([-1.7, 0.0])) == 0.0


class TestCoefficientMean:
    def test_values(self):
        assert np.isclose(coefficient_mean(np.array([1.0, 0.0])), 1.025)
        assert np.isclose(coefficient_mean(np.array([0.0, 1.0])), 0.975)


class TestVectorFieldKL:
    def test_zero_parameters_zero_displacement(self, vf3):
        d = eval_displacement(vf3, np.zeros(vf3.n_modes))
        assert np.array_equal(d, np.zeros_like(d))

    def test_linearity(self, vf3):
        rng = rng_stream(1, 0)
        z = sample_uniform(vf3.n_modes, rng)
        assert np.array_equal(eval_displacement(vf3, 2.0 * z),
                              2.0 * eval_displacement(vf3, z))

    def test_dimension_check(self, vf3):
        with pytest.raises(ValueError):
            eval_displacement(vf3, np.zeros(vf3.n_modes + 1))

    def test_nodal_variance_matches_covariance_diagonal(self, vf3):
        var = np.sum(vf3.basis.modes ** 2, axis=0)
        # diagonal of the covariance is 0.005 in both components; truncation
        # may only remove variance, and at most the tol-level fraction
        assert var.max() <= 0.005 * (1 + 1e-10)
        assert np.abs(var - 0.005).max() <= 0.005 * 1e-2

    def test_displacements_keep_mesh_valid(self, mesh3, vf3):
        for i in range(50):
            z = sample_uniform(vf3.n_modes, rng_stream(4, i))
            displace(mesh3, eval_displacement(vf3, z))


class TestScalarFieldKL:
    def test_mode_count_bracket(self, sf64):
        assert 8 <= sf64.n_modes <= 14

    def test_zero_y_gives_mean_exactly(self, sf64):
        pts = rng_stream(2, 0).uniform(-2, 2, size=(100, 2))
        vals = eval_coefficient(sf64, pts, np.zeros(sf64.n_modes), 1.0)
        assert np.array_equal(vals, eval_mean(sf64, pts))

    def test_zero_eps_gives_mean_exactly(self, sf64):
        rng = rng_stream(2, 1)
        pts = rng.uniform(-2, 2, size=(100, 2))
        y = sample_uniform(sf64.n_modes, rng)
        vals = eval_coefficient(sf64, pts, y, 0.0)
        assert np.array_equal(vals, eval_mean(sf64, pts))

    def test_out_of_hold_all(self, sf64):
        with pytest.raises(OutOfHoldAll):
            eval_coefficient(sf64, np.array([2.5, 0.0]),
                             np.zeros(sf64.n_modes), 1.0)

    def test_nan_point_is_out_of_hold_all(self, sf64):
        pts = np.zeros((4, 2))
        pts[2, 0] = np.nan
        with pytest.raises(OutOfHoldAll):
            eval_mean(sf64, pts)

    def test_stencil_bit_equal_to_direct_interpolation(self, sf64):
        rng = rng_stream(13, 0)
        corners = [[2.0, 2.0], [-2.0, 2.0], [2.0, -2.0], [-2.0, -2.0]]
        pts = np.vstack([rng.uniform(-2, 2, size=(500, 2)), corners])
        grid = sf64.grid
        stencil = grid.stencil(pts)
        assert len(stencil) == len(pts)
        for values in (sf64.mean, sf64.basis.modes):
            expected = reference_interpolate(grid, values, pts)
            assert np.array_equal(grid.interpolate(values, stencil), expected)
            assert np.array_equal(grid.interpolate(values, pts), expected)
        y = sample_uniform(sf64.n_modes, rng)
        assert np.array_equal(eval_rough(sf64, stencil, y),
                              eval_rough(sf64, pts, y))

    def test_stencil_of_another_grid_raises(self, sf64):
        stencil = sf64.grid.stencil(np.zeros((3, 2)))
        grid = HoldAllGrid(32)
        with pytest.raises(ValueError):
            grid.interpolate(np.zeros(grid.n_vertices), stencil)

    def test_single_point_api(self, sf64):
        val = eval_coefficient(sf64, np.array([1.0, 0.0]),
                               np.zeros(sf64.n_modes), 1.0)
        assert isinstance(val, float)
        assert np.isclose(val, 1.025, atol=1e-6)

    def test_perturbation_magnitude_bracket(self, sf64):
        rng = rng_stream(11, 0)
        sup = 0.0
        for _ in range(100):
            pts = rng.uniform(-2, 2, size=(100, 2))
            y = sample_uniform(sf64.n_modes, rng)
            sup = max(sup, np.abs(eval_rough(sf64, pts, y)).max())
        assert 0.6 <= sup <= 0.9

    def test_rough_part_matches_mode_by_mode_interpolation(self, sf64):
        rng = rng_stream(12, 0)
        pts = rng.uniform(-2, 2, size=(500, 2))
        y = sample_uniform(sf64.n_modes, rng)
        per_mode = y @ sf64.grid.interpolate(sf64.basis.modes, pts)
        assert (np.abs(eval_rough(sf64, pts, y) - per_mode).max()
                <= 1e-14 * np.abs(per_mode).max())

    def test_ellipticity_window(self, sf64):
        rng = rng_stream(13, 0)
        amin, amax = np.inf, -np.inf
        for _ in range(100):
            pts = rng.uniform(-2, 2, size=(100, 2))
            y = sample_uniform(sf64.n_modes, rng)
            vals = eval_coefficient(sf64, pts, y, 1.0)
            amin, amax = min(amin, vals.min()), max(amax, vals.max())
        assert amin >= 0.05
        assert amax < 2.5

    def test_antithetic_average_returns_mean(self, sf64):
        rng = rng_stream(3, 0)
        pts = rng.uniform(-2, 2, size=(10000, 2))
        y = sample_uniform(sf64.n_modes, rng)
        avg = 0.5 * (eval_coefficient(sf64, pts, y, 1.0)
                     + eval_coefficient(sf64, pts, -y, 1.0))
        mean = eval_mean(sf64, pts)
        assert np.abs(avg - mean).max() <= 2 * np.finfo(float).eps * np.abs(
            mean).max()


def test_desk_grid_coefficient_kl_memory_scales_with_rank():
    """The grid-256 build (n = 66,049) stays far below an n x n buffer
    (32.5 GiB): the Cholesky factor takes O(n * rank) storage."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        sf = dq.build_coefficient_kl(256, 1e-2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert sf.grid.n_vertices == 257 ** 2
    assert sf.build_info["chol_rank"] == 14
    assert peak < 200 * 2 ** 20


class TestSampling:
    def test_moments(self):
        rng = rng_stream(0, 0)
        draws = sample_uniform(10 ** 5, rng)
        assert abs(draws.mean()) <= 3.0 / np.sqrt(10 ** 5)
        assert abs(draws.var() - 1.0) <= 0.05
        assert np.abs(draws).max() <= SQRT3

    def test_determinism(self):
        a = sample_uniform(16, rng_stream(42, 7))
        b = sample_uniform(16, rng_stream(42, 7))
        assert np.array_equal(a, b)
        c = sample_uniform(16, rng_stream(42, 8))
        assert not np.array_equal(a, c)

    def test_draw_sample_ranges(self):
        s = dq.draw_sample(5, 9, 1, 2)
        assert len(s.y) == 5 and len(s.z) == 9
        assert np.abs(s.y).max() <= SQRT3 and np.abs(s.z).max() <= SQRT3

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            dq.Sample(y=np.array([2.0]), z=np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_sample_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            dq.Sample(y=np.array([0.5, bad]), z=np.zeros(2))
        with pytest.raises(ValueError):
            dq.Sample(y=np.zeros(2), z=np.array([bad, 0.5]))


class TestDumps:
    def test_vector_field_roundtrip(self, vf3):
        text = vector_field_to_text(vf3)
        back = vector_field_from_text(text)
        assert np.array_equal(back.mean, vf3.mean)
        assert np.array_equal(back.basis.mu, vf3.basis.mu)
        assert np.array_equal(back.basis.modes, vf3.basis.modes)
        assert vector_field_to_text(back) == text

    def test_scalar_field_roundtrip(self, sf64):
        text = scalar_field_to_text(sf64)
        back = scalar_field_from_text(text)
        assert np.array_equal(back.mean, sf64.mean)
        assert np.array_equal(back.basis.modes, sf64.basis.modes)
        assert back.grid.cells == sf64.grid.cells
        assert scalar_field_to_text(back) == text
