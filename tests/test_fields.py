import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import diags, kron

import domainuq as dq
from domainuq.errors import OutOfHoldAll
from domainuq.fields import (CoefficientCovariance, HoldAllGrid, SQRT3,
                             VectorFieldCovariance, _grid_mass,
                             coefficient_mean,
                             eval_displacement, eval_mean, eval_rough, g_hat,
                             load_scalar_field, load_vector_field, rng_stream,
                             sample_uniform, save_scalar_field,
                             save_vector_field)
from domainuq.mesh import displace
from domainuq.textio import hex_row, parse_hex_row


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


def coefficient(sf, pts, y, eps):
    """Full coefficient a_s + eps * a_r(y) at (k, 2) points."""
    return eval_mean(sf, pts) + eps * eval_rough(sf, pts, y)


def vector_covariance_entry(points, i, j):
    """Entry (i, j) of the deformation covariance at `points`, x
    components first: the formula `VectorFieldCovariance.column` must
    reproduce."""
    (bi, pi), (bj, pj) = divmod(i, len(points)), divmod(j, len(points))
    X, Xp = points[pi], points[pj]
    if bi == 0 and bj == 0:
        return 0.005 * np.exp(-2.0 * np.sum((X - Xp) ** 2))
    if bi == 1 and bj == 1:
        return 0.005 * np.exp(-0.5 * np.sum((X - Xp) ** 2))
    if bi == 0:  # Cov_12(X, X')
        return 0.001 * np.exp(-0.1 * np.sum((2.0 * X - Xp) ** 2))
    return 0.001 * np.exp(-0.1 * np.sum((X - 2.0 * Xp) ** 2))


class TestCovarianceOracles:
    def test_vector_covariance_at_origin(self):
        oracle = VectorFieldCovariance(np.array([[0.0, 0.0]]))
        block = np.column_stack([oracle.column(0), oracle.column(1)])
        assert np.allclose(block, np.array([[5.0, 1.0], [1.0, 5.0]]) / 1000.0)

    def test_vector_covariance_symmetry(self, mesh2):
        oracle = VectorFieldCovariance(mesh2.nodes)
        rng = np.random.default_rng(0)
        for _ in range(50):
            i, j = rng.integers(0, oracle.n, size=2)
            assert np.isclose(oracle.column(j)[i], oracle.column(i)[j],
                              rtol=1e-15)

    def test_vector_covariance_column_consistent(self, mesh2):
        oracle = VectorFieldCovariance(mesh2.nodes)
        for j in (0, 3, oracle.n - 1):
            col = oracle.column(j)
            direct = np.array([vector_covariance_entry(mesh2.nodes, i, j)
                               for i in range(oracle.n)])
            assert np.allclose(col, direct, rtol=1e-15)

    def test_coefficient_covariance_at_origin(self):
        oracle = CoefficientCovariance(np.array([[0.0, 0.0]]))
        assert np.isclose(oracle.column(0)[0], 0.11, rtol=1e-15)

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
        vals = coefficient(sf64, pts, np.zeros(sf64.n_modes), 1.0)
        assert np.array_equal(vals, eval_mean(sf64, pts))

    def test_zero_eps_gives_mean_exactly(self, sf64):
        rng = rng_stream(2, 1)
        pts = rng.uniform(-2, 2, size=(100, 2))
        y = sample_uniform(sf64.n_modes, rng)
        vals = coefficient(sf64, pts, y, 0.0)
        assert np.array_equal(vals, eval_mean(sf64, pts))

    def test_out_of_hold_all(self, sf64):
        with pytest.raises(OutOfHoldAll):
            coefficient(sf64, np.array([[2.5, 0.0]]),
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
        val = coefficient(sf64, np.array([[1.0, 0.0]]),
                          np.zeros(sf64.n_modes), 1.0)
        assert val.shape == (1,)
        assert np.isclose(val[0], 1.025, atol=1e-6)

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
            vals = coefficient(sf64, pts, y, 1.0)
            amin, amax = min(amin, vals.min()), max(amax, vals.max())
        assert amin >= 0.05
        assert amax < 2.5

    def test_antithetic_average_returns_mean(self, sf64):
        rng = rng_stream(3, 0)
        pts = rng.uniform(-2, 2, size=(10000, 2))
        y = sample_uniform(sf64.n_modes, rng)
        avg = 0.5 * (coefficient(sf64, pts, y, 1.0)
                     + coefficient(sf64, pts, -y, 1.0))
        mean = eval_mean(sf64, pts)
        assert np.abs(avg - mean).max() <= 2 * np.finfo(float).eps * np.abs(
            mean).max()


@pytest.mark.parametrize("cells", [16, 17, 64, 256])
def test_grid_mass_arrays_bit_equal_to_scipy_kron(cells):
    """`_grid_mass` builds with numpy the arrays scipy gives for the
    Kronecker product of the 1D mass matrices."""
    grid = HoldAllGrid(cells)
    n1 = cells + 1
    main = np.full(n1, 4.0)
    main[0] = main[-1] = 2.0
    m1 = diags([np.full(n1 - 1, 1.0), main, np.full(n1 - 1, 1.0)],
               [-1, 0, 1]) * (grid.spacing / 6.0)
    expected = kron(m1, m1).tocsr()
    mass = _grid_mass(grid)
    assert mass.shape == expected.shape == (grid.n_vertices,) * 2
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(mass, name), getattr(expected, name))


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


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def float_bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


class TestDumps:
    def test_vector_field_roundtrip(self, vf3, tmp_path):
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        save_vector_field(vf3, first)
        back = load_vector_field(first)
        assert same_bits(back.mean, vf3.mean)
        assert same_bits(back.basis.mu, vf3.basis.mu)
        assert same_bits(back.basis.modes, vf3.basis.modes)
        assert back.level == vf3.level
        save_vector_field(back, second)
        assert second.read_bytes() == first.read_bytes()

    def test_scalar_field_roundtrip(self, sf64, tmp_path):
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        save_scalar_field(sf64, first)
        back = load_scalar_field(first)
        assert same_bits(back.mean, sf64.mean)
        assert same_bits(back.basis.mu, sf64.basis.mu)
        assert same_bits(back.basis.modes, sf64.basis.modes)
        assert back.grid.cells == sf64.grid.cells
        save_scalar_field(back, second)
        assert second.read_bytes() == first.read_bytes()

    def test_vector_field_load_holds_one_row_of_text(self, vf5, tmp_path):
        """Loading reads the modes row by row: its peak is the modes array
        plus a few rows of text, not the whole file and its lines (about
        74 rows of text at level 5)."""
        path = tmp_path / "vf.txt"
        save_vector_field(vf5, path)
        row_text = 16 * vf5.basis.n
        assert vf5.n_modes > 20
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        try:
            back = load_vector_field(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert same_bits(back.basis.modes, vf5.basis.modes)
        assert peak - base <= back.basis.modes.nbytes + 8 * row_text

    # Bit patterns: -0.0, the smallest and largest subnormals, -max, +max,
    # a quiet and a signalling NaN with payloads, a negative NaN, -inf.
    @example([0x8000000000000000, 0x0000000000000001, 0x000FFFFFFFFFFFFF,
              0xFFEFFFFFFFFFFFFF, 0x7FEFFFFFFFFFFFFF, 0x7FF8000000000123,
              0x7FF0000000000001, 0xFFFC00000000BEEF, 0xFFF0000000000000])
    @example([])
    @given(st.lists(st.one_of(st.integers(0, 2 ** 64 - 1),
                              st.floats(width=64).map(float_bits)),
                    max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_hex_row_roundtrip_bit_exact(self, bits):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        line = hex_row(values)
        assert line.isascii() and "\n" not in line
        back = parse_hex_row(line, len(bits))
        assert back.view(np.uint64).tolist() == bits

    @pytest.mark.parametrize("line", [
        hex_row([1.0, 2.0])[:-16],
        hex_row([1.0, 2.0, 3.0]),
        hex_row([1.0, 2.0])[:-1],
        "g" + hex_row([1.0, 2.0])[1:],
        hex_row([1.0]) + " " * 16,
        "1 2",
    ], ids=["one_value_short", "one_value_too_many", "one_digit_short",
            "not_hex", "whitespace_for_a_value", "decimal"])
    def test_parse_hex_row_rejects_a_wrong_row(self, line):
        with pytest.raises(ValueError):
            parse_hex_row(line, 2)
