"""Concrete random inputs: the KL vector field deforming the disc and the
rough scalar diffusion coefficient on the hold-all box.

The vector field is discretized on the mesh nodes (x components stacked
before y components); the coefficient lives on a uniform Cartesian grid
over the hold-all box [-2, 2]^2 with bilinear interpolation.  A `Stencil`
holds the cells and weights of a fixed set of points, so every field
evaluated at one domain realization's quadrature points locates them only
once.  Both KL expansions are driven by i.i.d. variables uniform on
[-sqrt(3), sqrt(3)], i.e. with unit variance.  The amplitude factor of the
rough coefficient is kept outside the stored modes, so a single
factorization serves every amplitude.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclasses_field

import numpy as np
from scipy.sparse import csr_matrix, diags, kron

from .errors import OutOfHoldAll
from .fem import assemble_mass
from .lowrank import (CovarianceOracle, KLBasis, _klbasis_from_lines,
                      klbasis_lines, pivoted_cholesky, reduced_eigs,
                      truncate)
from .mesh import Mesh
from .textio import fmt_row, fmt_rows

SQRT3 = np.sqrt(3.0)

RNG_ALGORITHM = "philox4x64"

#: Factor between the trace-level truncation target and the internal
#: pivoted Cholesky trace tolerance, so the factor resolves the spectrum
#: past the truncation threshold.
CHOL_TOL_FACTOR = 0.1

HOLD_ALL_LO = -2.0
HOLD_ALL_HI = 2.0


def g_hat(pts) -> np.ndarray:
    """Tensor product hat function max(0, 1-|x1|) * max(0, 1-|x2|)."""
    p = np.atleast_2d(np.asarray(pts, dtype=float))
    vals = (np.maximum(0.0, 1.0 - np.abs(p[:, 0]))
            * np.maximum(0.0, 1.0 - np.abs(p[:, 1])))
    return vals if np.ndim(pts) > 1 else float(vals[0])


def coefficient_mean(pts) -> np.ndarray:
    """Smooth part of the diffusion coefficient, 1 + (x1^2 - x2^2)/40."""
    p = np.atleast_2d(np.asarray(pts, dtype=float))
    vals = 1.0 + (p[:, 0] ** 2 - p[:, 1] ** 2) / 40.0
    return vals if np.ndim(pts) > 1 else float(vals[0])


class VectorFieldCovariance(CovarianceOracle):
    """Matrix covariance of the deformation field at mesh node pairs.

    Index layout: entries 0..n-1 are the x components at the nodes,
    entries n..2n-1 the y components.
    """

    def __init__(self, points: np.ndarray):
        self.points = np.asarray(points, dtype=float)
        self.n_points = len(self.points)
        self.n = 2 * self.n_points

    def _split(self, i: int) -> tuple[int, int]:
        return (0, i) if i < self.n_points else (1, i - self.n_points)

    def entry(self, i: int, j: int) -> float:
        bi, pi = self._split(i)
        bj, pj = self._split(j)
        X, Xp = self.points[pi], self.points[pj]
        if bi == 0 and bj == 0:
            return 0.005 * np.exp(-2.0 * np.sum((X - Xp) ** 2))
        if bi == 1 and bj == 1:
            return 0.005 * np.exp(-0.5 * np.sum((X - Xp) ** 2))
        if bi == 0:  # Cov_12(X, X')
            return 0.001 * np.exp(-0.1 * np.sum((2.0 * X - Xp) ** 2))
        return 0.001 * np.exp(-0.1 * np.sum((X - 2.0 * Xp) ** 2))

    def diagonal(self) -> np.ndarray:
        return np.full(self.n, 0.005)

    def column(self, j: int) -> np.ndarray:
        P = self.points
        bj, pj = self._split(j)
        Xj = P[pj]
        out = np.empty(self.n)
        if bj == 0:
            out[:self.n_points] = 0.005 * np.exp(
                -2.0 * np.sum((P - Xj) ** 2, axis=1))
            out[self.n_points:] = 0.001 * np.exp(
                -0.1 * np.sum((P - 2.0 * Xj) ** 2, axis=1))
        else:
            out[:self.n_points] = 0.001 * np.exp(
                -0.1 * np.sum((2.0 * P - Xj) ** 2, axis=1))
            out[self.n_points:] = 0.005 * np.exp(
                -0.5 * np.sum((P - Xj) ** 2, axis=1))
        return out


class CoefficientCovariance(CovarianceOracle):
    """Scalar covariance of the rough coefficient at unit amplitude."""

    def __init__(self, points: np.ndarray):
        self.points = np.asarray(points, dtype=float)
        self.n = len(self.points)
        self._g = g_hat(self.points)

    def entry(self, i: int, j: int) -> float:
        d2 = np.sum((self.points[i] - self.points[j]) ** 2)
        return 0.01 * (2.0 * np.exp(-d2 / 32.0) + 9.0 * self._g[i] * self._g[j])

    def diagonal(self) -> np.ndarray:
        return 0.01 * (2.0 + 9.0 * self._g ** 2)

    def column(self, j: int) -> np.ndarray:
        d2 = np.sum((self.points - self.points[j]) ** 2, axis=1)
        return 0.01 * (2.0 * np.exp(-d2 / 32.0) + 9.0 * self._g * self._g[j])


@dataclass
class VectorFieldKL:
    """Truncated KL representation of the random deformation field.

    The mean is the identity map (stored as the node coordinates); modes
    live on the stacked 2n-vector of nodal components.  `build_info`
    carries factorization diagnostics and is not serialized.
    """

    mean: np.ndarray       # (n, 2)
    basis: KLBasis         # modes over 2n stacked values
    level: int
    build_info: dict = dataclasses_field(default_factory=dict, compare=False)

    @property
    def n_modes(self) -> int:
        return self.basis.n_modes

    @property
    def n_nodes(self) -> int:
        return len(self.mean)


def build_vector_field_kl(mesh: Mesh, tol: float,
                          chol_tol: float | None = None,
                          max_rank: int | None = None) -> VectorFieldKL:
    """Discretize the deformation covariance on the mesh and extract KL modes.

    Runs the pivoted Cholesky factorization of the 2n x 2n nodal covariance,
    solves the reduced eigenproblem against the block mass matrix, and
    truncates so the relative L2 truncation error of the field stays below
    `tol`, i.e. the discarded eigenvalue mass is at most tol^2 of the trace.
    """
    oracle = VectorFieldCovariance(mesh.nodes)
    if chol_tol is None:
        chol_tol = CHOL_TOL_FACTOR * tol * tol
    # The mass matrix comes first: the sparsity pattern it caches on the
    # mesh topology then cannot pin heap memory that the factorization's
    # large temporaries free (1.2 MB instead of 6 MB of extra peak RSS at
    # mesh level 6).
    mass = assemble_mass(mesh)
    factor = pivoted_cholesky(oracle, chol_tol, max_rank)
    basis = truncate(reduced_eigs(factor, mass, block=2), tol * tol)
    info = {"chol_rank": factor.rank, "chol_residual": factor.trace_residual}
    return VectorFieldKL(mean=mesh.nodes.copy(), basis=basis,
                         level=mesh.level, build_info=info)


def eval_displacement(vf: VectorFieldKL, z: np.ndarray) -> np.ndarray:
    """Per-node displacement V(X, z) - X; linear in z and zero at z = 0."""
    z = np.asarray(z, dtype=float)
    if len(z) != vf.n_modes:
        raise ValueError(f"z has length {len(z)}, expected {vf.n_modes}")
    n = vf.n_nodes
    flat = z @ vf.basis.modes if vf.n_modes else np.zeros(2 * n)
    return np.column_stack([flat[:n], flat[n:]])


@dataclass
class HoldAllGrid:
    """Uniform Cartesian grid over the hold-all box [-2, 2]^2.

    Vertex index layout is row major: index = iy * (cells + 1) + ix.
    Containing-cell lookup is plain index arithmetic.
    """

    cells: int

    @property
    def spacing(self) -> float:
        return (HOLD_ALL_HI - HOLD_ALL_LO) / self.cells

    @property
    def n_vertices(self) -> int:
        return (self.cells + 1) ** 2

    def vertex_points(self) -> np.ndarray:
        axis = HOLD_ALL_LO + self.spacing * np.arange(self.cells + 1)
        xx, yy = np.meshgrid(axis, axis)  # row-major: yy varies over rows
        return np.column_stack([xx.ravel(), yy.ravel()])

    def stencil(self, pts: np.ndarray) -> Stencil:
        """Cells and bilinear weights of (k, 2) points, or of one point.

        Raises OutOfHoldAll unless every point lies in the box, so a NaN
        point raises too.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if not (np.all(pts >= HOLD_ALL_LO) and np.all(pts <= HOLD_ALL_HI)):
            raise OutOfHoldAll(
                "point outside the hold-all box [-2, 2]^2 or not finite")
        fx = (pts[:, 0] - HOLD_ALL_LO) / self.spacing
        fy = (pts[:, 1] - HOLD_ALL_LO) / self.spacing
        ix = np.minimum(fx.astype(np.int64), self.cells - 1)
        iy = np.minimum(fy.astype(np.int64), self.cells - 1)
        tx, ty = fx - ix, fy - iy
        stride = self.cells + 1
        v00 = iy * stride + ix
        return Stencil(cells=self.cells,
                       corners=(v00, v00 + 1, v00 + stride, v00 + stride + 1),
                       tx=tx, ty=ty, sx=1.0 - tx, sy=1.0 - ty)

    def interpolate(self, vertex_values: np.ndarray, pts) -> np.ndarray:
        """Bilinear interpolation of one or more vertex-valued fields.

        vertex_values has shape (..., n_vertices); returns (..., len(pts)).
        `pts` is a (k, 2) array of points, one point, or their `stencil`,
        which interpolates every field at the same points without locating
        them again.  Raises OutOfHoldAll for points outside the box.
        """
        st = pts if isinstance(pts, Stencil) else self.stencil(pts)
        if st.cells != self.cells:
            raise ValueError(f"stencil of a {st.cells}-cell grid used on a "
                             f"{self.cells}-cell grid")
        vals = np.asarray(vertex_values, dtype=float)
        v00, v10, v01, v11 = st.corners
        return (vals[..., v00] * st.sx * st.sy
                + vals[..., v10] * st.tx * st.sy
                + vals[..., v01] * st.sx * st.ty
                + vals[..., v11] * st.tx * st.ty)


@dataclass(frozen=True)
class Stencil:
    """Where a fixed set of points lies in a `HoldAllGrid`: the four vertex
    indices of each point's cell (lower left, lower right, upper left,
    upper right) and its offsets `tx`, `ty` in the cell, with `sx = 1 - tx`
    and `sy = 1 - ty`.  Its length is the number of points."""

    cells: int
    corners: tuple
    tx: np.ndarray
    ty: np.ndarray
    sx: np.ndarray
    sy: np.ndarray

    def __len__(self) -> int:
        return len(self.tx)


def _grid_mass(grid: HoldAllGrid) -> csr_matrix:
    """Consistent bilinear mass matrix of the grid, a Kronecker product of
    1D piecewise linear mass matrices."""
    n1 = grid.cells + 1
    h = grid.spacing
    main = np.full(n1, 4.0)
    main[0] = main[-1] = 2.0
    m1 = diags([np.full(n1 - 1, 1.0), main, np.full(n1 - 1, 1.0)],
               [-1, 0, 1]) * (h / 6.0)
    return kron(m1, m1).tocsr()


@dataclass
class ScalarFieldKL:
    """Truncated KL representation of the rough diffusion coefficient.

    Modes are stored at unit amplitude; the amplitude multiplies the rough
    part at evaluation time only.
    """

    grid: HoldAllGrid
    mean: np.ndarray       # (n_vertices,)
    basis: KLBasis
    build_info: dict = dataclasses_field(default_factory=dict, compare=False)

    @property
    def n_modes(self) -> int:
        return self.basis.n_modes


def build_coefficient_kl(grid_cells: int, tol: float,
                         chol_tol: float | None = None,
                         max_rank: int | None = None) -> ScalarFieldKL:
    """KL expansion of the rough coefficient on the hold-all grid.

    As for the vector field, `tol` bounds the relative L2 truncation error
    of the field (discarded eigenvalue mass at most tol^2 of the trace).
    """
    if grid_cells < 16:
        raise ValueError("grid_cells must be at least 16")
    grid = HoldAllGrid(grid_cells)
    points = grid.vertex_points()
    oracle = CoefficientCovariance(points)
    if chol_tol is None:
        chol_tol = CHOL_TOL_FACTOR * tol * tol
    factor = pivoted_cholesky(oracle, chol_tol, max_rank)
    basis = truncate(reduced_eigs(factor, _grid_mass(grid), block=1), tol * tol)
    info = {"chol_rank": factor.rank, "chol_residual": factor.trace_residual}
    return ScalarFieldKL(grid=grid, mean=coefficient_mean(points),
                         basis=basis, build_info=info)


def eval_mean(sf: ScalarFieldKL, pts) -> np.ndarray:
    """Smooth coefficient part a_s at (k, 2) points or a grid `Stencil`."""
    return sf.grid.interpolate(sf.mean, pts)


def eval_rough(sf: ScalarFieldKL, pts, y: np.ndarray) -> np.ndarray:
    """Rough coefficient part at unit amplitude, sum_k mode_k(x) y_k, at
    (k, 2) points or a grid `Stencil`."""
    y = np.asarray(y, dtype=float)
    if len(y) != sf.n_modes:
        raise ValueError(f"y has length {len(y)}, expected {sf.n_modes}")
    # Interpolation is linear, so the combination y @ modes is formed on the
    # grid and interpolated once, not each mode at every point.
    return sf.grid.interpolate(y @ sf.basis.modes, pts)


def eval_coefficient(sf: ScalarFieldKL, pts, y: np.ndarray, eps: float):
    """Full coefficient a_s(x) + eps * sum_k mode_k(x) y_k.

    Accepts a single point (2,) or an array (p, 2); raises OutOfHoldAll
    outside the hold-all box.
    """
    single = np.ndim(pts) == 1
    p = np.atleast_2d(np.asarray(pts, dtype=float))
    vals = eval_mean(sf, p) + eps * eval_rough(sf, p, y)
    return float(vals[0]) if single else vals


def rng_stream(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator for the given (seed, stream index) pair."""
    mask = (1 << 64) - 1
    key = np.array([seed & mask, stream & mask], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_uniform(dim: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. components uniform on [-sqrt(3), sqrt(3)] (unit variance)."""
    return rng.uniform(-SQRT3, SQRT3, size=dim)


@dataclass
class Sample:
    """One joint draw of the coefficient parameters y and the domain
    parameters z, each uniform on [-sqrt(3), sqrt(3)] per component."""

    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.z = np.asarray(self.z, dtype=float)
        for name, vec in (("y", self.y), ("z", self.z)):
            if not np.all(np.abs(vec) <= SQRT3 * (1.0 + 1e-12)):
                raise ValueError(f"{name} has components outside "
                                 "[-sqrt(3), sqrt(3)] or not finite")


def draw_sample(n_y: int, n_z: int, seed: int, index: int) -> Sample:
    """Deterministic i.i.d. sample for the given seed and sample index."""
    rng = rng_stream(seed, index)
    return Sample(y=sample_uniform(n_y, rng), z=sample_uniform(n_z, rng))


def _vector_field_lines(vf: VectorFieldKL):
    yield f"vectorfield level {vf.level} nodes {vf.n_nodes}\n"
    yield fmt_rows(vf.mean) + "\n"
    yield from klbasis_lines(vf.basis)


def vector_field_to_text(vf: VectorFieldKL) -> str:
    return "".join(_vector_field_lines(vf))


def vector_field_from_text(text: str) -> VectorFieldKL:
    lines = text.splitlines()
    header = lines[0].split()
    if header[0] != "vectorfield":
        raise ValueError(f"bad vectorfield header: {lines[0]!r}")
    level, n = int(header[2]), int(header[4])
    mean = np.array([[float(v) for v in lines[1 + i].split()] for i in range(n)])
    basis, _ = _klbasis_from_lines(lines, 1 + n)
    return VectorFieldKL(mean=mean, basis=basis, level=level)


def _scalar_field_lines(sf: ScalarFieldKL):
    yield f"scalarfield cells {sf.grid.cells}\n"
    yield fmt_row(sf.mean, "\n") + "\n"
    yield from klbasis_lines(sf.basis)


def scalar_field_to_text(sf: ScalarFieldKL) -> str:
    return "".join(_scalar_field_lines(sf))


def scalar_field_from_text(text: str) -> ScalarFieldKL:
    lines = text.splitlines()
    header = lines[0].split()
    if header[0] != "scalarfield":
        raise ValueError(f"bad scalarfield header: {lines[0]!r}")
    grid = HoldAllGrid(int(header[2]))
    nv = grid.n_vertices
    mean = np.array([float(lines[1 + i]) for i in range(nv)])
    basis, _ = _klbasis_from_lines(lines, 1 + nv)
    return ScalarFieldKL(grid=grid, mean=mean, basis=basis)


def save_vector_field(vf: VectorFieldKL, path) -> None:
    with open(path, "w") as f:
        f.writelines(_vector_field_lines(vf))


def load_vector_field(path) -> VectorFieldKL:
    with open(path) as f:
        return vector_field_from_text(f.read())


def save_scalar_field(sf: ScalarFieldKL, path) -> None:
    with open(path, "w") as f:
        f.writelines(_scalar_field_lines(sf))


def load_scalar_field(path) -> ScalarFieldKL:
    with open(path) as f:
        return scalar_field_from_text(f.read())
