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

The `build-kl` artifacts hold a header ending in `f8hex`, the mean,
`klbasis m n`, the m eigenvalues and one row per mode, each row a
`textio.hex_row`.  Their loaders check every row against the node count
or the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclasses_field

import numpy as np

from .errors import OutOfHoldAll
from .fem import CSRArrays, mass_arrays
from .lowrank import KLBasis, pivoted_cholesky, reduced_eigs
from .mesh import Mesh
from .textio import hex_row, parse_hex_row

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


class VectorFieldCovariance:
    """Matrix covariance of the deformation field at mesh node pairs.

    Index layout: entries 0..n-1 are the x components at the nodes,
    entries n..2n-1 the y components.
    """

    def __init__(self, points: np.ndarray):
        self.points = np.asarray(points, dtype=float)
        self.n_points = len(self.points)
        self.n = 2 * self.n_points

    def diagonal(self) -> np.ndarray:
        return np.full(self.n, 0.005)

    def column(self, j: int) -> np.ndarray:
        P = self.points
        bj, pj = divmod(j, self.n_points)
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


class CoefficientCovariance:
    """Scalar covariance of the rough coefficient at unit amplitude."""

    def __init__(self, points: np.ndarray):
        self.points = np.asarray(points, dtype=float)
        self.n = len(self.points)
        self._g = g_hat(self.points)

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


def build_vector_field_kl(mesh: Mesh, tol: float) -> VectorFieldKL:
    """Discretize the deformation covariance on the mesh and extract KL modes.

    Runs the pivoted Cholesky factorization of the 2n x 2n nodal covariance,
    solves the reduced eigenproblem against the block mass matrix, and
    lifts only the modes that keep the relative L2 truncation error of the
    field below `tol`, i.e. the discarded eigenvalue mass is at most tol^2
    of the trace.
    """
    oracle = VectorFieldCovariance(mesh.nodes)
    mass = mass_arrays(mesh)
    factor = pivoted_cholesky(oracle, CHOL_TOL_FACTOR * tol * tol)
    basis = reduced_eigs(factor, mass, block=2, tol=tol * tol)
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


def _grid_mass(grid: HoldAllGrid) -> CSRArrays:
    """Consistent bilinear mass matrix of the grid, the Kronecker product
    M = m1 (x) m1 of the 1D piecewise linear mass matrix m1 = tridiag(1, 4,
    1) * h / 6 (2 at both ends of the diagonal), as CSR arrays.

    Vertex (a, b), row a and column b of the grid, is row a * (cells + 1)
    + b, whose entry for vertex (a + da, b + db) is m1[a, a + da] *
    m1[b, b + db].  Each row holds its columns ascending, and each
    entry and each rounding are those of scipy's `kron(m1, m1).tocsr()`.
    The nine offsets (da, db) are filled in ascending column order, one at
    a time, through a per-row fill counter, so no nine-wide array is kept.
    """
    n1 = grid.cells + 1
    scale = grid.spacing / 6.0
    main = np.full(n1, 4.0)
    main[0] = main[-1] = 2.0
    # m1's diagonal for offset -1, 0 and 1, rounded as `diags(...) * scale`
    band = {-1: np.full(n1 - 1, 1.0) * scale, 0: main * scale,
            1: np.full(n1 - 1, 1.0) * scale}
    per_axis = np.full(n1, 3)
    per_axis[0] = per_axis[-1] = 2
    indptr = np.zeros(n1 * n1 + 1, dtype=np.int32)
    np.cumsum(np.outer(per_axis, per_axis).ravel(), out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    vertex = np.arange(n1 * n1, dtype=np.int32).reshape(n1, n1)
    fill = indptr[:-1].reshape(n1, n1).copy()  # next free slot of each row
    for da in (-1, 0, 1):
        rows_a = slice(max(0, -da), n1 - max(0, da))
        for db in (-1, 0, 1):
            rows_b = slice(max(0, -db), n1 - max(0, db))
            slot = fill[rows_a, rows_b]
            indices[slot] = vertex[rows_a, rows_b] + (da * n1 + db)
            data[slot] = np.outer(band[da], band[db])
            slot += 1
    return CSRArrays(data, indices, indptr, (n1 * n1, n1 * n1))


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


def build_coefficient_kl(grid_cells: int, tol: float) -> ScalarFieldKL:
    """KL expansion of the rough coefficient on the hold-all grid.

    As for the vector field, `tol` bounds the relative L2 truncation error
    of the field (discarded eigenvalue mass at most tol^2 of the trace).
    """
    if grid_cells < 16:
        raise ValueError("grid_cells must be at least 16")
    grid = HoldAllGrid(grid_cells)
    points = grid.vertex_points()
    oracle = CoefficientCovariance(points)
    factor = pivoted_cholesky(oracle, CHOL_TOL_FACTOR * tol * tol)
    basis = reduced_eigs(factor, _grid_mass(grid), block=1, tol=tol * tol)
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


#: Last token of an artifact's header: every row below it is a
#: `textio.hex_row`, so an older decimal artifact is refused, not misread.
ENCODING = "f8hex"


def _save(path, header: str, mean: np.ndarray, basis: KLBasis) -> None:
    with open(path, "w") as f:
        f.write(f"{header} {ENCODING}\n{hex_row(mean)}\n"
                f"klbasis {basis.n_modes} {basis.n}\n{hex_row(basis.mu)}\n")
        for vec in basis.modes:
            f.write(hex_row(vec) + "\n")


def _load(path, kind: str, n_tokens: int, width):
    """The header tokens, the mean and the KL basis of an artifact that
    `_save` wrote.  `width(header)` is the number of values of the mean and
    of each mode; ValueError unless every line has its form and length
    (UnicodeDecodeError, a ValueError, for bytes that are not UTF-8).

    The header, the mean, the counts and the eigenvalues are read line by
    line, and the modes one row at a time into the preallocated (m, n)
    array, so the text of at most one row is held at once.
    """
    with open(path, encoding="utf-8") as f:
        first = f.readline()
        header = first.split()
        if (len(header) != n_tokens or header[0] != kind
                or header[-1] != ENCODING):
            shown = first.rstrip("\n")[:80]
            raise ValueError(f"header {shown!r} is not that of a {kind} "
                             f"artifact in the {ENCODING} encoding")
        n = width(header)
        mean_row = f.readline()
        counts = f.readline().split()
        mu_row = f.readline()
        if len(counts) != 3 or counts[0] != "klbasis" or not mu_row:
            raise ValueError(
                "no klbasis line and eigenvalue row after the mean")
        m = int(counts[1])
        if int(counts[2]) != n:
            raise ValueError(
                f"the KL modes have {counts[2]} values, expected {n}")
        mean = parse_hex_row(mean_row.rstrip("\n"), n)
        # `mu` has one value per mode, so a damaged count cannot allocate
        # more modes than the file has room for
        mu = parse_hex_row(mu_row.rstrip("\n"), m)
        modes = np.empty((m, n))
        rows = 0
        for line in f:
            if rows < m:
                modes[rows] = parse_hex_row(line.rstrip("\n"), n)
            rows += 1
    if rows != m:
        raise ValueError(f"{rows} mode rows, expected {m}")
    return header, mean, KLBasis(mu, modes)


def save_vector_field(vf: VectorFieldKL, path) -> None:
    _save(path, f"vectorfield level {vf.level} nodes {vf.n_nodes}", vf.mean,
          vf.basis)


def load_vector_field(path) -> VectorFieldKL:
    """The vector field `save_vector_field` wrote; ValueError unless the
    mean and the modes have two values per node."""
    header, mean, basis = _load(path, "vectorfield", 6,
                                lambda h: 2 * int(h[4]))
    return VectorFieldKL(mean=mean.reshape(-1, 2), basis=basis,
                         level=int(header[2]))


def save_scalar_field(sf: ScalarFieldKL, path) -> None:
    _save(path, f"scalarfield cells {sf.grid.cells}", sf.mean, sf.basis)


def load_scalar_field(path) -> ScalarFieldKL:
    """The coefficient `save_scalar_field` wrote; ValueError unless the
    mean and the modes have one value per grid vertex."""
    header, mean, basis = _load(path, "scalarfield", 4,
                                lambda h: HoldAllGrid(int(h[2])).n_vertices)
    return ScalarFieldKL(grid=HoldAllGrid(int(header[2])), mean=mean,
                         basis=basis)
