"""Triangulated meshes of the unit disc: construction, refinement, deformation.

The reference domain is the unit disc.  It is decomposed into four affine
patches (origin plus the four cardinal boundary points) and refined by
regular midpoint subdivision; midpoints of boundary edges are projected
radially back onto the unit circle, so every level is a conforming
triangulation of an inscribed polygon whose rim nodes lie exactly on the
circle.

Meshes are immutable after construction by convention; all operations
return new `Mesh` instances.  Every refinement records which edge each new
node bisects, and a displaced mesh shares its topology with the mesh it
came from, so solvers can build multigrid hierarchies and sparsity maps
once per topology.  What depends on the node positions (areas, basis
gradients, quadrature points and gradient products) is computed in one
pass per placement of the nodes: `displace` computes it while checking the
moved mesh for inverted elements, and the moved mesh keeps it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDeformation
from .textio import fmt

#: Area of the reference simplex, used to scale the degeneracy threshold.
REFERENCE_ELEMENT_AREA = 0.5

#: Signed areas at or below this value count as an inverted element.
DEGENERACY_EPS = 1e-12 * REFERENCE_ELEMENT_AREA

_BASE_NODES = np.array([
    [0.0, 0.0],
    [1.0, 0.0],
    [0.0, 1.0],
    [-1.0, 0.0],
    [0.0, -1.0],
])
_BASE_TRIANGLES = np.array([
    [0, 1, 2],
    [0, 2, 3],
    [0, 3, 4],
    [0, 4, 1],
])
_BASE_BOUNDARY = np.array([1, 2, 3, 4])


class Topology:
    """What depends only on the connectivity and the refinement chain.

    `displace` hands the same instance to the moved mesh, so an object
    built through `cached` serves every domain realization of a mesh.
    `reference_nodes` are the node positions of the mesh the topology was
    created with, the undeformed reference.

    The command line builds what it needs here before it forks worker
    processes, which then inherit it.  The lock stays because library
    callers may share one mesh across threads of their own, and the first
    uses must still build each object once.
    """

    def __init__(self, reference_nodes: np.ndarray):
        self.reference_nodes = reference_nodes
        self._items: dict = {}
        self._lock = threading.RLock()

    def cached(self, key: str, build):
        """The object stored under `key`, built by `build()` on first use.

        Concurrent first uses build it once; `build` may itself call `cached`.
        """
        with self._lock:
            if key not in self._items:
                self._items[key] = build()
            return self._items[key]


@dataclass
class Mesh:
    """Conforming triangle mesh with counterclockwise elements.

    Attributes
    ----------
    level : refinement depth (the base decomposition is level 0)
    nodes : (n, 2) float array of node coordinates
    triangles : (m, 3) int array of node indices, counterclockwise
    boundary : sorted int array of node indices on the outer rim
    patch_id : (m,) int array mapping each triangle to its base patch
    refinements : one (k, 2) int array per refinement step, coarse to
        fine: the endpoints of the coarse edge that each node appended by
        that step bisects (empty for a mesh not built by `refine`)
    topology : shared by every displaced copy of this mesh
    """

    level: int
    nodes: np.ndarray
    triangles: np.ndarray
    boundary: np.ndarray
    patch_id: np.ndarray
    refinements: tuple = ()
    topology: Topology | None = field(default=None, repr=False, compare=False)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.topology is None:
            self.topology = Topology(self.nodes)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)


@dataclass(frozen=True)
class Geometry:
    """Per-element quantities of one placement of a mesh's nodes.

    Attributes
    ----------
    areas : (m,) signed triangle areas
    grads : (m, 3, 2) gradients of the three P1 basis functions
    qpoints : (m, 3, 2) edge midpoints; point q lies opposite vertex q
    grad_products : (m, 3, 3) dot products grad(phi_i) . grad(phi_j), the
        unit-coefficient element stiffness divided by the area
    """

    areas: np.ndarray
    grads: np.ndarray
    qpoints: np.ndarray
    grad_products: np.ndarray


def _corners(nodes: np.ndarray, triangles: np.ndarray):
    """x0, x1, x2, y0, y1, y2: the corner coordinates of every triangle.

    Gathering each coordinate on its own is faster than gathering (n, 2)
    point rows and gives the same values.
    """
    x, y = nodes[:, 0], nodes[:, 1]
    t0, t1, t2 = triangles[:, 0], triangles[:, 1], triangles[:, 2]
    return x[t0], x[t1], x[t2], y[t0], y[t1], y[t2]


def _determinants(x0, x1, x2, y0, y1, y2) -> np.ndarray:
    """Twice the signed area of every triangle."""
    return (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)


def signed_areas(mesh: Mesh) -> np.ndarray:
    """Signed area of every triangle (positive for counterclockwise)."""
    return 0.5 * _determinants(*_corners(mesh.nodes, mesh.triangles))


def compute_geometry(nodes: np.ndarray, triangles: np.ndarray,
                     min_area: float | None = None) -> Geometry:
    """Areas, basis gradients, quadrature points and gradient products of
    the triangles at the given node positions, in one pass.

    With `min_area`, raises DegenerateDeformation before any division if
    a signed area is not above it (a NaN area is not).
    """
    corners = _corners(nodes, triangles)
    xs, ys = corners[:3], corners[3:]
    det = _determinants(*corners)
    areas = 0.5 * det
    if min_area is not None and not np.all(areas > min_area):
        raise DegenerateDeformation(
            f"minimum signed area {np.min(areas):.3e} "
            f"at or below threshold {min_area:.3e}")
    # Gradients as (2, 3, m): g[d, i] is component d of the gradient of
    # basis function i on every element.  Vertex i faces the edge (j, k),
    # whose midpoint is quadrature point i.
    m = len(triangles)
    g = np.empty((2, 3, m))
    qpoints = np.empty((m, 3, 2))
    for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.subtract(ys[j], ys[k], out=g[0, i])
        np.subtract(xs[k], xs[j], out=g[1, i])
        qpoints[:, i, 0] = 0.5 * (xs[j] + xs[k])
        qpoints[:, i, 1] = 0.5 * (ys[j] + ys[k])
    g /= det
    gx, gy = g
    products = (gx[:, None, :] * gx[None, :, :]
                + gy[:, None, :] * gy[None, :, :])
    return Geometry(areas=areas,
                    grads=np.ascontiguousarray(g.transpose(2, 1, 0)),
                    qpoints=qpoints,
                    grad_products=np.ascontiguousarray(
                        products.transpose(2, 0, 1)))


def geometry(mesh: Mesh) -> Geometry:
    """The Geometry of the mesh's nodes, computed on first use and kept on
    the mesh; `displace` computes it for the mesh it returns."""
    cached = mesh._cache.get("geometry")
    if cached is None:
        cached = mesh._cache["geometry"] = compute_geometry(mesh.nodes,
                                                            mesh.triangles)
    return cached


def build_disc_mesh(level: int) -> Mesh:
    """Mesh of the unit disc with 4 * 4**level triangles.

    Rim nodes are snapped onto the unit circle at every refinement step
    (piecewise affine realization of the curved patches).
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    mesh = Mesh(
        level=0,
        nodes=_BASE_NODES.copy(),
        triangles=_BASE_TRIANGLES.copy(),
        boundary=_BASE_BOUNDARY.copy(),
        patch_id=np.arange(4),
    )
    for _ in range(level):
        mesh = refine(mesh)
    return mesh


def refine(mesh: Mesh) -> Mesh:
    """Split every triangle into four children via edge midpoints.

    Midpoints of boundary edges are projected radially onto the unit
    circle.  Parent nodes keep their indices; new nodes are appended in
    the order of their (min index, max index) edge keys, which are
    recorded as the new mesh's last `refinements` entry.
    """
    nodes = mesh.nodes
    tris = mesh.triangles
    n = len(nodes)

    ea = tris
    eb = tris[:, [1, 2, 0]]
    pairs = np.stack([np.minimum(ea, eb), np.maximum(ea, eb)], axis=-1)
    flat = pairs.reshape(-1, 2)
    edges, inverse, counts = np.unique(
        flat, axis=0, return_inverse=True, return_counts=True)

    midpoints = 0.5 * (nodes[edges[:, 0]] + nodes[edges[:, 1]])
    on_rim = counts == 1
    if np.any(on_rim):
        rim = midpoints[on_rim]
        midpoints[on_rim] = rim / np.linalg.norm(rim, axis=1)[:, None]

    new_nodes = np.vstack([nodes, midpoints])
    new_boundary = np.union1d(mesh.boundary, n + np.nonzero(on_rim)[0])

    mid = n + inverse.reshape(-1, 3)  # columns: m01, m12, m20 per parent
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    m01, m12, m20 = mid[:, 0], mid[:, 1], mid[:, 2]
    children = np.stack([
        np.column_stack([a, m01, m20]),
        np.column_stack([b, m12, m01]),
        np.column_stack([c, m20, m12]),
        np.column_stack([m01, m12, m20]),
    ], axis=1).reshape(-1, 3)

    return Mesh(
        level=mesh.level + 1,
        nodes=new_nodes,
        triangles=children,
        boundary=new_boundary,
        patch_id=np.repeat(mesh.patch_id, 4),
        refinements=mesh.refinements + (edges,),
    )


def displace(mesh: Mesh, displacement: np.ndarray) -> Mesh:
    """Move every node by its displacement vector, keeping the topology
    (the moved mesh shares `refinements` and `topology`).

    The moved mesh's `geometry` is computed here, in the same pass that
    checks its areas, so the solves on it never compute it again.

    Raises
    ------
    DegenerateDeformation
        If any triangle of the moved mesh has signed area at or below
        the degeneracy threshold, i.e. the deformation is (numerically)
        not orientation preserving, or a NaN area.
    """
    disp = np.asarray(displacement, dtype=float)
    if disp.shape != mesh.nodes.shape:
        raise ValueError(
            f"displacement shape {disp.shape} does not match nodes {mesh.nodes.shape}")
    moved = Mesh(
        level=mesh.level,
        nodes=mesh.nodes + disp,
        triangles=mesh.triangles,
        boundary=mesh.boundary,
        patch_id=mesh.patch_id,
        refinements=mesh.refinements,
        topology=mesh.topology,
    )
    moved._cache["geometry"] = compute_geometry(moved.nodes, moved.triangles,
                                                min_area=DEGENERACY_EPS)
    return moved


def min_angle_deg(mesh: Mesh) -> float:
    """Smallest interior angle over all triangles, in degrees."""
    p = mesh.nodes
    t = mesh.triangles
    va, vb, vc = p[t[:, 0]], p[t[:, 1]], p[t[:, 2]]
    angles = []
    for corner, left, right in ((va, vb, vc), (vb, vc, va), (vc, va, vb)):
        u = left - corner
        v = right - corner
        cosang = np.sum(u * v, axis=1) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
        angles.append(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))
    return float(np.min(angles))


def mesh_to_text(mesh: Mesh) -> str:
    """ASCII dump: header, node lines, triangle lines (with patch id), boundary line."""
    lines = [f"nodes {mesh.n_nodes} triangles {mesh.n_triangles} level {mesh.level}"]
    for x, y in mesh.nodes:
        lines.append(f"{fmt(x)} {fmt(y)}")
    for (i, j, k), pid in zip(mesh.triangles, mesh.patch_id):
        lines.append(f"{i} {j} {k} {pid}")
    lines.append(" ".join(str(i) for i in mesh.boundary))
    return "\n".join(lines) + "\n"


def mesh_from_text(text: str) -> Mesh:
    lines = text.splitlines()
    header = lines[0].split()
    if header[0] != "nodes" or header[2] != "triangles" or header[4] != "level":
        raise ValueError(f"bad mesh header: {lines[0]!r}")
    n, m, level = int(header[1]), int(header[3]), int(header[5])
    nodes = np.array([[float(v) for v in lines[1 + i].split()] for i in range(n)])
    tri_rows = [[int(v) for v in lines[1 + n + i].split()] for i in range(m)]
    triangles = np.array([r[:3] for r in tri_rows], dtype=np.int64)
    patch_id = np.array([r[3] for r in tri_rows], dtype=np.int64)
    boundary_line = lines[1 + n + m].split()
    boundary = np.array([int(v) for v in boundary_line], dtype=np.int64)
    return Mesh(level=level, nodes=nodes, triangles=triangles,
                boundary=boundary, patch_id=patch_id)


def save_mesh(mesh: Mesh, path) -> None:
    with open(path, "w") as f:
        f.write(mesh_to_text(mesh))


def load_mesh(path) -> Mesh:
    with open(path) as f:
        return mesh_from_text(f.read())
