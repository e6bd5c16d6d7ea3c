import numpy as np
import pytest
from scipy.sparse import csr_matrix

import domainuq as dq
import domainuq.fem as fem
from domainuq.errors import MeshMismatch
from domainuq.fields import (HoldAllGrid, ScalarFieldKL, eval_displacement,
                             eval_mean, eval_rough)
from domainuq.lowrank import KLBasis
from domainuq.mesh import build_disc_mesh, displace
from domainuq.perturb import remainders, solve_block
from domainuq.uq import Statistics

#: One line per acceptance criterion, echoed after the run.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.ensure_newline()
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def mesh2():
    return dq.build_disc_mesh(2)


@pytest.fixture(scope="session")
def mesh3():
    return dq.build_disc_mesh(3)


@pytest.fixture(scope="session")
def mesh4():
    return dq.build_disc_mesh(4)


@pytest.fixture(scope="session")
def mesh5():
    return dq.build_disc_mesh(5)


@pytest.fixture(scope="session")
def vf3(mesh3):
    return dq.build_vector_field_kl(mesh3, 1e-2)


@pytest.fixture(scope="session")
def vf4(mesh4):
    return dq.build_vector_field_kl(mesh4, 1e-2)


@pytest.fixture(scope="session")
def vf5(mesh5):
    return dq.build_vector_field_kl(mesh5, 1e-2)


@pytest.fixture(scope="session")
def sf64():
    return dq.build_coefficient_kl(64, 1e-2)


@pytest.fixture(scope="session")
def unit_coefficient():
    """Coefficient field with a_s identically 1 and no random modes."""
    grid = HoldAllGrid(16)
    basis = KLBasis(np.zeros(0), np.zeros((0, grid.n_vertices)))
    return ScalarFieldKL(grid=grid, mean=np.ones(grid.n_vertices), basis=basis)


@pytest.fixture(scope="session")
def unit_triangle():
    """A single unit right triangle as an ad-hoc mesh."""
    from domainuq.mesh import Mesh
    return Mesh(
        level=0,
        nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
        boundary=np.array([], dtype=np.int64),
        patch_id=np.array([0]),
    )


def freeze(acc):
    """The Statistics of a vector `uq.RunningMoments`."""
    return Statistics(weight=float(acc.count), mean=acc.mean.copy(),
                      second_central=acc.m2.copy(), weighted=False)


class DenseOracle:
    """`pivoted_cholesky` access to an explicitly stored symmetric matrix."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=float)
        self.n = self.matrix.shape[0]

    def diagonal(self):
        return self.matrix.diagonal()

    def column(self, j):
        return self.matrix[:, j]


def taylor_remainders(mesh, vf, sf, sample, eps_list):
    """Taylor remainders of one sample at each of `eps_list`, from one
    `solve_block` of u0 and each distinct nonzero amplitude, ascending."""
    columns = [0.0] + sorted({float(eps) for eps in eps_list} - {0.0})
    u, delta = solve_block(mesh, vf, sf, [sample.z], [sample.y], columns,
                           with_delta=True)
    rems = dict(zip(columns, remainders(mesh, u[0], delta[0], columns)))
    return [rems[float(eps)] for eps in eps_list]


def reference_signed_areas(mesh):
    """Signed areas from gathered (n, 2) point rows, the formula the
    one-pass geometry must reproduce bit for bit."""
    p, t = mesh.nodes, mesh.triangles
    e1 = p[t[:, 1]] - p[t[:, 0]]
    e2 = p[t[:, 2]] - p[t[:, 0]]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def reference_geometry(mesh):
    """Areas, P1 gradients, edge midpoints and gradient products from
    gathered point rows and `einsum`."""
    p, t = mesh.nodes, mesh.triangles
    v0, v1, v2 = p[t[:, 0]], p[t[:, 1]], p[t[:, 2]]
    det = ((v1[:, 0] - v0[:, 0]) * (v2[:, 1] - v0[:, 1])
           - (v1[:, 1] - v0[:, 1]) * (v2[:, 0] - v0[:, 0]))
    grads = np.empty((len(t), 3, 2))
    grads[:, 0, 0] = v1[:, 1] - v2[:, 1]
    grads[:, 0, 1] = v2[:, 0] - v1[:, 0]
    grads[:, 1, 0] = v2[:, 1] - v0[:, 1]
    grads[:, 1, 1] = v0[:, 0] - v2[:, 0]
    grads[:, 2, 0] = v0[:, 1] - v1[:, 1]
    grads[:, 2, 1] = v1[:, 0] - v0[:, 0]
    grads /= det[:, None, None]
    qpoints = np.stack([0.5 * (v1 + v2), 0.5 * (v0 + v2), 0.5 * (v0 + v1)],
                       axis=1)
    return (0.5 * det, grads, qpoints,
            np.einsum("mid,mjd->mij", grads, grads))


def smoothly_displaced(level, seed):
    """A level-`level` disc mesh moved by a small smooth random field."""
    mesh = build_disc_mesh(level)
    a = np.random.default_rng(seed).uniform(-1.0, 1.0, size=4)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    disp = 0.03 * np.column_stack([np.sin(a[0] * x + a[1] * y),
                                   np.cos(a[2] * x - a[3] * y)])
    return displace(mesh, disp)


def at_quadrature(mesh, fn):
    """(m, 3) values at the edge midpoints of each element (point q
    opposite vertex q) of a function of (k, 2) points, or of a constant."""
    qpoints = reference_geometry(mesh)[2].reshape(-1, 2)
    values = np.asarray(fn(qpoints), dtype=float)
    return np.broadcast_to(values, (len(qpoints),)).reshape(-1, 3)


def reference_pattern(mesh):
    """(indptr, indices, slots) of the CSR structure of the full 3x3
    element matrices: `slots[k]` is the position in the CSR data of entry
    k of the flattened (m, 3, 3) element matrices."""
    t, n = mesh.triangles, mesh.n_nodes
    rows = np.repeat(t, 3, axis=1).reshape(-1)
    cols = np.tile(t, (1, 3)).reshape(-1)
    keys = rows * n + cols
    unique = np.unique(keys)
    counts = np.bincount(unique // n, minlength=n)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    return (indptr, (unique % n).astype(np.int32),
            np.searchsorted(unique, keys))


def reference_scatter(mesh, local):
    """Sum (m, 3, 3) element matrices into a full CSR matrix, duplicates
    in element order: the sums the term assembly must reproduce bit for
    bit."""
    indptr, indices, slots = reference_pattern(mesh)
    n = mesh.n_nodes
    data = np.bincount(slots, weights=local.reshape(-1),
                       minlength=len(indices))
    return csr_matrix((data, indices, indptr), shape=(n, n))


def reference_stiffness(mesh, coeff):
    """Full CSR stiffness matrix of a coefficient given as a function of
    the points or as its (m, 3) values at the quadrature points."""
    areas, _, _, products = reference_geometry(mesh)
    aq = at_quadrature(mesh, coeff) if callable(coeff) else coeff
    return reference_scatter(
        mesh, (aq.mean(axis=1) * areas)[:, None, None] * products)


def reference_mass(mesh):
    """Full CSR P1 mass matrix from 3x3 element matrices."""
    base = (np.ones((3, 3)) + np.eye(3)) / 12.0
    return reference_scatter(
        mesh, reference_geometry(mesh)[0][:, None, None] * base)


def nodal_sum(mesh, local):
    """Sum (m, 3) element vectors into a full nodal vector."""
    return np.bincount(mesh.triangles.reshape(-1), weights=local.reshape(-1),
                       minlength=mesh.n_nodes)


def reference_load(mesh, f):
    """Full load vector b_i = int f phi_i dx of a function of the points
    or its (m, 3) quadrature values; phi_i is 1/2 at the two midpoints of
    the edges through vertex i and 0 at the third."""
    fq = at_quadrature(mesh, f) if callable(f) else f
    return nodal_sum(mesh, (reference_geometry(mesh)[0] / 3.0)[:, None]
                     * (fq @ ((1.0 - np.eye(3)) / 2.0)))


def reference_perturbation_load(mesh, aq, u0):
    """Full load -int a grad(u0) . grad(phi_i) dx from (m, 3) values of a."""
    areas, grads, _, _ = reference_geometry(mesh)
    grad_u = np.einsum("mi,mid->md", u0[mesh.triangles], grads)
    return nodal_sum(mesh, -(aq.mean(axis=1) * areas)[:, None]
                     * np.einsum("md,mjd->mj", grad_u, grads))


def interior_gather(mesh, K):
    """Interior CSR data of a full matrix in the layout of the topology's
    `ReferenceSolver`; MeshMismatch unless `K` has the topology's pattern."""
    indptr, indices, _ = reference_pattern(mesh)
    n = mesh.n_nodes
    if K.shape != (n, n) or not (np.array_equal(K.indptr, indptr)
                                 and np.array_equal(K.indices, indices)):
        raise MeshMismatch("matrix pattern differs from the topology's")
    inside = np.ones(n, dtype=bool)
    inside[mesh.boundary] = False
    rows = np.repeat(np.arange(n), np.diff(indptr))
    return K.data[inside[rows] & inside[indices]]


def interior_matrix(ref, data):
    """The scipy matrix of the interior CSR data `data` of `ref`, a
    topology's `ReferenceSolver`."""
    m = len(ref.interior)
    return csr_matrix((data, ref.indices, ref.indptr), shape=(m, m))


def scipy_prolongation(edges, n_coarse, fine_interior, coarse_interior):
    """`fem._prolongation` as scipy's COO-to-CSR conversion builds it."""
    from scipy.sparse import coo_matrix
    column = np.full(n_coarse, -1)
    column[coarse_interior] = np.arange(len(coarse_interior))
    n_parents = len(coarse_interior)
    mids = fine_interior[n_parents:]
    ends = column[edges[mids - n_coarse]]
    rows = np.concatenate([np.arange(n_parents),
                           np.repeat(n_parents + np.arange(len(mids)), 2)])
    cols = np.concatenate([np.arange(n_parents), ends.reshape(-1)])
    vals = np.concatenate([np.ones(n_parents), np.full(ends.size, 0.5)])
    keep = cols >= 0
    return coo_matrix((vals[keep], (rows[keep], cols[keep])),
                      shape=(len(fine_interior), n_parents)).tocsr()


def scipy_hierarchy(mesh):
    """The V-cycle hierarchy of `mesh`'s topology built with scipy's
    operators: the arguments of each level's `fem._prolongation` with
    scipy's matrix of it, each level's `(S, G, G^T)`, with `S = 2W - W A W`
    and `G = P - W A P`, and the coarse dense matrix."""
    from scipy.sparse import diags
    ref = fem.reference_solver(mesh)
    g = fem.compute_geometry(mesh.topology.reference_nodes, mesh.triangles)
    A = interior_matrix(ref, fem._stiffness_terms(mesh, g, g.areas)[
        ref.slots])
    steps = max(0, min(len(mesh.refinements),
                       mesh.level - fem.COARSE_LEVEL))
    prolongations, levels = [], []
    fine_interior, n_fine = ref.interior, mesh.n_nodes
    for edges in mesh.refinements[len(mesh.refinements) - steps:][::-1]:
        n_coarse = n_fine - len(edges)
        coarse_interior = fine_interior[fine_interior < n_coarse]
        args = (edges, n_coarse, fine_interior, coarse_interior)
        P = scipy_prolongation(*args)
        W = diags(fem.SMOOTHING_WEIGHT / A.diagonal())
        WA = W @ A
        G = (P - WA @ P).tocsr()
        levels.append(((2.0 * W - WA @ W).tocsr(), G, G.T.tocsr()))
        prolongations.append((args, P))
        A = (P.T.tocsr() @ A @ P).tocsr()
        fine_interior, n_fine = coarse_interior, n_coarse
    return prolongations, levels, A.toarray()


def matrix_solve(K, b, mesh, diag_out=None):
    """Dirichlet solve of a full matrix for one (n,) load, or for each
    column of (n, k) loads, as a block of k copies of its interior data."""
    loads = np.reshape(b, (mesh.n_nodes, -1))[
        fem.reference_solver(mesh).interior].T
    data = np.tile(interior_gather(mesh, K), (len(loads), 1))
    fields = fem.solve_dirichlet(data, loads, mesh, diag_out=diag_out)
    return fields[0] if np.ndim(b) == 1 else fields


def reference_realization(mesh, vf, sf, z, y=None, amplitudes=(0.0,)):
    """Interior matrix data, one row per amplitude c of `K_s + c * K_r`,
    and the interior load of one domain realization, by the per-element
    route: each element's own quadrature points located with `stencil`,
    full matrices and vectors summed by `reference_stiffness` and
    `reference_load`, then the interior gathers."""
    deformed = displace(mesh, eval_displacement(vf, z))
    stencil = sf.grid.stencil(reference_geometry(deformed)[2].reshape(-1, 2))

    def interior_stiffness(values):
        return interior_gather(
            mesh, reference_stiffness(deformed, values.reshape(-1, 3)))

    ks = interior_stiffness(eval_mean(sf, stencil))
    load = reference_load(deformed, lambda p: 1.0)[
        fem.reference_solver(mesh).interior]
    if y is None:
        return np.tile(ks, (len(amplitudes), 1)), load
    kr = interior_stiffness(eval_rough(sf, stencil, y))
    return np.multiply.outer(amplitudes, kr) + ks, load
