"""P1 finite elements on triangle meshes: assembly, Dirichlet solves, norms.

All coefficient-dependent integrals use the same 3-point edge-midpoint rule
(exact for quadratic integrands).  Using one rule everywhere keeps the
assembly exactly linear in the coefficient, which the perturbation solves
rely on.  Stiffness and mass matrices are stored in CSR format with the
sparsity pattern of their mesh topology (the diagonal and both directions
of every edge), built once per topology and shared by every displaced copy
of the mesh.  No element matrix is formed: a matrix is summed as its term
vector, per-element corner terms into the diagonal and per-element edge
terms into the edges of `mesh.edges`, one `np.bincount` each.  The solver
consumes interior CSR data, one gather from the term vector through the
topology's `ReferenceSolver`, and interior loads summed straight into the
interior layout, so a domain realization builds no matrix.  The mass
matrix and the H1 gram matrix of the norms are full CSR matrices.

Every sparse product runs one of scipy's compiled CSR kernels on
`CSRArrays`, called as scipy's own operators call them, so every result
has the bits scipy's `@`, `-`, `.T` and `.toarray()` give.  `_kernels`
loads the extension module that holds them, `scipy.sparse._sparsetools`,
on first use and on its own: the commands never import `scipy` or
`scipy.sparse`, whose import costs more than a small run's solves.

Dirichlet problems are solved by conjugate gradients preconditioned with a
geometric multigrid V-cycle for the unit-coefficient Laplacian on the
reference (undeformed) mesh.  A mildly deformed domain with a coefficient
bounded above and below gives an operator spectrally equivalent to that
one, so one preconditioner, built once per topology, serves every solve and
keeps the iteration count independent of the mesh size.  Because the
preconditioner is fixed and every matrix has the topology's sparsity
pattern, `solve_dirichlet` runs a block of systems `A_j u_j = b_j` in
lockstep, where each column j has its own interior matrix data: the
columns may come from several domain realizations and amplitudes.  The
block is held as (k, m) in C order; each iteration applies each
unconverged column's matrix as its own CSR product on the topology's
shared index arrays, and the V-cycle as one multi-vector product to all of
them, so the preconditioner's per-call overhead is paid once per block and
no structure grows with the block's width.

A solution is a plain float array of node values: `solve_dirichlet`
returns one row per column, and the norms and the field writer take one
such row.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import MeshMismatch, NonFiniteValue, SolverDiverged
from .mesh import (Edges, Geometry, Mesh, compute_geometry, edges, geometry,
                   signed_areas)
from .textio import fmt

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

#: Relative residual target of the conjugate gradient solver.
CG_RTOL = 1e-10

#: Iteration cap factor: at most this many iterations per unknown.
CG_CAP_FACTOR = 10

#: The V-cycle inverts the operator densely at this refinement level
#: (113 interior unknowns on the disc) or at the mesh's own level if lower.
COARSE_LEVEL = 3

#: Damping of the Jacobi sweeps of the V-cycle.
SMOOTHING_WEIGHT = 2.0 / 3.0


class CSRArrays(NamedTuple):
    """The arrays of a CSR matrix, without scipy: row r holds the entries
    `indptr[r]:indptr[r + 1]` of `data` and their columns in `indices`."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple

    def tocsr(self) -> csr_matrix:
        """The scipy matrix on these arrays, which it shares."""
        from scipy.sparse import csr_matrix
        return csr_matrix((self.data, self.indices, self.indptr),
                          shape=self.shape)


#: The extension module of scipy's compiled sparse kernels.
KERNELS_MODULE = "scipy.sparse._sparsetools"


@functools.cache
def _kernels():
    """scipy's compiled sparse kernels, `scipy.sparse._sparsetools`.

    The module already imported with `scipy.sparse`, if there is one;
    otherwise the extension file itself, found through the location of
    the `scipy` package (which `find_spec` does not run) and loaded under
    its own name, so `scipy` and `scipy.sparse` stay unimported.  The
    kernels check no sizes, and every index array handed to them here is
    int32, so none is converted.

    Raises ImportError if scipy's `sparse` folder holds no such extension.
    """
    loaded = sys.modules.get(KERNELS_MODULE)
    if loaded is not None:
        return loaded
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy is not installed")
    folder = os.path.join(spec.submodule_search_locations[0], "sparse")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_sparsetools" + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(KERNELS_MODULE,
                                                             path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_loader(KERNELS_MODULE, loader))
            loader.exec_module(module)
            sys.modules[KERNELS_MODULE] = module
            return module
    raise ImportError(f"no compiled {KERNELS_MODULE} in {folder}")


def _arrays(a) -> tuple:
    """`(indptr, indices, data)` of a CSR matrix (`CSRArrays` or scipy's),
    in the order the kernels take them."""
    return a.indptr, a.indices, a.data


def _kernel_csr(name: str, shape: tuple, nnz: int, *args) -> CSRArrays:
    """The CSR matrix of `shape` that the kernel `name` writes, called
    with `args` and then arrays with room for `nnz` entries, cut to the
    entries it wrote."""
    indptr = np.empty(shape[0] + 1, dtype=np.int32)
    indices = np.empty(nnz, dtype=np.int32)
    data = np.empty(nnz)
    getattr(_kernels(), name)(*args, indptr, indices, data)
    nnz = indptr[-1]
    return CSRArrays(data[:nnz].copy(), indices[:nnz].copy(), indptr, shape)


def _matmat(a: CSRArrays, b: CSRArrays) -> CSRArrays:
    """`a @ b`, as scipy's `csr_matmat` leaves it: each row's columns in
    the reverse order of their first contribution, exact zeros dropped."""
    (m, _), (_, n) = a.shape, b.shape
    nnz = _kernels().csr_matmat_maxnnz(m, n, a.indptr, a.indices, b.indptr,
                                       b.indices)
    return _kernel_csr("csr_matmat", (m, n), nnz, m, n, *_arrays(a),
                       *_arrays(b))


def _minus(a: CSRArrays, b: CSRArrays) -> CSRArrays:
    """`a - b` on matrices of one shape, as scipy's `csr_minus_csr` leaves
    it (exact zeros dropped)."""
    return _kernel_csr("csr_minus_csr", a.shape, len(a.data) + len(b.data),
                       *a.shape, *_arrays(a), *_arrays(b))


def _transpose(a: CSRArrays) -> CSRArrays:
    """`a.T` in CSR, as scipy's `csr_tocsc` writes it: each row's columns
    ascending, in the order of `a`'s rows."""
    return _kernel_csr("csr_tocsc", a.shape[::-1], len(a.data), *a.shape,
                       *_arrays(a))


def _diagonal_matrix(values: np.ndarray) -> CSRArrays:
    """The diagonal matrix of the non-zero `values`, as scipy's
    `diags(values).tocsr()`."""
    index = np.arange(len(values) + 1, dtype=np.int32)
    return CSRArrays(values, index[:-1], index, (len(values), len(values)))


def csr_product(a: CSRArrays, x: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """Add `a @ x` into `out` (zeros if not given) and return it, for a
    vector or a block of columns `x`, with the bits of scipy's `@`: its
    kernel `csr_matvec` for a vector or a single column, `csr_matvecs` for
    more.  The kernels write into `out` in place, so it must be C-ordered;
    sizes are not checked."""
    m, n = a.shape
    if out is None:
        out = np.zeros((m,) + x.shape[1:])
    elif not out.flags.c_contiguous:
        raise ValueError("the product is written into a C-ordered array")
    if x.ndim == 1 or x.shape[1] == 1:
        _kernels().csr_matvec(m, n, *_arrays(a), x.ravel(), out.ravel())
    else:
        _kernels().csr_matvecs(m, n, x.shape[1], *_arrays(a), x.ravel(),
                               out.ravel())
    return out


@dataclass(frozen=True)
class _Pattern:
    """CSR structure of the P1 matrices of one topology: the diagonal and
    both directions of every edge, rows holding sorted column indices.

    A matrix is summed as its term vector, the n diagonal entries followed
    by one value per edge of `mesh.edges`, and `terms[p]` is the position
    in that vector of CSR entry p, so a full matrix is one gather.
    """

    indptr: np.ndarray
    indices: np.ndarray
    terms: np.ndarray

    @classmethod
    def build(cls, listed: Edges, n: int) -> "_Pattern":
        # Row r holds the edges whose higher end is r (ascending lower
        # end), its diagonal, then the edges whose lower end is r
        # (ascending higher end: their order in `listed`).  Placing each
        # entry by counting, without sorting all of them, keeps the
        # temporaries to a few edge-sized arrays.
        lo, hi = listed.ends
        edge = np.arange(len(lo))
        below = np.bincount(hi, minlength=n)
        above = np.bincount(lo, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(below + above + 1, out=indptr[1:])
        diagonal = indptr[:-1] + below
        upper = edge + (diagonal + 1 - (np.cumsum(above) - above))[lo]
        by_hi = np.argsort(hi, kind="stable")
        lower = np.empty_like(upper)
        lower[by_hi] = edge + (indptr[:-1] - (np.cumsum(below) - below))[
            hi[by_hi]]
        indices = np.empty(indptr[-1], dtype=np.int32)
        terms = np.empty(indptr[-1], dtype=np.intp)
        indices[diagonal] = terms[diagonal] = np.arange(n)
        indices[upper], indices[lower] = hi, lo
        terms[upper] = terms[lower] = n + edge
        return cls(indptr=indptr, indices=indices, terms=terms)


def _pattern(mesh: Mesh) -> _Pattern:
    return mesh.topology.cached(
        "pattern", lambda: _Pattern.build(edges(mesh), mesh.n_nodes))


def _sum_terms(mesh: Mesh, corner: np.ndarray, edge: np.ndarray) -> np.ndarray:
    """The term vector of a matrix from (m, 3) element terms: corner term
    k of an element goes to the diagonal entry of its vertex k, edge term
    k to both entries of the edge opposite vertex k.

    Each diagonal entry sums its corner terms in element order, and each
    edge its at most two terms, so every entry has the bits of the sum of
    full 3x3 element matrices in element order.
    """
    return np.concatenate([
        np.bincount(mesh.triangles.reshape(-1), weights=corner.reshape(-1),
                    minlength=mesh.n_nodes),
        np.bincount(edges(mesh).of_element.reshape(-1),
                    weights=edge.reshape(-1))])


def _matrix(mesh: Mesh, terms: np.ndarray) -> CSRArrays:
    """The full CSR arrays of a term vector; every matrix assembled on a
    topology has the same `indptr` and `indices`."""
    pattern = _pattern(mesh)
    n = mesh.n_nodes
    return CSRArrays(terms[pattern.terms], pattern.indices, pattern.indptr,
                     (n, n))


def _element_mean(values_q: np.ndarray) -> np.ndarray:
    """Mean of each element's three quadrature values: their sum in
    point order divided by 3, the bits `values_q.mean(axis=1)` gives,
    without the cost of a numpy reduction over a length-3 axis."""
    return (values_q[:, 0] + values_q[:, 1] + values_q[:, 2]) / 3.0


def _stiffness_terms(mesh: Mesh, g: Geometry, weights) -> np.ndarray:
    """The term vector of the stiffness whose element e has the weight
    `w = weights[e]` (its mean coefficient times its area): for each
    corner k, the corner term `w * (gx_k^2 + gy_k^2)` and the edge term
    `w * (gx_i gx_j + gy_i gy_j)` of the corners i, j opposite k."""
    gx, gy = g.grad_components
    corner = np.empty((len(weights), 3))
    edge = np.empty_like(corner)
    for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(weights, gx[k] * gx[k] + gy[k] * gy[k], out=corner[:, k])
        np.multiply(weights, gx[i] * gx[j] + gy[i] * gy[j], out=edge[:, k])
    return _sum_terms(mesh, corner, edge)


def stiffness_from_qvalues(mesh: Mesh, coeff_q: np.ndarray) -> np.ndarray:
    """Interior CSR data, in the layout of the topology's
    `ReferenceSolver`, of the stiffness of the coefficient with the values
    `coeff_q` at the (m, 3) quadrature points, summed without building the
    matrix."""
    g = geometry(mesh)
    terms = _stiffness_terms(mesh, g, _element_mean(coeff_q) * g.areas)
    return terms[reference_solver(mesh).slots]


def _mass_terms(mesh: Mesh) -> np.ndarray:
    areas = signed_areas(mesh)
    return _sum_terms(mesh, np.repeat(areas * (2.0 / 12.0), 3),
                      np.repeat(areas * (1.0 / 12.0), 3))


def mass_arrays(mesh: Mesh) -> CSRArrays:
    """Exact P1 mass matrix, M_ij = int phi_i phi_j dX, as CSR arrays:
    corner terms `area * 2/12` and edge terms `area * 1/12`.

    Only the areas are needed, so a mesh without a `geometry` does not get
    one: the KL build then keeps no per-element arrays while it factorizes.
    """
    return _matrix(mesh, _mass_terms(mesh))


def assemble_mass(mesh: Mesh) -> csr_matrix:
    """The P1 mass matrix of `mass_arrays` as a scipy CSR matrix."""
    return mass_arrays(mesh).tocsr()


def perturbation_load_from_qvalues(mesh: Mesh, aq: np.ndarray,
                                   u0_values: np.ndarray) -> np.ndarray:
    """Interior entries of the load -int a_r grad(u0) . grad(phi_i) dx,
    from the (m, 3) quadrature values of a_r."""
    g = geometry(mesh)
    grad_u = np.einsum("mi,mid->md", u0_values[mesh.triangles], g.grads)
    gdot = np.einsum("md,mjd->mj", grad_u, g.grads)
    abar = _element_mean(aq)
    return reference_solver(mesh).interior_vector(
        -(abar * g.areas)[:, None] * gdot)


def _prolongation(edges: np.ndarray, n_coarse: int, fine_interior: np.ndarray,
                  coarse_interior: np.ndarray) -> CSRArrays:
    """Interpolation from coarse to fine interior nodes of one refinement.

    A parent node keeps its value; a midpoint takes the mean of its edge
    endpoints, where boundary endpoints carry the Dirichlet zero.  Each
    row holds its columns ascending, as scipy's COO-to-CSR conversion
    leaves them.
    """
    column = np.full(n_coarse, -1, dtype=np.int32)
    column[coarse_interior] = np.arange(len(coarse_interior))
    n_parents = len(coarse_interior)  # fine_interior lists them first
    mids = fine_interior[n_parents:]
    ends = np.sort(column[edges[mids - n_coarse]], axis=1)
    rows = np.concatenate([np.arange(n_parents),
                           np.repeat(n_parents + np.arange(len(mids)), 2)])
    cols = np.concatenate([np.arange(n_parents, dtype=np.int32),
                           ends.reshape(-1)])
    vals = np.concatenate([np.ones(n_parents), np.full(ends.size, 0.5)])
    keep = cols >= 0
    indptr = np.zeros(len(fine_interior) + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows[keep], minlength=len(fine_interior)),
              out=indptr[1:])
    return CSRArrays(vals[keep], cols[keep], indptr,
                     (len(fine_interior), n_parents))


class ReferenceSolver:
    """Interior restriction and multigrid preconditioner of one topology.

    Every matrix assembled on a mesh, or on a mesh displaced from it, has
    the sparsity pattern of that topology.  Built once per topology, this
    object holds

    * `slots`, `indptr`, `indices`: the positions in a matrix's term
      vector (its diagonal, then its edge sums) of its interior-interior
      entries, and the CSR structure they form, so eliminating the
      Dirichlet boundary is one gather;
    * `element_nodes`, int32: the interior index of every corner of the
      flattened (m, 3) element vectors, with one dummy index past the end
      for those on the boundary, so assembling a load straight into the
      interior layout is one `np.bincount`;
    * through `matvec`, the product of a block of interior matrices, one
      per row of their CSR data, each on the shared `indptr` and `indices`,
      so a block of any width adds no index arrays;
    * a V-cycle for the unit-coefficient interior stiffness of the
      reference mesh: Galerkin coarse operators `P^T A P` along the
      refinement chain (`P` keeps parent values and averages the two edge
      endpoints at midpoints), one damped Jacobi sweep (weights `W`)
      before and one after each coarse correction, and a dense inverse at
      level `min(level, COARSE_LEVEL)`.  Both sweeps apply the same
      symmetric smoother, so the V-cycle is symmetric and positive
      definite.  Each level stores the sweeps and the transfers folded
      into two sparse matrices, so one level of a V-cycle `V` applied to
      `r` is `S r + G V_coarse(G^T r)`, with `S = 2W - W A W` and
      `G = (I - W A) P`: three sparse products per level instead of four
      and a handful of vector updates.  `_levels` holds `(S, G, G^T)` per
      level as `CSRArrays`, built by the kernels that scipy's operators
      call for `2 * W - W @ A @ W`, `P - W @ A @ P` and `G.T.tocsr()`, in
      their order, so they hold scipy's entries in scipy's order.

    A mesh without a refinement chain (one read from text, say) is its
    own coarsest level, inverted densely.
    """

    def __init__(self, mesh: Mesh):
        kernels = _kernels()
        pattern = _pattern(mesh)
        n = mesh.n_nodes
        self.n_nodes = n
        is_interior = np.ones(n, dtype=bool)
        is_interior[mesh.boundary] = False
        self.interior = np.flatnonzero(is_interior)
        rows = np.repeat(np.arange(n), np.diff(pattern.indptr))
        keep = is_interior[rows] & is_interior[pattern.indices]
        relabel = np.cumsum(is_interior) - 1
        m = len(self.interior)
        counts = np.bincount(relabel[rows[keep]], minlength=m)
        self.slots = pattern.terms[keep]
        self.indices = relabel[pattern.indices[keep]].astype(np.int32)
        self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
        self.element_nodes = np.where(is_interior, relabel, m).astype(
            np.int32)[mesh.triangles].reshape(-1)

        reference = compute_geometry(mesh.topology.reference_nodes,
                                     mesh.triangles)
        A = CSRArrays(_stiffness_terms(mesh, reference,
                                       reference.areas)[self.slots],
                      self.indices, self.indptr, (m, m))
        steps = max(0, min(len(mesh.refinements), mesh.level - COARSE_LEVEL))
        self._levels = []
        fine_interior, n_fine = self.interior, n
        for edges in mesh.refinements[len(mesh.refinements) - steps:][::-1]:
            n_coarse = n_fine - len(edges)
            coarse_interior = fine_interior[fine_interior < n_coarse]
            P = _prolongation(edges, n_coarse, fine_interior, coarse_interior)
            diagonal = np.empty(A.shape[0])
            kernels.csr_diagonal(0, *A.shape, *_arrays(A), diagonal)
            weights = SMOOTHING_WEIGHT / diagonal
            W = _diagonal_matrix(weights)
            WA = _matmat(W, A)
            G = _minus(P, _matmat(WA, P))
            S = _minus(_diagonal_matrix(2.0 * weights), _matmat(WA, W))
            self._levels.append((S, G, _transpose(G)))
            A = _matmat(_matmat(_transpose(P), A), P)
            fine_interior, n_fine = coarse_interior, n_coarse
        dense = np.zeros(A.shape)
        kernels.csr_todense(*A.shape, *_arrays(A), dense)
        inverse = np.linalg.inv(dense)
        self._coarse_inverse = 0.5 * (inverse + inverse.T)

    def interior_vector(self, local: np.ndarray) -> np.ndarray:
        """Interior entries of the sum of (m, 3) element vectors."""
        return np.bincount(self.element_nodes, weights=local.reshape(-1),
                           minlength=len(self.interior) + 1)[:-1]

    def matvec(self, data: np.ndarray, rows, x: np.ndarray) -> np.ndarray:
        """Row i of the (len(x), m) result is the interior matrix with the
        CSR data `data[rows[i]]` applied to `x[i]`, bit for bit what
        scipy's `@` of that matrix and `x[i]` gives: both call
        `csr_matvec` into zeros.  `x` must be a C-ordered float block, and
        each row of `data` a contiguous float vector.  Raises MeshMismatch
        unless their sizes are the topology's, which the kernel does not
        check."""
        m = len(self.interior)
        if data.shape[-1] != len(self.indices) or x.shape[1:] != (m,):
            raise MeshMismatch(
                f"matrix data of {data.shape} and vectors of {x.shape}, the "
                f"topology has {len(self.indices)} interior entries and "
                f"{m} interior nodes")
        out = np.zeros((len(x), m))
        csr_matvec = _kernels().csr_matvec
        for i, j in enumerate(rows):
            csr_matvec(m, m, self.indptr, self.indices, data[j], x[i], out[i])
        return out

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """One V-cycle applied to each row of a (k, m) block of interior
        residuals, as one multi-vector product."""
        return np.ascontiguousarray(self._vcycle(0, r.T.copy()).T)

    def _vcycle(self, k: int, r: np.ndarray) -> np.ndarray:
        if k == len(self._levels):
            return self._coarse_inverse @ r
        S, G, Gt = self._levels[k]
        x = csr_product(S, r)
        x += csr_product(G, self._vcycle(k + 1, csr_product(Gt, r)))
        return x


def reference_solver(mesh: Mesh) -> ReferenceSolver:
    """The ReferenceSolver of the mesh's topology, built on first use."""
    return mesh.topology.cached("reference_solver",
                                lambda: ReferenceSolver(mesh))


def _first_non_finite(block: np.ndarray):
    """Index of the first row of `block` holding a NaN or an infinity, or None."""
    bad = np.flatnonzero(~np.isfinite(block).all(axis=1))
    return int(bad[0]) if bad.size else None


def solve_dirichlet(K: np.ndarray, b: np.ndarray, mesh: Mesh,
                    diag_out: dict | None = None) -> np.ndarray:
    """Solve a block of Dirichlet problems A_j u_j = b_j, with u_j = 0 on
    the boundary nodes of `mesh`, for every column j at once.

    The columns may be drawn from several domain realizations on the
    topology of `mesh` and from several amplitudes.  `K` is a (k, nnz)
    array whose row j holds the interior CSR data of A_j, in the layout of
    the topology's `ReferenceSolver` (as `stiffness_from_qvalues`
    assembles it), and `b` the (k, m) array of interior loads.  `K` is
    only read: a read-only block, or a view of every few rows of one, is
    used as it is, and copied only if its rows are not contiguous float
    vectors.

    Boundary unknowns are eliminated symmetrically (the system is
    restricted to the interior), and the columns are solved in lockstep by
    conjugate gradients preconditioned with one V-cycle of the topology's
    `ReferenceSolver`: every iteration applies each unconverged column's
    own matrix, and the V-cycle to all of them at once.  A column
    that reaches its own relative residual target `CG_RTOL` is frozen, so
    it takes the iterations of a one-column solve and agrees with it to
    rounding.  The iteration cap is `CG_CAP_FACTOR` per interior unknown.

    `diag_out`, if given, receives `iterations` (the lockstep count, the
    largest over the columns), `residual` (the largest final residual
    norm), and `column_iterations` and `column_residuals` (one count and
    one final residual norm per column).

    Returns the (k, n) array of solutions, row j the node values of
    column j.

    Raises
    ------
    MeshMismatch
        If the arrays do not have the interior sizes of the mesh topology.
    NonFiniteValue
        If an interior load, an interior matrix entry or a residual holds
        a NaN or an infinity.
    SolverDiverged
        If the iteration cap is reached before every residual target.

    A NonFiniteValue or SolverDiverged that concerns one column names it
    in its message and carries it as `index`.
    """
    ref = reference_solver(mesh)
    n, m = ref.n_nodes, len(ref.interior)
    loads = np.asarray(b, dtype=float)
    data = np.asarray(K, dtype=float)
    if data.ndim == 2 and data.strides[1] != data.itemsize:
        data = np.ascontiguousarray(data)  # `matvec` reads rows in place
    if data.ndim != 2 or data.shape[1] != len(ref.slots) or (
            loads.shape != (len(data), m)):
        raise MeshMismatch(
            f"block of {data.shape} matrix data and {loads.shape} loads, "
            f"the topology has {len(ref.slots)} interior entries and "
            f"{m} interior nodes")
    k = len(data)
    j = _first_non_finite(loads)
    if j is not None:
        raise NonFiniteValue(
            f"load vector is not finite at an interior node in column {j}",
            index=j)
    j = _first_non_finite(data)
    if j is not None:
        raise NonFiniteValue("stiffness matrix has a non-finite interior "
                             f"entry in column {j}", index=j)

    norm_b = np.sqrt(np.vecdot(loads, loads))
    cap = CG_CAP_FACTOR * m
    u = np.zeros((k, n))
    column_iterations = np.zeros(k, dtype=int)
    final_residual = np.zeros(k)
    # Arrays of the unconverged columns only; `cols` maps them back.
    cols = np.flatnonzero(norm_b != 0.0)
    r = loads[cols]
    xs = np.zeros_like(r)
    p = np.zeros_like(r)  # with rz = 1 the first direction is exactly z
    rz = np.ones(len(cols))
    res = norm_b[cols]
    tol = CG_RTOL * res
    iterations = 0
    while cols.size:
        z = ref.precondition(r)
        rz_next = np.vecdot(r, z)
        p *= (rz_next / rz)[:, None]
        p += z
        rz = rz_next
        if iterations >= cap:
            worst = np.argmax(res / tol)
            raise SolverDiverged(
                f"no convergence in {cap} iterations, residual "
                f"{res[worst]:.3e} > {tol[worst]:.3e} "
                f"in column {cols[worst]}", index=int(cols[worst]))
        q = ref.matvec(data, cols, p)
        alpha = (rz / np.vecdot(p, q))[:, None]
        q *= alpha
        r -= q
        xs += np.multiply(p, alpha, out=q)
        iterations += 1
        res = np.sqrt(np.vecdot(r, r))
        if not np.isfinite(res).all():
            j = np.flatnonzero(~np.isfinite(res))[0]
            raise NonFiniteValue(
                f"residual {res[j]} in column {cols[j]} "
                f"after {iterations} iterations", index=int(cols[j]))
        done = res <= tol
        if done.any():
            u[np.ix_(cols[done], ref.interior)] = xs[done]
            column_iterations[cols[done]] = iterations
            final_residual[cols[done]] = res[done]
            keep = ~done
            cols, r, xs, p = cols[keep], r[keep], xs[keep], p[keep]
            rz, res, tol = rz[keep], res[keep], tol[keep]

    if diag_out is not None:
        diag_out.update(iterations=iterations,
                        residual=float(final_residual.max(initial=0.0)),
                        column_iterations=column_iterations.tolist(),
                        column_residuals=final_residual.tolist())
    return u


def _h1_gram(mesh: Mesh) -> CSRArrays:
    def build():
        g = geometry(mesh)
        return _matrix(mesh, _stiffness_terms(mesh, g, g.areas)
                       + _mass_terms(mesh))
    return mesh.cached("h1_gram", build)


def _field(mesh: Mesh, v) -> np.ndarray:
    """The node values `v` as floats; MeshMismatch unless they are one
    value per node of `mesh`."""
    x = np.asarray(v, dtype=float)
    if x.shape != (mesh.n_nodes,):
        raise MeshMismatch(
            f"field of shape {x.shape}, mesh has {mesh.n_nodes} nodes")
    return x


def h1_norm(mesh: Mesh, v) -> float:
    """Full H1 norm, sqrt(v^T (K_1 + M) v)."""
    x = _field(mesh, v)
    return float(np.sqrt(max(x @ csr_product(_h1_gram(mesh), x), 0.0)))


def l2_norm(mesh: Mesh, v) -> float:
    """L2 norm, sqrt(v^T M v)."""
    x = _field(mesh, v)
    mass = mesh.cached("mass", lambda: mass_arrays(mesh))
    return float(np.sqrt(max(x @ csr_product(mass, x), 0.0)))


def w11_norm(mesh: Mesh, v) -> float:
    """W^{1,1} norm, sum_T int_T (|v| + |grad v|_2) dx by element quadrature."""
    vt = _field(mesh, v)[mesh.triangles]
    g = geometry(mesh)
    areas, grads = g.areas, g.grads
    vmid = 0.5 * (vt.sum(axis=1)[:, None] - vt)  # values at edge midpoints
    grad_v = np.einsum("mi,mid->md", vt, grads)
    per_element = areas * (np.abs(vmid).mean(axis=1)
                           + np.linalg.norm(grad_v, axis=1))
    return float(per_element.sum())


def field_to_text(v: np.ndarray) -> str:
    lines = [f"field {len(v)}"]
    lines.extend(fmt(x) for x in v)
    return "\n".join(lines) + "\n"


def save_field(v: np.ndarray, path) -> None:
    with open(path, "w") as f:
        f.write(field_to_text(v))
