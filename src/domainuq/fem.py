"""P1 finite elements on triangle meshes: assembly, Dirichlet solves, norms.

All coefficient-dependent integrals use the same 3-point edge-midpoint rule
(exact for quadratic integrands).  Using one rule everywhere keeps the
assembly exactly linear in the coefficient, which the perturbation solves
rely on.  Stiffness and mass matrices are stored in CSR format with the
sparsity pattern of their mesh topology, built once per topology and shared
by every displaced copy of the mesh.  The element geometry comes from
`mesh.geometry`, computed once per placement of the nodes; an element
stiffness is its cached gradient products `grad(phi_i) . grad(phi_j)`
scaled by the mean coefficient times the area, so every stiffness matrix
of a domain realization reuses the same products.  Stiffness matrices and
loads are assembled straight into the interior CSR data and interior load
vectors that the solver consumes: the topology's `ReferenceSolver` maps
every element entry to its interior slot (entries on the Dirichlet
boundary go to one dummy slot), so a domain realization builds no matrix
and gathers nothing.  The mass matrix and the H1 gram matrix of the norms
are summed into full CSR matrices.

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
block is held as (k, m) in C order; each iteration applies the matrices
as one block-diagonal CSR product and the V-cycle as one multi-vector
product to all unconverged columns, so the per-call overhead of numpy and
scipy is paid once per block, not once per column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix, diags

from .errors import MeshMismatch, NonFiniteValue, SolverDiverged
from .mesh import Geometry, Mesh, compute_geometry, geometry, signed_areas
from .textio import fmt

#: Relative residual target of the conjugate gradient solver.
CG_RTOL = 1e-10

#: Iteration cap factor: at most this many iterations per unknown.
CG_CAP_FACTOR = 10

#: The V-cycle inverts the operator densely at this refinement level
#: (113 interior unknowns on the disc) or at the mesh's own level if lower.
COARSE_LEVEL = 3

#: Damping of the Jacobi sweeps of the V-cycle.
SMOOTHING_WEIGHT = 2.0 / 3.0


@dataclass
class NodalField:
    """One scalar value per mesh node, tagged with its mesh level."""

    values: np.ndarray
    level: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)

    @property
    def n(self) -> int:
        return len(self.values)

    def __add__(self, other: "NodalField") -> "NodalField":
        return NodalField(self.values + other.values, self.level)

    def __sub__(self, other: "NodalField") -> "NodalField":
        return NodalField(self.values - other.values, self.level)

    def __mul__(self, scalar: float) -> "NodalField":
        return NodalField(self.values * scalar, self.level)

    __rmul__ = __mul__


@dataclass(frozen=True)
class _Pattern:
    """CSR structure of the element matrices of one topology.

    `slots[k]` is the position in the CSR data of the k-th entry of the
    flattened (m, 3, 3) element matrices, so summing element matrices is
    one `np.bincount`.  Rows hold sorted column indices.
    """

    indptr: np.ndarray
    indices: np.ndarray
    slots: np.ndarray

    @classmethod
    def build(cls, triangles: np.ndarray, n: int) -> "_Pattern":
        rows = np.repeat(triangles, 3, axis=1).reshape(-1)
        cols = np.tile(triangles, (1, 3)).reshape(-1)
        keys = rows * n + cols
        unique = np.unique(keys)
        counts = np.bincount(unique // n, minlength=n)
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
        return cls(indptr=indptr, indices=(unique % n).astype(np.int32),
                   slots=np.searchsorted(unique, keys))


def _pattern(mesh: Mesh) -> _Pattern:
    return mesh.topology.cached(
        "pattern", lambda: _Pattern.build(mesh.triangles, mesh.n_nodes))


def _scatter(mesh: Mesh, local: np.ndarray) -> csr_matrix:
    """Sum (m, 3, 3) element matrices into a global CSR matrix.

    Duplicates are summed in element order, and every matrix assembled on
    a topology has the same `indptr` and `indices`.
    """
    pattern = _pattern(mesh)
    n = mesh.n_nodes
    data = np.bincount(pattern.slots, weights=local.reshape(-1),
                       minlength=len(pattern.indices))
    return csr_matrix((data, pattern.indices, pattern.indptr), shape=(n, n))


def _element_mean(values_q: np.ndarray) -> np.ndarray:
    """Mean of each element's three quadrature values: their sum in
    point order divided by 3, the bits `values_q.mean(axis=1)` gives,
    without the cost of a numpy reduction over a length-3 axis."""
    return (values_q[:, 0] + values_q[:, 1] + values_q[:, 2]) / 3.0


def _local_stiffness(g: Geometry, cbar) -> np.ndarray:
    return (cbar * g.areas)[:, None, None] * g.grad_products


def stiffness_from_qvalues(mesh: Mesh, coeff_q: np.ndarray) -> np.ndarray:
    """Interior CSR data, in the layout of the topology's
    `ReferenceSolver`, of the stiffness of the coefficient with the values
    `coeff_q` at the (m, 3) quadrature points, summed without building the
    matrix."""
    local = _local_stiffness(geometry(mesh), _element_mean(coeff_q))
    return reference_solver(mesh).interior_matrix_data(local)


def assemble_mass(mesh: Mesh) -> csr_matrix:
    """Exact P1 mass matrix, M_ij = int phi_i phi_j dX.

    Only the areas are needed, so a mesh without a `geometry` does not get
    one: the KL build then keeps no per-element arrays while it factorizes.
    """
    areas = signed_areas(mesh)
    base = (np.ones((3, 3)) + np.eye(3)) / 12.0
    local = areas[:, None, None] * base
    return _scatter(mesh, local)


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
                  coarse_interior: np.ndarray) -> csr_matrix:
    """Interpolation from coarse to fine interior nodes of one refinement.

    A parent node keeps its value; a midpoint takes the mean of its edge
    endpoints, where boundary endpoints carry the Dirichlet zero.
    """
    column = np.full(n_coarse, -1)
    column[coarse_interior] = np.arange(len(coarse_interior))
    n_parents = len(coarse_interior)  # fine_interior lists them first
    mids = fine_interior[n_parents:]
    ends = column[edges[mids - n_coarse]]
    rows = np.concatenate([np.arange(n_parents),
                           np.repeat(n_parents + np.arange(len(mids)), 2)])
    cols = np.concatenate([np.arange(n_parents), ends.reshape(-1)])
    vals = np.concatenate([np.ones(n_parents), np.full(ends.size, 0.5)])
    keep = cols >= 0
    return coo_matrix((vals[keep], (rows[keep], cols[keep])),
                      shape=(len(fine_interior), n_parents)).tocsr()


class ReferenceSolver:
    """Interior restriction and multigrid preconditioner of one topology.

    Every matrix assembled on a mesh, or on a mesh displaced from it, has
    the sparsity pattern of that topology.  Built once per topology, this
    object holds

    * `slots`, `indptr`, `indices`: the positions in such a matrix's CSR
      data of its interior-interior entries, and the CSR structure they
      form, so eliminating the Dirichlet boundary is one gather;
    * `element_slots` and `element_nodes`, int32: the interior slot of
      every entry of the flattened (m, 3, 3) element matrices and the
      interior index of every corner of the flattened (m, 3) element
      vectors, with one dummy slot past the end for those on the
      boundary, so assembling straight into the interior layout is one
      `np.bincount` (in element order, as `_scatter` sums);
    * the structure of the block-diagonal matrix of k such interior
      matrices, built for the widest block so far; a narrower block is a
      prefix slice of it;
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
      and a handful of vector updates.

    A mesh without a refinement chain (one read from text, say) is its
    own coarsest level, inverted densely.
    """

    def __init__(self, mesh: Mesh):
        pattern = _pattern(mesh)
        n = mesh.n_nodes
        self.level = mesh.level
        self.n_nodes = n
        is_interior = np.ones(n, dtype=bool)
        is_interior[mesh.boundary] = False
        self.interior = np.flatnonzero(is_interior)
        rows = np.repeat(np.arange(n), np.diff(pattern.indptr))
        keep = is_interior[rows] & is_interior[pattern.indices]
        relabel = np.cumsum(is_interior) - 1
        m = len(self.interior)
        counts = np.bincount(relabel[rows[keep]], minlength=m)
        self.slots = np.flatnonzero(keep)
        self.indices = relabel[pattern.indices[keep]].astype(np.int32)
        self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
        self._block = (self.indptr, self.indices)
        slot = np.full(len(pattern.indices), len(self.slots), dtype=np.int32)
        slot[self.slots] = np.arange(len(self.slots))
        self.element_slots = slot[pattern.slots]
        self.element_nodes = np.where(is_interior, relabel, m).astype(
            np.int32)[mesh.triangles].reshape(-1)

        reference = compute_geometry(mesh.topology.reference_nodes,
                                     mesh.triangles)
        A = self.interior_matrix(self.interior_matrix_data(
            _local_stiffness(reference, 1.0)))
        steps = max(0, min(len(mesh.refinements), mesh.level - COARSE_LEVEL))
        self._levels = []
        fine_interior, n_fine = self.interior, n
        for edges in mesh.refinements[len(mesh.refinements) - steps:][::-1]:
            n_coarse = n_fine - len(edges)
            coarse_interior = fine_interior[fine_interior < n_coarse]
            P = _prolongation(edges, n_coarse, fine_interior, coarse_interior)
            W = diags(SMOOTHING_WEIGHT / A.diagonal())
            WA = W @ A
            G = (P - WA @ P).tocsr()
            self._levels.append(((2.0 * W - WA @ W).tocsr(), G, G.T.tocsr()))
            A = (P.T.tocsr() @ A @ P).tocsr()
            fine_interior, n_fine = coarse_interior, n_coarse
        inverse = np.linalg.inv(A.toarray())
        self._coarse_inverse = 0.5 * (inverse + inverse.T)

    def interior_matrix(self, data: np.ndarray) -> csr_matrix:
        """The interior matrix with interior CSR data `data`."""
        m = len(self.interior)
        return csr_matrix((data, self.indices, self.indptr), shape=(m, m))

    def interior_matrix_data(self, local: np.ndarray) -> np.ndarray:
        """Interior CSR data of the sum of (m, 3, 3) element matrices."""
        return np.bincount(self.element_slots, weights=local.reshape(-1),
                           minlength=len(self.slots) + 1)[:-1]

    def interior_vector(self, local: np.ndarray) -> np.ndarray:
        """Interior entries of the sum of (m, 3) element vectors."""
        return np.bincount(self.element_nodes, weights=local.reshape(-1),
                           minlength=len(self.interior) + 1)[:-1]

    def block_matrix(self, data: np.ndarray) -> csr_matrix:
        """Block-diagonal matrix whose j-th block is the interior matrix
        with data `data[j]`, for a C-ordered (k, nnz) array `data`."""
        k = len(data)
        m, nnz = len(self.interior), len(self.indices)
        indptr, indices = self._block
        if len(indptr) <= k * m:
            dtype = np.int32 if k * nnz < 2**31 else np.int64
            block = np.arange(k, dtype=dtype)[:, None]
            indptr = np.concatenate([np.zeros(1, dtype),
                                     (self.indptr[1:] + nnz * block).ravel()])
            indices = (self.indices + m * block).ravel()
            self._block = (indptr, indices)
        return csr_matrix((data.reshape(-1), indices[:k * nnz],
                           indptr[:k * m + 1]), shape=(k * m, k * m))

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """One V-cycle applied to an interior residual vector, or to each
        row of a (k, m) block of them as one multi-vector product."""
        if r.ndim == 1:
            return self._vcycle(0, r)
        return np.ascontiguousarray(self._vcycle(0, r.T.copy()).T)

    def _vcycle(self, k: int, r: np.ndarray) -> np.ndarray:
        if k == len(self._levels):
            return self._coarse_inverse @ r
        S, G, Gt = self._levels[k]
        x = S @ r
        x += G @ self._vcycle(k + 1, Gt @ r)
        return x


def reference_solver(mesh: Mesh) -> ReferenceSolver:
    """The ReferenceSolver of the mesh's topology, built on first use."""
    return mesh.topology.cached("reference_solver",
                                lambda: ReferenceSolver(mesh))


def _first_non_finite(block: np.ndarray):
    """Index of the first row of `block` holding a NaN or an infinity, or None."""
    bad = np.flatnonzero(~np.isfinite(block).all(axis=1))
    return int(bad[0]) if bad.size else None


def _compact(work: np.ndarray, order: np.ndarray,
             rows: np.ndarray) -> np.ndarray:
    """Move the rows `rows` (ascending) of `work` to its front, in place,
    by swapping them with the rows they pass, and return that prefix.
    `order[i]`, the original position of the row now at i, is kept in
    step."""
    for new, old in enumerate(rows):
        if new != old:
            work[[new, old]] = work[[old, new]]
            order[[new, old]] = order[[old, new]]
    return work[:len(rows)]


def _restore(work: np.ndarray, order: np.ndarray) -> None:
    """Put every row of `work` back at its original position `order[i]`."""
    for i in range(len(order)):
        while order[i] != i:
            j = order[i]
            work[[i, j]] = work[[j, i]]
            order[[i, j]] = order[[j, i]]


def solve_dirichlet(K: np.ndarray, b: np.ndarray, mesh: Mesh,
                    diag_out: dict | None = None) -> list[NodalField]:
    """Solve a block of Dirichlet problems A_j u_j = b_j, with u_j = 0 on
    the boundary nodes of `mesh`, for every column j at once.

    The columns may be drawn from several domain realizations on the
    topology of `mesh` and from several amplitudes.  `K` is a (k, nnz)
    array whose row j holds the interior CSR data of A_j, in the layout of
    the topology's `ReferenceSolver` (as `stiffness_from_qvalues`
    assembles it), and `b` the (k, m) array of interior loads.  A
    writeable C-ordered float `K` serves as the solver's work space, so
    the block is not copied: as columns converge, the rows of the others
    move to its front.  Its rows are back in place when the call returns
    or raises.

    Boundary unknowns are eliminated symmetrically (the system is
    restricted to the interior), and the columns are solved in lockstep by
    conjugate gradients preconditioned with one V-cycle of the topology's
    `ReferenceSolver`: every iteration applies the block-diagonal matrix
    of the unconverged columns and the V-cycle to all of them.  A column
    that reaches its own relative residual target `CG_RTOL` is frozen, so
    it takes the iterations of a one-column solve and agrees with it to
    rounding.  The iteration cap is `CG_CAP_FACTOR` per interior unknown.

    `diag_out`, if given, receives `iterations` (the lockstep count, the
    largest over the columns), `residual` (the largest final residual
    norm), and `column_iterations` and `column_residuals` (one count and
    one final residual norm per column).

    Returns a list of NodalFields, one per column.

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
    data = np.require(K, dtype=float, requirements=["C", "W"])
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
    order = np.arange(k)  # original position of each row of `data`
    try:
        # Arrays of the unconverged columns only; `cols` maps them back.
        cols = np.flatnonzero(norm_b != 0.0)
        A = ref.block_matrix(_compact(data, order, cols))
        r = np.array(loads[cols])
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
            q = (A @ p.reshape(-1)).reshape(p.shape)
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
                A = ref.block_matrix(
                    _compact(data, order, np.flatnonzero(keep)))
    finally:
        _restore(data, order)

    if diag_out is not None:
        diag_out.update(iterations=iterations,
                        residual=float(final_residual.max(initial=0.0)),
                        column_iterations=column_iterations.tolist(),
                        column_residuals=final_residual.tolist())
    return [NodalField(values, ref.level) for values in u]


def _h1_gram(mesh: Mesh) -> csr_matrix:
    gram = mesh._cache.get("h1_gram")
    if gram is None:
        gram = (_scatter(mesh, _local_stiffness(geometry(mesh), 1.0))
                + _mass(mesh))
        mesh._cache["h1_gram"] = gram
    return gram


def _mass(mesh: Mesh) -> csr_matrix:
    m = mesh._cache.get("mass")
    if m is None:
        m = assemble_mass(mesh)
        mesh._cache["mass"] = m
    return m


def _check_field(mesh: Mesh, v: NodalField) -> None:
    if v.n != mesh.n_nodes:
        raise MeshMismatch(
            f"field has {v.n} values, mesh has {mesh.n_nodes} nodes")


def h1_norm(mesh: Mesh, v: NodalField) -> float:
    """Full H1 norm, sqrt(v^T (K_1 + M) v)."""
    _check_field(mesh, v)
    x = v.values
    return float(np.sqrt(max(x @ (_h1_gram(mesh) @ x), 0.0)))


def l2_norm(mesh: Mesh, v: NodalField) -> float:
    _check_field(mesh, v)
    x = v.values
    return float(np.sqrt(max(x @ (_mass(mesh) @ x), 0.0)))


def w11_norm(mesh: Mesh, v: NodalField) -> float:
    """W^{1,1} norm, sum_T int_T (|v| + |grad v|_2) dx by element quadrature."""
    _check_field(mesh, v)
    g = geometry(mesh)
    areas, grads = g.areas, g.grads
    t = mesh.triangles
    vt = v.values[t]
    vmid = 0.5 * (vt.sum(axis=1)[:, None] - vt)  # values at edge midpoints
    grad_v = np.einsum("mi,mid->md", vt, grads)
    per_element = areas * (np.abs(vmid).mean(axis=1)
                           + np.linalg.norm(grad_v, axis=1))
    return float(per_element.sum())


def field_to_text(v: NodalField) -> str:
    lines = [f"field {v.n}"]
    lines.extend(fmt(x) for x in v.values)
    return "\n".join(lines) + "\n"


def field_from_text(text: str, level: int = -1) -> NodalField:
    lines = text.splitlines()
    header = lines[0].split()
    if header[0] != "field":
        raise ValueError(f"bad field header: {lines[0]!r}")
    n = int(header[1])
    return NodalField(np.array([float(lines[1 + i]) for i in range(n)]), level)


def save_field(v: NodalField, path) -> None:
    with open(path, "w") as f:
        f.write(field_to_text(v))


def load_field(path, level: int = -1) -> NodalField:
    with open(path) as f:
        return field_from_text(f.read(), level)
