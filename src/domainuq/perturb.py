"""Per-sample solves: full problem, smooth-coefficient problem, and the
coefficient derivative problem, realized on the deformed mesh.

Each domain realization moves the mesh nodes and keeps the topology, so a
solution computed on the deformed mesh pulls back to the reference disc by
reusing the node values.  `DeformedProblem` is the one builder of a
realization.  It computes the geometry of the deformed mesh once,
evaluates the coefficient once per edge midpoint (every quadrature point
is one, and an interior edge's midpoint is shared by its two triangles),
and assembles the smooth-part stiffness and the load straight into the
interior layout of the solver: a realization keeps only interior matrix
data and an interior load, and builds no matrix.  The rough-part
stiffness reuses the same geometry and edge values.  Every full solve on
a realization uses an operator of the affine family `K_s + c * K_r` with
the same load, and a zero amplitude adds exactly nothing, so a solve at
amplitude 0 is bit-identical to the smooth solve.

`solve_block` is the one way a realization is solved: it builds a block
of realizations one after another, writes of each the interior data of
`K_s + c * K_r` for every amplitude c (u0 is c = 0) and its interior load
into buffers of the block, and hands the whole block to one lockstep call
of `solve_dirichlet`.  Its derivative solves, one per realization, go
through a second call.  The solutions come back as plain float arrays of
node values: an (r, k, n) block for r realizations at k amplitudes, and
an (r, n) block of derivative solves.  Monte Carlo samples, coupled
pairs, quadrature nodes and the three solves of `solve_sample` all go
this way.  Every solve passes the reference mesh to `solve_dirichlet`,
whose multigrid preconditioner and interior layout are built once for
the topology that all deformed meshes share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import (h1_norm, perturbation_load_from_qvalues, reference_solver,
                  solve_dirichlet, stiffness_from_qvalues)
from .errors import DomainUQError, NonPositiveCoefficient
from .fields import (Sample, ScalarFieldKL, VectorFieldKL, eval_displacement,
                     eval_mean, eval_rough)
from .mesh import Mesh, displace, edge_midpoints, edges, geometry


@dataclass
class SampleSolve:
    """The node values of the three pulled-back solutions of one sample,
    its deformed mesh, and the iterations and residuals of each solve."""

    u_eps: np.ndarray
    u0: np.ndarray
    delta_u: np.ndarray
    sample: Sample
    eps: float
    deformed: Mesh
    iterations: dict
    residuals: dict


class DeformedProblem:
    """Shared state of all solves on one domain realization V(D_ref, z).

    Builds the deformed mesh, whose geometry (areas and gradients) is
    computed once by `displace`, computes the midpoints of its edges (the
    quadrature points, each listed once) and locates them on the
    coefficient grid once (a `Stencil` that the smooth part and every
    rough part reuse).  Coefficient values are kept
    per edge; an element's three values are a gather through
    `Edges.of_element`, taken with `np.take`, which reads the int32 table
    as it is where fancy indexing would convert it to intp on every use.

    `K_s` is the interior CSR data of the smooth stiffness and `b` the
    interior unit load, both in the layout of the topology's
    `ReferenceSolver`; `rough_stiffness` assembles a rough part the same
    way, and `matrix_data` writes the data of `K_s + c * K_r` for a list
    of amplitudes c, the rows that `solve_block` hands to the solver.

    Raises DegenerateDeformation for an inverted (or NaN) deformed
    element, OutOfHoldAll for a midpoint outside the hold-all box, and
    NonPositiveCoefficient unless the smooth part is strictly positive
    (and not NaN) at every midpoint.
    """

    def __init__(self, mesh: Mesh, vf: VectorFieldKL, sf: ScalarFieldKL,
                 z: np.ndarray):
        self.mesh = mesh
        self.sf = sf
        self.deformed = displace(mesh, eval_displacement(vf, z))
        self._stencil = sf.grid.stencil(edge_midpoints(self.deformed))
        self._of_element = edges(mesh).of_element
        self.a_s = eval_mean(sf, self._stencil)
        if not np.all(self.a_s > 0.0):
            raise NonPositiveCoefficient(
                f"smooth coefficient minimum {self.a_s.min():.6e}")
        self.K_s = stiffness_from_qvalues(self.deformed,
                                          np.take(self.a_s, self._of_element))
        # unit load: the midpoint rule gives each corner a third of the area
        self.b = reference_solver(mesh).interior_vector(
            np.repeat(geometry(self.deformed).areas / 3.0, 3))

    def rough_qvalues(self, y: np.ndarray) -> np.ndarray:
        """Rough coefficient at unit amplitude at the edge midpoints."""
        return eval_rough(self.sf, self._stencil, y)

    def rough_stiffness(self, a_r: np.ndarray) -> np.ndarray:
        """Interior CSR data of the stiffness of the coefficient with the
        values `a_r` at the edge midpoints."""
        return stiffness_from_qvalues(self.deformed,
                                      np.take(a_r, self._of_element))

    def matrix_data(self, a_r: np.ndarray | None, K_r, amplitudes,
                    out: np.ndarray) -> None:
        """Write the interior data of `K_s + c * K_r` into `out`, one row
        per amplitude c.

        `a_r` and `K_r` are the rough part's edge values and interior
        stiffness data; both None stand for a zero rough part.  Raises
        NonPositiveCoefficient, naming the amplitude, unless a_s + c * a_r
        is strictly positive (and not NaN) at every edge midpoint for
        every amplitude c.
        """
        if a_r is None:
            out[:] = self.K_s
            return
        for c in amplitudes:
            full = self.a_s + c * a_r
            if not np.all(full > 0.0):
                raise NonPositiveCoefficient(
                    f"coefficient minimum {np.min(full):.6e} "
                    f"at amplitude {c}")
        np.multiply.outer(amplitudes, K_r, out=out)
        out += self.K_s


def solve_sample(mesh: Mesh, vf: VectorFieldKL, sf: ScalarFieldKL,
                 sample: Sample, eps: float) -> SampleSolve:
    """All three solves of one sample in one `solve_block` call: u0 and
    u_eps are the columns at amplitudes 0 and eps (one column if eps is
    0), delta_u is the derivative solve."""
    amplitudes = [0.0] if eps == 0.0 else [0.0, eps]
    diag: dict = {}
    deformed: list = []
    u, delta = solve_block(mesh, vf, sf, [sample.z], [sample.y], amplitudes,
                           with_delta=True, diag_out=diag,
                           deformed_out=deformed)
    # (diagnostics, column) of each solve
    columns = {"u0": (diag, 0), "delta_u": (diag["delta"], 0),
               "u_eps": (diag, len(amplitudes) - 1)}
    return SampleSolve(
        u_eps=u[0, -1], u0=u[0, 0], delta_u=delta[0], sample=sample, eps=eps,
        deformed=deformed[0],
        iterations={k: d["column_iterations"][j]
                    for k, (d, j) in columns.items()},
        residuals={k: d["column_residuals"][j]
                   for k, (d, j) in columns.items()})


def solve_block(mesh: Mesh, vf: VectorFieldKL, sf: ScalarFieldKL, zs,
                ys=None, amplitudes=(0.0,), with_delta: bool = False,
                diag_out: dict | None = None,
                deformed_out: list | None = None):
    """Solves on a block of domain realizations in one lockstep call.

    Realization i is the domain of the parameters `zs[i]` with the
    coefficient a_s + c * a_r(ys[i]) for each amplitude c in `amplitudes`
    (without `ys` the rough part is zero).  The realizations are built one
    after another by `DeformedProblem`, each writing the interior data of
    `K_s + c * K_r` per amplitude and its interior load into buffers
    allocated once for the block, and every column goes through one call
    of `solve_dirichlet` (which fills `diag_out`).  With `with_delta`,
    whose `amplitudes` must list 0, the derivative solves at `ys[i]` with
    u0 on the right follow in a second call, which fills
    `diag_out["delta"]`.  `deformed_out`, if given, receives the deformed
    mesh of each realization in order.

    Returns (u, delta): the (r, k, n) array u, where u[i, j] holds the
    node values of realization i at amplitude `amplitudes[j]`, and the
    (r, n) array delta of the derivative solves, or None without
    `with_delta`.

    A DomainUQError concerning one realization (a degenerate deformation,
    a quadrature point outside the hold-all box, a coefficient that is not
    strictly positive, or NaN, at some amplitude, or a failing column)
    carries its position i as `index`.
    """
    ref = reference_solver(mesh)
    amplitudes = [float(c) for c in amplitudes]
    r, k = len(zs), len(amplitudes)
    if with_delta and (ys is None or 0.0 not in amplitudes):
        raise ValueError("derivative solves need ys and a zero amplitude")
    data = np.empty((r * k, len(ref.slots)))
    loads = np.empty((r * k, len(ref.interior)))
    # (deformed mesh, a_r edge values) of each, for derivative loads and
    # `deformed_out`
    kept = [] if with_delta or deformed_out is not None else None
    for i, z in enumerate(zs):
        try:
            _fill_realization(mesh, vf, sf, z, None if ys is None else ys[i],
                              amplitudes, data[i * k:(i + 1) * k],
                              loads[i * k:(i + 1) * k], kept)
        except DomainUQError as e:
            e.index = i
            raise
    if deformed_out is not None:
        deformed_out.extend(deformed for deformed, _ in kept)
    try:
        u = solve_dirichlet(data, loads, mesh, diag_out=diag_out)
    except DomainUQError as e:
        if e.index is not None:
            e.index //= k
        raise
    u = u.reshape(r, k, mesh.n_nodes)
    if not with_delta:
        return u, None
    j0 = amplitudes.index(0.0)
    for i, (deformed, a_r) in enumerate(kept):
        loads[i] = perturbation_load_from_qvalues(
            deformed, np.take(a_r, edges(deformed).of_element), u[i, j0])
    # the zero-amplitude rows hold the smooth operator K_s exactly
    delta_diag = None if diag_out is None else diag_out.setdefault("delta", {})
    return u, solve_dirichlet(data[j0::k], loads[:r], mesh,
                              diag_out=delta_diag)


def _fill_realization(mesh, vf, sf, z, y, amplitudes, data, loads, kept):
    """Build one domain realization and write the interior data of
    `K_s + c * K_r` for each amplitude c into the rows of `data` and its
    interior load into those of `loads`.  Appends (deformed mesh, rough
    edge values, None without `y`) to the list `kept`, if given; keeps
    nothing else."""
    dp = DeformedProblem(mesh, vf, sf, z)
    loads[:] = dp.b
    if y is None:
        a_r = None
        dp.matrix_data(None, None, amplitudes, out=data)
    else:
        a_r = dp.rough_qvalues(y)
        dp.matrix_data(a_r, dp.rough_stiffness(a_r), amplitudes, out=data)
    if kept is not None:
        kept.append((dp.deformed, a_r))


def remainders(mesh: Mesh, u: np.ndarray, delta: np.ndarray,
               amplitudes) -> list[float]:
    """H1 norms (on the reference disc) of u_eps - u0 - eps * delta_u for
    each amplitude eps, from one realization of a `solve_block` call:
    the rows of `u` are its solutions at `amplitudes`, which must list 0
    (u0), and `delta` is its derivative solve."""
    u0 = u[amplitudes.index(0.0)]
    return [h1_norm(mesh, f - u0 - eps * delta)
            for f, eps in zip(u, amplitudes)]

