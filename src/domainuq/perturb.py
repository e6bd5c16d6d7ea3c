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
through a second call.  Monte Carlo samples, coupled pairs, quadrature
nodes and the three solves of `solve_sample` all go this way.  Every
solve passes the reference mesh to `solve_dirichlet`, whose multigrid
preconditioner and interior layout are built once for the topology that
all deformed meshes share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import (NodalField, h1_norm, perturbation_load_from_qvalues,
                  reference_solver, solve_dirichlet, stiffness_from_qvalues)
from .errors import DomainUQError, NonPositiveCoefficient
from .fields import (Sample, ScalarFieldKL, VectorFieldKL, eval_displacement,
                     eval_mean, eval_rough)
from .mesh import Mesh, displace, edge_midpoints, edges, geometry


@dataclass
class SampleSolve:
    """The three pulled-back solution fields of one sample, its deformed
    mesh, and the iterations and residuals of each solve."""

    u_eps: NodalField
    u0: NodalField
    delta_u: NodalField
    sample: Sample
    eps: float
    deformed: Mesh
    iterations: dict
    residuals: dict


class DeformedProblem:
    """Shared state of all solves on one domain realization V(D_ref, z).

    Builds the deformed mesh, whose geometry (areas, gradients and
    gradient products) is computed once by `displace`, computes the
    midpoints of its edges (the quadrature points, each listed once) and
    locates them on the coefficient grid once (a `Stencil` that the
    smooth part and every rough part reuse).  Coefficient values are kept
    per edge; an element's three values are a gather through
    `Edges.of_element`.

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
                                          self.a_s[self._of_element])
        # unit load: the midpoint rule gives each corner a third of the area
        self.b = reference_solver(mesh).interior_vector(
            np.repeat(geometry(self.deformed).areas / 3.0, 3))

    def rough_qvalues(self, y: np.ndarray) -> np.ndarray:
        """Rough coefficient at unit amplitude at the edge midpoints."""
        return eval_rough(self.sf, self._stencil, y)

    def rough_stiffness(self, a_r: np.ndarray) -> np.ndarray:
        """Interior CSR data of the stiffness of the coefficient with the
        values `a_r` at the edge midpoints."""
        return stiffness_from_qvalues(self.deformed, a_r[self._of_element])

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


def _derivative_load(deformed: Mesh, a_r: np.ndarray,
                     u0_values: np.ndarray) -> np.ndarray:
    """Interior load of the derivative problem on a deformed mesh, from
    the rough part's values at its edge midpoints."""
    return perturbation_load_from_qvalues(
        deformed, a_r[edges(deformed).of_element], u0_values)


def solve_sample(mesh: Mesh, vf: VectorFieldKL, sf: ScalarFieldKL,
                 sample: Sample, eps: float) -> SampleSolve:
    """All three solves of one sample in one `solve_block` call: u0 and
    u_eps are the columns at amplitudes 0 and eps (one column if eps is
    0), delta_u is the derivative solve."""
    amplitudes = [0.0] if eps == 0.0 else [0.0, eps]
    diag: dict = {}
    u, delta = solve_block(mesh, vf, sf, [sample.z], [sample.y], amplitudes,
                           with_delta=True, diag_out=diag)
    # (diagnostics, column) of each solve
    columns = {"u0": (diag, 0), "delta_u": (diag["delta"], 0),
               "u_eps": (diag, len(amplitudes) - 1)}
    return SampleSolve(
        u_eps=u[0][-1], u0=u[0][0], delta_u=delta[0], sample=sample, eps=eps,
        deformed=displace(mesh, eval_displacement(vf, sample.z)),
        iterations={k: d["column_iterations"][j]
                    for k, (d, j) in columns.items()},
        residuals={k: d["column_residuals"][j]
                   for k, (d, j) in columns.items()})


def solve_block(mesh: Mesh, vf: VectorFieldKL, sf: ScalarFieldKL, zs,
                ys=None, amplitudes=(0.0,), with_delta: bool = False,
                diag_out: dict | None = None):
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
    `diag_out["delta"]`.

    Returns (u, delta): u[i][j] is the NodalField of realization i at
    amplitude `amplitudes[j]`, and delta[i] the derivative solve of
    realization i, or None without `with_delta`.

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
    # (deformed mesh, a_r edge values) of each, for derivative loads
    rough = [] if with_delta else None
    for i, z in enumerate(zs):
        try:
            _fill_realization(mesh, vf, sf, z, None if ys is None else ys[i],
                              amplitudes, data[i * k:(i + 1) * k],
                              loads[i * k:(i + 1) * k], rough)
        except DomainUQError as e:
            e.index = i
            raise
    try:
        fields = solve_dirichlet(data, loads, mesh, diag_out=diag_out)
    except DomainUQError as e:
        if e.index is not None:
            e.index //= k
        raise
    u = [fields[i * k:(i + 1) * k] for i in range(r)]
    if not with_delta:
        return u, None
    j0 = amplitudes.index(0.0)
    for i, (deformed, a_r) in enumerate(rough):
        loads[i] = _derivative_load(deformed, a_r, u[i][j0].values)
    # the zero-amplitude rows hold the smooth operator K_s exactly
    delta_diag = None if diag_out is None else diag_out.setdefault("delta", {})
    return u, solve_dirichlet(data[j0::k], loads[:r], mesh,
                              diag_out=delta_diag)


def _fill_realization(mesh, vf, sf, z, y, amplitudes, data, loads, rough):
    """Build one domain realization and write the interior data of
    `K_s + c * K_r` for each amplitude c into the rows of `data` and its
    interior load into those of `loads`.  Appends (deformed mesh, rough
    edge values) to the list `rough`, if given; keeps nothing else."""
    dp = DeformedProblem(mesh, vf, sf, z)
    loads[:] = dp.b
    if y is None:
        dp.matrix_data(None, None, amplitudes, out=data)
        return
    a_r = dp.rough_qvalues(y)
    dp.matrix_data(a_r, dp.rough_stiffness(a_r), amplitudes, out=data)
    if rough is not None:
        rough.append((dp.deformed, a_r))


def solve_pairs(mesh: Mesh, vf: VectorFieldKL, sf: ScalarFieldKL, samples,
                amplitudes, with_delta: bool = False):
    """Coupled solves of a block of samples, one domain realization each.

    `amplitudes` lists the signed amplitudes sign * eps the caller will
    ask for; u0 and u_eps at each of them are solved in one `solve_block`
    call.  Returns, per sample, (u0 values, {amplitude: values of u_eps},
    delta_u values at y, or None without `with_delta`).  The u_eps at the
    parameters sign * y is the solve at amplitude sign * eps, and the one
    at amplitude 0 is u0 itself.
    """
    columns = [0.0] + sorted({float(c) for c in amplitudes} - {0.0})
    u, delta = solve_block(mesh, vf, sf, [s.z for s in samples],
                           [s.y for s in samples], columns, with_delta)
    return [(fields[0].values,
             {c: f.values for c, f in zip(columns, fields)},
             None if delta is None else delta[i].values)
            for i, fields in enumerate(u)]


def remainders(mesh: Mesh, pair, eps_list) -> list[float]:
    """H1 norms (on the reference disc) of u_eps - u0 - eps * delta_u over
    several amplitudes, from one sample's `solve_pairs` triple."""
    u0, u_eps, delta = pair
    return [h1_norm(mesh, NodalField(u_eps[float(eps)] - u0 - eps * delta,
                                     mesh.level))
            for eps in eps_list]


def taylor_remainders(mesh: Mesh, vf: VectorFieldKL, sf: ScalarFieldKL,
                      sample: Sample, eps_list) -> list[float]:
    """Taylor remainders for one sample over several amplitudes, sharing
    the domain realization, u0, and delta_u across amplitudes."""
    pair = solve_pairs(mesh, vf, sf, [sample], eps_list, with_delta=True)[0]
    return remainders(mesh, pair, eps_list)


def delta_second_moment(mesh: Mesh, vf: VectorFieldKL, sf: ScalarFieldKL,
                        z: np.ndarray) -> NodalField:
    """Second moment of the derivative solve over the coefficient
    parameters, at a fixed domain realization.

    The derivative is linear in the independent unit-variance parameters,
    so the moment is the sum of squared per-mode solves, which share the
    smooth operator and run as one solve with a load column per mode.
    Integrating this field over z gives the second order variance
    correction term."""
    dp = DeformedProblem(mesh, vf, sf, z)
    u0 = solve_dirichlet(dp.K_s[None], dp.b[None], mesh)[0]
    loads = np.empty((sf.n_modes, len(dp.b)))
    for k, direction in enumerate(np.eye(sf.n_modes)):
        loads[k] = _derivative_load(dp.deformed, dp.rough_qvalues(direction),
                                    u0.values)
    fields = solve_dirichlet(np.tile(dp.K_s, (sf.n_modes, 1)), loads, mesh)
    return NodalField(sum((u.values ** 2 for u in fields),
                          np.zeros(mesh.n_nodes)), mesh.level)
