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

`solve_block` solves a block of realizations together: it builds them one
after another, writes of each the interior data of `K_s + c * K_r` for
every amplitude c (u0 is c = 0) and its interior load into buffers of the
block, and hands the whole block to one lockstep call of
`solve_dirichlet`.  Its derivative solves, one per realization, go
through a second call.  Monte Carlo samples, coupled pairs and quadrature
nodes are solved this way; the methods of `DeformedProblem` serve the
single-realization solves.  Every solve passes the reference mesh to
`solve_dirichlet`, whose multigrid preconditioner and interior layout are
built once for the topology that all deformed meshes share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import (NodalField, h1_norm, load_from_qvalues,
                  perturbation_load_from_qvalues, reference_solver,
                  solve_dirichlet, stiffness_from_qvalues, _eval_at_points)
# Not called here; perfbench/layers.py wraps the name in this module.
from .fem import element_geometry  # noqa: F401
from .errors import DomainUQError, NonPositiveCoefficient
from .fields import (Sample, ScalarFieldKL, VectorFieldKL, eval_displacement,
                     eval_mean, eval_rough)
from .mesh import Mesh, displace, edge_midpoints, edges


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
    interior load, both in the layout of the topology's
    `ReferenceSolver`; `rough_stiffness` assembles a rough part the same
    way, and `solve_amplitudes` solves with `K_s + c * K_r` for a list of
    amplitudes c in one lockstep call.  Solves pass the reference mesh to
    `solve_dirichlet`, which preconditions them with the multigrid V-cycle
    of the shared topology.

    Raises DegenerateDeformation for an inverted (or NaN) deformed
    element, OutOfHoldAll for a midpoint outside the hold-all box, and
    NonPositiveCoefficient unless the smooth part is strictly positive
    (and not NaN) at every midpoint.
    """

    def __init__(self, mesh: Mesh, vf: VectorFieldKL, sf: ScalarFieldKL,
                 z: np.ndarray, f=None):
        self.mesh = mesh
        self.sf = sf
        self.deformed = displace(mesh, eval_displacement(vf, z))
        points = edge_midpoints(self.deformed)
        self._stencil = sf.grid.stencil(points)
        self._of_element = edges(mesh).of_element
        self.a_s = eval_mean(sf, self._stencil)
        if not np.all(self.a_s > 0.0):
            raise NonPositiveCoefficient(
                f"smooth coefficient minimum {self.a_s.min():.6e}")
        self.K_s = stiffness_from_qvalues(
            self.deformed, self.a_s[self._of_element],
            require_positive=False, interior=True)
        if f is None:
            fq = np.ones(self._of_element.shape)
        else:
            fq = _eval_at_points(f, points)[self._of_element]
        self.b = load_from_qvalues(self.deformed, fq, interior=True)

    def rough_qvalues(self, y: np.ndarray) -> np.ndarray:
        """Rough coefficient at unit amplitude at the edge midpoints."""
        return eval_rough(self.sf, self._stencil, y)

    def rough_stiffness(self, a_r: np.ndarray) -> np.ndarray:
        """Interior CSR data of the stiffness of the coefficient with the
        values `a_r` at the edge midpoints."""
        return stiffness_from_qvalues(self.deformed, a_r[self._of_element],
                                      require_positive=False, interior=True)

    def check_amplitudes(self, a_r: np.ndarray, amplitudes) -> None:
        """Raise NonPositiveCoefficient, naming the amplitude, unless
        a_s + c * a_r is strictly positive (and not NaN) at every edge
        midpoint for every amplitude c."""
        for c in amplitudes:
            full = self.a_s + c * a_r
            if not np.all(full > 0.0):
                raise NonPositiveCoefficient(
                    f"coefficient minimum {np.min(full):.6e} "
                    f"at amplitude {c}")

    def matrix_data(self, a_r: np.ndarray | None, K_r, amplitudes,
                    out: np.ndarray | None = None) -> np.ndarray:
        """(k, nnz) interior data of `K_s + c * K_r`, one row per
        amplitude c, written into `out` if given.

        `a_r` and `K_r` are the rough part's edge values and interior
        stiffness data; both None stand for a zero rough part.  Raises
        NonPositiveCoefficient, naming the amplitude, if a coefficient is
        not strictly positive (or is NaN) at an edge midpoint.
        """
        amplitudes = [float(c) for c in amplitudes]
        if out is None:
            out = np.empty((len(amplitudes), len(self.K_s)))
        if a_r is None:
            out[:] = self.K_s
            return out
        self.check_amplitudes(a_r, amplitudes)
        np.multiply.outer(amplitudes, K_r, out=out)
        out += self.K_s
        return out

    def solve_amplitudes(self, a_r: np.ndarray | None, K_r, amplitudes,
                         diag_out: dict | None = None) -> list[NodalField]:
        """Full solves with coefficients a_s + c * a_r, one per amplitude c,
        in one lockstep call of `solve_dirichlet` (see `matrix_data`)."""
        data = self.matrix_data(a_r, K_r, amplitudes)
        return solve_dirichlet(data, np.broadcast_to(
            self.b, (len(data), len(self.b))), self.mesh, diag_out=diag_out)

    def solve_u0(self, diag_out: dict | None = None) -> NodalField:
        return self.solve_amplitudes(None, None, [0.0], diag_out)[0]

    def solve_u_eps_from_parts(self, a_r: np.ndarray, K_r, eps: float,
                               diag_out: dict | None = None) -> NodalField:
        """Full solve with coefficient a_s + eps * a_r from precomputed parts."""
        return self.solve_amplitudes(a_r, K_r, [eps], diag_out)[0]

    def solve_u_eps(self, y: np.ndarray, eps: float,
                    diag_out: dict | None = None) -> NodalField:
        a_r = self.rough_qvalues(y)
        return self.solve_u_eps_from_parts(a_r, self.rough_stiffness(a_r),
                                           eps, diag_out)

    def solve_delta_u(self, y: np.ndarray, u0: NodalField,
                      diag_out: dict | None = None) -> NodalField:
        """Derivative solve: smooth operator on the left, rough load on the right."""
        return self.solve_delta_u_from_parts(self.rough_qvalues(y), u0,
                                             diag_out)

    def solve_delta_u_from_parts(self, a_r: np.ndarray, u0: NodalField,
                                 diag_out: dict | None = None) -> NodalField:
        """Derivative solve from precomputed rough edge values."""
        b = _derivative_load(self.deformed, a_r, u0.values)
        return solve_dirichlet(self.K_s[None], b[None], self.mesh,
                               diag_out=diag_out)[0]


def _derivative_load(deformed: Mesh, a_r: np.ndarray,
                     u0_values: np.ndarray) -> np.ndarray:
    """Interior load of the derivative problem on a deformed mesh, from
    the rough part's values at its edge midpoints."""
    return perturbation_load_from_qvalues(
        deformed, a_r[edges(deformed).of_element], u0_values, interior=True)


def solve_sample(mesh: Mesh, vf: VectorFieldKL, sf: ScalarFieldKL,
                 sample: Sample, eps: float, f=None) -> SampleSolve:
    """All three solves of one sample, sharing the domain realization."""
    dp = DeformedProblem(mesh, vf, sf, sample.z, f)
    diags: dict = {"u0": {}, "delta_u": {}, "u_eps": {}}
    u0 = dp.solve_u0(diag_out=diags["u0"])
    delta = dp.solve_delta_u(sample.y, u0, diag_out=diags["delta_u"])
    ueps = dp.solve_u_eps(sample.y, eps, diag_out=diags["u_eps"])
    return SampleSolve(
        u_eps=ueps, u0=u0, delta_u=delta, sample=sample, eps=eps,
        deformed=dp.deformed,
        iterations={k: d["iterations"] for k, d in diags.items()},
        residuals={k: d["residual"] for k, d in diags.items()})


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
    u0 on the right follow in a second call.

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
    return u, solve_dirichlet(data[j0::k], loads[:r], mesh)


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
    u0 = dp.solve_u0()
    loads = np.empty((sf.n_modes, len(dp.b)))
    for k, direction in enumerate(np.eye(sf.n_modes)):
        loads[k] = _derivative_load(dp.deformed, dp.rough_qvalues(direction),
                                    u0.values)
    fields = solve_dirichlet(np.tile(dp.K_s, (sf.n_modes, 1)), loads, mesh)
    return NodalField(sum((u.values ** 2 for u in fields),
                          np.zeros(mesh.n_nodes)), mesh.level)
