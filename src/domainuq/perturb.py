"""Per-sample solves: full problem, smooth-coefficient problem, and the
coefficient derivative problem, realized on the deformed mesh.

Each domain realization moves the mesh nodes and keeps the topology, so a
solution computed on the deformed mesh pulls back to the reference disc by
reusing the node values.  Per domain realization, the geometry of the
deformed mesh is computed once, its quadrature points are located on the
coefficient grid once, and the smooth-part stiffness matrix and the load
are assembled once; the rough-part stiffness reuses the same geometry.
Every full solve on it uses an operator of the affine family
`K_s + c * K_r` with the same load, so `DeformedProblem.solve_amplitudes`
hands all the amplitudes c of a realization (u0 is c = 0) to one lockstep
call of `solve_dirichlet`, which applies `K_s` and `K_r` to the whole
block of columns.  A zero amplitude
adds exactly nothing, so a one-column solve at amplitude 0 is
bit-identical to the smooth solve.  Derivative solves for several
directions share the smooth operator and go through one call with one
load column each.  Every solve passes the reference mesh to
`solve_dirichlet`, whose multigrid preconditioner and interior restriction
are built once for the topology that all deformed meshes share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import (NodalField, element_geometry, h1_norm, load_from_qvalues,
                  perturbation_load_from_qvalues, solve_dirichlet,
                  stiffness_from_element_tensors, stiffness_from_qvalues,
                  _eval_at_points)
from .errors import NonPositiveCoefficient
from .fields import (Sample, ScalarFieldKL, VectorFieldKL, eval_displacement,
                     eval_mean, eval_rough)
from .mesh import Mesh, displace


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

    Builds the deformed mesh, whose geometry (areas, gradients, quadrature
    points and gradient products) is computed once by `displace`, locates
    the deformed quadrature points on the coefficient grid once (a
    `Stencil` that the smooth part and every rough part reuse), and
    assembles the smooth stiffness and the load once.  A rough-part
    stiffness reuses the geometry and has the same sparsity pattern, and
    `solve_amplitudes` solves with `K_s + c * K_r` for a list of amplitudes
    c in one lockstep call.  Solves pass the reference mesh to
    `solve_dirichlet`, which preconditions them with the multigrid V-cycle
    of the shared topology.
    """

    def __init__(self, mesh: Mesh, vf: VectorFieldKL, sf: ScalarFieldKL,
                 z: np.ndarray, f=None):
        self.mesh = mesh
        self.sf = sf
        self.deformed = displace(mesh, eval_displacement(vf, z))
        _, _, qpts = element_geometry(self.deformed)
        self._qflat = qpts.reshape(-1, 2)
        self._stencil = sf.grid.stencil(self._qflat)
        m = len(mesh.triangles)
        self.a_s_q = eval_mean(sf, self._stencil).reshape(m, 3)
        if not np.all(self.a_s_q > 0.0):
            raise NonPositiveCoefficient(
                f"smooth coefficient minimum {self.a_s_q.min():.6e}")
        self.K_s = stiffness_from_qvalues(self.deformed, self.a_s_q,
                                          require_positive=False)
        if f is None:
            fq = np.ones((m, 3))
        else:
            fq = _eval_at_points(f, self._qflat).reshape(m, 3)
        self.b = load_from_qvalues(self.deformed, fq)

    def rough_qvalues(self, y: np.ndarray) -> np.ndarray:
        """Rough coefficient at unit amplitude on the deformed quadrature points."""
        m = len(self.mesh.triangles)
        return eval_rough(self.sf, self._stencil, y).reshape(m, 3)

    def rough_stiffness(self, a_r_q: np.ndarray):
        return stiffness_from_qvalues(self.deformed, a_r_q,
                                      require_positive=False)

    def solve_amplitudes(self, a_r_q: np.ndarray | None, K_r, amplitudes,
                         diag_out: dict | None = None) -> list[NodalField]:
        """Full solves with coefficients a_s + c * a_r, one per amplitude c,
        in one lockstep call of `solve_dirichlet`.

        `a_r_q` and `K_r` are the rough part's quadrature values and
        stiffness; both None stand for a zero rough part.  Raises
        NonPositiveCoefficient, naming the amplitude, if a coefficient is
        not strictly positive (or is NaN) at a quadrature point.
        """
        amplitudes = [float(c) for c in amplitudes]
        if a_r_q is not None:
            for c in amplitudes:
                full_q = self.a_s_q + c * a_r_q
                if not np.all(full_q > 0.0):
                    raise NonPositiveCoefficient(
                        f"coefficient minimum {np.min(full_q):.6e} "
                        f"at amplitude {c}")
        return solve_dirichlet(self.K_s, self.b, self.mesh, diag_out=diag_out,
                               K_r=K_r, amplitudes=amplitudes)

    def solve_u0(self, diag_out: dict | None = None) -> NodalField:
        return self.solve_amplitudes(None, None, [0.0], diag_out)[0]

    def solve_u_eps_from_parts(self, a_r_q: np.ndarray, K_r, eps: float,
                               diag_out: dict | None = None) -> NodalField:
        """Full solve with coefficient a_s + eps * a_r from precomputed parts."""
        return self.solve_amplitudes(a_r_q, K_r, [eps], diag_out)[0]

    def solve_u_eps(self, y: np.ndarray, eps: float,
                    diag_out: dict | None = None) -> NodalField:
        a_r_q = self.rough_qvalues(y)
        return self.solve_u_eps_from_parts(a_r_q, self.rough_stiffness(a_r_q),
                                           eps, diag_out)

    def solve_delta_u(self, y: np.ndarray, u0: NodalField,
                      diag_out: dict | None = None) -> NodalField:
        """Derivative solve: smooth operator on the left, rough load on the right."""
        return self.solve_delta_u_from_parts(self.rough_qvalues(y), u0,
                                             diag_out)

    def solve_delta_u_from_parts(self, a_r_q: np.ndarray, u0: NodalField,
                                 diag_out: dict | None = None) -> NodalField:
        """Derivative solve from precomputed rough quadrature values."""
        b = perturbation_load_from_qvalues(self.deformed, a_r_q, u0.values)
        return solve_dirichlet(self.K_s, b, self.mesh, diag_out=diag_out)


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


def solve_pair(mesh: Mesh, vf: VectorFieldKL, sf: ScalarFieldKL,
               sample: Sample, amplitudes):
    """Coupled solves of one sample on one domain realization.

    `amplitudes` lists the signed amplitudes sign * eps the caller will
    ask for.  u0 and u_eps at each of them are solved in one lockstep
    call.  Returns (u0 values, solve(sign, eps), delta()): `solve` gives
    the values of u_eps at the coefficient parameters sign * y, which is
    the solve at amplitude sign * eps (a KeyError for an amplitude not
    listed), and `delta` those of delta_u at y.  The rough coefficient and
    its stiffness are evaluated once.
    """
    dp = DeformedProblem(mesh, vf, sf, sample.z)
    a_r_q = dp.rough_qvalues(sample.y)
    K_r = dp.rough_stiffness(a_r_q)
    columns = [0.0] + sorted({float(c) for c in amplitudes} - {0.0})
    fields = dp.solve_amplitudes(a_r_q, K_r, columns)
    by_amplitude = {c: u.values for c, u in zip(columns, fields)}
    u0 = fields[0]

    def solve(sign, eps):
        return by_amplitude[float(sign * eps)]

    def delta():
        return dp.solve_delta_u_from_parts(a_r_q, u0).values
    return u0.values, solve, delta


def remainders(mesh: Mesh, pair, eps_list) -> list[float]:
    """H1 norms (on the reference disc) of u_eps - u0 - eps * delta_u over
    several amplitudes, from a `solve_pair`-shaped triple."""
    u0, solve, delta = pair
    d = delta()
    return [h1_norm(mesh, NodalField(solve(1.0, eps) - u0 - eps * d,
                                     mesh.level))
            for eps in eps_list]


def taylor_remainders(mesh: Mesh, vf: VectorFieldKL, sf: ScalarFieldKL,
                      sample: Sample, eps_list) -> list[float]:
    """Taylor remainders for one sample over several amplitudes, sharing
    the domain realization, u0, and delta_u across amplitudes."""
    return remainders(mesh, solve_pair(mesh, vf, sf, sample, eps_list),
                      eps_list)


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
    loads = np.empty((mesh.n_nodes, sf.n_modes))
    for k, direction in enumerate(np.eye(sf.n_modes)):
        loads[:, k] = perturbation_load_from_qvalues(
            dp.deformed, dp.rough_qvalues(direction), u0.values)
    fields = solve_dirichlet(dp.K_s, loads, mesh)
    return NodalField(sum((u.values ** 2 for u in fields),
                          np.zeros(mesh.n_nodes)), mesh.level)


def solve_transported(mesh: Mesh, vf: VectorFieldKL, sf: ScalarFieldKL,
                      sample: Sample, eps: float, f=None) -> NodalField:
    """Cross-check path: assemble the transported matrix coefficient
    (a o V) (V'^T V')^{-1} det V' on the reference disc and solve there.

    For the piecewise affine deformation this is algebraically equivalent
    to solving on the deformed mesh and pulling back node values.
    """
    disp = eval_displacement(vf, sample.z)
    deformed = displace(mesh, disp)
    p_ref, p_def = mesh.nodes, deformed.nodes
    t = mesh.triangles
    m = len(t)

    J_ref = np.stack([p_ref[t[:, 1]] - p_ref[t[:, 0]],
                      p_ref[t[:, 2]] - p_ref[t[:, 0]]], axis=2)
    J_def = np.stack([p_def[t[:, 1]] - p_def[t[:, 0]],
                      p_def[t[:, 2]] - p_def[t[:, 0]]], axis=2)
    Vp = J_def @ np.linalg.inv(J_ref)
    detVp = np.linalg.det(Vp)
    B = np.linalg.inv(np.transpose(Vp, (0, 2, 1)) @ Vp) * detVp[:, None, None]

    _, _, qpts_def = element_geometry(deformed)
    qflat = qpts_def.reshape(-1, 2)
    a_q = (eval_mean(sf, qflat)
           + eps * eval_rough(sf, qflat, sample.y)).reshape(m, 3)
    if not np.all(a_q > 0.0):
        raise NonPositiveCoefficient(
            f"coefficient minimum {a_q.min():.6e} at amplitude {eps}")
    tensors = a_q.mean(axis=1)[:, None, None] * B
    K = stiffness_from_element_tensors(mesh, tensors)

    if f is None:
        fq = np.ones((m, 3))
    else:
        fq = _eval_at_points(f, qflat).reshape(m, 3)
    b = load_from_qvalues(mesh, fq * detVp[:, None])
    return solve_dirichlet(K, b, mesh)
