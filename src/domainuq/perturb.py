"""Per-sample solves: full problem, smooth-coefficient problem, and the
coefficient derivative problem, realized on the deformed mesh.

Each domain realization moves the mesh nodes and keeps the topology, so a
solution computed on the deformed mesh pulls back to the reference disc by
reusing the node values.  The smooth-part stiffness matrix is assembled
once per domain realization and shared by all three solves; the rough-part
stiffness enters as an exact linear combination, which keeps the zero
amplitude solve bit-identical to the smooth solve.  Every solve passes the
reference mesh to `solve_dirichlet`, whose multigrid preconditioner and
interior restriction are built once for the topology that all deformed
meshes share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """The three pulled-back solution fields of one sample plus diagnostics."""

    u_eps: NodalField
    u0: NodalField
    delta_u: NodalField
    sample: Sample
    eps: float
    iterations: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)


class DeformedProblem:
    """Shared state of all solves on one domain realization V(D_ref, z).

    Builds the deformed mesh, evaluates the smooth coefficient at the
    deformed quadrature points, and assembles the smooth stiffness and the
    load once.  Rough-part stiffnesses are linear combinations added onto
    the shared CSR data, so the sparsity pattern never changes.  Solves
    pass the reference mesh to `solve_dirichlet`, which preconditions them
    with the multigrid V-cycle of the shared topology.
    """

    def __init__(self, mesh: Mesh, vf: VectorFieldKL, sf: ScalarFieldKL,
                 z: np.ndarray, f=None):
        self.mesh = mesh
        self.sf = sf
        self.deformed = displace(mesh, eval_displacement(vf, z))
        _, _, qpts = element_geometry(self.deformed)
        self._qflat = qpts.reshape(-1, 2)
        m = len(mesh.triangles)
        self.a_s_q = eval_mean(sf, self._qflat).reshape(m, 3)
        if np.any(self.a_s_q <= 0.0):
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
        return eval_rough(self.sf, self._qflat, y).reshape(m, 3)

    def rough_stiffness(self, a_r_q: np.ndarray):
        return stiffness_from_qvalues(self.deformed, a_r_q,
                                      require_positive=False)

    def solve_u0(self, diag_out: dict | None = None) -> NodalField:
        return solve_dirichlet(self.K_s, self.b, self.mesh, diag_out=diag_out)

    def solve_u_eps_from_parts(self, a_r_q: np.ndarray, K_r, eps: float,
                               diag_out: dict | None = None) -> NodalField:
        """Full solve with coefficient a_s + eps * a_r from precomputed parts."""
        full_q = self.a_s_q + eps * a_r_q
        if np.any(full_q <= 0.0):
            raise NonPositiveCoefficient(
                f"coefficient minimum {full_q.min():.6e} at amplitude {eps}")
        K = self.K_s.copy()
        K.data = self.K_s.data + eps * K_r.data
        return solve_dirichlet(K, self.b, self.mesh, diag_out=diag_out)

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


def solve_u0(mesh: Mesh, vf: VectorFieldKL, sf: ScalarFieldKL,
             z: np.ndarray, f=None) -> NodalField:
    """Solve the smooth-coefficient problem on the domain realization at z
    and pull the node values back to the reference disc."""
    return DeformedProblem(mesh, vf, sf, z, f).solve_u0()


def solve_delta_u(mesh: Mesh, vf: VectorFieldKL, sf: ScalarFieldKL,
                  sample: Sample, u0: NodalField) -> NodalField:
    """Solve the coefficient derivative problem at (y, z); linear in y."""
    return DeformedProblem(mesh, vf, sf, sample.z).solve_delta_u(sample.y, u0)


def solve_u_eps(mesh: Mesh, vf: VectorFieldKL, sf: ScalarFieldKL,
                sample: Sample, eps: float, f=None) -> NodalField:
    """Solve the full problem with coefficient a_s + eps * a_r, pulled back."""
    return DeformedProblem(mesh, vf, sf, sample.z, f).solve_u_eps(sample.y, eps)


def solve_sample(mesh: Mesh, vf: VectorFieldKL, sf: ScalarFieldKL,
                 sample: Sample, eps: float, f=None) -> SampleSolve:
    """All three solves of one sample, sharing the domain realization."""
    dp = DeformedProblem(mesh, vf, sf, sample.z, f)
    iters: dict = {}
    resids: dict = {}
    out: dict = {}
    u0 = dp.solve_u0(diag_out=out)
    iters["u0"], resids["u0"] = out["iterations"], out["residual"]
    delta = dp.solve_delta_u(sample.y, u0, diag_out=out)
    iters["delta_u"], resids["delta_u"] = out["iterations"], out["residual"]
    ueps = dp.solve_u_eps(sample.y, eps, diag_out=out)
    iters["u_eps"], resids["u_eps"] = out["iterations"], out["residual"]
    return SampleSolve(u_eps=ueps, u0=u0, delta_u=delta, sample=sample,
                       eps=eps, iterations=iters, residuals=resids)


def taylor_remainder(mesh: Mesh, vf: VectorFieldKL, sf: ScalarFieldKL,
                     sample: Sample, eps: float) -> float:
    """H1 norm (on the reference disc) of u_eps - u0 - eps * delta_u."""
    ss = solve_sample(mesh, vf, sf, sample, eps)
    rem = ss.u_eps.values - ss.u0.values - eps * ss.delta_u.values
    return h1_norm(mesh, NodalField(rem, mesh.level))


def taylor_remainders(mesh: Mesh, vf: VectorFieldKL, sf: ScalarFieldKL,
                      sample: Sample, eps_list) -> list[float]:
    """Taylor remainders for one sample over several amplitudes, sharing
    the domain realization, u0, and delta_u across amplitudes."""
    dp = DeformedProblem(mesh, vf, sf, sample.z)
    u0 = dp.solve_u0()
    delta = dp.solve_delta_u(sample.y, u0)
    a_r_q = dp.rough_qvalues(sample.y)
    K_r = dp.rough_stiffness(a_r_q)
    out = []
    for eps in eps_list:
        ueps = dp.solve_u_eps_from_parts(a_r_q, K_r, eps)
        rem = ueps.values - u0.values - eps * delta.values
        out.append(h1_norm(mesh, NodalField(rem, mesh.level)))
    return out


def delta_second_moment(mesh: Mesh, vf: VectorFieldKL, sf: ScalarFieldKL,
                        z: np.ndarray) -> NodalField:
    """Second moment of the derivative solve over the coefficient
    parameters, at a fixed domain realization.

    The derivative is linear in the independent unit-variance parameters,
    so the moment is the sum of squared per-mode solves.  Integrating this
    field over z gives the second order variance correction term."""
    dp = DeformedProblem(mesh, vf, sf, z)
    u0 = dp.solve_u0()
    acc = np.zeros(mesh.n_nodes)
    direction = np.zeros(sf.n_modes)
    for k in range(sf.n_modes):
        direction[:] = 0.0
        direction[k] = 1.0
        acc += dp.solve_delta_u(direction, u0).values ** 2
    return NodalField(acc, mesh.level)


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
    if np.any(a_q <= 0.0):
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
