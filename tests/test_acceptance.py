"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import os
import subprocess
import sys

import conftest
from conftest import DenseOracle, freeze, taylor_remainders
import numpy as np
import pytest
from scipy.sparse import diags

import domainuq as dq
from domainuq.fem import h1_norm, w11_norm
from domainuq.fields import (eval_displacement, eval_mean, eval_rough,
                             rng_stream, sample_uniform)
from domainuq.lowrank import pivoted_cholesky, reduced_eigs
from domainuq.mesh import build_disc_mesh, displace
from domainuq.perturb import solve_block
from domainuq.uq import RunningMoments, slope_fit, smolyak_rule


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    line = f"[ACCEPTANCE] {number}. {name}: {status}  {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert passed, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def sf256():
    return dq.build_coefficient_kl(256, 1e-2)


def test_criterion_1_fem_order():
    """Poisson on the disc vs the analytic solution, H1 slope in [0.85, 1.15]."""
    points = []
    for level in (2, 3, 4, 5):
        mesh = build_disc_mesh(level)
        K = conftest.reference_stiffness(mesh, lambda p: 1.0)
        b = conftest.reference_load(mesh, lambda p: 1.0)
        u = conftest.matrix_solve(K, b, mesh)
        areas, grads, qpts, _ = conftest.reference_geometry(mesh)
        vt = u[mesh.triangles]
        vmid = 0.5 * (vt.sum(axis=1)[:, None] - vt)
        grad_u = np.einsum("mi,mid->md", vt, grads)
        uex = 0.25 * (1.0 - np.sum(qpts ** 2, axis=2))
        gex = -0.5 * qpts
        err = np.sqrt(np.sum(
            areas * np.mean((vmid - uex) ** 2, axis=1)
            + areas * np.mean(np.sum((grad_u[:, None, :] - gex) ** 2, axis=2),
                              axis=1)))
        points.append((0.5 ** level, float(err)))
    slope = slope_fit(points)
    report(1, "FEM order", 0.85 <= slope <= 1.15, f"H1 slope {slope:.3f}")


def test_criterion_2_pivoted_cholesky_eigs():
    """Rank matches the dense eigenvalue count at tol 1e-6 within 1; the
    lifted eigenvectors are mass orthogonal to 1e-8 * max mu."""
    n = 200
    x = np.linspace(0.0, 1.0, n)
    C = np.exp(-(x[:, None] - x[None, :]) ** 2)
    factor = pivoted_cholesky(DenseOracle(C), 1e-6)
    w = np.linalg.eigvalsh(C)
    dense_count = int(np.sum(w > 1e-6 * np.trace(C)))

    h = x[1] - x[0]
    main = np.full(n, 4.0)
    main[0] = main[-1] = 2.0
    mass = (diags([np.ones(n - 1), main, np.ones(n - 1)], [-1, 0, 1])
            * (h / 6.0)).tocsr()
    basis = reduced_eigs(factor, mass, block=1)
    gram = basis.modes @ (mass @ basis.modes.T)
    resid = np.abs(gram - np.diag(basis.mu)).max()

    ok = abs(factor.rank - dense_count) <= 1 and resid <= 1e-8 * basis.mu.max()
    report(2, "pivoted Cholesky + reduced eigenproblem", ok,
           f"rank {factor.rank} vs count {dense_count}, "
           f"orthogonality {resid:.2e}")


def test_criterion_3_kl_mode_brackets(sf256):
    """Desk-scale mode counts: M in [40, 70] and N in [8, 14] at tol 1e-2."""
    mesh5 = build_disc_mesh(5)
    vf = dq.build_vector_field_kl(mesh5, 1e-2)
    ok = 40 <= vf.n_modes <= 70 and 8 <= sf256.n_modes <= 14
    report(3, "KL mode-count brackets", ok,
           f"M = {vf.n_modes}, N = {sf256.n_modes}")


def test_criterion_4_taylor_remainder_law():
    """Per-sample remainder slopes over eps in {2^-4, ..., 1} in [1.8, 2.2]."""
    mesh = build_disc_mesh(3)
    vf = dq.build_vector_field_kl(mesh, 1e-2)
    sf = dq.build_coefficient_kl(64, 1e-2)
    eps = [2.0 ** -k for k in range(4, -1, -1)]
    slopes = []
    for i in range(5):
        s = dq.draw_sample(sf.n_modes, vf.n_modes, 123, i)
        rems = taylor_remainders(mesh, vf, sf, s, eps)
        slopes.append(slope_fit(list(zip(eps, rems))))
    ok = all(1.8 <= s <= 2.2 for s in slopes)
    report(4, "Taylor remainder law", ok,
           "slopes " + ", ".join(f"{s:.3f}" for s in slopes))


def test_criterion_5_statistics_convergence():
    """Coupled-sample MC at level 3, n = 2000, eps in {0.25, 0.5, 1}:
    mean-error H1 slope in [1.7, 2.3], variance-error W11 slope in [1.6, 2.4]."""
    mesh = build_disc_mesh(3)
    vf = dq.build_vector_field_kl(mesh, 1e-2)
    sf = dq.build_coefficient_kl(64, 1e-2)
    eps_list = (0.25, 0.5, 1.0)
    n_pairs = 1000
    seed = 0

    n_eps = len(eps_list)
    accD = [RunningMoments(mesh.n_nodes) for _ in range(n_eps)]
    accE = [RunningMoments(mesh.n_nodes) for _ in range(n_eps)]
    acc0 = [RunningMoments(mesh.n_nodes) for _ in range(n_eps)]
    # sign-major, as the updates of each eps are: first +eps, then -eps
    amplitudes = [sign * eps for sign in (1.0, -1.0) for eps in eps_list]
    for p in range(n_pairs):
        s = dq.draw_sample(sf.n_modes, vf.n_modes, seed, p)
        (fields,), _ = solve_block(mesh, vf, sf, [s.z], [s.y],
                                   [0.0] + amplitudes)
        u0 = fields[0]
        for j, u in enumerate(fields[1:]):
            ei = j % n_eps
            accD[ei].update(u - u0)
            accE[ei].update(u)
            acc0[ei].update(u0)

    mean_points, var_points = [], []
    for ei, eps in enumerate(eps_list):
        err_mean = h1_norm(mesh, accD[ei].mean)
        vdiff = freeze(accE[ei]).variance() - freeze(acc0[ei]).variance()
        err_var = w11_norm(mesh, vdiff)
        mean_points.append((eps, err_mean))
        var_points.append((eps, err_var))
    slope_mean = slope_fit(mean_points)
    slope_var = slope_fit(var_points)
    ok = 1.7 <= slope_mean <= 2.3 and 1.6 <= slope_var <= 2.4
    report(5, "statistics convergence", ok,
           f"slope_mean {slope_mean:.3f}, slope_var {slope_var:.3f}")


def test_criterion_6_centeredness_identities():
    """Symmetric parameter rules cancel the derivative solve to 1e-12 and
    antithetic coefficient averages return the smooth part at machine
    precision."""
    mesh = build_disc_mesh(3)
    vf = dq.build_vector_field_kl(mesh, 1e-2)
    sf = dq.build_coefficient_kl(64, 1e-2)
    rule = smolyak_rule(sf.n_modes, 1)
    worst_ratio = 0.0
    for zi in range(3):
        s = dq.draw_sample(sf.n_modes, vf.n_modes, 17, zi)
        acc = np.zeros(mesh.n_nodes)
        largest = 0.0
        for node, w in zip(rule.nodes, rule.weights):
            _, (d,) = solve_block(mesh, vf, sf, [s.z], [node], [0.0],
                                  with_delta=True)
            acc += w * d
            largest = max(largest, h1_norm(mesh, d))
        ratio = h1_norm(mesh, acc) / largest
        worst_ratio = max(worst_ratio, ratio)

    rng = rng_stream(3, 0)
    pts = rng.uniform(-2.0, 2.0, size=(10000, 2))
    y = sample_uniform(sf.n_modes, rng)
    mean = eval_mean(sf, pts)
    avg = 0.5 * ((mean + eval_rough(sf, pts, y))
                 + (mean + eval_rough(sf, pts, -y)))
    avg_err = np.abs(avg - mean).max() / np.abs(mean).max()

    ok = worst_ratio <= 1e-12 and avg_err <= 2 * np.finfo(float).eps
    report(6, "centeredness identities", ok,
           f"rule cancellation {worst_ratio:.2e}, "
           f"antithetic average {avg_err:.2e}")


def test_criterion_7_geometric_validity(sf256):
    """All 1000 sampled deformations at level 4 keep positive areas; the
    coefficient stays at or above 0.05 with sup |a - a_s| in [0.6, 0.9]."""
    mesh4 = build_disc_mesh(4)
    vf = dq.build_vector_field_kl(mesh4, 1e-2)
    failures = 0
    for i in range(1000):
        z = sample_uniform(vf.n_modes, rng_stream(7, i))
        try:
            displace(mesh4, eval_displacement(vf, z))
        except dq.DegenerateDeformation:
            failures += 1

    rng = rng_stream(13, 0)
    amin = np.inf
    sup = 0.0
    for _ in range(100):
        pts = rng.uniform(-2.0, 2.0, size=(100, 2))
        y = sample_uniform(sf256.n_modes, rng)
        rough = eval_rough(sf256, pts, y)
        amin = min(amin, (eval_mean(sf256, pts) + rough).min())
        sup = max(sup, np.abs(rough).max())

    ok = failures == 0 and amin >= 0.05 and 0.6 <= sup <= 0.9
    report(7, "geometric validity", ok,
           f"degenerate {failures}/1000, min a {amin:.3f}, "
           f"max |a - a_s| {sup:.3f}")


def test_criterion_8_determinism(tmp_path):
    """Every command reruns byte-identically across 1, 4, and 8 threads."""
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(
        "mesh_level = 2\n"
        "grid_cells = 32\n"
        "eps_list = 0.5, 1\n"
        "n_mc = 48\n"
        "n_taylor = 2\n"
        "seed = 9\n"
        "quad_level = 1\n")

    def run_all(out, threads):
        env = dict(os.environ)
        base = [sys.executable, "-m", "domainuq.cli"]
        common = ["--config", str(cfg_path), "--out", str(out)]
        sample_loop = ["--threads", str(threads)]
        cmds = [
            ["build-kl"], ["convergence", *sample_loop], ["mc", *sample_loop],
            ["taylor", *sample_loop],
            ["solve-one", "--y", "0", "--z", "0", "--eps", "0.5"],
        ]
        for cmd in cmds:
            proc = subprocess.run(base + cmd + common, env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr

    outputs = {}
    for threads in (1, 4, 8):
        out = tmp_path / f"t{threads}"
        run_all(out, threads)
        outputs[threads] = {
            name: (out / name).read_bytes() for name in sorted(os.listdir(out))
        }

    same = (outputs[1] == outputs[4] == outputs[8])
    report(8, "determinism across thread counts", same,
           f"{len(outputs[1])} files compared")
