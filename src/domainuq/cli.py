"""Config-driven command line front end.

Subcommands: build-kl, solve-one, mc, taylor, convergence.  Every output
file carries the config hash, seed, and RNG algorithm; identical configs
reproduce identical bytes for any `--threads` value.

Exit codes: 0 success, 2 configuration error, 3 numerical failure or a
worker process that died.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .config import (ExperimentConfig, config_hash, load_config,
                     override_config, validate_config)
from .errors import ConfigError, DomainUQError, WorkerDied
from .fem import NodalField, reference_solver, save_field
from .fields import (RNG_ALGORITHM, Sample, build_coefficient_kl,
                     build_vector_field_kl, draw_sample, load_scalar_field,
                     load_vector_field, save_scalar_field, save_vector_field)
from .mesh import build_disc_mesh, save_mesh
from .perturb import remainders, solve_block, solve_pairs, solve_sample
from .textio import fmt
from .uq import (block_accumulators, l2_norm, mc_estimate, norm_by_name,
                 quadrature_estimate, save_statistics, slope_fit,
                 smolyak_rule, solve_blocks, tree_merge)

VECTOR_FIELD_FILE = "vector_field.txt"
SCALAR_FIELD_FILE = "coefficient.txt"
MANIFEST_FILE = "kl_manifest.txt"


def _header_lines(cfg: ExperimentConfig) -> list[str]:
    return [
        "# schema=1",
        f"# version={__version__}",
        f"# config_hash={config_hash(cfg)}",
        f"# seed={cfg.seed}",
        f"# rng={RNG_ALGORITHM}",
    ]


def _write(path: str, text: str) -> None:
    with open(path, "w") as f:
        f.write(text)
    print(f"wrote {path}")


def _load_artifact(load, path):
    """A KL field read by `load`; ConfigError naming the file if it does
    not parse or holds a NaN or an infinity."""
    try:
        kl = load(path)
    except ValueError as e:
        raise ConfigError(f"cannot read KL artifact {path!r}: {e}; "
                          "run build-kl again") from e
    for values in (kl.mean, kl.basis.mu, kl.basis.modes):
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"KL artifact {path!r} holds a non-finite value")
    return kl


def _check_manifest(cfg: ExperimentConfig) -> None:
    """ConfigError unless the KL manifest exists and records the KL
    tolerances of `cfg`."""
    path = os.path.join(cfg.out_dir, MANIFEST_FILE)
    if not os.path.exists(path):
        raise ConfigError(f"KL manifest {path!r} not found; run build-kl")
    with open(path) as f:
        values = dict(line.strip().split("=", 1) for line in f
                      if "=" in line and not line.startswith("#"))
    for key in ("kl_tol_v", "kl_tol_a"):
        want = getattr(cfg, key)
        try:
            same = float(values[key]) == want
        except (KeyError, ValueError):
            same = False
        if not same:
            raise ConfigError(
                f"KL artifacts in {cfg.out_dir!r} were built with "
                f"{key}={values.get(key, '(not recorded)')}, config says "
                f"{want}; run build-kl again")


def _load_artifacts(cfg: ExperimentConfig, mesh):
    """The KL artifacts of `cfg`, checked against it and its `mesh`."""
    vpath = os.path.join(cfg.out_dir, VECTOR_FIELD_FILE)
    spath = os.path.join(cfg.out_dir, SCALAR_FIELD_FILE)
    if not (os.path.exists(vpath) and os.path.exists(spath)):
        raise ConfigError(
            f"KL artifacts not found in {cfg.out_dir!r}; run build-kl first")
    _check_manifest(cfg)
    vf = _load_artifact(load_vector_field, vpath)
    sf = _load_artifact(load_scalar_field, spath)
    if vf.level != cfg.mesh_level:
        raise ConfigError(
            f"vector field artifact is for mesh level {vf.level}, "
            f"config says {cfg.mesh_level}")
    if vf.n_nodes != len(mesh.nodes):
        raise ConfigError(
            f"vector field artifact {vpath!r} has {vf.n_nodes} nodes, the "
            f"level {mesh.level} mesh {len(mesh.nodes)}; run build-kl again")
    if sf.grid.cells != cfg.grid_cells:
        raise ConfigError(
            f"coefficient artifact is for grid_cells {sf.grid.cells}, "
            f"config says {cfg.grid_cells}")
    return vf, sf


def cmd_build_kl(cfg: ExperimentConfig) -> None:
    os.makedirs(cfg.out_dir, exist_ok=True)
    mesh = build_disc_mesh(cfg.mesh_level)
    vf = build_vector_field_kl(mesh, cfg.kl_tol_v)
    sf = build_coefficient_kl(cfg.grid_cells, cfg.kl_tol_a)
    vpath = os.path.join(cfg.out_dir, VECTOR_FIELD_FILE)
    spath = os.path.join(cfg.out_dir, SCALAR_FIELD_FILE)
    save_vector_field(vf, vpath)
    print(f"wrote {vpath}")
    save_scalar_field(sf, spath)
    print(f"wrote {spath}")
    lines = _header_lines(cfg) + [
        f"mesh_level={cfg.mesh_level}",
        f"kl_tol_v={fmt(cfg.kl_tol_v)}",
        f"kl_tol_a={fmt(cfg.kl_tol_a)}",
        f"vector_modes={vf.n_modes}",
        f"vector_chol_rank={vf.build_info['chol_rank']}",
        f"vector_chol_residual={fmt(vf.build_info['chol_residual'])}",
        f"coeff_modes={sf.n_modes}",
        f"coeff_chol_rank={sf.build_info['chol_rank']}",
        f"coeff_chol_residual={fmt(sf.build_info['chol_residual'])}",
    ]
    _write(os.path.join(cfg.out_dir, MANIFEST_FILE), "\n".join(lines) + "\n")


def _parse_vector(text: str, dim: int, name: str) -> np.ndarray:
    try:
        vals = [float(t) for t in text.split(",") if t.strip()]
    except ValueError as e:
        raise ConfigError(f"bad {name} vector: {e}") from e
    if len(vals) == 1 and vals[0] == 0.0:
        return np.zeros(dim)
    if len(vals) != dim:
        raise ConfigError(f"{name} has {len(vals)} components, expected {dim}")
    return np.array(vals)


def cmd_solve_one(cfg: ExperimentConfig, y_text: str, z_text: str,
                  eps: float) -> None:
    if not np.isfinite(eps):
        raise ConfigError(f"--eps must be finite, got {eps}")
    mesh = build_disc_mesh(cfg.mesh_level)
    vf, sf = _load_artifacts(cfg, mesh)
    y = _parse_vector(y_text, sf.n_modes, "y")
    z = _parse_vector(z_text, vf.n_modes, "z")
    try:
        sample = Sample(y=y, z=z)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    ss = solve_sample(mesh, vf, sf, sample, eps)

    for name, fld in (("u_eps", ss.u_eps), ("u0", ss.u0),
                      ("delta_u", ss.delta_u)):
        path = os.path.join(cfg.out_dir, f"{name}.txt")
        save_field(fld, path)
        print(f"wrote {path}")
    dmesh_path = os.path.join(cfg.out_dir, "deformed_mesh.txt")
    save_mesh(ss.deformed, dmesh_path)
    print(f"wrote {dmesh_path}")

    lines = _header_lines(cfg) + [f"eps={fmt(eps)}"]
    for name in ("u0", "delta_u", "u_eps"):
        lines.append(f"{name}_iterations={ss.iterations[name]}")
        lines.append(f"{name}_residual={fmt(ss.residuals[name])}")
    _write(os.path.join(cfg.out_dir, "solve_one_diagnostics.txt"),
           "\n".join(lines) + "\n")


def cmd_mc(cfg: ExperimentConfig, threads: int) -> None:
    first = {}  # the first eps of each statistics file name
    for eps in cfg.eps_list:
        other = first.setdefault(f"{eps:g}", eps)
        if other != eps:
            raise ConfigError(f"eps_list values {other!r} and {eps!r} would "
                              f"both write mc_stats_eps{eps:g}.txt")
    mesh = build_disc_mesh(cfg.mesh_level)
    vf, sf = _load_artifacts(cfg, mesh)
    reference_solver(mesh)  # built once here, inherited by forked workers

    def solver(samples):
        u, _ = solve_block(mesh, vf, sf, [s.z for s in samples],
                           [s.y for s in samples], cfg.eps_list)
        return u

    per_eps = mc_estimate(solver, (sf.n_modes, vf.n_modes), cfg.n_mc,
                          cfg.seed, threads=threads)
    rows = []
    for eps, stats in zip(cfg.eps_list, per_eps):
        path = os.path.join(cfg.out_dir, f"mc_stats_eps{eps:g}.txt")
        save_statistics(stats, path)
        print(f"wrote {path}")
        mean_n = norm_by_name(mesh, stats.mean, cfg.norm_mean)
        var_n = norm_by_name(mesh, stats.variance(), cfg.norm_var)
        rows.append(f"{fmt(eps)},{cfg.n_mc},{fmt(mean_n)},{fmt(var_n)}")
    lines = _header_lines(cfg) + [
        f"# norms: mean={cfg.norm_mean} variance={cfg.norm_var}",
        "eps,n_samples,mean_norm,var_norm",
    ] + rows
    _write(os.path.join(cfg.out_dir, "mc.csv"), "\n".join(lines) + "\n")


class FEModel:
    """Finite element solves on the domain realizations of the KL artifacts."""

    def __init__(self, mesh, vf, sf):
        self.mesh, self.vf, self.sf = mesh, vf, sf
        self.dims = (sf.n_modes, vf.n_modes)
        reference_solver(mesh)  # built once here, inherited by forked workers

    def u0(self, zs) -> list[NodalField]:
        u, _ = solve_block(self.mesh, self.vf, self.sf, zs)
        return [fields[0] for fields in u]

    def pairs(self, samples, amplitudes, with_delta=False):
        return solve_pairs(self.mesh, self.vf, self.sf, samples, amplitudes,
                           with_delta)


class SyntheticModel:
    """Closed-form solver stand-in with an exactly quadratic remainder.

    u_eps = u0 + eps * delta + eps^2 * q with a fixed smooth q, u0
    depending on z only and delta odd and linear in y.  Exercises every
    estimator code path without finite element solves.
    """

    N_Y = 4
    N_Z = 6

    def __init__(self, mesh):
        self.level = mesh.level
        self.dims = (self.N_Y, self.N_Z)
        r2 = np.sum(mesh.nodes ** 2, axis=1)
        self.base = 0.25 * (1.0 - r2)
        self.q = 0.05 * self.base
        self.coeffs = 0.1 / (1.0 + np.arange(self.N_Y))

    def u0_values(self, z) -> np.ndarray:
        return self.base * (1.0 + 0.2 * float(np.mean(z)) / np.sqrt(3.0))

    def u0(self, zs) -> list[NodalField]:
        return [NodalField(self.u0_values(z), self.level) for z in zs]

    def pairs(self, samples, amplitudes, with_delta=False):
        out = []
        for sample in samples:
            u0 = self.u0_values(sample.z)
            delta = self.base * float(self.coeffs @ sample.y)
            out.append((u0, {float(c): u0 + c * delta + c * c * self.q
                             for c in amplitudes}, delta))
        return out


def _model(cfg: ExperimentConfig, mesh, synthetic: bool):
    """The closed-form model, or finite element solves on the artifacts.

    Both offer `dims` (n_y, n_z) and two block solvers: `u0(zs)`, one
    NodalField per domain parameter vector, and `pairs(samples, amplitudes,
    with_delta)`, per sample the (u0 values, {amplitude: u_eps values},
    delta values) triple of `perturb.solve_pairs` for the signed
    amplitudes sign * eps listed.
    """
    if synthetic:
        return SyntheticModel(mesh)
    vf, sf = _load_artifacts(cfg, mesh)
    return FEModel(mesh, vf, sf)


def cmd_taylor(cfg: ExperimentConfig, synthetic: bool) -> None:
    mesh = build_disc_mesh(cfg.mesh_level)
    model = _model(cfg, mesh, synthetic)
    eps_grid = [0.0] + list(cfg.eps_list)
    rows = []
    slopes = []
    for s in range(cfg.n_taylor):
        sample = draw_sample(*model.dims, cfg.seed, s)
        pair = model.pairs([sample], eps_grid, with_delta=True)[0]
        rems = remainders(mesh, pair, eps_grid)
        for eps, rem in zip(eps_grid, rems):
            rows.append(f"{s},{fmt(eps)},{fmt(rem)}")
        positive = [(e, r) for e, r in zip(eps_grid, rems) if e > 0.0]
        slopes.append(slope_fit(positive))

    lines = _header_lines(cfg) + ["sample,eps,remainder_h1"] + rows
    for s, sl in enumerate(slopes):
        lines.append(f"# slope sample={s} {fmt(sl)}")
    lines.append(f"# slope_mean {fmt(float(np.mean(slopes)))}")
    _write(os.path.join(cfg.out_dir, "taylor.csv"), "\n".join(lines) + "\n")


def _paired_sweep(cfg: ExperimentConfig, dims: tuple[int, int], factory,
                  threads: int, with_delta: bool = False):
    """Common-random-number sweep over eps with antithetic (y, -y) pairs.

    `factory(samples, amplitudes, with_delta)` is a model's `pairs`
    block solver, called on blocks of consecutive pairs (see
    `uq.solve_blocks`) with the signed amplitudes sign * eps of both
    signs.  Returns per-eps (momD, momE, mom0): moments of the coupled
    difference, of u_eps, and of u0, over 2 * n_pairs samples, plus the
    moments of the derivative solve when `with_delta` is set.
    """
    n_pairs = cfg.n_mc // 2
    if n_pairs < 1:
        raise ConfigError("n_mc must be at least 2 for the paired sweep")
    n_eps = len(cfg.eps_list)
    signs = (1.0, -1.0)
    amplitudes = [sign * eps for sign in signs for eps in cfg.eps_list]

    def pair_fields(pairs):
        """Per pair, u0, u_eps at each (sign, eps) in sign-major order, and
        the derivative solve or None."""
        samples = [draw_sample(dims[0], dims[1], cfg.seed, p) for p in pairs]
        return [(u0, [u_eps[sign * eps] for sign in signs
                      for eps in cfg.eps_list], delta)
                for u0, u_eps, delta in factory(samples, amplitudes,
                                                with_delta)]

    def updates():
        """Per pair, the vectors of each accumulator in update order: for
        each eps those of u_eps - u0, u_eps and u0, one per sign, then
        those of the derivative solve."""
        for u0, u_eps, delta in solve_blocks(pair_fields, n_pairs,
                                             "sample pair", threads):
            out = []
            for ei in range(n_eps):
                u = [u_eps[ei], u_eps[n_eps + ei]]
                out += [[x - u0 for x in u], u, [u0, u0]]
            if with_delta:
                out.append([sign * delta for sign in signs])
            yield out

    moments = [tree_merge(accs)
               for accs in block_accumulators(updates(), n_pairs)]
    merged = [tuple(moments[3 * ei:3 * ei + 3]) for ei in range(n_eps)]
    return merged, (moments[-1] if with_delta else None)


def cmd_convergence(cfg: ExperimentConfig, synthetic: bool, threads: int,
                    second_order_variance: bool = False) -> None:
    mesh = build_disc_mesh(cfg.mesh_level)
    model = _model(cfg, mesh, synthetic)
    rule = smolyak_rule(model.dims[1], cfg.quad_level)
    baseline = quadrature_estimate(model.u0, rule, threads=threads)
    base_path = os.path.join(cfg.out_dir, "baseline_stats.txt")
    save_statistics(baseline, base_path)
    print(f"wrote {base_path}")

    moments, mom_delta = _paired_sweep(cfg, model.dims, model.pairs, threads,
                                       second_order_variance)
    correction = (mom_delta.freeze(mesh.level).variance().values
                  if second_order_variance else None)

    rows = []
    mean_points = []
    var_points = []
    n = 2 * (cfg.n_mc // 2)
    for eps, (momD, momE, mom0) in zip(cfg.eps_list, moments):
        statsD = momD.freeze(mesh.level)
        statsE = momE.freeze(mesh.level)
        stats0 = mom0.freeze(mesh.level)
        err_mean = norm_by_name(mesh, statsD.mean, cfg.norm_mean)
        var_diff = (statsE.variance() - stats0.variance()).values
        if correction is not None:
            var_diff = var_diff - eps * eps * correction
        err_var = norm_by_name(mesh, NodalField(var_diff, mesh.level),
                               cfg.norm_var)
        se = NodalField(np.sqrt(statsD.variance().values / n), mesh.level)
        stderr = l2_norm(mesh, se)
        rows.append(f"{fmt(eps)},{fmt(err_mean)},{fmt(err_var)},"
                    f"{fmt(stderr)},{n}")
        mean_points.append((eps, err_mean))
        var_points.append((eps, err_var))

    lines = _header_lines(cfg) + [
        f"# quad_level={cfg.quad_level} quad_nodes={len(rule.nodes)}",
        f"# norms: mean={cfg.norm_mean} variance={cfg.norm_var}",
        f"# second_order_variance={'on' if second_order_variance else 'off'}",
        "eps,err_mean_h1,err_var_w11,mc_stderr_mean,n_samples",
    ] + rows
    if len(cfg.eps_list) >= 2:
        for label, points in (("slope_mean", mean_points),
                              ("slope_var", var_points)):
            if all(v > 0.0 for _, v in points):
                lines.append(f"# {label} {fmt(slope_fit(points))}")
            else:
                lines.append(f"# {label} undefined")
    _write(os.path.join(cfg.out_dir, "convergence.csv"),
           "\n".join(lines) + "\n")

    for name, points in (("mean", mean_points), ("var", var_points)):
        dat = "\n".join(f"{fmt(e)} {fmt(v)}" for e, v in points) + "\n"
        _write(os.path.join(cfg.out_dir, f"convergence_{name}.dat"), dat)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domainuq",
        description="Uncertainty quantification for diffusion on randomly "
                    "deformed discs with rough random coefficients.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="path to key=value config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="worker processes, forked where the platform "
                            "allows (results do not depend on the count)")

    for name in ("build-kl", "solve-one", "mc", "taylor", "convergence"):
        p = sub.add_parser(name)
        add_common(p)
        if name in ("taylor", "convergence"):
            p.add_argument("--synthetic", action="store_true",
                           help="replace solves by the closed-form model")
        if name == "solve-one":
            p.add_argument("--y", required=True,
                           help="comma-separated coefficient parameters "
                                "(a single 0 broadcasts)")
            p.add_argument("--z", required=True,
                           help="comma-separated domain parameters "
                                "(a single 0 broadcasts)")
            p.add_argument("--eps", type=float, required=True)
        if name == "convergence":
            p.add_argument("--second-order-variance", action="store_true",
                           help="subtract the quadratic variance correction "
                                "term from the variance error")
    return parser


def run(argv=None) -> None:
    args = build_parser().parse_args(argv)
    if args.threads < 1:
        raise ConfigError("--threads must be at least 1")
    cfg = load_config(args.config) if args.config else validate_config(
        ExperimentConfig())
    cfg = override_config(cfg, seed=args.seed, out_dir=args.out)
    os.makedirs(cfg.out_dir, exist_ok=True)

    if args.command == "build-kl":
        cmd_build_kl(cfg)
    elif args.command == "solve-one":
        cmd_solve_one(cfg, args.y, args.z, args.eps)
    elif args.command == "mc":
        cmd_mc(cfg, args.threads)
    elif args.command == "taylor":
        cmd_taylor(cfg, args.synthetic)
    elif args.command == "convergence":
        cmd_convergence(cfg, args.synthetic, args.threads,
                        args.second_order_variance)


def main(argv=None) -> int:
    try:
        run(argv)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except WorkerDied as e:
        print(f"worker failure: {e}", file=sys.stderr)
        return 3
    except DomainUQError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
