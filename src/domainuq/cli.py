"""Config-driven command line front end.

Subcommands: build-kl, solve-one, mc, taylor, convergence.  The CSV
files, the KL manifest and the solve-one diagnostics start with a header
of the schema, version, config hash, seed and RNG algorithm; the other
outputs have none.  Identical configs reproduce identical bytes for any
`--threads` value.

Exit codes: 0 success, 2 configuration error (an `--out` that cannot be
created included), 3 numerical failure or a worker process that died.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys

import numpy as np

from . import __version__
from .config import (ExperimentConfig, config_hash, load_config,
                     override_config, validate_config)
from .errors import ConfigError, DomainUQError, WorkerDied
from .fem import reference_solver, save_field
from .fields import (RNG_ALGORITHM, Sample, build_coefficient_kl,
                     build_vector_field_kl, draw_sample, load_scalar_field,
                     load_vector_field, save_scalar_field, save_vector_field)
from .mesh import build_disc_mesh, save_mesh
from .perturb import remainders, solve_block, solve_sample
from .textio import fmt
from .uq import (l2_norm, mc_estimate, norm_by_name, quadrature_estimate,
                 save_statistics, slope_fit, smolyak_node_bound, smolyak_rule,
                 solve_blocks)

VECTOR_FIELD_FILE = "vector_field.txt"
SCALAR_FIELD_FILE = "coefficient.txt"
MANIFEST_FILE = "kl_manifest.txt"

#: Most quadrature nodes, counted by `smolyak_node_bound`, that
#: `convergence` builds a rule for.  Level 2 over 48 domain modes (4,753)
#: fits; level 3 (156,849) would take seconds and hundreds of MB to build
#: before any solve.
MAX_QUAD_NODES = 10_000

#: glibc `mallopt` parameter numbers, from malloc.h.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3

#: Where Linux lists the files mapped into this process.
PROC_MAPS = "/proc/self/maps"

#: OpenBLAS's `set_num_threads`, as numpy's copy (64-bit integers), scipy's
#: copy and a plain OpenBLAS export it.
OPENBLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_",
                        "scipy_openblas_set_num_threads",
                        "openblas_set_num_threads")


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
    try:
        with open(path, encoding="utf-8") as f:
            values = dict(line.strip().split("=", 1) for line in f
                          if "=" in line and not line.startswith("#"))
    except UnicodeDecodeError as e:
        raise ConfigError(f"cannot read KL manifest {path!r}: {e}; "
                          "run build-kl again") from e
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
    model = FEModel(mesh, *_load_artifacts(cfg, mesh))

    def solver(samples):
        u, _ = model.pairs(samples, cfg.eps_list)
        return u[:, None]  # one draw of one quantity per eps

    per_eps = mc_estimate(solver, model.dims, cfg.n_mc, cfg.seed,
                          threads=threads)
    rows = []
    for eps, stats in zip(cfg.eps_list, per_eps):
        path = os.path.join(cfg.out_dir, f"mc_stats_eps{eps:g}.txt")
        save_statistics(stats, mesh.level, path)
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

    def u0(self, zs) -> np.ndarray:
        u, _ = solve_block(self.mesh, self.vf, self.sf, zs)
        return u[:, 0]

    def pairs(self, samples, amplitudes, with_delta=False):
        return solve_block(self.mesh, self.vf, self.sf,
                           [s.z for s in samples], [s.y for s in samples],
                           amplitudes, with_delta)


class SyntheticModel:
    """Closed-form solver stand-in with an exactly quadratic remainder.

    u_eps = u0 + eps * delta + eps^2 * q with a fixed smooth q, u0
    depending on z only and delta odd and linear in y.  Exercises every
    estimator code path without finite element solves.
    """

    N_Y = 4
    N_Z = 6

    def __init__(self, mesh):
        self.dims = (self.N_Y, self.N_Z)
        r2 = np.sum(mesh.nodes ** 2, axis=1)
        self.base = 0.25 * (1.0 - r2)
        self.q = 0.05 * self.base
        self.coeffs = 0.1 / (1.0 + np.arange(self.N_Y))

    def u0(self, zs) -> np.ndarray:
        return np.array([self.base * (1.0 + 0.2 * float(np.mean(z))
                                      / np.sqrt(3.0)) for z in zs])

    def pairs(self, samples, amplitudes, with_delta=False):
        u0 = self.u0([s.z for s in samples])[:, None]
        deltas = np.array([self.base * float(self.coeffs @ s.y)
                           for s in samples])
        c = np.array(amplitudes, dtype=float)[:, None]
        u = u0 + c * deltas[:, None] + c * c * self.q
        return u, (deltas if with_delta else None)


def _model(cfg: ExperimentConfig, mesh, synthetic: bool):
    """The closed-form model, or finite element solves on the artifacts.

    Both offer `dims` (n_y, n_z) and two block solvers: `u0(zs)`, an
    (r, n) array with a row of node values per domain parameter vector,
    and `pairs(samples, amplitudes, with_delta)`, the (u, delta) of
    `perturb.solve_block`: the (r, k, n) array u with per sample a row
    per amplitude in the order given (u0 at amplitude 0, and u_eps at the
    parameters sign * y at amplitude sign * eps), and the (r, n) array of
    derivative solves (None without `with_delta`).
    """
    if synthetic:
        return SyntheticModel(mesh)
    vf, sf = _load_artifacts(cfg, mesh)
    return FEModel(mesh, vf, sf)


def _slope(points) -> float | None:
    """`slope_fit` of (eps, error) points; None with fewer than two
    points or an error that is not positive."""
    if len(points) < 2 or not all(v > 0.0 for _, v in points):
        return None
    return slope_fit(points)


def _slope_text(slope: float | None) -> str:
    return "undefined" if slope is None else fmt(slope)


def cmd_taylor(cfg: ExperimentConfig, synthetic: bool, threads: int) -> None:
    mesh = build_disc_mesh(cfg.mesh_level)
    model = _model(cfg, mesh, synthetic)
    eps_grid = [0.0] + list(cfg.eps_list)

    def solver(indices):
        """The remainders of each sample at every eps of the grid."""
        samples = [draw_sample(*model.dims, cfg.seed, s) for s in indices]
        u, delta = model.pairs(samples, eps_grid, with_delta=True)
        return [remainders(mesh, fields, d, eps_grid)
                for fields, d in zip(u, delta)]

    rows = []
    slopes = []
    for s, rems in enumerate(solve_blocks(solver, cfg.n_taylor, "sample",
                                          threads)):
        for eps, rem in zip(eps_grid, rems):
            rows.append(f"{s},{fmt(eps)},{fmt(rem)}")
        positive = [(e, r) for e, r in zip(eps_grid, rems) if e > 0.0]
        slopes.append(_slope(positive))

    lines = _header_lines(cfg) + ["sample,eps,remainder_h1"] + rows
    for s, sl in enumerate(slopes):
        lines.append(f"# slope sample={s} {_slope_text(sl)}")
    mean = None if None in slopes else float(np.mean(slopes))
    lines.append(f"# slope_mean {_slope_text(mean)}")
    _write(os.path.join(cfg.out_dir, "taylor.csv"), "\n".join(lines) + "\n")


def _paired_sweep(cfg: ExperimentConfig, dims: tuple[int, int], factory,
                  threads: int, with_delta: bool = False):
    """Common-random-number sweep over eps with antithetic (y, -y) pairs.

    `factory(samples, amplitudes, with_delta)` is a model's `pairs`
    block solver, called on blocks of consecutive pairs (see
    `uq.mc_estimate`) with 0, then the signed amplitudes sign * eps of
    both signs in ascending order: a column's rounding depends on its
    position in the lockstep block.  Returns per-eps (statsD, statsE,
    stats0): statistics of the coupled difference, of u_eps and of u0
    (one for all eps) over the n_mc samples, plus those of the derivative
    solve if `with_delta` is set.  `n_mc` must be even (see `cmd_convergence`).
    """
    signs = (1.0, -1.0)
    amplitudes = [0.0] + sorted(sign * eps for sign in signs
                                for eps in cfg.eps_list)
    # per eps, the column of each sign
    columns = [[amplitudes.index(sign * eps) for sign in signs]
               for eps in cfg.eps_list]

    n_quantities = 1 + 2 * len(columns) + int(with_delta)

    def solver(samples):
        """Per pair the rows of each quantity, one per sign: u0 twice,
        then for each eps those of u_eps - u0 and u_eps, then +delta_u
        and -delta_u."""
        u, delta = factory(samples, amplitudes, with_delta)
        out = np.empty((len(u), len(signs), n_quantities, u.shape[-1]))
        u0 = u[:, None, 0]
        out[:, :, 0] = u0
        for e, cols in enumerate(columns):
            out[:, :, 2 + 2 * e] = ue = u[:, cols]
            np.subtract(ue, u0, out=out[:, :, 1 + 2 * e])
        if with_delta:
            for d, sign in enumerate(signs):
                out[:, d, -1] = delta * sign
        return out

    stats = mc_estimate(solver, dims, cfg.n_mc // 2, cfg.seed, threads,
                        "sample pair")
    per_eps = [(*stats[2 * ei + 1:2 * ei + 3], stats[0])
               for ei in range(len(cfg.eps_list))]
    return per_eps, (stats[-1] if with_delta else None)


def cmd_convergence(cfg: ExperimentConfig, synthetic: bool, threads: int,
                    second_order_variance: bool = False) -> None:
    if cfg.n_mc < 2 or cfg.n_mc % 2:  # before the baseline is solved
        raise ConfigError(f"n_mc = {cfg.n_mc}: the antithetic sweep of "
                          "convergence needs an even count of at least 2")
    mesh = build_disc_mesh(cfg.mesh_level)
    model = _model(cfg, mesh, synthetic)
    nodes = smolyak_node_bound(model.dims[1], cfg.quad_level)
    if nodes > MAX_QUAD_NODES:
        raise ConfigError(
            f"quad_level = {cfg.quad_level} over {model.dims[1]} domain "
            f"modes gives a rule of up to {nodes} nodes, more than "
            f"{MAX_QUAD_NODES}; lower quad_level")
    rule = smolyak_rule(model.dims[1], cfg.quad_level)
    baseline = quadrature_estimate(model.u0, rule, threads=threads)
    base_path = os.path.join(cfg.out_dir, "baseline_stats.txt")
    save_statistics(baseline, mesh.level, base_path)
    print(f"wrote {base_path}")

    per_eps, stats_delta = _paired_sweep(cfg, model.dims, model.pairs,
                                         threads, second_order_variance)
    correction = stats_delta.variance() if second_order_variance else None

    rows = []
    mean_points = []
    var_points = []
    n = cfg.n_mc
    for eps, (statsD, statsE, stats0) in zip(cfg.eps_list, per_eps):
        err_mean = norm_by_name(mesh, statsD.mean, cfg.norm_mean)
        var_diff = statsE.variance() - stats0.variance()
        if correction is not None:
            var_diff = var_diff - eps * eps * correction
        err_var = norm_by_name(mesh, var_diff, cfg.norm_var)
        stderr = l2_norm(mesh, np.sqrt(statsD.variance() / n))
        rows.append(f"{fmt(eps)},{fmt(err_mean)},{fmt(err_var)},"
                    f"{fmt(stderr)},{n}")
        mean_points.append((eps, err_mean))
        var_points.append((eps, err_var))

    lines = _header_lines(cfg) + [
        f"# quad_level={cfg.quad_level} quad_nodes={len(rule.nodes)}",
        f"# norms: mean={cfg.norm_mean} variance={cfg.norm_var}",
        f"# second_order_variance={'on' if second_order_variance else 'off'}",
        f"eps,err_mean_{cfg.norm_mean},err_var_{cfg.norm_var},"
        "mc_stderr_mean,n_samples",
    ] + rows
    if len(cfg.eps_list) >= 2:
        for label, points in (("slope_mean", mean_points),
                              ("slope_var", var_points)):
            lines.append(f"# {label} {_slope_text(_slope(points))}")
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

    for name in ("build-kl", "solve-one", "mc", "taylor", "convergence"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to key=value config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the output directory")
        if name in ("mc", "taylor", "convergence"):
            p.add_argument("--threads", type=int, default=1,
                           help="worker processes for the sample loop, "
                                "forked where the platform allows (results "
                                "do not depend on the count)")
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
    if "threads" in args and args.threads < 1:
        raise ConfigError("--threads must be at least 1")
    cfg = load_config(args.config) if args.config else validate_config(
        ExperimentConfig())
    cfg = override_config(cfg, seed=args.seed, out_dir=args.out)
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {cfg.out_dir!r}: "
                          f"{e}") from e

    pin_blas_threads()
    if args.command == "build-kl":
        cmd_build_kl(cfg)
        return
    pin_malloc_thresholds()
    if args.command == "solve-one":
        cmd_solve_one(cfg, args.y, args.z, args.eps)
    elif args.command == "mc":
        cmd_mc(cfg, args.threads)
    elif args.command == "taylor":
        cmd_taylor(cfg, args.synthetic, args.threads)
    elif args.command == "convergence":
        cmd_convergence(cfg, args.synthetic, args.threads,
                        args.second_order_variance)


def pin_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at 32 MB and its trim threshold at
    64 MB; a no-op on other C libraries.

    Blocks below the mmap threshold come from the heap, and free space at
    the heap's top goes back to the system only above the trim
    threshold.  Left alone, glibc starts with a 128 KB mmap threshold and
    raises both to the size of each mmap-ed block freed.  Until some
    large block is freed, every solver temporary of 128 KB or more is a
    fresh `mmap` whose pages fault in on first touch, so run time then
    depends on which blocks happened to be freed first.  Pinned, such
    temporaries reuse heap pages.  Forked workers inherit the setting.

    Only the solve commands pin them: `build-kl`'s factorization frees
    blocks of several MB, which go back to the system when they are
    mmap-ed but stay resident on the heap (pinned, a level-6 build
    peaked 1.1 MB higher).
    """
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        glibc = None
    if not glibc:
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt(M_TRIM_THRESHOLD, 64 << 20)
    mallopt(M_MMAP_THRESHOLD, 32 << 20)


def pin_blas_threads() -> None:
    """Set every OpenBLAS mapped into the process to one thread, through
    its `set_num_threads` (`OPENBLAS_SET_THREADS`); a no-op where none is
    mapped or `PROC_MAPS` cannot be read.

    Output bytes depend on the BLAS thread count: the KL artifacts and the
    solve outputs differ between one and two OpenBLAS threads.  One thread
    in every process makes `--threads 1` and `2` write the same bytes, and
    keeps forked workers, which inherit the setting, from oversubscribing
    the cores.  Only the command line pins; a library caller keeps their
    own BLAS settings.
    """
    try:
        with open(PROC_MAPS, encoding="utf-8", errors="surrogateescape") as f:
            paths = {fields[5].rstrip("\n") for fields in
                     (line.split(maxsplit=5) for line in f)
                     if len(fields) == 6
                     and "openblas" in os.path.basename(fields[5]).lower()}
    except OSError:
        return
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in OPENBLAS_SET_THREADS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


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
