"""Flat key=value experiment configuration.

The format is plain structured text: one `key = value` per line, `#`
starts a comment, unknown keys are rejected.  The configuration hash used
in output headers is taken over the canonical serialization of the
effective settings, so comments and key order do not affect it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

from .errors import ConfigError


@dataclass(frozen=True)
class ExperimentConfig:
    mesh_level: int = 4
    kl_tol_v: float = 1e-2
    kl_tol_a: float = 1e-2
    grid_cells: int = 256
    eps_list: tuple[float, ...] = (0.25, 0.5, 1.0)
    n_mc: int = 2000
    n_taylor: int = 5
    seed: int = 0
    quad_level: int = 1
    norm_mean: str = "h1"
    norm_var: str = "w11"
    out_dir: str = "out"


_PARSERS = {
    "mesh_level": int,
    "kl_tol_v": float,
    "kl_tol_a": float,
    "grid_cells": int,
    "eps_list": lambda s: tuple(float(v) for v in s.split(",") if v.strip()),
    "n_mc": int,
    "n_taylor": int,
    "seed": int,
    "quad_level": int,
    "norm_mean": str,
    "norm_var": str,
    "out_dir": str,
}

_NORMS = ("h1", "w11", "l2")


def parse_config(text: str) -> ExperimentConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _PARSERS[key](val)
        except ValueError as e:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {e}") from e
    return validate_config(ExperimentConfig(**values))


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    if cfg.mesh_level < 0:
        raise ConfigError("mesh_level must be >= 0")
    for name, tol in (("kl_tol_v", cfg.kl_tol_v), ("kl_tol_a", cfg.kl_tol_a)):
        if not 0.0 < tol < 1.0:
            raise ConfigError(f"{name} must lie in (0, 1)")
    if cfg.grid_cells < 16:
        raise ConfigError("grid_cells must be at least 16")
    if not cfg.eps_list:
        raise ConfigError("eps_list must not be empty")
    if not all(0.0 < e < math.inf for e in cfg.eps_list):
        raise ConfigError("eps_list entries must be positive and finite")
    if any(a >= b for a, b in zip(cfg.eps_list, cfg.eps_list[1:])):
        raise ConfigError("eps_list must be strictly ascending")
    if cfg.n_mc < 2:
        raise ConfigError("n_mc must be at least 2")
    if cfg.n_taylor < 1:
        raise ConfigError("n_taylor must be at least 1")
    if cfg.seed < 0:
        raise ConfigError("seed must be non-negative")
    if cfg.quad_level < 0:
        raise ConfigError("quad_level must be >= 0")
    if cfg.norm_mean not in _NORMS or cfg.norm_var not in _NORMS:
        raise ConfigError(f"norms must be one of {_NORMS}")
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as f:
            return parse_config(f.read())
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e


def override_config(cfg: ExperimentConfig, seed: int | None = None,
                    out_dir: str | None = None) -> ExperimentConfig:
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if out_dir is not None:
        cfg = replace(cfg, out_dir=out_dir)
    return validate_config(cfg)


def canonical_text(cfg: ExperimentConfig) -> str:
    """Canonical serialization of the effective settings (out_dir excluded,
    since it does not influence any numbers)."""
    items = [
        f"mesh_level={cfg.mesh_level}",
        f"kl_tol_v={cfg.kl_tol_v!r}",
        f"kl_tol_a={cfg.kl_tol_a!r}",
        f"grid_cells={cfg.grid_cells}",
        "eps_list=" + ",".join(repr(e) for e in cfg.eps_list),
        f"n_mc={cfg.n_mc}",
        f"n_taylor={cfg.n_taylor}",
        f"seed={cfg.seed}",
        f"quad_level={cfg.quad_level}",
        f"norm_mean={cfg.norm_mean}",
        f"norm_var={cfg.norm_var}",
    ]
    return "\n".join(items) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode()).hexdigest()[:16]
