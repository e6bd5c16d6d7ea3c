"""Flat key=value experiment configuration.

The format is plain structured text: one `key = value` per line, `#`
starts a comment, unknown keys are rejected.  The configuration hash used
in output headers is taken over the canonical serialization of the
effective settings, so comments and key order do not affect it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

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


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


#: The parser of each key, picked by the type of its default.
_PARSERS = {f.name: _floats if isinstance(f.default, tuple)
            else type(f.default) for f in fields(ExperimentConfig)}

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
        with open(path, encoding="utf-8") as f:
            return parse_config(f.read())
    except (OSError, UnicodeDecodeError) as e:
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
    items = []
    for f in fields(cfg):
        if f.name == "out_dir":
            continue
        value = getattr(cfg, f.name)
        if isinstance(f.default, tuple):
            value = ",".join(repr(e) for e in value)
        elif isinstance(f.default, float):
            value = repr(value)
        items.append(f"{f.name}={value}")
    return "\n".join(items) + "\n"


def _sha256_hex(text: str) -> str:
    """`hashlib.sha256(text.encode()).hexdigest()` from CPython's built-in
    hash module (`_sha2` on 3.12+, `_sha256` before), which maps no
    OpenSSL; `hashlib` only for an interpreter built without either."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(text.encode()).hexdigest()


def config_hash(cfg: ExperimentConfig) -> str:
    """The first 16 hex digits of the sha256 of `canonical_text(cfg)`."""
    return _sha256_hex(canonical_text(cfg))[:16]
