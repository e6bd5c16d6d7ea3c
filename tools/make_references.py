"""Write the reference outputs that `tests/test_reference.py` holds the
command line to.

    PYTHONPATH=src python3 tools/make_references.py

For each config of `CONFIGS` it runs `build-kl`, then every run of `RUNS`
in a directory of its own that starts with the KL artifacts, and writes
`tests/reference/<config>.json`: the environment fingerprint, the sha256
of every file each command wrote, the numbers of the CSV outputs, a
summary of each field block of the statistics and field dumps, and the
integer counts of the KL manifest.  Outputs depend on the numpy, scipy
and BLAS builds and on the processor, so the test compares bytes only
where the fingerprint matches, and numbers elsewhere.  A change that
moves output bytes on purpose runs this script again and commits what it
writes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from domainuq.cli import main as domainuq_main

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_DIR = ROOT / "tests" / "reference"

#: Config name -> config file text.  "tiny" is the CI config (level 2,
#: one Monte Carlo block, no V-cycle); "l4" runs V-cycles and several
#: Monte Carlo and quadrature blocks.
CONFIGS = {
    "tiny": "mesh_level = 2\ngrid_cells = 16\nn_mc = 8\nquad_level = 1\n",
    "l4": "mesh_level = 4\ngrid_cells = 32\nn_mc = 66\n",
}

#: Run name -> command line, without `--config` and `--out`.  `solve-one`
#: gets its `--y`, `--z` and `--eps` from `solve_one_args`.
RUNS = {
    "solve-one": ["solve-one"],
    "mc": ["mc"],
    "taylor": ["taylor"],
    "taylor-synthetic": ["taylor", "--synthetic"],
    "convergence": ["convergence"],
    "convergence-second-order": ["convergence", "--second-order-variance"],
    "convergence-synthetic": ["convergence", "--synthetic"],
}

KL_FILES = ("vector_field.txt", "coefficient.txt", "kl_manifest.txt")
CSV_FILES = ("convergence.csv", "mc.csv", "taylor.csv")
#: The statistics and field dumps, summarized by `field_summaries`.
DUMP_FILES = ("*stats*.txt", "*.dat", "u0.txt", "u_eps.txt", "delta_u.txt")
MANIFEST_COUNTS = ("mesh_level", "vector_modes", "vector_chol_rank",
                   "coeff_modes", "coeff_chol_rank")


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def fingerprint() -> dict:
    """The libraries and the processor the output bytes depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "machine": platform.machine(), "cpu": _cpu()}


def _main(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        status = domainuq_main(argv)
    if status != 0:
        raise RuntimeError(f"domainuq {' '.join(argv)} exited {status}")


def _manifest(path: Path) -> dict:
    return dict(line.split("=", 1) for line in path.read_text().splitlines()
                if "=" in line and not line.startswith("#"))


def solve_one_args(manifest: dict) -> list[str]:
    """A non-zero (y, z), written with `repr` so that it reads back exactly."""
    y = [0.5 * np.sin(j + 1.0) for j in range(int(manifest["coeff_modes"]))]
    z = [0.5 * np.cos(j + 1.0) for j in range(int(manifest["vector_modes"]))]
    return ["--y", ",".join(repr(float(v)) for v in y),
            "--z", ",".join(repr(float(v)) for v in z), "--eps", "0.5"]


def _float(token: str):
    try:
        return float(token)
    except ValueError:
        return None


def csv_numbers(text: str) -> dict:
    """The data rows of a CSV output, and every `# key ... value` comment
    whose value is a number or `undefined` (None), keyed by the rest."""
    rows, comments, columns_seen = [], {}, False
    for line in text.splitlines():
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) >= 2 and (parts[-1] == "undefined"
                                    or _float(parts[-1]) is not None):
                comments[" ".join(parts[:-1])] = _float(parts[-1])
        elif not columns_seen:
            columns_seen = True
        elif line.strip():
            rows.append([float(v) for v in line.split(",")])
    return {"rows": rows, "comments": comments}


def _summary(values: list[str]) -> list:
    magnitudes = [abs(float(v)) for v in values]
    return [len(magnitudes), math.fsum(magnitudes),
            max(magnitudes, default=0.0)]


def field_summaries(text: str) -> list[list]:
    """[count, sum of absolute values, max absolute value] of each field
    block of a statistics or field dump (`field n` and the n values after
    it), or of all the numbers of a table without one (`.dat`)."""
    lines = text.splitlines()
    heads = [i for i, line in enumerate(lines) if line.startswith("field ")]
    if not heads:
        return [_summary([v for line in lines for v in line.split()])]
    return [_summary(lines[i + 1:i + 1 + int(lines[i].split()[1])])
            for i in heads]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def record(name: str, work: Path) -> dict:
    """Run every command on config `name` under `work` and return its
    reference record."""
    work.mkdir(parents=True, exist_ok=True)
    config = work / f"{name}.cfg"
    config.write_text(CONFIGS[name])
    kl = work / "build-kl"
    _main(["build-kl", "--config", str(config), "--out", str(kl)])
    manifest = _manifest(kl / "kl_manifest.txt")
    sha256 = {"build-kl": {f: _sha256(kl / f) for f in KL_FILES}}
    csv, dumps = {}, {}
    for run, argv in RUNS.items():
        out = work / run
        shutil.copytree(kl, out)
        extra = solve_one_args(manifest) if run == "solve-one" else []
        _main(argv + ["--config", str(config), "--out", str(out)] + extra)
        written = sorted(p for p in out.iterdir()
                         if p.name not in KL_FILES)
        sha256[run] = {p.name: _sha256(p) for p in written}
        csv.update({f"{run}/{p.name}": csv_numbers(p.read_text())
                    for p in written if p.name in CSV_FILES})
        dumps.update({f"{run}/{p.name}": field_summaries(p.read_text())
                      for p in written
                      if any(p.match(pattern) for pattern in DUMP_FILES)})
    return {"config": CONFIGS[name], "fingerprint": fingerprint(),
            "sha256": sha256, "csv": csv, "fields": dumps,
            "manifest": {k: int(manifest[k]) for k in MANIFEST_COUNTS}}


def main() -> int:
    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in CONFIGS:
            ref = record(name, Path(tmp) / name)
            path = REFERENCE_DIR / f"{name}.json"
            path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
