"""Output checks.  Each returns a list of problems; an empty list passes."""

from __future__ import annotations

import filecmp
import math
import os

from workloads import REFERENCE_RTOL, REFERENCE_SEED, SLOPE_BAND, Workload

MANIFEST_FILE = "kl_manifest.txt"


def _read(path: str) -> str | None:
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return None


def check_manifest(out_dir: str, wl: Workload) -> list[str]:
    text = _read(os.path.join(out_dir, MANIFEST_FILE))
    if text is None:
        return [f"{MANIFEST_FILE} missing"]
    values = dict(line.split("=", 1) for line in text.splitlines()
                  if "=" in line and not line.startswith("#"))
    problems = []
    for key, want in wl.manifest.items():
        got = values.get(key)
        if got != str(want):
            problems.append(f"{MANIFEST_FILE}: {key}={got}, expected {want}")
    return problems


def _parse_csv(text: str):
    """Data rows (after the column-name line) and `# key value` comments."""
    rows, comments, seen_columns = [], {}, False
    for line in text.splitlines():
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 2:
                comments[parts[0]] = parts[1]
        elif not seen_columns:
            seen_columns = True
        elif line.strip():
            rows.append([float(v) for v in line.split(",")])
    return rows, comments


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REFERENCE_RTOL * max(abs(a), abs(b))


def check_main_output(out_dir: str, wl: Workload, seed: int) -> list[str]:
    """Finite positive error/norm columns, slopes near 2 for convergence,
    and agreement with the reference numbers at the reference seed."""
    text = _read(os.path.join(out_dir, wl.csv_name))
    if text is None:
        return [f"{wl.csv_name} missing"]
    try:
        rows, comments = _parse_csv(text)
    except ValueError as e:
        return [f"{wl.csv_name}: unparsable row ({e})"]
    n_mc = wl.config["n_mc"]
    if len(rows) != len(wl.reference):
        return [f"{wl.csv_name}: {len(rows)} rows, expected {len(wl.reference)}"]
    problems = []
    for row in rows:
        if wl.command == "convergence":
            values, count = row[1:4], row[4]
        else:
            values, count = row[2:4], row[1]
        if count != n_mc:
            problems.append(f"{wl.csv_name}: sample count {count} != {n_mc}")
        if not all(math.isfinite(v) and v > 0.0 for v in values):
            problems.append(f"{wl.csv_name}: non-positive or non-finite "
                            f"value in row {row}")
    slopes = []
    if wl.command == "convergence":
        lo, hi = SLOPE_BAND
        for key in ("slope_mean", "slope_var"):
            try:
                slope = float(comments[key])
            except (KeyError, ValueError):
                problems.append(f"{wl.csv_name}: {key} missing or undefined")
                continue
            slopes.append(slope)
            if not lo <= slope <= hi:
                problems.append(f"{wl.csv_name}: {key} {slope} outside "
                                f"[{lo}, {hi}]")
    if seed == REFERENCE_SEED and not problems:
        got = [v for row in rows for v in row] + slopes
        want = ([v for row in wl.reference for v in row]
                + list(wl.reference_slopes))
        bad = [(g, w) for g, w in zip(got, want) if not _close(g, w)]
        if bad:
            problems.append(f"{wl.csv_name}: {len(bad)} values differ from "
                            f"the reference, first {bad[0][0]!r} vs "
                            f"{bad[0][1]!r}")
    return problems


def compare_dirs(a: str, b: str) -> list[str]:
    """Byte comparison of two output directories (same names, same bytes)."""
    names_a, names_b = sorted(os.listdir(a)), sorted(os.listdir(b))
    if names_a != names_b:
        return [f"file sets differ: {sorted(set(names_a) ^ set(names_b))}"]
    _, mismatch, errors = filecmp.cmpfiles(a, b, names_a, shallow=False)
    return [f"{name} differs between --threads 1 and 2"
            for name in mismatch + errors]
