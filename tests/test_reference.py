"""Every command's outputs against the references of
`tools/make_references.py` (`tests/reference/*.json`).

Where the environment fingerprint matches the recorded one, every output
file must keep its sha256.  Elsewhere the libraries or the processor
differ, output bytes may move by rounding, and the numbers of the CSV
outputs and the summaries of the statistics and field dumps are compared
at `RTOL`, and the KL manifest's counts and the value count of each field
block exactly.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "make_references", ROOT / "tools" / "make_references.py")
refs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(refs)

RTOL = 1e-6


def _reference(name: str) -> dict:
    return json.loads((refs.REFERENCE_DIR / f"{name}.json").read_text())


@pytest.fixture(scope="module", params=sorted(refs.CONFIGS))
def recorded(request, tmp_path_factory):
    name = request.param
    return name, refs.record(name, tmp_path_factory.mktemp(name))


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) and math.isfinite(a)


def hash_problems(want: dict, got: dict) -> list[str]:
    return [f"{run}/{f}: sha256 {got['sha256'].get(run, {}).get(f)}, "
            f"reference {h}"
            for run, files in want["sha256"].items()
            for f, h in files.items()
            if got["sha256"].get(run, {}).get(f) != h] + [
        f"{run}/{f}: not in the reference"
        for run, files in got["sha256"].items()
        for f in files if f not in want["sha256"].get(run, {})]


def number_problems(want: dict, got: dict) -> list[str]:
    problems = [f"kl_manifest.txt: {k}={got['manifest'].get(k)}, "
                f"reference {v}"
                for k, v in want["manifest"].items()
                if got["manifest"].get(k) != v]
    if sorted(got["csv"]) != sorted(want["csv"]):
        problems.append(f"CSV outputs {sorted(got['csv'])}, reference "
                        f"{sorted(want['csv'])}")
    for path, ref in want["csv"].items():
        csv = got["csv"].get(path, {"rows": [], "comments": {}})
        shape = [len(r) for r in csv["rows"]]
        if shape != [len(r) for r in ref["rows"]]:
            problems.append(f"{path}: rows of {shape} values, reference "
                            f"{[len(r) for r in ref['rows']]}")
        else:
            problems += [f"{path}: row {i} value {j} is {a!r}, reference {b!r}"
                         for i, (row, ref_row) in enumerate(
                             zip(csv["rows"], ref["rows"]))
                         for j, (a, b) in enumerate(zip(row, ref_row))
                         if not _close(a, b)]
        if sorted(csv["comments"]) != sorted(ref["comments"]):
            problems.append(f"{path}: comments {sorted(csv['comments'])}, "
                            f"reference {sorted(ref['comments'])}")
        else:
            problems += [f"{path}: # {k} is {csv['comments'][k]!r}, "
                         f"reference {v!r}"
                         for k, v in ref["comments"].items()
                         if not _close(csv["comments"][k], v)]
    if sorted(got["fields"]) != sorted(want["fields"]):
        problems.append(f"field dumps {sorted(got['fields'])}, reference "
                        f"{sorted(want['fields'])}")
    for path, ref in want["fields"].items():
        blocks = got["fields"].get(path, [])
        if [b[0] for b in blocks] != [b[0] for b in ref]:
            problems.append(f"{path}: blocks of {[b[0] for b in blocks]} "
                            f"values, reference {[b[0] for b in ref]}")
            continue
        problems += [f"{path}: block {i} {what} is {a!r}, reference {b!r}"
                     for i, (block, ref_block) in enumerate(zip(blocks, ref))
                     for what, a, b in zip(("sum |v|", "max |v|"),
                                           block[1:], ref_block[1:])
                     if not _close(a, b)]
    return problems


def fingerprint_differences(want: dict, got: dict) -> list[str]:
    return [f"{k} {got['fingerprint'].get(k)!r} (reference {v!r})"
            for k, v in want["fingerprint"].items()
            if got["fingerprint"].get(k) != v]


def test_outputs_match_the_references(recorded):
    name, got = recorded
    want = _reference(name)
    assert got["config"] == want["config"]
    differ = fingerprint_differences(want, got)
    if not differ:
        problems = hash_problems(want, got)
        assert not problems, "\n".join(problems)
    else:
        problems = number_problems(want, got)
        assert not problems, ("fingerprint differs in " + ", ".join(differ)
                              + "; numbers compared:\n" + "\n".join(problems))


def test_numbers_hold_where_the_bytes_do(recorded):
    """The path taken where the fingerprint differs passes on the
    reference environment too, and catches a move beyond RTOL."""
    name, got = recorded
    want = _reference(name)
    assert number_problems(want, got) == []
    path = sorted(want["csv"])[0]
    moved = json.loads(json.dumps(got))
    moved["csv"][path]["rows"][0][1] *= 1.0 + 3.0 * RTOL
    moved["manifest"]["vector_modes"] += 1
    dump = sorted(want["fields"])[-1]
    moved["fields"][dump][-1][1] *= 1.0 - 3.0 * RTOL
    problems = number_problems(want, moved)
    assert len(problems) == 3
    assert problems[0].startswith("kl_manifest.txt: vector_modes=")
    assert problems[1].startswith(f"{path}: row 0 value 1")
    assert problems[2].startswith(f"{dump}: block ")
    assert " sum |v| is " in problems[2]


def test_fingerprint_names_the_fields_that_differ():
    want = _reference("tiny")
    got = {"fingerprint": dict(want["fingerprint"], blas="other", cpu="x")}
    assert [d.split()[0] for d in fingerprint_differences(want, got)] == [
        "blas", "cpu"]
