"""The single command prints every metric of BENCHMARK.json with its unit.

These run the real benchmark on its smallest workload, about 30 s.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-l4",
         "--seed", "0", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"),
                                            ("1", "per_layer")])
def test_command_emits_every_metric_with_its_unit(trace, section):
    proc = run_bench(ROOT, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == want
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name
        assert any(line.startswith(name + " ") for line in lines), name
    assert any(line.startswith("fail_frac ") for line in lines)


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
