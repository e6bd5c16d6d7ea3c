"""End-to-end and per-layer benchmark of the `domainuq` command line.

    python3 perfbench/run.py --workload desk-l4 --seed 0 --seconds 40 --trace 0

Run from the root of a checkout.  With `--trace 0` every command runs as a
child process with tracing off, and the end-to-end metrics are reported:
set-up (`build-kl`) time and peak RSS, main-command time and peak RSS, and
the speedup of `--threads 2` over `--threads 1`.  With `--trace 1` a
separate child runs the workload in-process with its layers wrapped in
spans (see traced.py) and the per-layer metrics are reported.

Every operation's output is checked; a non-zero exit, a failed check or a
byte difference between the `--threads 1` and `--threads 2` outputs counts
as a failed operation.  The report lists each metric with its unit and
sample count; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_main_output, check_manifest, compare_dirs
from layers import COUNTERS, installed_patches, layer_metrics
from spans import Span
from workloads import ARTIFACTS, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Children get this environment and nothing from the caller's, so a stray
#: BLAS thread setting cannot shift results.  BLAS is pinned to one thread
#: so that `--threads` is the only parallelism in a run.
CHILD_ENV = {
    "PATH": os.defpath,
    "PYTHONPATH": str(ROOT / "src"),
    "PYTHONHASHSEED": "0",
    "LC_ALL": "C",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

#: Wall budget of one benchmark run; children still running then are killed.
RUN_BUDGET_S = 170.0

#: Largest share of the traced wall time that the main thread may spend
#: outside every span.  Measured shares are 0.04% to 0.6% (argument
#: parsing and config loading in `main`).
MAX_REMAINDER_FRAC = 0.05

#: `import domainuq.cli` timings per traced run (median reported).
IMPORT_REPEATS = 3

IMPORT_PROBE = ("import time; t = time.perf_counter(); import domainuq.cli; "
                "print(time.perf_counter() - t)")

ENV_PROBE = """
import json, platform, numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}"}))
"""


@dataclass
class Child:
    rc: int
    wall_s: float
    rss_mb: float
    log: Path


@dataclass
class Tally:
    """Operations attempted and failed, with the reasons of failures."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
        return not problems


@dataclass
class Samples:
    """Wall times and peak RSS of the passing runs of one command."""

    walls: list = field(default_factory=list)
    rss: list = field(default_factory=list)

    def add(self, child: Child) -> None:
        self.walls.append(child.wall_s)
        self.rss.append(child.rss_mb)


def _median(values: list) -> float | None:
    return statistics.median(values) if values else None


def _exit_problems(child: Child) -> list[str]:
    if child.rc == 0:
        return []
    tail = child.log.read_text(errors="replace").strip().splitlines()[-3:]
    return [f"exit code {child.rc}: " + " | ".join(tail)]


class Bench:
    """One benchmark run of one workload, in its own scratch directory."""

    def __init__(self, wl: Workload, seed: int, work: Path):
        self.wl = wl
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.tally = Tally()
        self.config = work / "workload.cfg"
        self.config.write_text(wl.config_text())
        self._logs = 0

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def child(self, argv: list[str]) -> Child:
        """Run one child to completion; wall time and its own peak RSS."""
        self._logs += 1
        log = self.work / f"child{self._logs}.log"
        with open(log, "w") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(max(self.remaining(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, log)

    def cli(self, argv: list[str], out: Path) -> Child:
        return self.child([sys.executable, "-m", "domainuq.cli"] + argv + [
            "--config", str(self.config), "--seed", str(self.seed),
            "--out", str(out)])

    def environment(self) -> dict:
        probe = self.child([sys.executable, "-c", ENV_PROBE])
        info = {"nproc": os.cpu_count(),
                "cpus_usable": len(os.sched_getaffinity(0)),
                "child_env": {k: v for k, v in CHILD_ENV.items()
                              if k != "PYTHONPATH"}}
        if probe.rc == 0:
            info.update(json.loads(probe.log.read_text().splitlines()[-1]))
        return info

    # -- end to end -------------------------------------------------------

    def _build(self, i: int, setup: Samples) -> Path | None:
        """One build-kl; returns its output directory if it passed."""
        out = self.work / f"setup{i}"
        c = self.cli(["build-kl"], out)
        if not self.tally.record(f"build-kl #{i}", _exit_problems(c)
                                 or check_manifest(str(out), self.wl)):
            return None
        setup.add(c)
        return out

    def _repeat(self, i: int, artifacts: Path, runs: dict,
                ratios: list) -> None:
        """The main command at --threads 1 and 2, alternating the order."""
        wl = self.wl
        passed = {}
        for threads in ((1, 2) if i % 2 == 0 else (2, 1)):
            out = self.work / f"run{i}-t{threads}"
            out.mkdir()
            for name in ARTIFACTS:
                shutil.copyfile(artifacts / name, out / name)
            c = self.cli([wl.command, "--threads", str(threads)], out)
            if self.tally.record(f"{wl.command} #{i} --threads {threads}",
                                 _exit_problems(c)
                                 or check_main_output(str(out), wl, self.seed)):
                runs[threads].add(c)
                passed[threads] = (out, c.wall_s)
        if len(passed) == 2:
            self.tally.record(f"determinism #{i}", compare_dirs(
                str(passed[1][0]), str(passed[2][0])))
            # Paired ratios cancel load drift between repeats.
            ratios.append(passed[1][1] / passed[2][1])
        for threads in (1, 2):
            shutil.rmtree(self.work / f"run{i}-t{threads}", ignore_errors=True)

    def end_to_end(self, seconds: float) -> dict:
        """Builds and main-command repeats, interleaved over the window.

        The host's speed drifts by tens of percent over tens of seconds, so
        the samples of each metric are spread over the whole run rather
        than taken back to back.
        """
        setup, runs, ratios = Samples(), {1: Samples(), 2: Samples()}, []
        start = time.perf_counter()
        artifacts = self._build(0, setup)
        later_builds = iter(range(1, self.wl.setup_repeats))
        i, repeats_s = 0, 0.0
        # Start another repeat only if it should end within the window.
        while artifacts and (i == 0 or (
                self.remaining() > 0 and time.perf_counter() - start
                + repeats_s / i <= seconds)):
            began = time.perf_counter()
            self._repeat(i, artifacts, runs, ratios)
            repeats_s += time.perf_counter() - began
            i += 1
            b = next(later_builds, None)
            if b is not None:
                self._build(b, setup)
        for b in later_builds:
            if self.remaining() <= 0:
                break
            self._build(b, setup)
        if artifacts is None:
            return {}
        return {
            "setup_s": (_median(setup.walls), "s", len(setup.walls)),
            "setup_rss_mb": (_median(setup.rss), "MB", len(setup.rss)),
            "run_s": (_median(runs[1].walls), "s", len(runs[1].walls)),
            "run_rss_mb": (_median(runs[1].rss), "MB", len(runs[1].rss)),
            "thread_speedup": (_median(ratios), "x", len(ratios)),
        }

    # -- traced -----------------------------------------------------------

    def traced(self) -> dict:
        wl = self.wl
        imports = []
        for i in range(IMPORT_REPEATS):
            c = self.child([sys.executable, "-c", IMPORT_PROBE])
            if self.tally.record(f"import #{i}", _exit_problems(c)):
                imports.append(float(c.log.read_text().split()[-1]))

        c = self.child([sys.executable, str(HERE / "traced.py"),
                        "--config", str(self.config),
                        "--command", wl.command,
                        "--threads", str(wl.trace_threads),
                        "--seed", str(self.seed), "--work", str(self.work)])
        if not self.tally.record("traced child", _exit_problems(c)):
            return {}
        data = json.loads((self.work / "trace.json").read_text())
        runs, untraced = data["runs"], data["untraced"]

        per_run = []
        for k, run in enumerate(runs, 1):
            self.tally.record(
                f"traced build-kl #{k}",
                [f"exit code {run['setup_rc']}"] if run["setup_rc"]
                else check_manifest(run["out"], wl))
            self.tally.record(
                f"traced {wl.command} #{k}",
                [f"exit code {run['main_rc']}"] if run["main_rc"]
                else check_main_output(run["out"], wl, self.seed))
            spans = [Span.from_list(row) for row in run["spans"]]
            per_run.append(layer_metrics(
                spans, installed_patches(run["absent"]), run["main_thread"],
                run["setup_s"] + run["main_s"], wl.trace_threads))
            self.tally.record(f"trace coverage #{k}",
                              _coverage_problems(per_run[-1]))
        self.tally.record(
            f"untraced {wl.command}",
            [f"exit code {untraced['rc']}"] if untraced["rc"]
            else check_main_output(untraced["out"], wl, self.seed)
            + compare_dirs(runs[1]["out"], untraced["out"]))
        self.tally.record("counters repeat", [
            f"{name}: {per_run[0][name][0]} then {per_run[1][name][0]}"
            for name in COUNTERS if per_run[0][name][0] != per_run[1][name][0]])

        metrics = {name: (value, unit, 1)
                   for name, (value, unit) in per_run[1].items()}
        metrics["lowrank.cholesky_peak_mb"] = (
            per_run[0]["lowrank.cholesky_peak_mb"][0], "MB", 1)
        metrics["cli.import_s"] = (_median(imports), "s", len(imports))
        metrics["trace.overhead_frac"] = (
            runs[1]["main_s"] / untraced["main_s"] - 1.0
            if untraced["main_s"] > 0 else None, "frac", 1)
        absent = runs[1]["absent"]
        for layer, targets in sorted(absent.items()):
            print(f"# layer {layer} absent: missing {', '.join(targets)}")
        metrics["trace.absent_layers"] = (len(absent), "count", 1)
        return metrics


def _coverage_problems(m: dict) -> list[str]:
    """The spans must cover the traced run: the main thread's time outside
    every span must be at least 0 and at most MAX_REMAINDER_FRAC of it."""
    wall, rest = m["trace.wall_s"][0], m["trace.remainder_s"][0]
    if -1e-6 <= rest <= MAX_REMAINDER_FRAC * wall:
        return []
    return [f"{rest:.6f} s of {wall:.6f} s traced time outside every span "
            f"(allowed 0 to {MAX_REMAINDER_FRAC:.0%})"]


def _print_report(metrics: dict, tally: Tally) -> None:
    for name, (value, unit, n) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:28s} {shown:>14s} {unit:6s} n={n}")
    frac = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"{'fail_frac':28s} {frac:>14.6g} {'frac':6s} "
          f"n={tally.attempted} (failed {tally.failed})")
    for problem in tally.problems:
        print(f"# FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "domainuq" / "cli.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'domainuq'} not found; run from "
              "a checkout of the domainuq repository", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(wl, args.seed, work)
    print(f"# perfbench workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# environment {json.dumps(bench.environment())}")
    metrics = bench.traced() if args.trace else bench.end_to_end(args.seconds)
    _print_report(metrics, bench.tally)

    tally = bench.tally
    result = {
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    if result["correct"]:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
