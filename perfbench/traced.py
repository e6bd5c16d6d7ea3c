"""Traced in-process runs of one workload; started by run.py as a child.

Runs `domainuq.cli.main` three times over in this process:

1. `build-kl` and the main command with every name of layers.PATCHES
   wrapped in spans, and tracemalloc on inside the Cholesky
   factorizations for their memory peak.  This run also pays the one-off
   costs of a first call (lazy imports, first-touch memory);
2. the main command untraced, on the artifacts of run 1;
3. `build-kl` and the main command traced again without tracemalloc: the
   timed traced run.  Its main command against run 2 gives the tracing
   overhead, and its counters must repeat those of run 1 exactly.

The spans and walls of both traced runs are written as JSON to
`<work>/trace.json`.

    python3 perfbench/traced.py --config CFG --command convergence \
        --threads 1 --seed 0 --work DIR
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import threading
import time

from layers import Installation
from spans import Tracer
from workloads import ARTIFACTS


def _call(main, argv: list[str]) -> tuple[int, float]:
    start = time.perf_counter()
    rc = main(argv)
    return rc, time.perf_counter() - start


def _traced_pass(main, args, out: str, trace_memory: bool) -> dict:
    common = ["--config", args.config, "--seed", str(args.seed),
              "--out", out]
    tracer = Tracer()
    inst = Installation(tracer, trace_memory=trace_memory)
    inst.install()
    try:
        setup_rc, setup_s = _call(main, ["build-kl"] + common)
        main_rc, main_s = -1, 0.0
        if setup_rc == 0:
            main_rc, main_s = _call(main, [args.command] + common
                                    + ["--threads", str(args.threads)])
    finally:
        inst.uninstall()
    return {"out": out, "setup_rc": setup_rc, "main_rc": main_rc,
            "setup_s": setup_s, "main_s": main_s,
            "main_thread": threading.get_ident(),
            "absent": inst.absent_layers(),
            "spans": [s.to_list() for s in tracer.spans]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--command", required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()

    from domainuq.cli import main as cli_main

    first = _traced_pass(cli_main, args, os.path.join(args.work, "traced1"),
                         trace_memory=True)
    untraced = os.path.join(args.work, "untraced")
    os.makedirs(untraced, exist_ok=True)
    rc, wall = -1, 0.0
    if first["setup_rc"] == 0:
        for name in ARTIFACTS:
            shutil.copyfile(os.path.join(first["out"], name),
                            os.path.join(untraced, name))
        rc, wall = _call(cli_main, [
            args.command, "--config", args.config, "--seed", str(args.seed),
            "--out", untraced, "--threads", str(args.threads)])
    second = _traced_pass(cli_main, args, os.path.join(args.work, "traced2"),
                          trace_memory=False)
    with open(os.path.join(args.work, "trace.json"), "w") as f:
        json.dump({"runs": [first, second],
                   "untraced": {"out": untraced, "rc": rc, "main_s": wall}},
                  f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
