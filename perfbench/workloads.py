"""Benchmark workloads: config, command, set-up repeats and expected outputs.

Each workload is one config of the `domainuq` CLI.  Its set-up is
`build-kl`; its main command (`convergence` or `mc`) is run at
`--threads 1` and `--threads 2`.  The seed reaches the program only
through `--seed`.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Files of `build-kl` copied into each main command's output directory.
ARTIFACTS = ("vector_field.txt", "coefficient.txt", "kl_manifest.txt")

#: Seed at which outputs are also compared with the reference numbers below.
REFERENCE_SEED = 0

#: Relative tolerance of the reference comparison.  The solvers may drift by
#: about 1e-11 relative between commits; anything near 1e-6 is a real change.
REFERENCE_RTOL = 1e-6

#: Accepted range of the fitted log-log slopes in convergence.csv.  The
#: perturbation estimator is second order, and every seed tried at the
#: reference commit gave 2.02 to 2.14.
SLOPE_BAND = (1.8, 2.4)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                 # "convergence" or "mc"
    config: dict                 # key = value lines of the config file
    setup_repeats: int           # build-kl runs per benchmark run
    trace_threads: int           # --threads of the traced main command
    manifest: dict               # seed-independent kl_manifest.txt values
    reference: tuple             # data rows of the main CSV at REFERENCE_SEED
    reference_slopes: tuple = ()  # (slope_mean, slope_var) at REFERENCE_SEED

    def config_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.config.items())

    @property
    def csv_name(self) -> str:
        return f"{self.command}.csv"


_MANIFEST_L4 = {"vector_modes": 47, "vector_chol_rank": 78,
                "coeff_modes": 9, "coeff_chol_rank": 14}
_MANIFEST_L5_L6 = {"vector_modes": 48, "vector_chol_rank": 78,
                   "coeff_modes": 9, "coeff_chol_rank": 14}

WORKLOADS = {
    # Many small systems (545 nodes, about 93 CG iterations, 8 solves per
    # realization), so per-realization fixed costs and import show.
    "desk-l4": Workload(
        name="desk-l4",
        command="convergence",
        config={"mesh_level": 4, "grid_cells": 64, "n_mc": 200},
        setup_repeats=5,
        trace_threads=1,
        manifest=_MANIFEST_L4,
        reference=(
            (0.25, 0.0010694845817372028, 0.00043046025005950801,
             0.00069287322134722201, 200),
            (0.5, 0.0043341078298693367, 0.0017740760959878152,
             0.0014046318209728556, 200),
            (1.0, 0.018364961577023203, 0.0080994131396257552,
             0.0029798528145083244, 200),
        ),
        reference_slopes=(2.0509841442903909, 2.1169327259751749),
    ),
    # Few large systems (8,321 nodes, about 390 CG iterations), dominated
    # by the 97-node baseline; set-up is the lowrank-heavy grid-128 build.
    "fine-l6": Workload(
        name="fine-l6",
        command="convergence",
        config={"mesh_level": 6, "grid_cells": 128, "n_mc": 4},
        setup_repeats=3,
        trace_threads=1,
        manifest=_MANIFEST_L5_L6,
        reference=(
            (0.25, 0.0025857205730762407, 0.0012301340237984789,
             0.0084781070064630856, 4),
            (0.5, 0.010536128093059344, 0.0051011722290595484,
             0.017244944864712331, 4),
            (1.0, 0.045662661138679853, 0.023875319147311801,
             0.037099466292608255, 4),
        ),
        reference_slopes=(2.071188328221953, 2.1393163032288331),
    ),
    # One problem build and one solve per (sample, eps), dispatched by
    # uq.mc_estimate; the only workload where executor changes show.
    "mc-l5-threads": Workload(
        name="mc-l5-threads",
        command="mc",
        config={"mesh_level": 5, "grid_cells": 64, "n_mc": 64},
        setup_repeats=5,
        trace_threads=2,
        manifest=_MANIFEST_L5_L6,
        reference=(
            (0.25, 64, 0.67033170989862068, 0.001843804284864187),
            (0.5, 64, 0.6732368310273289, 0.0026058263091266421),
            (1.0, 64, 0.68638487132825299, 0.0083694881734247394),
        ),
    ),
}
