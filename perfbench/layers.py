"""Which public names of `domainuq` are wrapped in spans, and the per-layer
metrics computed from those spans.

Layers are the package's modules.  Every name is patched in the module
that calls it (for example `domainuq.perturb:solve_dirichlet`, which is
what `DeformedProblem` looks up), or on its class for methods.  A name that
no longer exists is skipped, its layer is reported absent and the metrics
only it fed are None, so the benchmark still finishes after a refactor
renames or deletes it.
"""

from __future__ import annotations

import importlib
import inspect
import os
import statistics
import tracemalloc
from dataclasses import dataclass

from spans import Span, Tracer, percentile, root_coverage, self_times


@dataclass(frozen=True)
class Patch:
    target: str          # "module:attr" or "module:Class.attr"
    layer: str
    kinds: tuple = ()    # metric groups the span counts in


PATCHES = (
    Patch("domainuq.cli:build_disc_mesh", "mesh"),
    Patch("domainuq.perturb:displace", "mesh", ("displace",)),

    Patch("domainuq.fields:HoldAllGrid.interpolate", "fields", ("interp",)),
    Patch("domainuq.perturb:eval_displacement", "fields", ("displacement",)),
    Patch("domainuq.cli:draw_sample", "fields", ("sample",)),
    Patch("domainuq.uq:draw_sample", "fields", ("sample",)),
    Patch("domainuq.cli:build_vector_field_kl", "fields"),
    Patch("domainuq.cli:build_coefficient_kl", "fields"),
    Patch("domainuq.cli:save_vector_field", "fields", ("artifact_save",)),
    Patch("domainuq.cli:save_scalar_field", "fields", ("artifact_save",)),
    Patch("domainuq.cli:load_vector_field", "fields", ("artifact_load",)),
    Patch("domainuq.cli:load_scalar_field", "fields", ("artifact_load",)),

    Patch("domainuq.fields:pivoted_cholesky", "lowrank", ("cholesky",)),
    Patch("domainuq.fields:reduced_eigs", "lowrank", ("eigs",)),
    Patch("domainuq.fields:truncate", "lowrank"),

    Patch("domainuq.fields:assemble_mass", "fem", ("assembly",)),
    Patch("domainuq.perturb:element_geometry", "fem", ("geometry",)),
    Patch("domainuq.perturb:stiffness_from_qvalues", "fem", ("assembly",)),
    Patch("domainuq.perturb:load_from_qvalues", "fem", ("assembly",)),
    Patch("domainuq.perturb:solve_dirichlet", "fem", ("solve",)),
    Patch("domainuq.uq:h1_norm", "fem", ("norm",)),
    Patch("domainuq.uq:w11_norm", "fem", ("norm",)),
    Patch("domainuq.cli:l2_norm", "fem", ("norm",)),

    Patch("domainuq.perturb:DeformedProblem.__init__", "perturb", ("problem",)),
    Patch("domainuq.perturb:DeformedProblem.rough_qvalues", "perturb",
          ("rough_q",)),
    Patch("domainuq.perturb:DeformedProblem.rough_stiffness", "perturb"),
    Patch("domainuq.perturb:DeformedProblem.solve_u0", "perturb"),
    Patch("domainuq.perturb:DeformedProblem.solve_u_eps_from_parts", "perturb"),
    Patch("domainuq.perturb:DeformedProblem.solve_u_eps", "perturb"),

    Patch("domainuq.uq:RunningMoments.update", "uq", ("welford",)),
    Patch("domainuq.cli:tree_merge", "uq", ("merge",)),
    Patch("domainuq.uq:tree_merge", "uq", ("merge",)),
    Patch("domainuq.cli:smolyak_rule", "uq"),
    Patch("domainuq.cli:save_statistics", "uq", ("stats_save",)),
    Patch("domainuq.cli:mc_estimate", "uq", ("dispatch",)),
    Patch("domainuq.cli:quadrature_estimate", "uq",
          ("dispatch", "quadrature")),
    Patch("domainuq.uq:ThreadPoolExecutor", "uq", ("pool",)),

    Patch("domainuq.cli:cmd_build_kl", "cli"),
    Patch("domainuq.cli:cmd_convergence", "cli"),
    Patch("domainuq.cli:cmd_mc", "cli"),
    Patch("domainuq.cli:_paired_sweep", "cli", ("dispatch",)),
    Patch("domainuq.cli:ThreadPoolExecutor", "cli", ("pool",)),
)

LAYERS = ("lowrank", "mesh", "fields", "fem", "perturb", "uq", "cli")

#: Counts that must repeat exactly across two traced runs of one workload.
COUNTERS = ("fem.solve_calls", "fem.cg_iters_mean", "fem.cg_iters_max",
            "perturb.problem_builds", "perturb.rough_q_calls",
            "fields.interp_values", "fields.artifact_bytes",
            "lowrank.cholesky_rank", "uq.quadrature_nodes",
            "uq.welford_updates")


def _task_name(p: Patch) -> str:
    return p.target.split(":")[0] + ".worker_task"


def span_kinds(patches=PATCHES) -> dict[str, tuple]:
    """Span name -> metric groups, for the spans a patch set records."""
    kinds = {p.target: p.kinds for p in patches}
    kinds.update({_task_name(p): ("task",) for p in patches
                  if "pool" in p.kinds})
    return kinds


def _binder(fn):
    """(args, kwargs) -> {parameter name: value} for calls of fn."""
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def _measure_solve(fn):
    sig = inspect.signature(fn)
    if "diag_out" not in sig.parameters:
        return None

    def measure(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        diag = bound.arguments.get("diag_out")
        if diag is None:
            diag = bound.arguments["diag_out"] = {}
        return bound.args, bound.kwargs, lambda _: {
            "iters": diag.get("iterations", 0)}
    return measure


def _measure_interp(fn):
    bind = _binder(fn)

    def measure(args, kwargs):
        a = bind(args, kwargs)
        shape = getattr(a["vertex_values"], "shape", (1,))
        pts = a["pts"]
        n_points = len(pts) if getattr(pts, "ndim", 2) == 2 else 1
        fields = 1
        for extent in shape[:-1]:
            fields *= extent
        return args, kwargs, lambda _: {"values": fields * n_points}
    return measure


def _measure_file(fn):
    bind = _binder(fn)

    def measure(args, kwargs):
        path = bind(args, kwargs)["path"]
        return args, kwargs, lambda _: {"bytes": os.path.getsize(path)}
    return measure


def _measure_quadrature(fn):
    bind = _binder(fn)

    def measure(args, kwargs):
        nodes = len(bind(args, kwargs)["rule"].nodes)
        return args, kwargs, lambda _: {"nodes": nodes}
    return measure


def _measure_cholesky(trace_memory: bool):
    def measure(args, kwargs):
        if trace_memory:
            tracemalloc.start()

        def finish(result):
            attrs = {"rank": getattr(result, "rank", 0)}
            if trace_memory:
                attrs["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            return attrs
        return args, kwargs, finish
    return measure


def _traced_pool(tracer: Tracer, base, name: str, layer: str):
    class TracedPool(base):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.wrap(fn, name, layer),
                                  *args, **kwargs)
    return TracedPool


class Installation:
    """Patches a set of names with span wrappers and restores them."""

    def __init__(self, tracer: Tracer, patches=PATCHES,
                 trace_memory: bool = False):
        self.tracer = tracer
        self.patches = patches
        self.trace_memory = trace_memory
        self.missing: list[Patch] = []
        self._restore: list[tuple] = []

    def _replacement(self, p: Patch, original):
        if "pool" in p.kinds:
            return _traced_pool(self.tracer, original, _task_name(p), p.layer)
        measure = None
        if "solve" in p.kinds:
            measure = _measure_solve(original)
        elif "interp" in p.kinds:
            measure = _measure_interp(original)
        elif "artifact_save" in p.kinds or "artifact_load" in p.kinds:
            measure = _measure_file(original)
        elif "quadrature" in p.kinds:
            measure = _measure_quadrature(original)
        elif "cholesky" in p.kinds:
            measure = _measure_cholesky(self.trace_memory)
        return self.tracer.wrap(original, p.target, p.layer, measure)

    def install(self) -> None:
        for p in self.patches:
            module_name, path = p.target.split(":")
            *owner_path, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(p)
                continue
            setattr(owner, attr, self._replacement(p, original))
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        if tracemalloc.is_tracing():
            tracemalloc.stop()

    def absent_layers(self) -> dict[str, list[str]]:
        absent: dict[str, list[str]] = {}
        for p in self.missing:
            absent.setdefault(p.layer, []).append(p.target)
        return absent


def installed_patches(absent: dict[str, list[str]], patches=PATCHES) -> tuple:
    """The patches that were installed, given `Installation.absent_layers()`."""
    missing = {t for targets in absent.values() for t in targets}
    return tuple(p for p in patches if p.target not in missing)


def _pair_ms(spans: list[Span], kinds: dict) -> list[float]:
    """Cost of each sweep iteration: from a sample draw to the next draw
    under the same parent span on the same thread, or for the last draw,
    to the end of its last sibling span."""
    siblings: dict[tuple, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            siblings.setdefault((s.thread, s.parent), []).append(s)
    out = []
    for group in siblings.values():
        group.sort(key=lambda s: s.start)
        draws = [i for i, s in enumerate(group)
                 if "sample" in kinds.get(s.name, ())]
        for k, i in enumerate(draws):
            if k + 1 < len(draws):
                end = group[draws[k + 1]].start
            else:
                end = max(s.end for s in group[i:])
            out.append(1e3 * (end - group[i].start))
    return out


def _worker_busy_frac(spans: list[Span], kinds: dict, threads: int) -> float:
    """Busy time summed over workers / (dispatch wall x threads).

    Workers are the pool's threads when the dispatch used a pool, and the
    calling thread when it ran the work itself.
    """
    tasks = [s for s in spans if "task" in kinds.get(s.name, ())]
    busy = capacity = 0.0
    for d in spans:
        if "dispatch" not in kinds.get(d.name, ()):
            continue
        capacity += d.duration * threads
        inside = [t for t in tasks if t.start < d.end and t.end > d.start]
        if not inside:
            busy += d.duration
            continue
        for thread in {t.thread for t in inside}:
            busy += root_coverage(inside, thread, d.start, d.end)
    return busy / capacity if capacity > 0.0 else 0.0


def layer_metrics(spans: list[Span], patches, main_thread: int,
                  wall_s: float, threads: int) -> dict[str, tuple]:
    """Per-layer metrics of one traced run: name -> (value, unit).

    `patches` are the patches that were installed.  A metric that only
    spans of missing names could feed is None rather than 0, so that a
    renamed or deleted name never reads as a gain.  Layer self times plus
    the main thread's time outside every span add up to the main thread's
    wall time plus the worker threads' span time.
    """
    kinds = span_kinds(patches)
    recorded = {k for ks in kinds.values() for k in ks}
    layers = {p.layer for p in patches}
    self_s = self_times(spans)

    def of(kind):
        return [s for s in spans if kind in kinds.get(s.name, ())]

    def self_sum(*kind_names):
        return sum(self_s[s.id] for k in kind_names for s in of(k))

    def attr_sum(kind, key):
        return sum(s.attrs.get(key, 0) for s in of(kind))

    iters = [s.attrs.get("iters", 0) for s in of("solve")]
    pairs = _pair_ms(spans, kinds)
    peaks = [s.attrs["peak_mb"] for s in of("cholesky") if "peak_mb" in s.attrs]
    worker_s = sum(s.duration for s in spans
                   if s.parent is None and s.thread != main_thread)
    covered = root_coverage(spans, main_thread, float("-inf"), float("inf"))

    m = {f"{layer}.self_s": (sum(self_s[s.id] for s in spans
                                 if s.layer == layer)
                             if layer in layers else None, "s")
         for layer in LAYERS}
    # name: (value, unit, span kinds it is computed from)
    by_kind = {
        "lowrank.cholesky_s": (self_sum("cholesky"), "s", ("cholesky",)),
        "lowrank.eigs_s": (self_sum("eigs"), "s", ("eigs",)),
        "lowrank.cholesky_rank": (attr_sum("cholesky", "rank"), "count",
                                  ("cholesky",)),
        "lowrank.cholesky_peak_mb": (max(peaks, default=0.0), "MB",
                                     ("cholesky",)),
        "mesh.displace_calls": (len(of("displace")), "count", ("displace",)),
        "fields.interp_s": (self_sum("interp"), "s", ("interp",)),
        "fields.interp_values": (attr_sum("interp", "values"), "count",
                                 ("interp",)),
        "fields.displacement_s": (self_sum("displacement"), "s",
                                  ("displacement",)),
        "fields.sample_s": (self_sum("sample"), "s", ("sample",)),
        "fields.artifact_save_s": (self_sum("artifact_save"), "s",
                                   ("artifact_save",)),
        "fields.artifact_load_s": (self_sum("artifact_load"), "s",
                                   ("artifact_load",)),
        "fields.artifact_bytes": (attr_sum("artifact_save", "bytes")
                                  + attr_sum("artifact_load", "bytes"),
                                  "bytes", ("artifact_save", "artifact_load")),
        "fem.assembly_s": (self_sum("assembly", "geometry"), "s",
                           ("assembly", "geometry")),
        "fem.assembly_calls": (len(of("assembly")), "count", ("assembly",)),
        "fem.solve_s": (self_sum("solve"), "s", ("solve",)),
        "fem.solve_calls": (len(iters), "count", ("solve",)),
        "fem.cg_iters_mean": (sum(iters) / len(iters) if iters else 0.0,
                              "count", ("solve",)),
        "fem.cg_iters_max": (max(iters, default=0), "count", ("solve",)),
        "fem.norm_s": (self_sum("norm"), "s", ("norm",)),
        "perturb.problem_s": (sum(s.duration for s in of("problem")), "s",
                              ("problem",)),
        "perturb.problem_builds": (len(of("problem")), "count", ("problem",)),
        "perturb.rough_q_calls": (len(of("rough_q")), "count", ("rough_q",)),
        "perturb.pair_ms_p50": (statistics.median(pairs) if pairs else 0.0,
                                "ms", ("sample",)),
        "perturb.pair_ms_p90": (percentile(pairs, 90) if pairs else 0.0,
                                "ms", ("sample",)),
        "uq.welford_s": (self_sum("welford"), "s", ("welford",)),
        "uq.welford_updates": (len(of("welford")), "count", ("welford",)),
        "uq.merge_s": (self_sum("merge"), "s", ("merge",)),
        "uq.quadrature_nodes": (attr_sum("quadrature", "nodes"), "count",
                                ("quadrature",)),
        "uq.stats_save_s": (self_sum("stats_save"), "s", ("stats_save",)),
        "cli.worker_busy_frac": (_worker_busy_frac(spans, kinds, threads),
                                 "frac", ("dispatch",)),
    }
    for name, (value, unit, sources) in by_kind.items():
        m[name] = (value if recorded.intersection(sources) else None, unit)
    m.update({
        "trace.wall_s": (wall_s, "s"),
        "trace.worker_s": (worker_s, "s"),
        "trace.remainder_s": (wall_s - covered, "s"),
    })
    return m
