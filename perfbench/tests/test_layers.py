import threading

import domainuq.perturb
from domainuq.cli import main as cli_main

from layers import (COUNTERS, PATCHES, Installation, Patch, installed_patches,
                    layer_metrics)
from spans import Tracer

TINY = "mesh_level = 2\ngrid_cells = 16\nn_mc = 4\nquad_level = 0\n"


def traced_tiny_run(tmp_path, patches):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    common = ["--config", str(cfg), "--out", str(tmp_path / "out")]
    tracer = Tracer()
    inst = Installation(tracer, patches)
    inst.install()
    try:
        rcs = [cli_main(["build-kl"] + common),
               cli_main(["convergence", "--threads", "2"] + common)]
    finally:
        inst.uninstall()
    return rcs, tracer, inst


def test_every_patched_name_exists_and_is_restored(tmp_path):
    original = domainuq.perturb.solve_dirichlet
    rcs, tracer, inst = traced_tiny_run(tmp_path, PATCHES)
    assert rcs == [0, 0]
    assert inst.missing == []
    assert domainuq.perturb.solve_dirichlet is original
    m = layer_metrics(tracer.spans, PATCHES, threading.get_ident(),
                      10.0, threads=2)
    assert all(name in m for name in COUNTERS)
    assert m["fem.solve_calls"][0] > 0 and m["fem.cg_iters_max"][0] > 0
    assert m["uq.quadrature_nodes"][0] == 1
    assert m["trace.worker_s"][0] > 0.0


def test_removed_name_reports_layer_absent_and_run_finishes(tmp_path):
    renamed = "domainuq.perturb:solve_dirichlet_renamed"
    patches = tuple(Patch(renamed, p.layer, p.kinds)
                    if p.target == "domainuq.perturb:solve_dirichlet" else p
                    for p in PATCHES)
    rcs, tracer, inst = traced_tiny_run(tmp_path, patches)
    assert rcs == [0, 0]
    assert inst.absent_layers() == {"fem": [renamed]}
    m = layer_metrics(tracer.spans,
                      installed_patches(inst.absent_layers(), patches),
                      threading.get_ident(), 10.0, threads=2)
    for name in ("fem.solve_s", "fem.solve_calls", "fem.cg_iters_mean",
                 "fem.cg_iters_max"):
        assert m[name][0] is None, name
    assert m["fem.self_s"][0] > 0.0
    assert m["perturb.problem_builds"][0] > 0
