"""The names of `domainuq` that the benchmark wraps in spans still exist.

`perfbench/layers.py` `PATCHES` lists `module:name` targets.  A target
that no longer resolves is skipped silently, its layer reads absent and
the metrics only it fed read None, so a rename shows up only as a
benchmark metric gone missing.  The table is read with `ast`: nothing
under `perfbench/` is imported.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

from domainuq.fields import HoldAllGrid

LAYERS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"

#: Targets that were deleted or renamed before this guard existed; the
#: benchmark reports their layers absent.
STALE = {
    "domainuq.cli:ThreadPoolExecutor",
    "domainuq.uq:ThreadPoolExecutor",
    "domainuq.perturb:element_geometry",
    "domainuq.perturb:load_from_qvalues",
    "domainuq.perturb:DeformedProblem.solve_u0",
    "domainuq.perturb:DeformedProblem.solve_u_eps_from_parts",
    "domainuq.perturb:DeformedProblem.solve_u_eps",
    "domainuq.fields:truncate",
    "domainuq.fields:assemble_mass",
    "domainuq.cli:tree_merge",
}


def patch_targets() -> list[str]:
    """The first argument of every `Patch(...)` in `PATCHES`."""
    for node in ast.parse(LAYERS_FILE.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["PATCHES"]):
            return [call.args[0].value for call in node.value.elts]
    raise AssertionError(f"no PATCHES table in {LAYERS_FILE}")


def resolves(target: str) -> bool:
    module, path = target.split(":")
    owner = importlib.import_module(module)
    for part in path.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def test_every_live_patch_target_resolves():
    targets = patch_targets()
    assert STALE <= set(targets)
    live = [t for t in targets if t not in STALE]
    assert len(live) == 32
    assert [t for t in live if not resolves(t)] == []


def test_stencil_keeps_its_length():
    """perfbench's `_measure_interp` counts interpolated points with
    `len(pts)`, and on the solve path `pts` is a `Stencil`."""
    pts = np.zeros((3, 2))
    assert len(HoldAllGrid(cells=4).stencil(pts)) == len(pts)
