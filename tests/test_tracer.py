"""The benchmark's layer tracer (perfbench/layers.py) still fits the package.

The tracer rebinds the package functions it times by name and reads some
of their arguments by name; a renamed or deleted function or argument
would only show when the benchmark runs.  These tests install and
uninstall it without a run; one does so in a fresh interpreter, where
``fem``'s scipy modules have not loaded yet, around one direct solve.
"""

import importlib.util
import inspect
import json

import pytest

import xifrac

from conftest import ROOT, run_fresh

_LAYERS = ROOT / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", _LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(path):
    owner = xifrac
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_installs_and_uninstalls_on_the_package():
    layers = _layers()
    originals = {path: _resolve(path) for path, _ in layers._WRAPPED}
    tracer = layers.Tracer()
    tracer.install(xifrac)
    try:
        for path, _ in layers._WRAPPED:
            traced = _resolve(path)
            assert traced is not originals[path]
            assert traced.__wrapped__ is originals[path]
        # The hooks after a solve, a write and a read take these arguments
        # by name.
        hooked = {"fem.solve_spd": "sys", "output.write_vtk": "path",
                  "output.write_energy_csv": "path",
                  "output.write_xi_history": "path",
                  "output.write_profile_csv": "path",
                  "output.read_vtk": "path"}
        for path, argument in hooked.items():
            fn = _resolve(path).__wrapped__
            assert argument in inspect.signature(fn).parameters, path
    finally:
        tracer.uninstall()
    for path, _ in layers._WRAPPED:
        assert _resolve(path) is originals[path]
    assert tracer.spans == []



# Run in a fresh interpreter, before scipy.sparse.linalg loads: the tracer
# reads and rebinds fem.spla.splu ("tracer"), or a test's spy patches it
# ("spy"), and a direct solve factors a system.
_LAZY_SPLU = """
import importlib.util, json, sys
import numpy as np
import pytest
import xifrac
from xifrac import fem, mesh

facts = {"loaded before": "scipy.sparse.linalg" in sys.modules}
grid = mesh.build_uniform(3)
pinned = np.isin(grid.vertex_coords[:, 1], (0.0, 1.0))
system = fem.apply_dirichlet(fem.assemble_weighted_laplace(grid, 1.0),
                             pinned, np.where(pinned, 1.0, 0.0))
if sys.argv[2] == "tracer":
    spec = importlib.util.spec_from_file_location("layers", sys.argv[1])
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    tracer = layers.Tracer()
    tracer.install(xifrac)
    import scipy.sparse.linalg as spla
    facts["resolved"] = fem.spla.splu.__wrapped__ is spla.splu
    fem.solve_spd(system, "direct")
    tracer.uninstall()
    facts["factor spans"] = [s[0] for s in tracer.spans].count("fem.factor")
else:
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fem.spla, "splu",
                      lambda A, **options: calls.append(A.shape) or "spy")
        facts["factor"] = fem._factor(system.matrix)
    facts["calls"] = len(calls)
    import scipy.sparse.linalg as spla
facts["restored"] = fem.spla.splu is spla.splu
print(json.dumps(facts))
"""


@pytest.mark.parametrize("case, facts", [
    ("tracer", {"resolved": True, "factor spans": 1}),
    ("spy", {"factor": "spy", "calls": 1}),
])
def test_fem_splu_before_scipy_sparse_linalg_loads(case, facts):
    # fem loads scipy.sparse.linalg at its first use, here the tracer's or
    # the spy's read of fem.spla.splu; either reaches fem's factorization,
    # and its undo puts scipy's splu back.
    done = run_fresh("-c", _LAZY_SPLU, _LAYERS, case)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"loaded before": False, **facts,
                                       "restored": True}
