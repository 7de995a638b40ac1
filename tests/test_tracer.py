"""The benchmark's layer tracer (perfbench/layers.py) still fits the package.

The tracer rebinds the package functions it times by name and reads some
of their arguments by name; a renamed or deleted function or argument
would only show when the benchmark runs.  These tests install and
uninstall it without a run.
"""

import importlib.util
import inspect
from pathlib import Path

import xifrac


def _layers():
    path = Path(__file__).parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
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
