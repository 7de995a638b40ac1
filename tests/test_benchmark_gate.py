"""The benchmark's seed-0 physics gate passes (perfbench/run.py).

``perfbench/fingerprint.json`` records each workload's seed-0 physics, and
the benchmark refuses a run whose fingerprint strays from it by more than
its tolerance.  A change that only moves solver bits can cross that line,
so these tests run each workload's seed-0 window through the benchmark's
own ``run_window`` and apply its gate.  The benchmark files are loaded and
executed, never edited.
"""

import functools
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import xifrac
import xifrac.driver
import xifrac.output
from xifrac.config import parse_config

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _load(name, filename):
    """Execute one benchmark file as the module ``name``.  It is entered in
    ``sys.modules`` first, because ``dataclasses`` looks a class's module
    up there."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@functools.cache
def _benchmark():
    return (_load("perfbench_workloads", "workloads.py"),
            _load("perfbench_run", "run.py"))


@pytest.mark.parametrize("name", ["amr_field", "global_pcg"])
def test_seed_0_window_passes_the_benchmark_gate(name, tmp_path):
    wl, run = _benchmark()
    workload = wl.WORKLOADS[name]
    text = (PERFBENCH.parent / workload.config).read_text()
    config = parse_config(text, wl.seeded_overrides(
        workload, parse_config(text, workload.overrides), 0))
    rec, history, _ = run.run_window(config, tmp_path / name, wl, xifrac)
    assert rec["error"] is None
    assert rec["problems"] == []
    assert rec["nonconverged"] == 0 and len(history) == rec["attempted"]
    recorded = json.loads((PERFBENCH / "fingerprint.json").read_text())
    assert wl.compare_fingerprint(recorded[name], rec["fingerprint"],
                                  rec["staggered_tol"]) == []
