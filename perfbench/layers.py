"""Outside-in span recorder for the xifrac layers.

Tracing rebinds module attributes to wrappers around the public functions
of ``mesh``, ``fem``, ``phasefield``, ``driver`` and ``output`` (plus
``scipy.sparse.linalg.splu`` as ``fem`` calls it).  The package source is
never edited: :meth:`Tracer.uninstall` puts every original back.  A load
step never calls ``config``; its parse time comes from the fresh-interpreter
set-up probes (``setup_probe.py``).  Metric names and units are listed in
``BENCHMARK.json``; this module only computes the values.

Spans are kept in memory as ``[name, start, end, parent, run_id]`` and
written out as JSON lines at the end of a run.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import json
import os
import time
import types
from collections import Counter, defaultdict

# Span name for each wrapped attribute: (module attribute path, span name).
_WRAPPED = [
    ("driver.run", "driver.run"),
    ("driver.initialize", "driver.init"),
    ("driver.staggered_step", "driver.step"),
    ("driver.update_xi", "driver.step"),
    ("driver.amr_pass", "driver.amr"),
    ("driver.crack_reached_bottom", "driver.step"),
    ("fem.assemble_weighted_laplace", "fem.assemble"),
    ("fem.assemble_weighted_mass", "fem.assemble"),
    ("fem.assemble_load", "fem.assemble"),
    ("fem.apply_dirichlet", "fem.dirichlet"),
    ("fem.combine", "fem.combine"),
    ("fem.solve_spd", "fem.solve"),
    ("fem.spla.splu", "fem.factor"),
    ("phasefield.assemble_displacement", "phasefield.assemble_u"),
    ("phasefield.assemble_phase", "phasefield.assemble_v"),
    ("phasefield.enforce_irreversibility", "phasefield.irrev"),
    ("phasefield.energies", "phasefield.energies"),
    ("phasefield.xi_field", "phasefield.xi"),
    ("phasefield.xi_global", "phasefield.xi"),
    ("phasefield.transfer_regularization", "phasefield.xi"),
    ("mesh.Mesh.__init__", "mesh.build"),
    ("mesh.build_uniform", "mesh.build"),
    ("mesh.refine", "mesh.refine"),
    ("mesh.coarsen", "mesh.coarsen"),
    ("mesh.transfer_field", "mesh.transfer"),
    ("output.write_vtk", "output.write"),
    ("output.write_energy_csv", "output.write"),
    ("output.write_xi_history", "output.write"),
    ("output.write_profile_csv", "output.write"),
    ("output.read_vtk", "output.read"),
    ("output.line_profile", "output.profile"),
]


class Tracer:
    """Records nested spans around rebound xifrac functions."""

    def __init__(self):
        self.run_id = ""  # set by the caller before each traced window
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self, package) -> None:
        """Rebind every entry of ``_WRAPPED`` inside ``package`` (xifrac)."""
        fem = package.fem
        # fem calls ``spla.splu``: give fem its own namespace so only its
        # factorizations are traced.
        proxy = types.SimpleNamespace(splu=fem.spla.splu)
        self._rebind(fem, "spla", proxy)
        modules = {"driver": package.driver, "fem": fem,
                   "phasefield": package.phasefield, "mesh": package.mesh,
                   "output": package.output}
        for path, name in _WRAPPED:
            head, *middle, attr = path.split(".")
            owner = modules[head]
            for part in middle:
                owner = getattr(owner, part)
            self._rebind(owner, attr, self._wrap(getattr(owner, attr), name))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, name):
        spans, stack, counts = self.spans, self._stack, self.counts
        after = _AFTER.get(name)
        sig = inspect.signature(fn) if after else None

        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(counts, sig.bind(*args, **kwargs).arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> tuple[dict, Counter]:
        """Total self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for k, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start - child[k]
            calls[name] += 1
        return total, calls

    def dump(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")


def _after_factor(counts, args, lu):
    counts["lu_fill"] += lu.nnz


def _after_solve(counts, args, x):
    counts["dofs"] += args["sys"].matrix.shape[0]


def _after_write(counts, args, _):
    counts["write_bytes"] += os.path.getsize(args["path"])


def _after_read(counts, args, _):
    counts["read_bytes"] += os.path.getsize(args["path"])


def _after_amr(counts, args, changed):
    counts["amr_changes"] += bool(changed)


_AFTER = {"fem.factor": _after_factor, "fem.solve": _after_solve,
          "output.write": _after_write, "output.read": _after_read,
          "driver.amr": _after_amr}


def layer_metrics(tracer: Tracer, windows: int, wall_s: float,
                  history, state) -> dict[str, float]:
    """Per-window layer metrics from the spans of ``windows`` equal windows.

    ``*_s`` values are self times, except ``driver.amr_s``, the inclusive
    time of ``amr_pass`` (its children count under mesh and phasefield).
    ``history`` and ``state`` come from the last window.
    ``config.parse_s``, ``setup.import_s`` and ``setup.init_s`` come from
    the fresh-interpreter set-up probes and ``driver.step_tail_s`` from the
    step timestamps; they are left to the caller.
    """
    self_s, calls = tracer.self_times()
    c = tracer.counts
    per = 1.0 / windows
    amr_total = sum(end - start for name, start, end, _, _ in tracer.spans
                    if name == "driver.amr")
    run_total = sum(end - start for name, start, end, _, _ in tracer.spans
                    if name == "driver.run")
    iters = [rec.stag_iters for rec in history]
    sweeps = calls["phasefield.assemble_v"] * per
    m = {
        "fem.factor_s": self_s["fem.factor"] * per,
        "fem.factor_calls": calls["fem.factor"] * per,
        "fem.lu_fill": c["lu_fill"] / max(calls["fem.factor"], 1),
        "fem.solve_s": self_s["fem.solve"] * per,
        "fem.solve_calls": calls["fem.solve"] * per,
        "fem.dofs_mean": c["dofs"] / max(calls["fem.solve"], 1),
        "fem.assemble_s": self_s["fem.assemble"] * per,
        "fem.assemble_calls": calls["fem.assemble"] * per,
        "fem.dirichlet_s": self_s["fem.dirichlet"] * per,
        "fem.combine_s": self_s["fem.combine"] * per,
        "phasefield.assemble_u_s": self_s["phasefield.assemble_u"] * per,
        "phasefield.assemble_v_s": self_s["phasefield.assemble_v"] * per,
        "phasefield.assemble_v_calls": sweeps,
        "phasefield.irrev_s": self_s["phasefield.irrev"] * per,
        "phasefield.energies_s": self_s["phasefield.energies"] * per,
        "phasefield.mask_final": len(state.mask),
        "phasefield.xi_s": self_s["phasefield.xi"] * per,
        "phasefield.xi_calls": calls["phasefield.xi"] * per,
        "driver.step_s": self_s["driver.step"] * per,
        "driver.stag_iters": sum(iters),
        "driver.stag_iters_max": max(iters, default=0),
        "driver.sweeps": sweeps,
        "driver.sweep_yield": sum(iters) / sweeps if sweeps else 0.0,
        "driver.amr_s": amr_total * per,
        "driver.amr_passes": calls["driver.amr"] * per,
        "driver.amr_changes": c["amr_changes"] * per,
        "driver.nonconverged_steps": sum(not r.converged for r in history),
        "mesh.build_s": self_s["mesh.build"] * per,
        "mesh.build_calls": calls["mesh.build"] * per,
        "mesh.refine_s": self_s["mesh.refine"] * per,
        "mesh.coarsen_s": self_s["mesh.coarsen"] * per,
        "mesh.transfer_s": self_s["mesh.transfer"] * per,
        "mesh.transfer_calls": calls["mesh.transfer"] * per,
        "mesh.cells_final": state.mesh.n_cells,
        "mesh.hanging_final": len(state.mesh.constraints),
        "output.write_s": self_s["output.write"] * per,
        "output.write_bytes": c["write_bytes"] * per,
        "output.read_s": self_s["output.read"] * per,
        "output.read_bytes": c["read_bytes"] * per,
        "output.profile_s": self_s["output.profile"] * per,
        "trace.wall_s": wall_s,
        # Share of driver.run spent inside named child layers.
        "trace.coverage": 1.0 - self_s["driver.run"] / run_total,
        "trace.spans": len(tracer.spans) * per,
    }
    return m
