#!/usr/bin/env python3
"""xifrac benchmark: time fracture workloads through the public API.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload amr_field --seed 0 --seconds 45 --trace 0

One run measures set-up in fresh interpreters, then runs the workload's
load-step window (``driver.run``) plus its post-processing, repeated a
number of times fixed by ``--seconds``, checks the physics, and prints as
its last line one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  Attempts are load steps; a step fails when it raises or
does not converge, and every step of a run that fails the physics gate
counts as failed.  ``--trace 0`` reports the end-to-end metrics, as
seconds at a reference machine speed (see ``speed.py``); ``--trace 1``
traces the layers (see ``layers.py``) and reports per-layer metrics
instead, in plain seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = 1
SETUP_REPEATS = 5
PROFILE_Y = 0.75
PROFILE_SAMPLES = 201
POSTPROC_REPEATS = 2


def pin_blas_threads() -> None:
    """Fix BLAS/OpenMP threads before numpy loads (results are bitwise equal)."""
    n = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "python": sys.version.split()[0]}


def measure_setup(config_path: Path, overrides: dict) -> tuple[float, dict]:
    """Median cold set-up time over fresh interpreters, plus phase medians.

    Each interpreter's times are scaled to the reference speed by speed
    probes timed just before and after it; a probe timed while it runs
    would compete with it for the cores.
    """
    import speed
    probe = speed.Probe()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(config_path)]
    cmd += [f"{k}={v}" for k, v in overrides.items()]
    totals, phases = [], []
    for _ in range(SETUP_REPEATS):
        before = probe()
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        elapsed = time.perf_counter() - t0
        scale = speed.at_ref(1.0, [before, probe()])
        totals.append(elapsed * scale)
        times = json.loads(done.stdout.strip().splitlines()[-1])
        phases.append({k: v * scale for k, v in times.items()})
    medians = {k: statistics.median(p[k] for p in phases) for k in phases[0]}
    return statistics.median(totals), medians


def untraced(fn):
    """The original of a function the tracer may have wrapped."""
    return getattr(fn, "__wrapped__", fn)


def run_window(config, out_dir, wl, xf):
    """Run the load steps, then post-process; returns (record, history, state).

    The record is JSON-ready: the (start, end) timestamps of every load
    step, of the window and of every read-back, gate problems and the
    physics fingerprint.  The gate calls the untraced originals, so traced
    layer times hold program work only.
    """
    rec = {"steps": [], "window": None, "postproc": [], "error": None,
           "attempted": 0, "nonconverged": 0, "problems": [],
           "fingerprint": {}}
    shutil.rmtree(out_dir, ignore_errors=True)
    inv = wl.InvariantLog()
    marks: list[float] = []

    def hook(state):
        marks.append(time.perf_counter())
        inv.record(state)

    # The window starts when driver.initialize returns (first load step).
    initialize = xf.driver.initialize

    def timed_initialize(cfg):
        state = initialize(cfg)
        marks.append(time.perf_counter())
        return state

    xf.driver.initialize = timed_initialize
    try:
        history, state = xf.driver.run(config, out_dir=out_dir,
                                       snapshot_hook=hook)
        end = time.perf_counter()
    except Exception:  # a failed step fails the run; keep going to report it
        rec["error"] = traceback.format_exc()
        rec["attempted"] = len(marks)  # completed steps plus the one that raised
        return rec, [], None
    finally:
        xf.driver.initialize = initialize
    rec["steps"] = list(zip(marks, marks[1:]))
    rec["window"] = (marks[0], end)
    rec["attempted"] = len(history)
    rec["nonconverged"] = sum(not r.converged for r in history)

    # Post-processing as `xifrac profile` does it: read back the last
    # snapshot and sample v along a line.  Repeated for more samples of a
    # call that is long next to the speed probe's period.
    for _ in range(POSTPROC_REPEATS):
        t0 = time.perf_counter()
        snap = sorted(out_dir.glob("fields_*.vtk"))[-1]
        mesh, point_data, _ = xf.output.read_vtk(snap)
        profile = xf.output.line_profile(mesh, point_data["v"], PROFILE_Y,
                                         PROFILE_SAMPLES)
        rec["postproc"].append((t0, time.perf_counter()))

    if mesh.n_cells != state.mesh.n_cells:
        rec["problems"].append("read-back mesh differs from the final mesh")
    ref = untraced(xf.output.line_profile)(state.mesh, state.v.values,
                                           PROFILE_Y, PROFILE_SAMPLES)
    if not abs(profile - ref).max() <= 1e-12:
        rec["problems"].append("read-back profile differs from the final state")
    rec["problems"] += inv.check()
    reached = untraced(xf.driver.crack_reached_bottom)(state)
    rec["fingerprint"] = wl.fingerprint(
        history, state, reached if config.amr.enabled else None)
    rec["staggered_tol"] = config.solver.staggered_tol
    return rec, history, state


def measure_windows(args, workload, config, wl) -> dict:
    """Run the workload's windows in this process (traced if asked).

    Untraced, a speed sampler runs through all windows and every time is
    scaled to the reference speed.  Traced, it stays off, because its
    probes would count as the self time of whichever span they interrupt,
    so traced times are plain seconds.
    """
    import layers
    import speed
    import xifrac.driver
    import xifrac.output
    xf = xifrac
    # Warm-up: lazy imports and tabulations happen here, not in a window.
    xf.driver.initialize(config)
    out_dir = OUT / workload.name

    tracer = layers.Tracer() if args.trace else None
    sampler = speed.Sampler()
    windows, last = [], None
    with contextlib.ExitStack() as active:
        if tracer is not None:
            tracer.install(xf)
            active.callback(tracer.uninstall)
        else:
            active.enter_context(sampler)
        for k in range(workload.repeats(args.seconds)):
            if tracer is not None:
                tracer.run_id = f"{workload.name}/{args.seed}/{k}"
            rec, history, state = run_window(config, out_dir, wl, xf)
            windows.append(rec)
            if rec["error"]:
                break
            last = (history, state)

    good = [w for w in windows if not w["error"]]
    for w in good:
        w["plain_wall_s"], w["wall_s"] = sampler.time(*w["window"])
        w["step_s"] = [sampler.time(*step)[1] for step in w["steps"]]
        w["postproc_s"] = [sampler.time(*pp)[1] for pp in w["postproc"]]
    result = {"windows": windows, "layers": None}
    if tracer is not None and last is not None:
        # trace.wall_s is the fastest window, like the untraced wall_s.
        result["layers"] = layers.layer_metrics(
            tracer, len(windows), min(w["wall_s"] for w in good), *last)
        tracer.dump(OUT / f"spans_{workload.name}_{args.seed}.jsonl")
    return result


def fastest_steps(good: list[dict]) -> list[float]:
    """Each load step's smallest time over the windows."""
    return [min(times) for times in zip(*(w["step_s"] for w in good))]


def tail(steps: list[float]) -> float:
    """Step time with ten steps beyond it (the largest one if n <= 10)."""
    ordered = sorted(steps)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def end_to_end(good: list[dict], setup_s: float) -> dict:
    """End-to-end metrics, best of the windows that ran through.

    Times are at the reference speed (see ``speed.py``).  The windows
    repeat identical work, and what scaling leaves of a slow stretch
    mostly adds time, so each load step counts with its smallest time
    over the windows, and whole-window and read-back times with the
    fastest sample.
    """
    return {
        "wall_s": min(w["wall_s"] for w in good),
        "setup_s": setup_s,
        "step_p50_s": statistics.median(fastest_steps(good)),
        "step_tail_s": tail(fastest_steps(good)),
        "postproc_s": min(min(w["postproc_s"]) for w in good),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "xifrac" / "driver.py").is_file():
        print(f"no xifrac source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    config_path = ROOT / workload.config
    if not config_path.is_file():
        print(f"missing config {config_path}", file=sys.stderr)
        return 2

    from xifrac.config import parse_config
    text = config_path.read_text()
    base = parse_config(text, workload.overrides)
    overrides = wl.seeded_overrides(workload, base, args.seed)
    print(f"workload {workload.name} seed {args.seed}: {workload.config} "
          f"with {overrides}")
    print("environment", json.dumps(environment()))
    setup_s, setup_phases = measure_setup(config_path, overrides)
    result = measure_windows(args, workload, parse_config(text, overrides),
                             wl)

    # Physics gate and failure accounting.
    recorded = {}
    fp_file = HERE / "fingerprint.json"
    if fp_file.is_file():
        recorded = json.loads(fp_file.read_text())
    windows = result["windows"]
    attempted = sum(w["attempted"] for w in windows)
    failed = sum(w["nonconverged"] for w in windows)
    problems = []
    for k, win in enumerate(windows):
        if win["error"]:
            print(win["error"], file=sys.stderr)
            problems.append(f"window {k}: driver.run raised")
            continue
        problems += [f"window {k}: {p}" for p in win["problems"]]
        if args.seed != 0:
            continue
        if workload.name not in recorded:
            problems.append(f"no recorded fingerprint for {workload.name}")
        else:
            problems += [f"window {k}: {p}" for p in wl.compare_fingerprint(
                recorded[workload.name], win["fingerprint"],
                win["staggered_tol"])]
    good = [w for w in windows if not w["error"]]
    if good:
        print(f"fingerprint {json.dumps(good[0]['fingerprint'])}")
    if any(w["fingerprint"] != good[0]["fingerprint"] for w in good):
        problems.append("windows disagree on the fingerprint")
    correct = not problems and bool(good)
    if not correct:
        failed = attempted
        for p in problems:
            print(f"GATE FAIL {p}", file=sys.stderr)

    n_steps = len(good[0]["step_s"]) if good else 0
    print(f"{len(windows)} window(s) of {n_steps} load steps; each step "
          f"counts with its fastest window")
    if good:
        print(f"step_tail_s is the step time with ten steps beyond it, "
              f"n = {n_steps}")
    for w in good:
        print(f"window {w['plain_wall_s']:.3f} s unscaled, {w['wall_s']:.3f} s "
              f"at reference speed; postproc "
              + " ".join(f"{t:.3f}" for t in w["postproc_s"]) + " s")
        print("step_s " + " ".join(f"{t:.3f}" for t in w["step_s"]))
    metrics = {}
    if good and args.trace:
        values = {**result["layers"],
                  "driver.step_tail_s": tail(fastest_steps(good)),
                  "config.parse_s": setup_phases["parse_s"],
                  "setup.import_s": setup_phases["import_s"],
                  "setup.init_s": setup_phases["init_s"]}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    elif good:
        values = end_to_end(good, setup_s)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    if attempted == 0:  # initialize raised before the first load step
        attempted = failed = 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
