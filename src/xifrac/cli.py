"""Command-line entry points: run, calibrate, profile, tables."""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import __version__, driver, fem, output, phasefield as pf
from .config import ConfigError, describe_keys, parse_config

log = logging.getLogger(__name__)

# Calibration rows reported for n = 128 / 256 / 512 grids.
_TABLE_H = (0.008, 0.004, 0.002)
_TABLE_ALPHA = (493.75, 1975.0, 7900.0)
_TABLE_ZETA = 9.36


def _build_parser():
    p = argparse.ArgumentParser(
        prog="xifrac",
        description="Anti-plane AT1 phase-field fracture with an adaptive "
                    "regularization length")
    p.add_argument("--version", action="version", version=__version__)
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a quasi-static benchmark")
    run.add_argument("--config", type=Path, help="config file (flat "
                     "section.key = value lines); defaults when omitted")
    run.add_argument("--out", type=Path, help="output directory")
    run.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                     help="override any config key (repeatable)")

    cal = sub.add_parser("calibrate", help="print penalty parameters for a "
                         "mesh size")
    cal.add_argument("--h", type=float, required=True, dest="h")
    cal.add_argument("--G-c", type=float, default=2.7, dest="g_c")
    cal.add_argument("--c-v", type=float, default=pf.AT1_NORMALIZATION,
                     dest="c_v")

    prof = sub.add_parser("profile", help="sample a field snapshot along a "
                          "horizontal line")
    prof.add_argument("--in", type=Path, required=True, dest="infile")
    prof.add_argument("--y", type=float, required=True)
    prof.add_argument("--field", default="v")
    prof.add_argument("--samples", type=int, default=201)
    prof.add_argument("--out", type=Path)

    sub.add_parser("tables", help="reproduce the calibration and optimal-xi "
                   "reference values")
    sub.add_parser("keys", help="list every config key with its default")
    return p


def _cmd_run(args) -> int:
    text = args.config.read_text() if args.config else ""
    overrides = {}
    for item in args.set:
        if "=" not in item:
            print(f"--set expects KEY=VALUE, got {item!r}", file=sys.stderr)
            return 2
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    config = parse_config(text, overrides)
    out_dir = args.out or Path("xifrac-out")
    try:
        history, state = driver.run(config, out_dir=out_dir)
    except fem.LinearSolveError as exc:
        print(f"error: {exc}; the run stopped at its failed step, which is "
              f"recorded with the outputs in {out_dir}", file=sys.stderr)
        return 1
    failed = sum(not rec.converged for rec in history)
    print(f"completed {len(history)} steps on {state.mesh.n_cells} cells; "
          f"{failed} did not converge; outputs in {out_dir}")
    return 0


def _cmd_calibrate(args) -> int:
    alpha = pf.calibrate_alpha(args.h, args.g_c, args.c_v)
    zeta = pf.calibrate_zeta(args.h, args.c_v, alpha, args.g_c)
    print(f"h = {args.h}")
    print(f"alpha = {alpha:.6g}")
    print(f"zeta  = {zeta:.6g}")
    for h_ref, a_ref in zip(_TABLE_H, _TABLE_ALPHA):
        if abs(args.h - h_ref) < 1e-12:
            print(f"note: published value for h={h_ref} is alpha={a_ref} "
                  f"({100 * abs(alpha - a_ref) / a_ref:.2f}% off) with "
                  f"zeta={_TABLE_ZETA} (~3x the formula value; the gap is "
                  f"documented, not resolved)")
    return 0


def _cmd_profile(args) -> int:
    mesh, point_data, _ = output.read_vtk(args.infile)
    if args.field not in point_data:
        print(f"field {args.field!r} not present in {args.infile} "
              f"(have: {', '.join(point_data)})", file=sys.stderr)
        return 1
    rows = output.line_profile(mesh, point_data[args.field], args.y,
                               args.samples)
    text = output.csv_text(f"x,{args.field}", rows)
    if args.out:
        output._atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_tables(args) -> int:
    print("Calibration of the xi bound penalties (G_c=2.7, c_v=8/3):")
    print(f"{'h':>8} {'alpha':>10} {'published':>10} {'zeta':>8} "
          f"{'published':>10}")
    for h, a_ref in zip(_TABLE_H, _TABLE_ALPHA):
        alpha = pf.calibrate_alpha(h, 2.7)
        zeta = pf.calibrate_zeta(h, pf.AT1_NORMALIZATION, alpha, 2.7)
        print(f"{h:>8g} {alpha:>10.4g} {a_ref:>10.4g} {zeta:>8.4g} "
              f"{_TABLE_ZETA:>10.4g}")
    print("note: the published zeta is ~3x the closed-form value; both are "
          "reported as-is.\n")

    print("Closed-form optimal xi for an intact body "
          "(sqrt(G_c*zeta / (c_v*alpha))):")
    mat = pf.MaterialParams()
    for a_ref, target in zip(_TABLE_ALPHA, (0.13687, 0.06927, 0.03464)):
        reg = pf.RegularizationParams(zeta=_TABLE_ZETA, alpha=a_ref,
                                      xi_max=1.0)
        xi = float(pf.xi_pointwise(1.0, 0.0, mat, reg))
        print(f"alpha={a_ref:>8g}: xi = {xi:.5f}  (published {target})")
    print("note: for alpha=493.75 the published 0.13687 reflects the seeded "
          "crack; the closed form gives 0.13854.")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "calibrate":
            return _cmd_calibrate(args)
        if args.command == "profile":
            return _cmd_profile(args)
        if args.command == "tables":
            return _cmd_tables(args)
        if args.command == "keys":
            print(describe_keys())
            return 0
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
