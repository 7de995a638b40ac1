#!/usr/bin/env python3
"""Track mesh adaptation driven by the per-cell regularization length.

Runs the field-xi benchmark for a handful of load steps and prints, per
step, the cell count, the level span, the smallest cell xi and where it
sits relative to the steepest damage gradient.  Useful for checking that
refinement follows the crack rather than spreading uniformly.

    python3 scripts/amr_history.py --steps 12
"""

import argparse
import logging
from pathlib import Path

import numpy as np

from xifrac import driver, fem
from xifrac.config import parse_config

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "field_xi_amr.cfg"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=12)
    args = ap.parse_args()
    logging.basicConfig(level=logging.WARNING)

    cfg = parse_config(CONFIG.read_text(),
                       {"loading.n_max": str(args.steps)})

    print(f"{'step':>4} {'cells':>7} {'levels':>7} {'xi_min':>8} "
          f"{'h_at_min':>9} {'dist_to_steepest':>16}")

    def hook(state):
        xi_cells = state.xi
        k = int(np.argmin(xi_cells))
        grad = fem.grad_at_qp(state.v)
        gmag = np.sqrt((grad ** 2).sum(axis=2)).mean(axis=1)
        g = int(np.argmax(gmag))
        centers = state.mesh.cell_origin + 0.5 * state.mesh.cell_h[:, None]
        dist = float(np.hypot(*(centers[k] - centers[g])))
        lv = state.mesh.cell_levels
        print(f"{state.step:>4d} {state.mesh.n_cells:>7d} "
              f"{lv.min():>3d}-{lv.max():<3d} {xi_cells[k]:>8.4f} "
              f"{state.mesh.cell_h[k]:>9.4g} {dist:>16.4g}")

    driver.run(cfg, snapshot_hook=hook)


if __name__ == "__main__":
    main()
