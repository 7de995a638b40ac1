"""Closed-form oracles of the AT1 model on a through-crack at zero load.

With ``loading.c = 0`` the displacement vanishes, so one load step solves
only the phase problem: minimize ``(G_c/c_v) int (1 - v)/xi + xi |grad v|^2``
with ``0 <= v <= 1`` and v = 0 on the seeded line x = 0.5, which
``mesh.crack_y_tip = 0`` runs through the whole height.  Its minimizer is
the 1-D AT1 profile ``v = 1 - (1 - d/(2 xi))^2`` for ``d = |x - 0.5| <
2 xi`` and 1 beyond, whose surface energy with c_v = 8/3 is G_c per unit
crack length: G_c on the unit square.  The discrete solution meets both
to second order in h/xi.

In field mode the pointwise optimum on that profile is the intact value
``xi0 = sqrt((G_c/c_v) zeta/alpha)`` everywhere, with zeta the constant
``pf.ZETA``, so every cell's xi is xi0 and v is the profile of xi0.

The profile and xi0 are computed here from these formulas, never taken
from a run.  The grow-only active set pins the seeded line and never
relaxes the bound ``v <= 1`` where the profile needs it, so each oracle
fails by a wide margin under it: max|v - AT1| = 0.71 and E_surface = 2.5
G_c with fixed xi, 2.1 G_c with field xi.
"""

import functools

import numpy as np
import pytest

from xifrac import driver, phasefield as pf
from xifrac.config import parse_config

C_V = 8.0 / 3.0  # AT1's normalization of the dissipation
XI_FIXED = 0.05
ALPHA = 7900.0

at1_xfail = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 1: grow never relaxes the seeded line")


@functools.cache
def _zero_load_step(level, mode):
    """One zero-load step on the uniform grid of ``level`` with the crack
    seeded through the whole height: ``(energy record, state)``."""
    overrides = {"loading.c": "0", "loading.n_max": "1",
                 "mesh.crack_y_tip": "0", "mesh.level_start": str(level),
                 "mesh.level_max": str(level), "regularization.mode": mode,
                 "regularization.xi_fixed": repr(XI_FIXED),
                 "regularization.alpha": repr(ALPHA)}
    history, state = driver.run(parse_config("", overrides))
    assert len(history) == 1
    return history[-1], state


def _at1_profile(state, xi):
    """The AT1 profile of length ``xi`` about x = 0.5 at each vertex."""
    d = np.abs(state.mesh.vertex_coords[:, 0] - 0.5)
    return np.where(d < 2.0 * xi, 1.0 - (1.0 - d / (2.0 * xi)) ** 2, 1.0)


def _errors(level, mode, xi):
    """max|v - AT1(xi)| and |E_surface/G_c - 1| of the zero-load step."""
    record, state = _zero_load_step(level, mode)
    v_error = np.max(np.abs(state.v.values - _at1_profile(state, xi)))
    return v_error, abs(record.surface / pf.TOUGHNESS - 1.0)


@at1_xfail
@pytest.mark.parametrize("level, v_tol, surface_tol", [
    (7, 1e-3, 2e-3), (6, 1e-2, 5e-3)])
def test_fixed_xi_step_is_the_at1_profile(level, v_tol, surface_tol):
    v_error, surface_error = _errors(level, "fixed", XI_FIXED)
    assert v_error <= v_tol
    assert surface_error <= surface_tol


@at1_xfail
def test_fixed_xi_surface_error_is_second_order_in_h():
    # Halving h from level 6 to 7 divides a second-order error by about 4.
    coarse, fine = (_errors(level, "fixed", XI_FIXED)[1] for level in (6, 7))
    assert coarse <= 5e-3
    assert coarse >= 3.0 * fine


@at1_xfail
def test_field_xi_step_is_the_at1_profile_of_xi0():
    _, state = _zero_load_step(7, "field")
    xi0 = np.sqrt(pf.TOUGHNESS / C_V * pf.ZETA / ALPHA)
    assert xi0 == pytest.approx(0.0346355, rel=1e-5)
    # A converged bound-constrained solve leaves 1.6e-4: the discrete v
    # is the profile only to second order, and xi is its cell mean.
    assert np.max(np.abs(state.xi / xi0 - 1.0)) <= 3e-4
    v_error, surface_error = _errors(7, "field", xi0)
    assert v_error <= 1e-3
    assert surface_error <= 3e-3
