"""Load stepping, staggered convergence, AMR passes and run orchestration."""

import numpy as np
import pytest

from xifrac import driver, fem, mesh as meshmod, phasefield as pf
from xifrac.driver import AmrParams, LoadingParams, MeshParams, SimConfig, \
    SolverParams, boundary_displacement, staggered_step
from xifrac.fem import ScalarField, constant_field
from xifrac.mesh import build_uniform


def small_config(**kw):
    """Level-4 benchmark variant that runs in well under a second."""
    defaults = dict(
        mesh=MeshParams(level_start=4, level_max=5),
        loading=LoadingParams(c=1.0, dt=0.01, n_max=2),
    )
    defaults.update(kw)
    return SimConfig(**defaults)


# ---------------------------------------------------------------------------
# Parameter validation


def test_mesh_params_validation():
    with pytest.raises(ValueError):
        MeshParams(level_start=8, level_max=7)
    with pytest.raises(ValueError):
        MeshParams(level_start=0, level_max=3)


def test_loading_params_validation():
    with pytest.raises(ValueError):
        LoadingParams(dt=0.0)
    with pytest.raises(ValueError):
        LoadingParams(c=-1.0)


def test_solver_params_validation():
    with pytest.raises(ValueError):
        SolverParams(staggered_tol=0.0)
    with pytest.raises(ValueError):
        SolverParams(method="bicg")


# ---------------------------------------------------------------------------
# Boundary displacement


def test_boundary_displacement_split():
    mesh = build_uniform(3)
    bc = boundary_displacement(mesh, t=0.5, c=2.0)
    top = mesh.boundary_vertices(meshmod.TOP)
    # all top nodes constrained except the one at x = 0.5
    assert len(bc) == len(top) - 1
    for node, val in bc.items():
        x = mesh.vertex_coords[node, 0]
        assert mesh.vertex_coords[node, 1] == 1.0
        assert val == pytest.approx(-1.0 if x < 0.5 else 1.0)
    free = [int(n) for n in top if mesh.vertex_coords[n, 0] == 0.5]
    assert free[0] not in bc


def test_boundary_displacement_zero_time():
    mesh = build_uniform(2)
    bc = boundary_displacement(mesh, t=0.0, c=1.0)
    assert all(v == 0.0 for v in bc.values())
    with pytest.raises(ValueError):
        boundary_displacement(mesh, t=-0.1, c=1.0)


# ---------------------------------------------------------------------------
# Initialization


def test_initialize_seeds_crack():
    state = driver.initialize(small_config())
    assert state.mesh.n_cells == 256
    assert len(state.mask) > 0
    coords = state.mesh.vertex_coords[state.mask.as_array()]
    assert np.all(coords[:, 0] == 0.5)
    assert np.all(state.u.values == 0.0)


def test_initialize_xi_modes():
    for mode, expect_shape in (("fixed", ()), ("global", ()), ("field", (256,))):
        cfg = small_config(
            regularization=pf.RegularizationParams(mode=mode))
        state = driver.initialize(cfg)
        assert np.shape(state.xi.value) == expect_shape
        assert state.xi.mode == mode


# ---------------------------------------------------------------------------
# Staggered iteration


def test_zero_load_converges_in_two_iterations():
    # Invariant: with no load and fixed xi the second sweep reproduces the
    # first, so the loop stops at two iterations.
    cfg = small_config(loading=LoadingParams(c=0.0, dt=0.01, n_max=1))
    state = driver.initialize(cfg)
    state.t = 0.01
    iters, converged = staggered_step(state, cfg)
    assert converged
    assert iters <= 2
    assert np.max(np.abs(state.u.values)) < 1e-12


def test_converged_state_reruns_in_one_iteration():
    cfg = small_config()
    state = driver.initialize(cfg)
    state.t = 0.01
    staggered_step(state, cfg)
    iters, converged = staggered_step(state, cfg)
    assert converged
    assert iters == 1


def test_staggered_solution_satisfies_weak_residual():
    # Independent check: the converged u agrees with a dense solve of the
    # degraded system assembled from the final phase field.
    cfg = small_config()
    state = driver.initialize(cfg)
    state.t = 0.02
    _, converged = staggered_step(state, cfg)
    assert converged
    bc = boundary_displacement(state.mesh, state.t, cfg.loading.c)
    sys = pf.assemble_displacement(state.mesh, state.v, cfg.material, bc)
    u_dense = sys.prescribed.copy()
    u_dense[sys.free] = np.linalg.solve(sys.matrix.toarray(), sys.rhs)
    u_dense = state.mesh.constraints.apply(u_dense)
    # the loop stops when u changes by < staggered_tol, so the gap between
    # the stored u (from the second-to-last v) and the dense answer is
    # bounded by a few multiples of that tolerance
    gap = np.linalg.norm(state.u.values - u_dense) / np.linalg.norm(u_dense)
    assert gap < 10 * cfg.solver.staggered_tol


def test_irreversibility_across_steps():
    cfg = small_config(loading=LoadingParams(c=1.0, dt=0.05, n_max=6))
    prev = None
    seen = []

    def hook(state):
        seen.append((state.v.values.copy(), set(state.mask.nodes),
                     state.mesh.id))

    driver.run(cfg, snapshot_hook=hook)
    for (v0, m0, mid0), (v1, m1, mid1) in zip(seen, seen[1:]):
        if mid0 != mid1:
            continue  # mesh changed; nodal comparison not meaningful
        assert np.all(v1 <= v0 + 1e-12)
        assert m0 <= m1  # crack mask growth is monotone


def test_xi_stays_clamped():
    reg = pf.RegularizationParams(mode="field", zeta=9.36, alpha=7900.0,
                                  xi_min=0.011, xi_max=0.15)
    cfg = small_config(regularization=reg,
                       loading=LoadingParams(c=1.0, dt=0.05, n_max=5))
    lows, highs = [], []

    def hook(state):
        cells = state.xi.at_cells(state.mesh)
        lows.append(cells.min())
        highs.append(cells.max())

    driver.run(cfg, snapshot_hook=hook)
    assert min(lows) >= reg.xi_min - 1e-15
    assert max(highs) <= reg.xi_max + 1e-15


# ---------------------------------------------------------------------------
# xi update policy


def test_update_xi_fixed_is_inert():
    cfg = small_config()
    state = driver.initialize(cfg)
    state.v = constant_field(state.mesh, 0.5)
    assert driver.update_xi(state, cfg) is state.xi


def test_update_xi_global_tracks_damage():
    cfg = small_config(regularization=pf.RegularizationParams(
        mode="global", zeta=9.36, alpha=7900.0))
    state = driver.initialize(cfg)
    xi_seeded = state.xi.value
    state.v = constant_field(state.mesh, 1.0)
    xi_intact = driver.update_xi(state, cfg).value
    assert xi_intact == pytest.approx(0.03463553454423011, abs=1e-12)
    # the seeded crack shifts the optimum away from the intact value
    assert xi_seeded != pytest.approx(xi_intact, abs=1e-6)


# ---------------------------------------------------------------------------
# AMR


def _field_state(level_start=6, level_max=8, **kw):
    # The seeded crack drops the cell xi below the 0.03 refinement
    # threshold only once h <= 1/64, so AMR tests start at level 6.
    cfg = small_config(
        mesh=MeshParams(level_start=level_start, level_max=level_max),
        regularization=pf.RegularizationParams(mode="field", zeta=9.36,
                                               alpha=7900.0),
        amr=AmrParams(enabled=True, fixed_point=True), **kw)
    return cfg, driver.initialize(cfg)


def test_amr_refines_low_xi_cells():
    cfg, state = _field_state()
    changed = driver.amr_pass(state, cfg)
    assert changed
    assert state.mesh.cell_levels.max() == cfg.mesh.level_max
    # refinement happens along the seeded crack where xi is small
    fine = state.mesh.cell_levels > 6
    centers = state.mesh.cell_origin + 0.5 * state.mesh.cell_h[:, None]
    assert np.all(np.abs(centers[fine, 0] - 0.5) < 0.2)
    # fields moved with the mesh: v still 0 on the mask, u untouched at 0
    assert np.all(state.v.values[state.mask.as_array()] == 0.0)
    assert np.all(state.u.values == 0.0)


def test_amr_reaches_fixed_point_within_level_budget():
    # Invariant: at most level_max - level_start passes until no change.
    cfg, state = _field_state(level_start=6, level_max=8)
    passes = 0
    while driver.amr_pass(state, cfg):
        passes += 1
        assert passes <= cfg.mesh.level_max - cfg.mesh.level_start
    assert passes >= 1
    assert state.mesh.cell_levels.max() == cfg.mesh.level_max
    assert state.mesh.cell_levels.min() >= state.mesh.level_min


def test_amr_pass_on_adapted_mesh_builds_nothing(monkeypatch):
    cfg, state = _field_state(level_start=6, level_max=8)
    while driver.amr_pass(state, cfg):
        pass
    adapted = state.mesh
    built = []
    init = meshmod.Mesh.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(meshmod.Mesh, "__init__", counting_init)
    assert not driver.amr_pass(state, cfg)
    assert built == []
    assert state.mesh is adapted


def test_amr_disabled_keeps_mesh():
    cfg = small_config(loading=LoadingParams(c=1.0, dt=0.01, n_max=2))
    hist, state = driver.run(cfg)
    assert state.mesh.n_cells == 256


def test_amr_adapted_mesh_stays_sparse():
    # The fixed-point mesh concentrates cells near the crack: far fewer
    # than a uniform mesh at the maximum level.
    cfg, state = _field_state(level_start=6, level_max=8)
    while driver.amr_pass(state, cfg):
        pass
    assert state.mesh.n_cells < 0.2 * 4 ** 8
    assert state.mesh.cell_levels.min() == 6  # intact corners stay coarse


def test_amr_coarsens_intact_regions():
    # Start from a uniformly fine mesh; intact cells away from the crack
    # merge back toward level_min while the crack zone stays fine.
    cfg = small_config(
        mesh=MeshParams(level_start=6, level_max=7),
        regularization=pf.RegularizationParams(mode="field", zeta=9.36,
                                               alpha=7900.0),
        amr=AmrParams(enabled=True, fixed_point=True))
    state = driver.initialize(cfg)
    # rebuild the same state on a mesh with headroom to coarsen
    fine = meshmod.Mesh(set(state.mesh.cell_keys), 4, 7)
    v, mask = pf.initial_crack(fine, 0.5)
    state = driver.SimState(mesh=fine, u=constant_field(fine, 0.0), v=v,
                            v_prev=v.copy(), mask=mask,
                            xi=pf.RegularizationState(
                                "field", pf.xi_field(fine, v, cfg.material,
                                                     cfg.regularization)))
    n_before = state.mesh.n_cells
    changed = driver.amr_pass(state, cfg)
    assert changed
    assert state.mesh.n_cells < n_before
    assert state.mesh.cell_levels.min() < 6
    # the crack line stays resolved and v stays pinned there
    assert np.all(state.v.values[state.mask.as_array()] == 0.0)


# ---------------------------------------------------------------------------
# Full runs


def test_run_zero_steps():
    hist, state = driver.run(small_config(
        loading=LoadingParams(c=1.0, dt=0.01, n_max=0)))
    assert hist == []
    assert state.step == 0


def test_run_records_energy_components():
    cfg = small_config(loading=LoadingParams(c=1.0, dt=0.02, n_max=3))
    hist, state = driver.run(cfg)
    assert len(hist) == 3
    for rec in hist:
        assert rec.total == pytest.approx(
            rec.strain + rec.surface + rec.penalty, rel=1e-10)
        assert rec.strain >= 0.0
    # monotone loading: strain energy grows while no fracture happens
    assert hist[0].strain < hist[-1].strain


def test_run_stops_when_crack_reaches_bottom():
    # Inject a bottom-boundary mask node after step 3: the run must stop
    # there instead of finishing all 60 steps.
    cfg = small_config(loading=LoadingParams(c=0.1, dt=0.01, n_max=60))

    def hook(state):
        if state.step == 3:
            bottom = state.mesh.boundary_vertices(meshmod.BOTTOM)
            state.mask = state.mask.union({int(bottom[0])})

    hist, state = driver.run(cfg, snapshot_hook=hook)
    assert driver.crack_reached_bottom(state)
    assert len(hist) == 3


def test_crack_reached_bottom_detector():
    cfg = small_config()
    state = driver.initialize(cfg)
    assert not driver.crack_reached_bottom(state)
    bottom = state.mesh.boundary_vertices(meshmod.BOTTOM)
    state.mask = state.mask.union({int(bottom[0])})
    assert driver.crack_reached_bottom(state)
