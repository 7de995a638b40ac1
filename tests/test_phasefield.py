"""Model physics: energies, optimality formulas, calibration, irreversibility."""

from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

from xifrac import driver, fem, phasefield as pf
from xifrac.config import parse_config
from xifrac.fem import ScalarField, constant_field
from xifrac.mesh import build_uniform, refine, transfer_field

from conftest import assert_fresh_u_system, dense_condense, \
    dense_dirichlet, dense_laplace, dense_load, dense_mass, \
    dirichlet_arrays, nothing_pinned


def _reg(**kw):
    return pf.RegularizationParams(**kw)


# ---------------------------------------------------------------------------
# Parameters


def test_material_defaults():
    # The material is two constants, not a parameter section.
    assert pf.SHEAR_MODULUS == 80.8
    assert pf.TOUGHNESS == 2.7
    assert pf.AT1_NORMALIZATION == pytest.approx(8.0 / 3.0)
    assert not hasattr(pf, "MaterialParams")


def test_regularization_validation():
    with pytest.raises(ValueError):
        _reg(mode="adaptive")
    # zeta, the clamp and the refinement threshold are constants.
    assert [f.name for f in fields(pf.RegularizationParams)] == \
        ["mode", "alpha", "xi_fixed"]
    assert (pf.ZETA, pf.XI_MIN, pf.XI_MAX, pf.XI_REFINE) == \
        (9.36, 0.011, 0.15, 0.03)
    # The optimized xi is clamped to [XI_MIN, XI_MAX]: a steep gradient
    # meets the floor, a tiny alpha the ceiling, and the intact optimum
    # of alpha = 7900 lies inside and passes as it is.
    r = _reg(alpha=7900.0)
    assert pf.xi_pointwise(1.0, 1e9, r) == 0.011
    assert pf.xi_pointwise(1.0, 0.0, _reg(alpha=1e-3)) == 0.15
    ratio = pf.TOUGHNESS / pf.AT1_NORMALIZATION
    assert pf.xi_pointwise(1.0, 0.0, r) == np.sqrt(ratio * pf.ZETA / 7900.0)


def test_degradation():
    eta = pf.RESIDUAL_STIFFNESS
    assert eta == 1e-10
    assert pf.degradation(1.0) == pytest.approx(1.0)
    assert pf.degradation(0.0) == pytest.approx(1e-10)
    vals = pf.degradation(np.array([0.0, 0.5, 1.0]))
    np.testing.assert_allclose(vals, [eta, 0.25 + 0.75 * eta, 1.0],
                               rtol=1e-15, atol=0.0)


# ---------------------------------------------------------------------------
# Optimal xi


def test_xi_closed_forms_reference_values():
    # For an intact body the optimal xi is sqrt(G_c*(1+zeta) ... ) evaluated
    # with zeta=9.36 and the three tabulated alpha values; frozen digits.
    reg1 = _reg(alpha=493.75)
    reg2 = _reg(alpha=1975.0)
    reg3 = _reg(alpha=7900.0)
    assert float(pf.xi_pointwise(1.0, 0.0, reg1)) == pytest.approx(
        0.13854213817692043, abs=1e-12)
    assert float(pf.xi_pointwise(1.0, 0.0, reg2)) == pytest.approx(
        0.06927106908846022, abs=1e-12)
    assert float(pf.xi_pointwise(1.0, 0.0, reg3)) == pytest.approx(
        0.03463553454423011, abs=1e-12)


def test_xi_global_equals_pointwise_for_uniform_v():
    mesh = build_uniform(3)
    reg = _reg(alpha=1975.0)
    v = constant_field(mesh, 1.0)
    assert pf.xi_global(mesh, v, reg) == pytest.approx(
        float(pf.xi_pointwise(1.0, 0.0, reg)), abs=1e-13)


def test_xi_global_manual_quadrature_oracle():
    # Non-uniform v = x: integrals have simple closed forms.
    #   num   = (G_c/c_v) * (1/2 + zeta)
    #   denom = (G_c/c_v) * 1 + alpha
    mesh = build_uniform(3)
    x = mesh.vertex_coords[:, 0]
    v = ScalarField(mesh, x)
    reg = _reg(alpha=10.0)
    ratio = pf.TOUGHNESS / pf.AT1_NORMALIZATION
    expect = np.sqrt(ratio * 2.5 / (ratio + 10.0))
    with mock.patch.object(pf, "ZETA", 2.0), \
            mock.patch.object(pf, "XI_MAX", 1.0):
        assert pf.xi_global(mesh, v, reg) == pytest.approx(expect, abs=1e-13)


def test_xi_global_clamps():
    mesh = build_uniform(2)
    v = constant_field(mesh, 1.0)
    with mock.patch.object(pf, "XI_MAX", 0.05):
        assert pf.xi_global(mesh, v, _reg(alpha=493.75)) == 0.05


def test_xi_pointwise_monotone_in_damage():
    # Lower v (more damage) -> larger optimal xi when gradients are equal.
    reg = _reg(alpha=7900.0)
    xs = pf.xi_pointwise(np.array([1.0, 0.5, 0.0]), 0.0, reg)
    assert xs[0] < xs[1] < xs[2]


def test_xi_field_uniform_matches_scalar():
    mesh = build_uniform(4)
    reg = _reg(alpha=7900.0)
    cells = pf.xi_field(mesh, constant_field(mesh, 1.0), reg)
    assert cells.shape == (mesh.n_cells,)
    assert np.allclose(cells, 0.03463553454423011, atol=1e-12)


@pytest.mark.parametrize("alpha, xi0", [(7900.0, 0.0346355),
                                        (493.75, 0.138542)])
def test_xi_pointwise_returns_xi0_on_the_at1_profile(alpha, xi0):
    # On the 1-D AT1 optimal profile 1 - v = (1 - |x| / 2 xi0)^2, where
    # |grad v|^2 = (1 - v) / xi0^2, the pointwise optimum is
    # xi0 = sqrt(G_c zeta / (c_v alpha)) at every point of |x| < 2 xi0.
    reg = _reg(alpha=alpha)
    closed = np.sqrt(pf.TOUGHNESS * pf.ZETA / (pf.AT1_NORMALIZATION * alpha))
    assert closed == pytest.approx(xi0, rel=1e-5)
    x = np.linspace(-2.0 * closed, 2.0 * closed, 11)[1:-1]
    s = 1.0 - np.abs(x) / (2.0 * closed)
    v, grad_sq = 1.0 - s ** 2, (s / closed) ** 2
    xi = pf.xi_pointwise(v, grad_sq, reg)
    assert np.max(np.abs(xi / closed - 1.0)) <= 1e-14


def test_cell_xi_per_mode_stats_and_length():
    # xi is one value per cell in every mode: fixed spreads xi_fixed as
    # configured, even above xi_max, which clamps only the optimized xi,
    # and global spreads its optimum.  The energies report the array's
    # min, max and mean, and an array of the wrong length is rejected.
    mesh = build_uniform(2)
    u, v = constant_field(mesh, 0.0), constant_field(mesh, 1.0)
    fixed = _reg(xi_fixed=0.5)
    assert fixed.xi_fixed > pf.XI_MAX
    assert np.array_equal(pf.cell_xi(mesh, v, fixed), np.full(16, 0.5))
    glob = _reg(mode="global", alpha=7900.0)
    assert np.array_equal(pf.cell_xi(mesh, v, glob),
                          np.full(16, pf.xi_global(mesh, v, glob)))
    field = _reg(mode="field", alpha=7900.0)
    assert np.array_equal(pf.cell_xi(mesh, v, field),
                          pf.xi_field(mesh, v, field))
    rec = pf.energies(mesh, u, v, np.linspace(0.02, 0.05, 16), _reg())
    assert rec.xi_min == 0.02 and rec.xi_max == 0.05
    assert rec.xi_mean == pytest.approx(0.035)
    with pytest.raises(ValueError, match="coefficient shape"):
        pf.energies(mesh, u, v, np.full(3, 0.1), _reg())
    with pytest.raises(ValueError, match="coefficient shape"):
        pf.assemble_phase(mesh, u, np.full(3, 0.1))


# ---------------------------------------------------------------------------
# Calibration


def test_calibrate_alpha_reference_values():
    # Within 0.5% of the published 493.75 / 1975 / 7900 table.
    for h, ref in ((0.008, 493.75), (0.004, 1975.0), (0.002, 7900.0)):
        val = pf.calibrate_alpha(h)
        assert abs(val - ref) / ref < 0.005


def test_calibrate_zeta_h_independent():
    # zeta = 100 h^2 c_v alpha / G_c is exactly 3.125 when alpha comes from
    # the calibration formula, for any h.
    for h in (0.008, 0.004, 0.002, 0.001, 1.0 / 3.0):
        alpha = pf.calibrate_alpha(h)
        zeta = pf.calibrate_zeta(h, alpha)
        assert zeta == pytest.approx(3.125, abs=1e-12)


def test_calibrate_published_zeta_gap():
    # The published lower-bound penalty is 9.36, about 3x the closed form;
    # the gap is asserted here as documentation, not hidden.
    zeta = pf.calibrate_zeta(0.008, pf.calibrate_alpha(0.008))
    assert 2.9 < 9.36 / zeta < 3.1


def test_calibrate_input_validation():
    with pytest.raises(ValueError):
        pf.calibrate_alpha(0.0)
    with pytest.raises(ValueError):
        pf.calibrate_zeta(0.01, -1.0)


# ---------------------------------------------------------------------------
# Weak forms vs dense oracles


def test_displacement_system_matches_dense(mesh_hanging):
    mesh = mesh_hanging
    x, y = mesh.vertex_coords.T
    v = ScalarField(mesh, np.clip(x + 0.2, 0.0, 1.0))
    bc = {0: 0.25}
    sys = pf.assemble_displacement(mesh, v,
                                   *dirichlet_arrays(mesh.n_vertices, bc))

    def weight(px, py):
        vv = mesh.eval_field(v.values, min(px, 1 - 1e-12), min(py, 1 - 1e-12))
        return pf.SHEAR_MODULUS * pf.degradation(vv)

    A, b = dense_condense(mesh, dense_laplace(mesh, weight, order=2),
                          np.zeros(mesh.n_vertices))
    A, b = dense_dirichlet(mesh, A, b, bc)
    assert np.max(np.abs(sys.matrix.toarray() - A)) < 1e-9
    assert np.max(np.abs(sys.rhs - b)) < 1e-9


@pytest.mark.parametrize("kept", [False, True], ids=["miss", "hit"])
def test_displacement_system_from_the_kept_block(kept, monkeypatch):
    # Two steps of the amr_field window leave v on the adapted 8,800-cell
    # mesh, and the mesh keeps the free block of its K(v).  The u system
    # of a new load, formed from that block on a hit or from a fresh one
    # on a miss, has the bytes of apply_dirichlet of a freshly assembled
    # K(v).  The product holds that one block and no n_vertices x
    # n_vertices matrix.
    path = Path(__file__).parents[1] / "configs" / "field_xi_amr.cfg"
    cfg = parse_config(path.read_text(), {"loading.dt": "0.0015",
                                          "loading.n_max": "2"})
    _, state = driver.run(cfg)
    mesh, v = state.mesh, state.v
    assert mesh.n_cells == 8800
    if not kept:
        del mesh.products["displacement"]
    pinned, values = driver.boundary_displacement(mesh, 0.0045, cfg.loading.c)
    gathers, free_block = [], fem.free_block
    monkeypatch.setattr(fem, "free_block",
                        lambda *args: gathers.append(1) or free_block(*args))
    got = pf.assemble_displacement(mesh, v, pinned, values)
    monkeypatch.undo()
    assert len(gathers) == (not kept)
    assert_fresh_u_system(got, v, pinned, values)
    ((_, block),) = mesh.products["displacement"]
    assert isinstance(block, fem.FreeBlock) and block.free is got.free
    n = mesh.n_vertices
    assert not any(sp.issparse(a) and a.shape == (n, n) for a in block)


def test_phase_system_matches_dense(mesh_hanging):
    mesh = mesh_hanging
    x, y = mesh.vertex_coords.T
    u = ScalarField(mesh, 0.3 * x - 0.1 * y)  # constant gradient (0.3, -0.1)
    xi = np.full(mesh.n_cells, 0.07)
    sys = fem.apply_dirichlet(pf.assemble_phase(mesh, u, xi)[0],
                              nothing_pinned(mesh), 0.0)

    gsq = 0.3 ** 2 + 0.1 ** 2
    drive = pf.SHEAR_MODULUS * (1.0 - pf.RESIDUAL_STIFFNESS) * gsq
    Am = dense_mass(mesh, lambda px, py: drive, order=2)
    c_v = pf.AT1_NORMALIZATION
    g_c = pf.TOUGHNESS
    Al = dense_laplace(mesh, lambda px, py: 2 * g_c * 0.07 / c_v, order=2)
    bl = dense_load(mesh, lambda px, py: g_c / (c_v * 0.07), order=2)
    A, b = dense_dirichlet(mesh, *dense_condense(mesh, Am + Al, bl), {})
    assert np.max(np.abs(sys.matrix.toarray() - A)) < 1e-9
    assert np.max(np.abs(sys.rhs - b)) < 1e-9


def test_phase_system_is_spd(mesh_hanging):
    x, _ = mesh_hanging.vertex_coords.T
    u = ScalarField(mesh_hanging, 0.1 * x)
    xi = np.full(mesh_hanging.n_cells, 0.1)
    folded, _ = pf.assemble_phase(mesh_hanging, u, xi)
    sys = fem.apply_dirichlet(folded, nothing_pinned(mesh_hanging), 0.0)
    np.linalg.cholesky(sys.matrix.toarray())  # raises if not SPD


def test_phase_solution_intact_body_exceeds_one():
    # Below the elastic limit the unconstrained phase solve sits above 1,
    # so clamping returns the intact state exactly.
    mesh = build_uniform(4)
    x, _ = mesh.vertex_coords.T
    u = ScalarField(mesh, 1e-3 * x)  # tiny uniform strain
    xi = np.full(mesh.n_cells, 0.13687)
    sys = fem.apply_dirichlet(pf.assemble_phase(mesh, u, xi)[0],
                              nothing_pinned(mesh), 0.0)
    v = fem.solve_field(sys, method="direct")
    assert np.min(v.values) > 1.0


def test_fully_pinned_phase_solve_factors_nothing(monkeypatch):
    # Every node active (the bound of an intact body): no free dof is left,
    # so the solve returns the bound without a factorization or CG run.
    mesh = refine(build_uniform(2), [0])
    assert len(mesh.constraints) > 0
    calls = []
    splu, pcg = fem.spla.splu, fem._pcg
    monkeypatch.setattr(fem.spla, "splu",
                        lambda *a, **k: calls.append("splu") or splu(*a, **k))
    monkeypatch.setattr(fem, "_pcg",
                        lambda *a, **k: calls.append("pcg") or pcg(*a, **k))
    u = ScalarField(mesh, 0.1 * mesh.vertex_coords[:, 0])
    xi = np.full(mesh.n_cells, 0.1)
    folded, _ = pf.assemble_phase(mesh, u, xi)
    sys = fem.apply_dirichlet(folded, ~nothing_pinned(mesh), 1.0)
    assert sys.matrix.shape == (0, 0)
    for method in ("direct", "pcg"):
        v = fem.solve_field(sys, method=method)
        assert np.array_equal(v.values, np.ones(mesh.n_vertices))
    assert calls == []


def test_phase_rejects_nonpositive_xi(mesh4x4):
    u = constant_field(mesh4x4, 0.0)
    xi = np.zeros(mesh4x4.n_cells)
    with pytest.raises(ValueError):
        pf.assemble_phase(mesh4x4, u, xi)


# ---------------------------------------------------------------------------
# Energies


def test_energy_components_analytic():
    # u = x with v = 1: strain = mu/2; surface = 0; penalty analytic.
    mesh = build_uniform(3)
    x, _ = mesh.vertex_coords.T
    u = ScalarField(mesh, x)
    v = constant_field(mesh, 1.0)
    xi = np.full(mesh.n_cells, 0.1)
    reg = _reg(alpha=493.75)
    rec = pf.energies(mesh, u, v, xi, reg)
    ratio = pf.TOUGHNESS / pf.AT1_NORMALIZATION
    assert rec.strain == pytest.approx(0.5 * pf.SHEAR_MODULUS, rel=1e-12)
    assert rec.surface == pytest.approx(0.0, abs=1e-12)
    assert rec.penalty == pytest.approx(ratio * 9.36 / 0.1 + 493.75 * 0.1,
                                        rel=1e-12)
    assert rec.total == pytest.approx(rec.strain + rec.surface + rec.penalty)


def test_energy_surface_term_oracle():
    # v = x, xi const: surface = ratio * (int (1-x)/xi + xi * 1).
    mesh = build_uniform(3)
    x, _ = mesh.vertex_coords.T
    v = ScalarField(mesh, x)
    u = constant_field(mesh, 0.0)
    xi = np.full(mesh.n_cells, 0.05)
    rec = pf.energies(mesh, u, v, xi, _reg())
    ratio = pf.TOUGHNESS / pf.AT1_NORMALIZATION
    expect = ratio * (0.5 / 0.05 + 0.05)
    assert rec.surface == pytest.approx(expect, rel=1e-12)


def test_energy_record_checks_sum():
    with pytest.raises(ValueError):
        pf.EnergyRecord(t=0, strain=1.0, surface=1.0, penalty=1.0, total=2.0,
                        xi_min=0.1, xi_max=0.1, xi_mean=0.1, cells=4)


# ---------------------------------------------------------------------------
# Irreversibility and the crack mask


def _fields(mesh, new, prev):
    return (ScalarField(mesh, np.asarray(new, float)),
            ScalarField(mesh, np.asarray(prev, float)))


def test_irreversibility_clamps_and_heals_nothing(mesh2x2):
    new = np.full(9, 1.4)
    prev = np.full(9, 0.8)
    prev[0] = 0.2
    vn = pf.enforce_irreversibility(*_fields(mesh2x2, new, prev),
                                    nothing_pinned(mesh2x2))
    assert np.all(vn.values <= prev + 1e-12)
    assert vn.values[0] == pytest.approx(0.2)
    assert not np.any(vn.values == 0.0)


def test_irreversibility_pins_below_threshold(mesh2x2):
    # Below 1: at or above it every damaged node would pin at once, and
    # the crack would cross the body in one step.
    assert 0 < pf.CRACK_TOL < 1
    new = np.ones(9)
    new[3] = 0.5 * pf.CRACK_TOL
    vn = pf.enforce_irreversibility(
        *_fields(mesh2x2, new, np.ones(9)), nothing_pinned(mesh2x2))
    assert vn.values[3] == 0.0
    assert np.flatnonzero(vn.values == 0.0).tolist() == [3]
    # the crack never shrinks, even if a later solve proposes v = 1 there
    vn2 = pf.enforce_irreversibility(
        *_fields(mesh2x2, np.ones(9), np.ones(9)), vn.values == 0.0)
    assert np.flatnonzero(vn2.values == 0.0).tolist() == [3]


def test_cracked_hanging_vertex_stays_at_zero():
    # A hanging vertex whose masters average 0.5 comes back as 0 only
    # because it is marked in ``cracked``: the bound of 1 and the pin
    # threshold let 0.5 through.
    mesh = refine(build_uniform(2), [0])
    h = int(mesh.constraints.hanging[0])
    a, b = mesh.constraints.pairs[0]
    new = np.ones(mesh.n_vertices)
    new[a] = 0.0
    new = mesh.constraints.apply(new)
    assert new[h] == 0.5
    cracked = new == 0.0
    cracked[h] = True
    vn = pf.enforce_irreversibility(
        *_fields(mesh, new, np.ones(mesh.n_vertices)), cracked)
    assert vn.values[h] == 0.0
    assert np.array_equal(vn.values == 0.0, cracked)


def test_crack_mask_is_read_only(mesh2x2):
    pinned = nothing_pinned(mesh2x2)
    mask = pf.CrackMask(pinned)
    with pytest.raises(ValueError):
        mask.pinned[0] = True
    assert len(mask) == 0 and mask.nodes.size == 0


# ---------------------------------------------------------------------------
# Initial crack seeding


def test_initial_crack_default_tip():
    mesh = build_uniform(4)  # h = 1/16, crack x=0.5, y in [0.5, 1]
    v = pf.initial_crack(mesh, 0.5)
    seeded = v.values == 0.0
    coords = mesh.vertex_coords[seeded]
    assert np.all(coords[:, 0] == 0.5)
    assert np.all(coords[:, 1] >= 0.5 - 1.0 / 32 - 1e-12)
    # 9 nodes on x=0.5 with y in {0.5, ..., 1.0}
    assert np.count_nonzero(seeded) == 9
    assert np.all(v.values[~seeded] == 1.0)


def test_initial_crack_intact():
    mesh = build_uniform(3)
    v = pf.initial_crack(mesh, 1.0)
    assert np.all(v.values == 1.0)


def test_initial_crack_validates_tip():
    with pytest.raises(ValueError):
        pf.initial_crack(build_uniform(2), -0.1)


# ---------------------------------------------------------------------------
# Regularization transfer


def test_transfer_regularization_modes():
    # On a refinement, xi is cell_xi of the transferred v in every mode:
    # xi_fixed on every cell, the global optimum of the new mesh, or its
    # per-cell field.
    old = build_uniform(3)
    v_old = pf.initial_crack(old)
    mesh = refine(old, [27, 28, 35, 36])
    v = ScalarField(mesh, transfer_field(old, mesh, v_old.values))
    for mode in ("fixed", "global", "field"):
        reg = _reg(alpha=7900.0, mode=mode)
        moved = pf.transfer_regularization(mesh, v, reg)
        assert moved.shape == (mesh.n_cells,)
        assert np.array_equal(moved, pf.cell_xi(mesh, v, reg))
    reg = _reg(alpha=7900.0, mode="fixed")
    fixed = pf.transfer_regularization(mesh, v, reg)
    assert np.array_equal(fixed, np.full(mesh.n_cells, reg.xi_fixed))
