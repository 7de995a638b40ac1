"""Model physics: energies, optimality formulas, calibration, irreversibility."""

import math

import numpy as np
import pytest

from xifrac import fem, phasefield as pf
from xifrac.fem import ScalarField, constant_field
from xifrac.mesh import build_uniform, refine, transfer_field

from conftest import dense_condense, dense_dirichlet, dense_laplace, \
    dense_load, dense_mass, dirichlet_arrays, nothing_pinned


MAT = pf.MaterialParams()


def _reg(**kw):
    return pf.RegularizationParams(**kw)


# ---------------------------------------------------------------------------
# Parameters


def test_material_defaults():
    assert MAT.mu == 80.8
    assert MAT.g_c == 2.7
    assert pf.AT1_NORMALIZATION == pytest.approx(8.0 / 3.0)
    assert not hasattr(MAT, "c_v")


def test_material_validation():
    with pytest.raises(ValueError):
        pf.MaterialParams(mu=-1.0)
    # A range is finite: a config rejects inf (and 1e400) as code does.
    with pytest.raises(ValueError, match="mu = inf must be finite and > 0"):
        pf.MaterialParams(mu=math.inf)


def test_regularization_validation():
    with pytest.raises(ValueError):
        _reg(mode="adaptive")
    with pytest.raises(ValueError):
        _reg(xi_min=0.2, xi_max=0.1)
    r = _reg(xi_min=0.011, xi_max=0.15)
    assert r.clamp(0.001) == 0.011
    assert r.clamp(0.5) == 0.15
    assert r.clamp(0.1) == 0.1


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
    reg1 = _reg(zeta=9.36, alpha=493.75, xi_max=1.0)
    reg2 = _reg(zeta=9.36, alpha=1975.0, xi_max=1.0)
    reg3 = _reg(zeta=9.36, alpha=7900.0, xi_max=1.0)
    assert float(pf.xi_pointwise(1.0, 0.0, MAT, reg1)) == pytest.approx(
        0.13854213817692043, abs=1e-12)
    assert float(pf.xi_pointwise(1.0, 0.0, MAT, reg2)) == pytest.approx(
        0.06927106908846022, abs=1e-12)
    assert float(pf.xi_pointwise(1.0, 0.0, MAT, reg3)) == pytest.approx(
        0.03463553454423011, abs=1e-12)


def test_xi_global_equals_pointwise_for_uniform_v():
    mesh = build_uniform(3)
    reg = _reg(zeta=9.36, alpha=1975.0, xi_max=1.0)
    v = constant_field(mesh, 1.0)
    assert pf.xi_global(mesh, v, MAT, reg) == pytest.approx(
        float(pf.xi_pointwise(1.0, 0.0, MAT, reg)), abs=1e-13)


def test_xi_global_manual_quadrature_oracle():
    # Non-uniform v = x: integrals have simple closed forms.
    #   num   = (G_c/c_v) * (1/2 + zeta)
    #   denom = (G_c/c_v) * 1 + alpha
    mesh = build_uniform(3)
    x = mesh.vertex_coords[:, 0]
    v = ScalarField(mesh, x)
    reg = _reg(zeta=2.0, alpha=10.0, xi_max=1.0)
    ratio = MAT.g_c / pf.AT1_NORMALIZATION
    expect = np.sqrt(ratio * 2.5 / (ratio + 10.0))
    assert pf.xi_global(mesh, v, MAT, reg) == pytest.approx(expect, abs=1e-13)


def test_xi_global_clamps():
    mesh = build_uniform(2)
    v = constant_field(mesh, 1.0)
    tight = _reg(zeta=9.36, alpha=493.75, xi_min=0.011, xi_max=0.05)
    assert pf.xi_global(mesh, v, MAT, tight) == 0.05


def test_xi_pointwise_monotone_in_damage():
    # Lower v (more damage) -> larger optimal xi when gradients are equal.
    reg = _reg(zeta=9.36, alpha=7900.0)
    xs = pf.xi_pointwise(np.array([1.0, 0.5, 0.0]), 0.0, MAT, reg)
    assert xs[0] < xs[1] < xs[2]


def test_xi_field_uniform_matches_scalar():
    mesh = build_uniform(4)
    reg = _reg(zeta=9.36, alpha=7900.0)
    cells = pf.xi_field(mesh, constant_field(mesh, 1.0), MAT, reg)
    assert cells.shape == (mesh.n_cells,)
    assert np.allclose(cells, 0.03463553454423011, atol=1e-12)


@pytest.mark.parametrize("alpha, xi0", [(7900.0, 0.0346355),
                                        (493.75, 0.138542)])
def test_xi_pointwise_returns_xi0_on_the_at1_profile(alpha, xi0):
    # On the 1-D AT1 optimal profile 1 - v = (1 - |x| / 2 xi0)^2, where
    # |grad v|^2 = (1 - v) / xi0^2, the pointwise optimum is
    # xi0 = sqrt(G_c zeta / (c_v alpha)) at every point of |x| < 2 xi0.
    reg = _reg(zeta=9.36, alpha=alpha, xi_max=1.0)
    closed = np.sqrt(MAT.g_c * reg.zeta / (pf.AT1_NORMALIZATION * alpha))
    assert closed == pytest.approx(xi0, rel=1e-5)
    x = np.linspace(-2.0 * closed, 2.0 * closed, 11)[1:-1]
    s = 1.0 - np.abs(x) / (2.0 * closed)
    v, grad_sq = 1.0 - s ** 2, (s / closed) ** 2
    xi = pf.xi_pointwise(v, grad_sq, MAT, reg)
    assert np.max(np.abs(xi / closed - 1.0)) <= 1e-14


def test_cell_xi_per_mode_stats_and_length():
    # xi is one value per cell in every mode: fixed spreads xi_fixed as
    # configured, even above xi_max, which clamps only the optimized xi,
    # and global spreads its optimum.  The energies report the array's
    # min, max and mean, and an array of the wrong length is rejected.
    mesh = build_uniform(2)
    u, v = constant_field(mesh, 0.0), constant_field(mesh, 1.0)
    fixed = _reg(xi_fixed=0.5)
    assert fixed.xi_fixed > fixed.xi_max
    assert np.array_equal(pf.cell_xi(mesh, v, MAT, fixed), np.full(16, 0.5))
    glob = _reg(mode="global", zeta=9.36, alpha=7900.0)
    assert np.array_equal(pf.cell_xi(mesh, v, MAT, glob),
                          np.full(16, pf.xi_global(mesh, v, MAT, glob)))
    field = _reg(mode="field", zeta=9.36, alpha=7900.0)
    assert np.array_equal(pf.cell_xi(mesh, v, MAT, field),
                          pf.xi_field(mesh, v, MAT, field))
    rec = pf.energies(mesh, u, v, np.linspace(0.02, 0.05, 16), MAT, _reg())
    assert rec.xi_min == 0.02 and rec.xi_max == 0.05
    assert rec.xi_mean == pytest.approx(0.035)
    with pytest.raises(ValueError, match="coefficient shape"):
        pf.energies(mesh, u, v, np.full(3, 0.1), MAT, _reg())
    with pytest.raises(ValueError, match="coefficient shape"):
        pf.assemble_phase(mesh, u, np.full(3, 0.1), MAT)


# ---------------------------------------------------------------------------
# Calibration


def test_calibrate_alpha_reference_values():
    # Within 0.5% of the published 493.75 / 1975 / 7900 table.
    for h, ref in ((0.008, 493.75), (0.004, 1975.0), (0.002, 7900.0)):
        val = pf.calibrate_alpha(h, 2.7)
        assert abs(val - ref) / ref < 0.005


def test_calibrate_zeta_h_independent():
    # zeta = 100 h^2 c_v alpha / G_c is exactly 3.125 when alpha comes from
    # the calibration formula, for any h.
    for h in (0.008, 0.004, 0.002, 0.001, 1.0 / 3.0):
        alpha = pf.calibrate_alpha(h, 2.7)
        zeta = pf.calibrate_zeta(h, alpha, 2.7)
        assert zeta == pytest.approx(3.125, abs=1e-12)


def test_calibrate_published_zeta_gap():
    # The published lower-bound penalty is 9.36, about 3x the closed form;
    # the gap is asserted here as documentation, not hidden.
    zeta = pf.calibrate_zeta(0.008, pf.calibrate_alpha(0.008, 2.7), 2.7)
    assert 2.9 < 9.36 / zeta < 3.1


def test_calibrate_input_validation():
    with pytest.raises(ValueError):
        pf.calibrate_alpha(0.0, 2.7)
    with pytest.raises(ValueError):
        pf.calibrate_zeta(0.01, -1.0, 2.7)


# ---------------------------------------------------------------------------
# Weak forms vs dense oracles


def test_displacement_system_matches_dense(mesh_hanging):
    mesh = mesh_hanging
    x, y = mesh.vertex_coords.T
    v = ScalarField(mesh, np.clip(x + 0.2, 0.0, 1.0))
    bc = {0: 0.25}
    sys = pf.assemble_displacement(mesh, v, MAT,
                                   *dirichlet_arrays(mesh.n_vertices, bc))

    def weight(px, py):
        vv = mesh.eval_field(v.values, min(px, 1 - 1e-12), min(py, 1 - 1e-12))
        return MAT.mu * pf.degradation(vv)

    A, b = dense_condense(mesh, dense_laplace(mesh, weight, order=2),
                          np.zeros(mesh.n_vertices))
    A, b = dense_dirichlet(mesh, A, b, bc)
    assert np.max(np.abs(sys.matrix.toarray() - A)) < 1e-9
    assert np.max(np.abs(sys.rhs - b)) < 1e-9


def test_phase_system_matches_dense(mesh_hanging):
    mesh = mesh_hanging
    x, y = mesh.vertex_coords.T
    u = ScalarField(mesh, 0.3 * x - 0.1 * y)  # constant gradient (0.3, -0.1)
    xi = np.full(mesh.n_cells, 0.07)
    sys = fem.apply_dirichlet(pf.assemble_phase(mesh, u, xi, MAT)[0],
                              nothing_pinned(mesh), 0.0)

    gsq = 0.3 ** 2 + 0.1 ** 2
    drive = MAT.mu * (1.0 - pf.RESIDUAL_STIFFNESS) * gsq
    Am = dense_mass(mesh, lambda px, py: drive, order=2)
    c_v = pf.AT1_NORMALIZATION
    Al = dense_laplace(mesh, lambda px, py: 2 * MAT.g_c * 0.07 / c_v, order=2)
    bl = dense_load(mesh, lambda px, py: MAT.g_c / (c_v * 0.07), order=2)
    A, b = dense_dirichlet(mesh, *dense_condense(mesh, Am + Al, bl), {})
    assert np.max(np.abs(sys.matrix.toarray() - A)) < 1e-9
    assert np.max(np.abs(sys.rhs - b)) < 1e-9


def test_phase_system_is_spd(mesh_hanging):
    x, _ = mesh_hanging.vertex_coords.T
    u = ScalarField(mesh_hanging, 0.1 * x)
    xi = np.full(mesh_hanging.n_cells, 0.1)
    folded, _ = pf.assemble_phase(mesh_hanging, u, xi, MAT)
    sys = fem.apply_dirichlet(folded, nothing_pinned(mesh_hanging), 0.0)
    np.linalg.cholesky(sys.matrix.toarray())  # raises if not SPD


def test_phase_solution_intact_body_exceeds_one():
    # Below the elastic limit the unconstrained phase solve sits above 1,
    # so clamping returns the intact state exactly.
    mesh = build_uniform(4)
    x, _ = mesh.vertex_coords.T
    u = ScalarField(mesh, 1e-3 * x)  # tiny uniform strain
    xi = np.full(mesh.n_cells, 0.13687)
    sys = fem.apply_dirichlet(pf.assemble_phase(mesh, u, xi, MAT)[0],
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
    folded, _ = pf.assemble_phase(mesh, u, xi, MAT)
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
        pf.assemble_phase(mesh4x4, u, xi, MAT)


# ---------------------------------------------------------------------------
# Energies


def test_energy_components_analytic():
    # u = x with v = 1: strain = mu/2; surface = 0; penalty analytic.
    mesh = build_uniform(3)
    x, _ = mesh.vertex_coords.T
    u = ScalarField(mesh, x)
    v = constant_field(mesh, 1.0)
    xi = np.full(mesh.n_cells, 0.1)
    reg = _reg(zeta=9.36, alpha=493.75)
    rec = pf.energies(mesh, u, v, xi, MAT, reg)
    ratio = MAT.g_c / pf.AT1_NORMALIZATION
    assert rec.strain == pytest.approx(0.5 * MAT.mu, rel=1e-12)
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
    rec = pf.energies(mesh, u, v, xi, MAT, _reg())
    ratio = MAT.g_c / pf.AT1_NORMALIZATION
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
    a, b = mesh.constraints.masters[h]
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
        reg = _reg(zeta=9.36, alpha=7900.0, mode=mode)
        moved = pf.transfer_regularization(mesh, v, MAT, reg)
        assert moved.shape == (mesh.n_cells,)
        assert np.array_equal(moved, pf.cell_xi(mesh, v, MAT, reg))
    reg = _reg(zeta=9.36, alpha=7900.0, mode="fixed")
    fixed = pf.transfer_regularization(mesh, v, MAT, reg)
    assert np.array_equal(fixed, np.full(mesh.n_cells, reg.xi_fixed))
