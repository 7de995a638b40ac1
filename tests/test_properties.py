"""Property-based tests over random inputs (hypothesis)."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xifrac import driver, fem, mesh as meshmod, phasefield as pf
from xifrac.config import parse_config, serialize_config
from xifrac.mesh import build_uniform, coarsen, refine, transfer_field

from conftest import brute_force_hanging, cell_id, \
    check_refinement_transfer, check_two_to_one, children, \
    coarsen_rule_flags, keys_of, reference_coarsen, reference_refine, \
    total_area

REG = pf.RegularizationParams(alpha=7900.0)


# ---------------------------------------------------------------------------
# Pointwise xi formula


@given(v=st.floats(0.0, 1.0), gsq=st.floats(0.0, 1e6))
def test_xi_pointwise_always_clamped(v, gsq):
    xi = float(pf.xi_pointwise(v, gsq, REG))
    assert pf.XI_MIN <= xi <= pf.XI_MAX


@given(v=st.floats(0.0, 1.0), g1=st.floats(0.0, 1e4), g2=st.floats(0.0, 1e4))
def test_xi_pointwise_decreasing_in_gradient(v, g1, g2):
    lo, hi = sorted((g1, g2))
    xi_lo = float(pf.xi_pointwise(v, lo, REG))
    xi_hi = float(pf.xi_pointwise(v, hi, REG))
    assert xi_hi <= xi_lo + 1e-15


@given(v1=st.floats(0.0, 1.0), v2=st.floats(0.0, 1.0),
       gsq=st.floats(0.0, 1e4))
def test_xi_pointwise_increasing_in_damage(v1, v2, gsq):
    lo, hi = sorted((v1, v2))  # hi = less damaged
    xi_damaged = float(pf.xi_pointwise(lo, gsq, REG))
    xi_intact = float(pf.xi_pointwise(hi, gsq, REG))
    assert xi_intact <= xi_damaged + 1e-15


@given(v=st.floats(0.0, 1.0), gsq=st.floats(0.0, 1e4),
       scale=st.floats(0.5, 2.0))
def test_xi_pointwise_invariant_under_common_scaling(v, gsq, scale):
    # Multiplying G_c, alpha (and implicitly both integrand groups) by one
    # factor leaves the optimum unchanged: the formula is a ratio.  The
    # clamp is widened to [1e-6, 1e3].
    scaled_reg = pf.RegularizationParams(alpha=7900.0 * scale)
    with mock.patch.object(pf, "XI_MIN", 1e-6), \
            mock.patch.object(pf, "XI_MAX", 1e3):
        a = float(pf.xi_pointwise(v, gsq, REG))
        with mock.patch.object(pf, "TOUGHNESS", pf.TOUGHNESS * scale):
            b = float(pf.xi_pointwise(v, gsq, scaled_reg))
    assert abs(a - b) <= 1e-12 * max(a, 1.0)


# ---------------------------------------------------------------------------
# Gradients at the quadrature points

# Nodal values: ordinary ones, subnormals, both zeros and the extremes of
# the normal range, where a scaling done in another order would round.
NODAL = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]))


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_grad_at_qp_is_the_division_by_h_bit_for_bit(data):
    # Random balanced meshes up to level 8 and random nodal values: the
    # gradients equal the reference gradients divided by each cell's h.
    m = build_uniform(1, level_min=1, level_max=8)
    for _ in range(data.draw(st.integers(1, 8))):
        finest = np.flatnonzero(m.cell_levels == m.cell_levels.max())
        flags = data.draw(st.lists(st.sampled_from(finest.tolist()),
                                   min_size=1, max_size=2))
        m = refine(m, flags)
    values = np.array(data.draw(st.lists(NODAL, min_size=m.n_vertices,
                                         max_size=m.n_vertices)))
    got = fem.grad_at_qp(fem.ScalarField(m, values))
    want = (values[m.cell_vertices] @ fem.GAUSS2.grad_table) \
        / m.cell_h[:, None]
    assert got.tobytes() == want.reshape(m.n_cells, -1, 2).tobytes()


# ---------------------------------------------------------------------------
# Constraint projection


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_constraint_apply_idempotent_random_meshes(data):
    m = build_uniform(2, level_max=4)
    for _ in range(data.draw(st.integers(1, 3))):
        cid = data.draw(st.integers(0, m.n_cells - 1))
        m = refine(m, [cid])
    vals = np.array(data.draw(st.lists(
        st.floats(-10, 10), min_size=m.n_vertices, max_size=m.n_vertices)))
    once = m.constraints.apply(vals)
    twice = m.constraints.apply(once)
    assert np.allclose(once, twice, atol=1e-13)


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_constraint_fold_is_the_transpose_of_apply(data):
    # assemble_load folds the load of hanging vertices onto their masters;
    # the oracle T is built from apply alone, one unit vector per column.
    m = build_uniform(2, level_max=4)
    for _ in range(data.draw(st.integers(1, 3))):
        cid = data.draw(st.integers(0, m.n_cells - 1))
        m = refine(m, [cid])
    c = m.constraints
    assert len(c) > 0
    t = np.column_stack([c.apply(e) for e in np.eye(m.n_vertices)])
    x = np.array(data.draw(st.lists(
        st.floats(-10, 10), min_size=m.n_vertices, max_size=m.n_vertices)))
    got = c.fold(x)
    assert np.linalg.norm(got - t.T @ x) <= 1e-14 * np.linalg.norm(x)
    assert np.all(got[c.hanging] == 0.0)


# ---------------------------------------------------------------------------
# Mesh operation sequences


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_random_refine_coarsen_sequences_keep_invariants(data):
    m = build_uniform(2, level_min=1, level_max=5)
    for _ in range(data.draw(st.integers(1, 5))):
        if data.draw(st.booleans()):
            flags = data.draw(st.lists(st.integers(0, m.n_cells - 1),
                                       max_size=6))
            m = refine(m, flags)
        else:
            flags = data.draw(st.lists(st.integers(0, m.n_cells - 1),
                                       max_size=12))
            m = coarsen(m, flags)
        assert abs(total_area(m) - 1.0) < 1e-12
        assert m.cell_levels.min() >= m.level_min
        assert m.cell_levels.max() <= m.level_max
        check_two_to_one(m)
        # hanging vertices always sit at master midpoints
        for h, (a, b) in zip(m.constraints.hanging, m.constraints.pairs):
            mid = 0.5 * (m.vertex_coords[a] + m.vertex_coords[b])
            assert np.allclose(m.vertex_coords[h], mid, atol=1e-15)


def _tiles_by_raster(keys):
    """Whether the cells ``(l, i, j)`` cover each square of the finest
    level's grid exactly once: a dense oracle."""
    top = max(l for l, _, _ in keys)
    count = np.zeros((1 << top, 1 << top), dtype=int)
    for l, i, j in keys:
        s = 1 << (top - l)
        count[i * s:(i + 1) * s, j * s:(j + 1) * s] += 1
    return bool(np.all(count == 1))


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_tiles_domain_matches_a_raster_oracle(data):
    # A mesh, then the same cells with one removed (a gap), with a child
    # of one added and with the parent of one added (overlaps), and with
    # one removed and a child of a cell one level coarser added (both, at
    # a total area of exactly 1).
    m = build_uniform(1, level_min=1, level_max=4)
    for _ in range(data.draw(st.integers(0, 3))):
        m = refine(m, data.draw(st.lists(st.integers(0, m.n_cells - 1),
                                         max_size=4)))
    keys = keys_of(m)
    c = data.draw(st.integers(0, len(keys) - 1))
    l, i, j = keys[c]
    variants = [keys, keys[:c] + keys[c + 1:], keys + [(l + 1, 2 * i, 2 * j)],
                keys + [(l - 1, i // 2, j // 2)]]
    coarser = [k for k in keys if k[0] == l - 1]
    if coarser:
        _, ci, cj = data.draw(st.sampled_from(coarser))
        variants.append(keys[:c] + keys[c + 1:] + [(l, 2 * ci, 2 * cj)])
    for cells in variants:
        level_min = min(k[0] for k in cells)
        tiles = meshmod.Mesh(cells, level_min, 5).tiles_domain()
        assert tiles == _tiles_by_raster(cells)
    assert m.tiles_domain()


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_refine_coarsen_match_brute_force_oracles(data):
    # Balance alone would pass an implementation that over-splits or
    # under-merges; the oracles pin the minimal refinement and the
    # greatest balanced merge.
    m = build_uniform(2, level_min=1, level_max=5)
    for _ in range(data.draw(st.integers(1, 6))):
        keys = keys_of(m)
        if data.draw(st.booleans()):
            flags = data.draw(st.lists(st.integers(0, m.n_cells - 1),
                                       max_size=6))
            out = refine(m, flags)
            want = reference_refine(keys, {keys[c] for c in flags},
                                    m.level_max)
        else:
            # Whole sibling groups, so that merges and blocked merges occur.
            groups = sorted({(l - 1, i // 2, j // 2) for l, i, j in keys
                             if children((l - 1, i // 2, j // 2)) <= set(keys)})
            chosen = data.draw(st.lists(st.sampled_from(groups), max_size=4)
                               if groups else st.just([]))
            flags = [cell_id(m, k) for g in chosen for k in children(g)]
            flags += data.draw(st.lists(st.integers(0, m.n_cells - 1),
                                        max_size=4))
            out = coarsen(m, flags)
            want = reference_coarsen(keys, {keys[c] for c in flags},
                                     m.level_min)
        assert set(keys_of(out)) == want
        assert (out is m) == (want == set(keys))
        m = out


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_hanging_constraints_match_brute_force_edges(data):
    # Random balanced meshes from refine/coarsen sequences, with splits of
    # boundary cells and of cells at level_max (which stay) among them:
    # the constraints found from corner counts are exactly those of a
    # search over every cell edge for vertices strictly inside it.
    level = data.draw(st.integers(2, 3))
    m = build_uniform(level, level_min=data.draw(st.integers(1, level)),
                      level_max=level + data.draw(st.integers(1, 3)))
    for _ in range(data.draw(st.integers(1, 6))):
        kind = data.draw(st.sampled_from(
            ["any", "boundary", "finest", "coarsen"]))
        if kind == "coarsen":
            # Whole sibling groups, so that merges happen.
            keys = keys_of(m)
            groups = sorted({(l - 1, i // 2, j // 2) for l, i, j in keys
                             if children((l - 1, i // 2, j // 2))
                             <= set(keys)})
            chosen = data.draw(st.lists(st.sampled_from(groups), max_size=4)
                               if groups else st.just([]))
            m = coarsen(m, [cell_id(m, k) for g in chosen
                            for k in children(g)])
        else:
            x, y = (m.cell_origin + 0.5 * m.cell_h[:, None]).T
            pool = {"any": np.arange(m.n_cells),
                    "boundary": np.flatnonzero(
                        (np.minimum(x, 1.0 - x) < m.cell_h)
                        | (np.minimum(y, 1.0 - y) < m.cell_h)),
                    "finest": np.flatnonzero(
                        m.cell_levels == m.cell_levels.max())}[kind]
            m = refine(m, data.draw(st.lists(st.sampled_from(pool.tolist()),
                                             max_size=4)))
        hanging, pairs = brute_force_hanging(m)
        assert np.array_equal(m.constraints.hanging, hanging)
        assert np.array_equal(m.constraints.pairs, pairs)


# ---------------------------------------------------------------------------
# Field transfer


def _drawn_refinement(data, m, least, most):
    for _ in range(data.draw(st.integers(least, most))):
        m = refine(m, data.draw(st.lists(st.integers(0, m.n_cells - 1),
                                         min_size=1, max_size=4)))
    return m


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_transfer_onto_a_refinement_matches_the_old_interpolant(data):
    # Both meshes come from drawn refine sequences, the new one from the
    # old, and the (u, v) block satisfies the old mesh's constraints, as
    # every field of a run does.  A merged mesh is no refinement, so a
    # transfer onto it is refused, naming both meshes.
    old = _drawn_refinement(
        data, build_uniform(2, level_min=1, level_max=5), 0, 3)
    new = _drawn_refinement(data, old, 1, 3)
    values = old.constraints.apply(np.array(data.draw(st.lists(
        st.floats(-1e3, 1e3), min_size=2 * old.n_vertices,
        max_size=2 * old.n_vertices))).reshape(-1, 2))
    got = transfer_field(old, new, values)
    check_refinement_transfer(old, new, values, got)
    single = [transfer_field(old, new, f) for f in values.T]
    assert got.tobytes() == np.column_stack(single).tobytes()

    # The finest cells hold a complete sibling group, and nothing finer
    # can block its merge.
    finest = np.flatnonzero(new.cell_levels == new.cell_levels.max())
    merged = coarsen(new, finest)
    assert merged is not new
    with pytest.raises(ValueError,
                       match=rf"mesh {merged.id} .*mesh {new.id}\b"):
        transfer_field(new, merged, got)


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_xi_after_a_refinement_is_cell_xi_of_the_transferred_v(data):
    # A v in [0, 1] on the old mesh moves onto a refinement of it.  2 x 2
    # Gauss integrates the global-xi integrands of a bilinear v exactly,
    # so the unclamped global optimum stays put up to rounding, and xi on
    # the new mesh is cell_xi of the transferred v in every mode.
    old = _drawn_refinement(
        data, build_uniform(2, level_min=2, level_max=7), 0, 3)
    new = _drawn_refinement(data, old, 1, 3)
    v_old = fem.ScalarField(old, old.constraints.apply(data.draw(st.lists(
        st.floats(0.0, 1.0), min_size=old.n_vertices,
        max_size=old.n_vertices))))
    v_new = fem.ScalarField(new, transfer_field(old, new, v_old.values))
    glob = replace(REG, mode="global")
    with mock.patch.object(pf, "XI_MIN", 1e-3), \
            mock.patch.object(pf, "XI_MAX", 1.0):
        before = pf.xi_global(old, v_old, glob)
        assert pf.XI_MIN < before < pf.XI_MAX
        assert pf.xi_global(new, v_new, glob) == pytest.approx(
            before, rel=1e-14, abs=0.0)
    for mode in ("fixed", "global", "field"):
        reg = replace(REG, mode=mode)
        moved = pf.transfer_regularization(new, v_new, reg)
        assert moved.tobytes() == pf.cell_xi(new, v_new, reg).tobytes()


# ---------------------------------------------------------------------------
# AMR fixed point


@given(level_start=st.integers(3, 4), extra=st.integers(1, 2),
       tip=st.floats(0.2, 0.9), xi_refine=st.floats(0.0335, 0.0355))
@settings(max_examples=20, deadline=None)
def test_one_amr_pass_reaches_a_balanced_fixed_point(level_start, extra,
                                                     tip, xi_refine):
    # At levels 3 to 5 the cell xi lies between 0.033 and 0.0355, above
    # XI_REFINE = 0.03, so a raised threshold (patched in) flags the
    # crack's cells, the intact ones or both, depending on the level.
    cfg = driver.SimConfig(
        mesh=driver.MeshParams(level_start=level_start,
                               level_max=min(level_start + extra, 5),
                               crack_y_tip=tip),
        regularization=pf.RegularizationParams(mode="field", alpha=7900.0),
        amr=driver.AmrParams(enabled=True))
    with mock.patch.object(pf, "XI_REFINE", xi_refine):
        state = driver.initialize(cfg)
        zeros = state.mesh.vertex_coords[state.v.values == 0.0]
        flagged = driver._amr_flags(state.mesh, state.v.values, cfg)
        assert driver.amr_pass(state, cfg) == (len(flagged) > 0)
        mesh = state.mesh
        assert refine(mesh, driver._amr_flags(mesh, state.v.values,
                                              cfg)) is mesh
    check_two_to_one(mesh)
    ids = mesh.vertex_ids(zeros)
    assert np.all(ids >= 0) and np.all(state.v.values[ids] == 0.0)


@given(level_start=st.integers(3, 6), extra=st.integers(1, 3),
       tip=st.floats(0.2, 0.9), xi_refine=st.floats(0.03, 0.0355),
       steps=st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_coarsening_merges_nothing_that_a_run_reaches(level_start, extra,
                                                      tip, xi_refine, steps):
    # amr_pass only refines.  On every state that a run with AMR reaches,
    # mesh.coarsen returns its input for the cells that a coarsening pass
    # would flag, so a coarsening loop after the refinement could never
    # change a run.  The threshold ranges over both sides of the intact
    # xi_0 = 0.0346: above it every intact cell is low and none is
    # flagged; below it every low cell keeps a vertex with v < 1 - 1e-6,
    # so the children of a refined cell are never all flagged.
    cfg = driver.SimConfig(
        mesh=driver.MeshParams(level_start=level_start,
                               level_max=min(level_start + extra, 9),
                               crack_y_tip=tip),
        regularization=pf.RegularizationParams(mode="field", alpha=7900.0),
        loading=driver.LoadingParams(n_max=steps),
        amr=driver.AmrParams(enabled=True))
    seen = []

    def merges_nothing(state):
        flags = coarsen_rule_flags(state.mesh, state.v.values, cfg)
        assert coarsen(state.mesh, flags) is state.mesh
        seen.append(state.step)

    with mock.patch.object(pf, "XI_REFINE", xi_refine):
        driver.run(cfg, snapshot_hook=merges_nothing)
    assert seen == list(range(1, steps + 1))


# ---------------------------------------------------------------------------
# Irreversibility projection


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_irreversibility_projection_properties(data):
    m = build_uniform(2)
    n = m.n_vertices
    new = np.array(data.draw(st.lists(st.floats(-0.5, 1.5),
                                      min_size=n, max_size=n)))
    prev = np.array(data.draw(st.lists(st.floats(0.0, 1.0),
                                       min_size=n, max_size=n)))
    cracked = np.zeros(n, dtype=bool)
    cracked[data.draw(st.lists(st.integers(0, n - 1), max_size=3))] = True
    from xifrac.fem import ScalarField
    v = pf.enforce_irreversibility(
        ScalarField(m, new), ScalarField(m, prev), cracked.copy())
    assert np.all(v.values >= 0.0)
    assert np.all(v.values <= 1.0)
    assert np.all(v.values <= prev + 1e-12)
    assert np.all(v.values[cracked] == 0.0)
    # Every value left below the pin threshold is a zero.
    assert not np.any((v.values > 0.0) & (v.values < pf.CRACK_TOL))


# ---------------------------------------------------------------------------
# Config round-trips


_FLOAT_KEYS = st.sampled_from([
    ("regularization.alpha", 1.0, 1e4),
    ("loading.c", 0.0, 4.0),
    ("loading.dt", 1e-4, 1.0),
    ("solver.staggered_tol", 1e-8, 1e-2),
])


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_config_serialize_parse_round_trip(data):
    lines = []
    for key, lo, hi in {data.draw(_FLOAT_KEYS) for _ in range(3)}:
        val = data.draw(st.floats(lo, hi, allow_nan=False))
        lines.append(f"{key} = {val!r}")
    cfg = parse_config("\n".join(lines))
    assert parse_config(serialize_config(cfg)) == cfg
