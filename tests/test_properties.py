"""Property-based tests over random inputs (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from xifrac import fem, mesh as meshmod, phasefield as pf
from xifrac.config import parse_config, serialize_config
from xifrac.mesh import build_uniform, coarsen, refine

from conftest import brute_force_hanging, check_two_to_one, children, \
    reference_coarsen, reference_refine, total_area

MAT = pf.MaterialParams()
REG = pf.RegularizationParams(zeta=9.36, alpha=7900.0)


# ---------------------------------------------------------------------------
# Pointwise xi formula


@given(v=st.floats(0.0, 1.0), gsq=st.floats(0.0, 1e6))
def test_xi_pointwise_always_clamped(v, gsq):
    xi = float(pf.xi_pointwise(v, gsq, MAT, REG))
    assert REG.xi_min <= xi <= REG.xi_max


@given(v=st.floats(0.0, 1.0), g1=st.floats(0.0, 1e4), g2=st.floats(0.0, 1e4))
def test_xi_pointwise_decreasing_in_gradient(v, g1, g2):
    lo, hi = sorted((g1, g2))
    xi_lo = float(pf.xi_pointwise(v, lo, MAT, REG))
    xi_hi = float(pf.xi_pointwise(v, hi, MAT, REG))
    assert xi_hi <= xi_lo + 1e-15


@given(v1=st.floats(0.0, 1.0), v2=st.floats(0.0, 1.0),
       gsq=st.floats(0.0, 1e4))
def test_xi_pointwise_increasing_in_damage(v1, v2, gsq):
    lo, hi = sorted((v1, v2))  # hi = less damaged
    xi_damaged = float(pf.xi_pointwise(lo, gsq, MAT, REG))
    xi_intact = float(pf.xi_pointwise(hi, gsq, MAT, REG))
    assert xi_intact <= xi_damaged + 1e-15


@given(v=st.floats(0.0, 1.0), gsq=st.floats(0.0, 1e4),
       scale=st.floats(0.5, 2.0))
def test_xi_pointwise_invariant_under_common_scaling(v, gsq, scale):
    # Multiplying G_c, alpha (and implicitly both integrand groups) by one
    # factor leaves the optimum unchanged: the formula is a ratio.
    wide = pf.RegularizationParams(zeta=9.36, alpha=7900.0, xi_min=1e-6,
                                   xi_max=1e3)
    scaled_mat = pf.MaterialParams(mu=MAT.mu, g_c=MAT.g_c * scale)
    scaled_reg = pf.RegularizationParams(zeta=9.36, alpha=7900.0 * scale,
                                         xi_min=1e-6, xi_max=1e3)
    a = float(pf.xi_pointwise(v, gsq, MAT, wide))
    b = float(pf.xi_pointwise(v, gsq, scaled_mat, scaled_reg))
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
        for h, (a, b) in m.constraints.masters.items():
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
    keys = m.cell_keys
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
        keys = m.cell_keys
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
            flags = [m.cell_id(k) for g in chosen for k in children(g)]
            flags += data.draw(st.lists(st.integers(0, m.n_cells - 1),
                                        max_size=4))
            out = coarsen(m, flags)
            want = reference_coarsen(keys, {keys[c] for c in flags},
                                     m.level_min)
        assert set(out.cell_keys) == want
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
            keys = m.cell_keys
            groups = sorted({(l - 1, i // 2, j // 2) for l, i, j in keys
                             if children((l - 1, i // 2, j // 2))
                             <= set(keys)})
            chosen = data.draw(st.lists(st.sampled_from(groups), max_size=4)
                               if groups else st.just([]))
            m = coarsen(m, [m.cell_id(k) for g in chosen
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
        ScalarField(m, new), ScalarField(m, prev), cracked.copy(), 0.01)
    assert np.all(v.values >= 0.0)
    assert np.all(v.values <= 1.0)
    assert np.all(v.values <= prev + 1e-12)
    assert np.all(v.values[cracked] == 0.0)
    # Every value left below the pin threshold is a zero.
    assert not np.any((v.values > 0.0) & (v.values < 0.01))


# ---------------------------------------------------------------------------
# Config round-trips


_FLOAT_KEYS = st.sampled_from([
    ("material.mu", 0.1, 500.0),
    ("material.G_c", 0.1, 10.0),
    ("loading.c", 0.0, 4.0),
    ("loading.dt", 1e-4, 1.0),
    ("solver.staggered_tol", 1e-8, 1e-2),
    ("regularization.xi_refine", 1e-3, 0.2),
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
