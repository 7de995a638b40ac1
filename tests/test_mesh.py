"""Quadtree mesh construction, refinement, coarsening, and field transfer
onto a refinement (a coarsened mesh is refused)."""

import numpy as np
import pytest

from xifrac import mesh as meshmod
from xifrac.mesh import build_uniform, coarsen, refine, transfer_field

from conftest import check_two_to_one, dense_prolongation, total_area


# ---------------------------------------------------------------------------
# Construction


def test_uniform_counts():
    m = build_uniform(1)
    assert m.n_cells == 4
    assert m.n_vertices == 9
    assert np.all(m.cell_h == 0.5)
    assert len(m.constraints) == 0


def test_uniform_level6_counts():
    m = build_uniform(6)
    assert m.n_cells == 4096
    assert m.n_vertices == 65 * 65


def test_uniform_area_and_balance():
    m = build_uniform(2)
    assert total_area(m) == pytest.approx(1.0, abs=1e-15)
    check_two_to_one(m)


def test_level_bounds_enforced():
    with pytest.raises(ValueError):
        meshmod.Mesh({(3, 0, 0)}, level_min=1, level_max=2)
    with pytest.raises(ValueError):
        meshmod.Mesh(set(), 1, 2)


@pytest.mark.parametrize("keys, level_min, level_max", [
    ([(-1, 0, 0)], -1, -1),
    ([(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 2, 1)], 1, 1),
    ([(1, 0, -1)], 1, 1),
    ([(meshmod._MAXLEVEL + 1, 0, 0)], 0, meshmod._MAXLEVEL + 1),
    ([(0, 0, 0)], -1, 0),
], ids=["negative-level", "i-past-the-square", "j-below-zero",
        "finer-than-the-finest-level", "negative-level-min"])
def test_keys_off_the_quadtree_of_the_square_are_rejected(keys, level_min,
                                                          level_max):
    # These used to build degenerate meshes: a level -1 cell has all four
    # corners at one vertex, cell (1, 2, 1) puts a vertex at x = 1.5, and
    # a cell finer than the finest level has size 0 in integer units.
    with pytest.raises(ValueError):
        meshmod.Mesh(keys, level_min, level_max)


def test_reuse_matches_its_inputs_bit_for_bit():
    # A kept product comes back only for inputs equal bit for bit to the
    # last ones: a one-ulp change in one entry misses, and so does a
    # +0.0 -> -0.0 swap that np.array_equal calls equal.  The kept inputs
    # are copies, so an in-place edit of the caller's array misses too.
    mesh = build_uniform(2)
    computed = []

    def product(v, tag="a"):
        return mesh.reuse("sum", (v, tag),
                          lambda: computed.append(1) or float(v.sum()))

    v = np.linspace(0.0, 1.0, mesh.n_vertices)
    product(v)
    product(v.copy())
    product(np.column_stack([v, v])[:, 1])
    assert len(computed) == 1

    one_ulp = v.copy()
    one_ulp[3] = np.nextafter(v[3], 2.0)
    product(one_ulp)
    assert len(computed) == 2
    product(v)
    assert len(computed) == 3

    signed = v.copy()
    signed[0] = -0.0
    assert v[0] == 0.0 and np.array_equal(signed, v)
    product(signed)
    assert len(computed) == 4

    edited = v.copy()
    product(edited)
    edited[1] += 0.5
    product(edited)
    product(edited, "b")
    product(edited[:-1])
    assert len(computed) == 8
    assert list(mesh.products) == ["sum"]


def test_reuse_keeps_the_last_keep_inputs_of_a_name():
    # With keep=3 a name keeps the outputs of its three most recently used
    # inputs: a hit makes its entry the most recent, and a new input drops
    # the least recent.  Another name keeps its own entries, one by
    # default.
    mesh = build_uniform(2)
    computed = []

    def product(k, name="sum", keep=3):
        return mesh.reuse(name, (np.full(4, float(k)),),
                          lambda: computed.append((name, k)) or [k], keep)

    def kept(name="sum"):
        return [out for _, out in mesh.products[name]]

    outs = [product(k) for k in range(3)]
    assert all(product(k) is outs[k] for k in (0, 1, 2))
    assert len(computed) == 3 and kept() == [[0], [1], [2]]
    assert product(0) is outs[0]
    assert kept() == [[1], [2], [0]]
    product(3)
    assert kept() == [[2], [0], [3]]
    product(1)
    assert computed[-1] == ("sum", 1) and kept() == [[0], [3], [1]]
    product(0, "other", keep=1)
    product(1, "other", keep=1)
    assert kept("other") == [[1]] and kept() == [[0], [3], [1]]
    assert len(computed) == 7


def test_numbering_matches_first_appearance_loop():
    # Reference: cells in sorted key order, vertices numbered by first
    # appearance over each cell's corners, counterclockwise.
    m = build_uniform(2, level_max=5)
    for _ in range(3):
        m = refine(m, [m.locate(0.3, 0.6), m.locate(0.9, 0.1)])
    assert m.cell_keys == sorted(m.cell_keys)
    index, conn = {}, []
    for l, i, j in m.cell_keys:
        h = 0.5 ** l
        corners = [(i * h, j * h), ((i + 1) * h, j * h),
                   ((i + 1) * h, (j + 1) * h), (i * h, (j + 1) * h)]
        conn.append([index.setdefault(p, len(index)) for p in corners])
    assert np.array_equal(m.cell_vertices, conn)
    assert np.array_equal(m.vertex_coords, list(index))


def test_vertex_coords_exact():
    m = build_uniform(2)
    xs = np.unique(m.vertex_coords[:, 0])
    assert np.array_equal(xs, np.linspace(0, 1, 5))


def test_boundary_tags():
    m = build_uniform(2)
    bottom = m.boundary_vertices(meshmod.BOTTOM)
    assert len(bottom) == 5
    assert np.all(m.vertex_coords[bottom, 1] == 0.0)
    top = m.boundary_vertices(meshmod.TOP)
    assert np.all(m.vertex_coords[top, 1] == 1.0)


# ---------------------------------------------------------------------------
# Refinement


def test_refine_one_cell_counts(mesh4x4):
    fine = refine(mesh4x4, [mesh4x4.cell_id((2, 0, 0))])
    # 16 - 1 + 4 children; corner refinement cannot unbalance a uniform mesh.
    assert fine.n_cells == 19
    assert len(fine.constraints) == 2
    check_two_to_one(fine)
    assert total_area(fine) == pytest.approx(1.0, abs=1e-15)


def test_refine_idempotent_flags(mesh4x4):
    c = mesh4x4.cell_id((2, 1, 1))
    once = refine(mesh4x4, [c])
    twice = refine(mesh4x4, [c, c, c])
    assert once.cell_keys == twice.cell_keys


def test_refine_respects_level_max(caplog):
    m = build_uniform(2, level_max=2)
    out = refine(m, [0])
    assert out.cell_keys == m.cell_keys
    # nothing split: no new mesh is built
    assert out is m
    assert refine(m, []) is m


def test_refine_rebalances():
    # Refining one cell twice forces neighbors to split for 2:1 balance.
    m = build_uniform(2, level_max=6)
    m = refine(m, [m.cell_id((2, 0, 0))])
    m = refine(m, [m.cell_id((3, 0, 0))])
    check_two_to_one(m)
    assert total_area(m) == pytest.approx(1.0, abs=1e-15)
    levels = sorted(set(m.cell_levels.tolist()))
    assert levels == [2, 3, 4]


def test_deep_refinement_chain_stays_balanced():
    m = build_uniform(2, level_max=8)
    for _ in range(5):
        # always refine the cell containing the origin corner
        m = refine(m, [m.locate(1e-9, 1e-9)])
        check_two_to_one(m)
        assert total_area(m) == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# Hanging nodes


def test_hanging_nodes_are_edge_midpoints(mesh_hanging):
    cons = mesh_hanging.constraints
    assert len(cons) == 2
    for h, (a, b) in cons.masters.items():
        mid = 0.5 * (mesh_hanging.vertex_coords[a] + mesh_hanging.vertex_coords[b])
        assert np.allclose(mesh_hanging.vertex_coords[h], mid, atol=1e-15)


def test_constraints_reproduce_linear_fields(mesh_hanging):
    # Criterion: constrained interpolation is exact for linears to 1e-12.
    x = mesh_hanging.vertex_coords[:, 0]
    y = mesh_hanging.vertex_coords[:, 1]
    f = 2.0 * x - 3.0 * y + 0.25
    applied = mesh_hanging.constraints.apply(f)
    assert np.max(np.abs(applied - f)) < 1e-12


def test_constraint_matrix_matches_dense(mesh_hanging):
    # Constraining the identity column by column gives the prolongation T.
    T = mesh_hanging.constraints.apply(np.eye(mesh_hanging.n_vertices))
    assert np.array_equal(T, dense_prolongation(mesh_hanging))


def test_constraint_apply_is_idempotent(mesh_hanging):
    rng = np.random.default_rng(7)
    f = rng.normal(size=mesh_hanging.n_vertices)
    once = mesh_hanging.constraints.apply(f)
    assert np.allclose(mesh_hanging.constraints.apply(once), once, atol=1e-15)


# ---------------------------------------------------------------------------
# Coarsening


def test_coarsen_reverses_refine(mesh4x4):
    c = mesh4x4.cell_id((2, 2, 1))
    fine = refine(mesh4x4, [c])
    kids = [fine.cell_id(k) for k in fine.cell_keys if k[0] == 3]
    back = coarsen(fine, kids)
    assert back.cell_keys == mesh4x4.cell_keys


def test_coarsen_requires_all_siblings(mesh4x4):
    fine = refine(mesh4x4, [mesh4x4.cell_id((2, 2, 1))])
    kids = [fine.cell_id(k) for k in fine.cell_keys if k[0] == 3]
    partial = coarsen(fine, kids[:3])
    assert partial.cell_keys == fine.cell_keys
    assert partial is fine


def test_coarsen_respects_level_min():
    m = build_uniform(2, level_min=2)
    out = coarsen(m, list(range(m.n_cells)))
    assert out.cell_keys == m.cell_keys
    assert out is m


def test_coarsen_blocked_by_balance_returns_input():
    # The four children of (2, 0, 0) are flagged, but their parent would
    # sit next to level-4 cells, so nothing merges.
    m = build_uniform(2, level_min=2, level_max=5)
    m = refine(m, [m.cell_id((2, 0, 0)), m.cell_id((2, 1, 0))])
    m = refine(m, [m.cell_id((3, 2, 0))])
    check_two_to_one(m)
    kids = [m.cell_id(k) for k in
            ((3, 0, 0), (3, 1, 0), (3, 0, 1), (3, 1, 1))]
    assert coarsen(m, kids) is m


def test_coarsen_preserves_balance():
    # Two adjacent refined patches; merging only one must keep 2:1 balance.
    m = build_uniform(3, level_min=2, level_max=5)
    m = refine(m, [m.locate(0.01, 0.01)])
    check_two_to_one(m)
    # try to merge every level-3 quadruple back to level 2
    flags = [c for c in range(m.n_cells) if m.cell_levels[c] == 3]
    out = coarsen(m, flags)
    check_two_to_one(out)
    assert total_area(out) == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# Field transfer


def test_transfer_refine_exact_for_bilinear(mesh4x4):
    fine = refine(mesh4x4, [mesh4x4.cell_id((2, 0, 0)),
                            mesh4x4.cell_id((2, 3, 3))])
    x, y = mesh4x4.vertex_coords.T
    f = 1.0 + 2.0 * x - y  # linear: exactly representable on both meshes
    g = transfer_field(mesh4x4, fine, f)
    xf, yf = fine.vertex_coords.T
    assert np.max(np.abs(g - (1.0 + 2.0 * xf - yf))) < 1e-12


def test_transfer_onto_a_coarsened_mesh_raises(mesh4x4):
    # Refine, then merge the children back: the merged parent lies in no
    # cell of the refined mesh, so the transfer back is refused, and the
    # message names both meshes.
    fine = refine(mesh4x4, [mesh4x4.cell_id((2, 1, 2))])
    kids = [fine.cell_id(k) for k in fine.cell_keys if k[0] == 3]
    back = coarsen(fine, kids)
    assert back.cell_keys == mesh4x4.cell_keys
    f = fine.constraints.apply(
        np.random.default_rng(3).normal(size=fine.n_vertices))
    with pytest.raises(ValueError,
                       match=rf"mesh {back.id} .*mesh {fine.id}\b"):
        transfer_field(fine, back, f)


def test_transfer_mixed_pass_exact_for_global_bilinears():
    # Closed-form oracle: a global bilinear a + bx + cy + dxy lies in the
    # constrained Q1 space of every mesh, so copy and embedding must both
    # reproduce it.  The pass refines cell (2, 0, 0), next to the refined
    # (2, 1, 0): the old hanging vertex on their shared edge stops
    # hanging, and new ones appear on the other edges of its children.
    # Refining child (3, 3, 0) of (2, 1, 0) too makes level-4 cells, and
    # balance splits its neighbour (2, 2, 0).
    base = build_uniform(2, level_min=1, level_max=4)
    old = refine(base, [base.cell_id((2, 1, 0))])
    new = refine(old, [old.cell_id((2, 0, 0)), old.cell_id((3, 3, 0))])
    check_two_to_one(new)
    assert new.n_cells == old.n_cells + 9
    old_hanging = set(map(tuple, old.vertex_coords[old.constraints.hanging]))
    new_hanging = set(map(tuple, new.vertex_coords[new.constraints.hanging]))
    assert (0.25, 0.125) in old_hanging - new_hanging
    assert new_hanging - old_hanging

    coeffs = [(0.3, -1.2, 0.7, 2.5), (1.0, 0.5, -2.0, -4.0)]

    def fields(m):
        x, y = m.vertex_coords.T
        return np.column_stack([a + b * x + c * y + d * x * y
                                for a, b, c, d in coeffs])

    block = transfer_field(old, new, fields(old))
    assert block.shape == (new.n_vertices, 2)
    assert np.max(np.abs(block - fields(new))) < 1e-12
    single = transfer_field(old, new, fields(old)[:, 1])
    assert np.array_equal(single, block[:, 1])


def test_transfer_rejects_wrong_length(mesh4x4):
    fine = refine(mesh4x4, [0])
    with pytest.raises(ValueError):
        transfer_field(mesh4x4, fine, np.zeros(3))


# ---------------------------------------------------------------------------
# Point location and evaluation


def test_locate_and_eval(mesh_hanging):
    x, y = mesh_hanging.vertex_coords.T
    f = x * 2.0 + y
    assert mesh_hanging.eval_field(f, 0.1, 0.1) == pytest.approx(0.3, abs=1e-14)
    assert mesh_hanging.eval_field(f, 1.0, 1.0) == pytest.approx(3.0, abs=1e-14)
    with pytest.raises(ValueError):
        mesh_hanging.locate(1.5, 0.0)


def test_eval_field_arrays_match_pointwise_bilinear():
    # Array points, the sides x = 1 and y = 1 and the corner (1, 1)
    # included, against the bilinear formula in a cell found by brute force.
    m = refine(build_uniform(2), [0, 5])
    m = refine(m, [m.locate(0.01, 0.01), m.locate(0.3, 0.3)])
    assert len(np.unique(m.cell_levels)) == 3
    rng = np.random.default_rng(11)
    f = m.constraints.apply(rng.standard_normal(m.n_vertices))
    xs = np.concatenate([rng.uniform(0, 1, 60), [1.0, 1.0, 0.3, 0.0, 0.125]])
    ys = np.concatenate([rng.uniform(0, 1, 60), [0.4, 1.0, 1.0, 0.0, 0.25]])
    cells = m.locate(xs, ys)
    got = m.eval_field(f, xs, ys)
    assert cells.shape == got.shape == xs.shape
    lo, hi = m.cell_origin, m.cell_origin + m.cell_h[:, None]
    for x, y, c, g in zip(xs, ys, cells, got):
        assert lo[c, 0] <= x <= hi[c, 0] and lo[c, 1] <= y <= hi[c, 1]
        k = next(k for k in range(m.n_cells)
                 if lo[k, 0] <= x <= hi[k, 0] and lo[k, 1] <= y <= hi[k, 1])
        s = (x - lo[k, 0]) / m.cell_h[k]
        t = (y - lo[k, 1]) / m.cell_h[k]
        v0, v1, v2, v3 = f[m.cell_vertices[k]]
        want = (v0 * (1 - s) * (1 - t) + v1 * s * (1 - t) + v2 * s * t
                + v3 * (1 - s) * t)
        assert g == pytest.approx(want, abs=1e-13)
        # Scalar calls still give an int and a float, equal to the arrays.
        assert m.locate(x, y) == c and isinstance(m.locate(x, y), int)
        assert m.eval_field(f, x, y) == g
    # A two-dimensional block of points keeps its shape.
    block = m.eval_field(f, xs[:60].reshape(6, 10), ys[:60].reshape(6, 10))
    assert np.array_equal(block, got[:60].reshape(6, 10))
    with pytest.raises(ValueError):
        m.locate(np.array([0.5, 1.5]), 0.5)
