"""Q1 assembly, constraint folding, restriction to free dofs and solvers."""

import functools
import gc
import inspect
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from xifrac import driver, fem, phasefield as pf
from xifrac.config import parse_config
from xifrac.fem import GAUSS2, LinearSolveError, ScalarField, \
    apply_dirichlet, assemble_load, assemble_weighted_laplace, \
    assemble_weighted_mass, combine, constant_field, integrate, \
    l2_relative_error, shape_eval, solve_field, solve_spd
from xifrac.mesh import BOTTOM, LEFT, RIGHT, TOP, build_uniform, refine

from conftest import Untouchable, aggregates_by_vertex, cg_passes, \
    dense_condense, dense_dirichlet, dense_laplace, dense_load, dense_mass, \
    dirichlet_arrays, global_pcg_band, global_pcg_systems, lower_band, \
    nothing_pinned, pattern_by_cell_loop, scipy_coupling, \
    solved_with_tangents, sparse_prolongation


# ---------------------------------------------------------------------------
# Shape functions


def test_shape_partition_of_unity():
    for s, t in [(0.0, 0.0), (1.0, 1.0), (0.3, 0.7), (0.5, 0.5)]:
        vals, grads = shape_eval(s, t)
        assert vals.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(grads.sum(axis=0), 0.0, atol=1e-15)


def test_shape_kronecker_at_corners():
    corners = [(0, 0), (1, 0), (1, 1), (0, 1)]
    for a, (s, t) in enumerate(corners):
        vals, _ = shape_eval(s, t)
        expect = np.zeros(4)
        expect[a] = 1.0
        assert np.allclose(vals, expect, atol=1e-15)


def test_shape_gradient_finite_difference():
    # Criterion 6c: analytic gradients against central differences to 1e-8.
    eps = 1e-6
    rng = np.random.default_rng(0)
    for s, t in rng.uniform(0.05, 0.95, size=(20, 2)):
        _, grads = shape_eval(s, t)
        fd_s = (shape_eval(s + eps, t)[0] - shape_eval(s - eps, t)[0]) / (2 * eps)
        fd_t = (shape_eval(s, t + eps)[0] - shape_eval(s, t - eps)[0]) / (2 * eps)
        assert np.max(np.abs(grads[:, 0] - fd_s)) < 1e-8
        assert np.max(np.abs(grads[:, 1] - fd_t)) < 1e-8


def test_gauss_rule_weights():
    assert GAUSS2.weights.sum() == pytest.approx(1.0, abs=1e-14)
    # The 2-point rule is exact for x^3 (degree 2n - 1) on either axis.
    for axis in (0, 1):
        val = float(np.sum(GAUSS2.weights * GAUSS2.points[:, axis] ** 3))
        assert val == pytest.approx(0.25, abs=1e-15)


def test_gauss_tables_are_read_only():
    # Every assembly shares these arrays: an in-place edit must raise
    # instead of corrupting all later assemblies.
    vals, grads = GAUSS2.tabulation
    arrays = [GAUSS2.points, GAUSS2.weights, vals, grads,
              GAUSS2.laplace_table, GAUSS2.mass_table, GAUSS2.load_table,
              GAUSS2.grad_table]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0


# ---------------------------------------------------------------------------
# Per-mesh CSR pattern and GEMM kernels


def _three_level_mesh():
    m = refine(build_uniform(2), [0, 5])
    return refine(m, [m.locate(0.01, 0.01), m.locate(0.3, 0.3)])


def _coo_scatter(mesh, local):
    """Reference scatter: build the COO matrix and let scipy convert it."""
    conn = mesh.cell_vertices
    rows = np.repeat(conn, 4, axis=1).ravel()
    cols = np.tile(conn, (1, 4)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)),
                         shape=(mesh.n_vertices,) * 2).tocsr()


def _assert_same_structure_close(got, want):
    """Equal CSR structure and data equal to 1e-15 relative."""
    want = want.tocsr()
    want.sort_indices()
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.max(np.abs(got.data - want.data)) <= \
        1e-15 * np.max(np.abs(want.data))


@pytest.mark.parametrize("maker", ["hanging", "three_level"])
def test_pattern_scatter_matches_coo_reference(maker, mesh_hanging):
    # The scatter folds hanging corners onto their masters: it equals the
    # COO sum of the cell blocks, condensed by sparse products with T.
    mesh = mesh_hanging if maker == "hanging" else _three_level_mesh()
    assert len(mesh.constraints) > 0
    T = sparse_prolongation(mesh)
    local = np.random.default_rng(3).standard_normal((mesh.n_cells, 4, 4))
    got = fem._scatter(mesh, local)
    _assert_same_structure_close(got, T.T @ _coo_scatter(mesh, local) @ T)


def _randomly_refined_mesh():
    """A level-3 mesh after four rounds of random splits, seeded."""
    rng = np.random.default_rng(12)
    m = build_uniform(3, level_max=6)
    for _ in range(4):
        m = refine(m, rng.choice(m.n_cells, 6, replace=False))
    return m


@pytest.mark.parametrize("maker", ["hanging", "three_level", "random"])
def test_pattern_is_the_cell_loop_bit_for_bit(maker, mesh_hanging):
    # The pattern's structure is that of the sums of a cell-by-cell loop
    # over the folded terms, and its fold adds each entry's terms with
    # the loop's weights (1, 1/2, 1/4) in the loop's order: the same bits.
    mesh = {"hanging": lambda: mesh_hanging, "three_level": _three_level_mesh,
            "random": _randomly_refined_mesh}[maker]()
    assert len(mesh.constraints) > 0
    indptr, indices, fold = mesh.csr_pattern
    for seed in range(3):
        local = np.random.default_rng(seed).standard_normal(
            (mesh.n_cells, 4, 4))
        want_indptr, want_indices, want = pattern_by_cell_loop(mesh, local)
        assert np.array_equal(indptr, want_indptr)
        assert np.array_equal(indices, want_indices)
        assert (fold @ local.ravel()).tobytes() == want.tobytes()


def test_pattern_build_stays_within_its_terms():
    # The pattern of a uniform level-7 mesh, 262,144 block entries: its
    # build peaks under 48 bytes per entry (about 39 when written), so no
    # array padded to the four terms an entry may have, 64 per cell,
    # comes back (that build peaked at 66).
    mesh = build_uniform(7)
    tracemalloc.start()
    try:
        mesh.csr_pattern
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 16 * mesh.n_cells


def test_folded_assembly_matches_sparse_prolongation():
    mesh = _three_level_mesh()
    T = sparse_prolongation(mesh)
    hang = mesh.constraints.hanging
    w = np.random.default_rng(4).uniform(0.5, 2.0, (mesh.n_cells, 4))
    for sys, table in (
            (assemble_weighted_laplace(mesh, w), GAUSS2.laplace_table),
            (assemble_weighted_mass(mesh, w / mesh.cell_h[:, None] ** 2),
             GAUSS2.mass_table)):
        _assert_same_structure_close(
            sys.matrix, T.T @ _coo_scatter(mesh, w @ table) @ T)
        # Hanging rows and columns hold no entry at all.
        assert not np.any(np.diff(sys.matrix.indptr)[hang])
        assert not np.any(np.isin(sys.matrix.indices, hang))
    b = assemble_load(mesh, w / mesh.cell_h[:, None] ** 2)
    want = T.T @ np.bincount(mesh.cell_vertices.ravel(),
                             weights=(w @ GAUSS2.load_table).ravel(),
                             minlength=mesh.n_vertices)
    assert np.max(np.abs(b - want)) <= 1e-15 * np.max(np.abs(want))
    assert not np.any(b[hang])


def test_second_assembly_reuses_pattern():
    mesh = _three_level_mesh()
    assert "csr_pattern" not in vars(mesh)
    assemble_weighted_mass(mesh, 1.0)
    pattern = mesh.csr_pattern
    assemble_weighted_laplace(mesh, 2.0)
    assert mesh.csr_pattern is pattern
    # Scattered matrices share the cached structure and never copy it.
    local = np.ones((mesh.n_cells, 16))
    for _ in range(2):
        a = fem._scatter(mesh, local)
        assert np.shares_memory(a.indices, pattern[1])
        assert np.shares_memory(a.indptr, pattern[0])
    assert not pattern[1].flags.writeable


def test_qp_evaluation_matches_cell_loop():
    mesh = _three_level_mesh()
    f = ScalarField(mesh, np.random.default_rng(5).uniform(
        -1.0, 1.0, mesh.n_vertices))
    vals = fem.field_at_qp(f)
    grads = fem.grad_at_qp(f)
    want_v = np.empty_like(vals)
    want_g = np.empty_like(grads)
    for c in range(mesh.n_cells):
        nodal = f.values[mesh.cell_vertices[c]]
        for q, (s, t) in enumerate(GAUSS2.points):
            phi, dphi = shape_eval(s, t)
            want_v[c, q] = nodal @ phi
            want_g[c, q] = nodal @ dphi / mesh.cell_h[c]
    assert np.max(np.abs(vals - want_v)) < 1e-14
    # Gradients scale with 1/h <= 16 on this mesh.
    assert np.max(np.abs(grads - want_g)) < 1e-12


# ---------------------------------------------------------------------------
# Assembly vs dense oracles (criterion 6b)


@pytest.mark.parametrize("maker", ["uniform", "hanging"])
def test_laplace_matches_dense_oracle(maker, mesh_hanging):
    mesh = build_uniform(2) if maker == "uniform" else mesh_hanging
    w = lambda x, y: 1.0 + x + 0.5 * y * y
    sys = assemble_weighted_laplace(mesh, lambda x, y: w(x, y))
    # GAUSS2 integrates the bilinear-gradient products of this weight
    # exactly only for polynomial weights of low degree; use the same
    # rule in the oracle but a dense, loop-based path.
    A, _ = dense_condense(mesh, dense_laplace(mesh, w, order=2),
                          np.zeros(mesh.n_vertices))
    assert np.max(np.abs(sys.matrix.toarray() - A)) < 1e-10


@pytest.mark.parametrize("maker", ["uniform", "hanging"])
def test_mass_matches_dense_oracle(maker, mesh_hanging):
    mesh = build_uniform(2) if maker == "uniform" else mesh_hanging
    w = lambda x, y: 2.0 + np.sin(3 * x) * y
    sys = assemble_weighted_mass(mesh, lambda x, y: w(x, y))
    A, _ = dense_condense(mesh, dense_mass(mesh, w, order=2),
                          np.zeros(mesh.n_vertices))
    assert np.max(np.abs(sys.matrix.toarray() - A)) < 1e-10


def test_load_matches_dense_oracle(mesh_hanging):
    rho = lambda x, y: 1.0 + 4.0 * x * y
    b = assemble_load(mesh_hanging, lambda x, y: rho(x, y))
    _, bd = dense_condense(mesh_hanging, np.zeros((mesh_hanging.n_vertices,) * 2),
                           dense_load(mesh_hanging, rho, order=2))
    assert np.max(np.abs(b - bd)) < 1e-12


def test_laplace_uniform_diagonal_value():
    # On a uniform Q1 mesh the Laplacian diagonal of a corner vertex is 2/3
    # (one cell), independent of h in 2D.
    for level in (1, 3):
        mesh = build_uniform(level)
        sys = assemble_weighted_laplace(mesh, 1.0)
        corner = int(np.flatnonzero(
            (mesh.vertex_coords[:, 0] == 0) & (mesh.vertex_coords[:, 1] == 0))[0])
        assert sys.matrix[corner, corner] == pytest.approx(2.0 / 3.0, abs=1e-13)


def test_mass_total_is_area():
    mesh = build_uniform(3)
    sys = assemble_weighted_mass(mesh, 1.0)
    assert sys.matrix.sum() == pytest.approx(1.0, abs=1e-12)


def test_matrices_symmetric_spd(mesh_hanging):
    # Criterion 6b: symmetry to 1e-10 and positive definiteness (dense
    # Cholesky as the SPD oracle).
    lap = assemble_weighted_laplace(mesh_hanging, 1.0)
    mass = assemble_weighted_mass(mesh_hanging, 1.0)
    both = combine(lap, mass)
    for sys in (lap, mass, both):
        A = sys.matrix.toarray()
        assert np.max(np.abs(A - A.T)) < 1e-10
    # laplace alone is only semi-definite; mass + laplace is SPD on the
    # free dofs
    np.linalg.cholesky(apply_dirichlet(
        both, nothing_pinned(mesh_hanging), 0.0).matrix.toarray())


def test_laplace_rejects_nonpositive_weight(mesh4x4):
    with pytest.raises(ValueError):
        assemble_weighted_laplace(mesh4x4, 0.0)
    with pytest.raises(ValueError):
        assemble_weighted_laplace(mesh4x4, -1.0)


def test_combine_requires_same_mesh(mesh4x4, mesh_hanging):
    a = assemble_weighted_mass(mesh4x4, 1.0)
    b = assemble_weighted_mass(mesh_hanging, 1.0)
    with pytest.raises(ValueError):
        combine(a, b)


def test_combine_equals_dense_folded_sum(mesh_hanging):
    mesh = mesh_hanging
    lap = assemble_weighted_laplace(mesh, 1.0)
    mass = assemble_weighted_mass(mesh, 0.5)
    both = combine(lap, mass)
    dense = (dense_laplace(mesh, lambda x, y: 1.0, order=2)
             + dense_mass(mesh, lambda x, y: 0.5, order=2))
    A, _ = dense_condense(mesh, dense, np.zeros(mesh.n_vertices))
    assert np.max(np.abs(both.matrix.toarray() - A)) < 1e-12
    load = assemble_load(mesh, 1.0)
    assert np.array_equal(combine(lap, mass, rhs=load).rhs, load)


def _scipy_restriction(A, b, pinned, values, mesh):
    """``A[free][:, free]`` and ``b[free] - A[free] x0`` by scipy's
    indexing, the construction that ``apply_dirichlet`` replaced."""
    x0 = np.where(pinned, values, 0.0)
    is_free = ~pinned
    is_free[mesh.constraints.hanging] = False
    free = np.flatnonzero(is_free)
    rows = A[free]
    return fem.SparseSystem(rows[:, free], b[free] - rows @ x0, mesh, free,
                            x0)


def _same_bytes(got, want):
    """Equal dtype and bytes, array by array."""
    return all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
               for a, b in zip(got, want))


def _csr_arrays(A):
    return A.data, A.indices, A.indptr


def _boundary_pins(mesh):
    pinned = nothing_pinned(mesh)
    pinned[mesh.boundary_vertices(BOTTOM)] = True
    pinned[mesh.boundary_vertices(TOP)] = True
    return pinned


def test_combine_adds_data_on_the_mesh_pattern(mesh_hanging):
    mesh = mesh_hanging
    rng = np.random.default_rng(2)
    lap = assemble_weighted_laplace(mesh, rng.uniform(0.5, 2.0,
                                                      (mesh.n_cells, 4)))
    mass = assemble_weighted_mass(mesh, rng.uniform(0.0, 1.0,
                                                    (mesh.n_cells, 4)))
    both = combine(lap, mass, rhs=assemble_load(mesh, 1.0))
    indptr, indices, _ = mesh.csr_pattern
    assert np.shares_memory(both.matrix.indptr, indptr)
    assert np.shares_memory(both.matrix.indices, indices)
    want = lap.matrix + mass.matrix
    assert both.matrix.toarray().tobytes() == want.toarray().tobytes()
    # Restricted and factored, it gives the bytes of scipy's sum restricted
    # by scipy's indexing.
    pinned = _boundary_pins(mesh)
    got = solve_spd(apply_dirichlet(both, pinned, 0.25), method="direct")
    old = _scipy_restriction(want, both.rhs, pinned, 0.25, mesh)
    assert got.tobytes() == solve_spd(old, method="direct").tobytes()


def test_combine_keeps_an_entry_that_cancels_as_an_explicit_zero(
        mesh_hanging):
    # The second system, on the same pattern, cancels one off-diagonal
    # pair of the first exactly.  scipy's sum drops the pair; combine keeps
    # it as two explicit zeros, into the free block as well.
    mesh = mesh_hanging
    a = combine(assemble_weighted_laplace(mesh, 1.0),
                assemble_weighted_mass(mesh, 1.0),
                rhs=assemble_load(mesh, 1.0))
    indptr, indices, _ = mesh.csr_pattern
    row = np.repeat(np.arange(mesh.n_vertices), np.diff(indptr))
    pinned = _boundary_pins(mesh)
    free = ~pinned
    free[mesh.constraints.hanging] = False
    p = np.flatnonzero(free[row] & free[indices] & (row != indices))[0]
    q = np.flatnonzero((row == indices[p]) & (indices == row[p]))[0]
    data = np.zeros(len(indices))
    data[[p, q]] = -a.matrix.data[[p, q]]
    b = fem.SparseSystem(sp.csr_matrix((data, indices, indptr),
                                       shape=a.matrix.shape),
                         np.zeros(mesh.n_vertices), mesh)
    both = combine(a, b)
    assert both.matrix.nnz == len(indices)
    assert np.flatnonzero(both.matrix.data == 0.0).tolist() == sorted([p, q])
    summed = a.matrix + b.matrix
    assert summed.nnz == len(indices) - 2
    assert both.matrix.toarray().tobytes() == summed.toarray().tobytes()
    sys = apply_dirichlet(both, pinned, 0.25)
    assert np.count_nonzero(sys.matrix.data == 0.0) == 2
    # The explicit zeros are part of the structure that SuperLU orders, so
    # the direct answer need not repeat the pruned system's bytes; it
    # agrees to rounding.
    got = solve_spd(sys, method="direct")
    want = solve_spd(_scipy_restriction(summed, both.rhs, pinned, 0.25,
                                        mesh), method="direct")
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_combine_takes_systems_on_the_mesh_pattern(mesh4x4):
    a = assemble_weighted_mass(mesh4x4, 1.0)
    copied = fem.SparseSystem(a.matrix.copy(), a.rhs, mesh4x4)
    with pytest.raises(ValueError, match="pattern"):
        combine(a, copied)


# ---------------------------------------------------------------------------
# Dirichlet conditions


def test_dirichlet_matches_dense_oracle(mesh_hanging):
    mesh = mesh_hanging
    lap = assemble_weighted_laplace(mesh, 1.0)
    mass = assemble_weighted_mass(mesh, 0.5)
    sys = combine(lap, mass, rhs=assemble_load(mesh, 1.0))
    bc = {int(n): 1.5 for n in mesh.boundary_vertices(TOP)}

    fixed = apply_dirichlet(sys, *dirichlet_arrays(mesh.n_vertices, bc))
    Ad, bd = dense_dirichlet(mesh, sys.matrix.toarray(), sys.rhs, bc)
    assert np.max(np.abs(fixed.matrix.toarray() - Ad)) < 1e-12
    assert np.max(np.abs(fixed.rhs - bd)) < 1e-12

    u = solve_field(fixed, method="direct")
    for n, val in bc.items():
        assert u.values[n] == val


def test_restricting_restricted_system_raises(mesh4x4):
    pinned = nothing_pinned(mesh4x4)
    pinned[0] = True
    sys = apply_dirichlet(assemble_weighted_mass(mesh4x4, 1.0), pinned, 1.0)
    with pytest.raises(ValueError):
        apply_dirichlet(sys, pinned, 1.0)
    with pytest.raises(ValueError):
        apply_dirichlet(sys, nothing_pinned(mesh4x4), 0.0)
    with pytest.raises(ValueError):
        combine(sys, sys)


def test_restricted_system_has_one_row_per_free_dof(mesh_hanging):
    mesh = mesh_hanging
    hanging = set(mesh.constraints.hanging.tolist())
    bc = {int(n): 0.5 for n in mesh.boundary_vertices(LEFT)}
    bc[min(hanging)] = 3.0
    sys = apply_dirichlet(assemble_weighted_laplace(mesh, 1.0),
                          *dirichlet_arrays(mesh.n_vertices, bc))
    free = sorted(set(range(mesh.n_vertices)) - hanging - set(bc))
    assert len(free) == mesh.n_vertices - len(hanging | set(bc))
    assert sys.matrix.shape == (len(free), len(free))
    assert sys.rhs.shape == (len(free),)
    assert sys.free.tolist() == free


def test_dirichlet_on_hanging_vertex_is_ignored(mesh_hanging):
    # A hanging value always comes from its masters, whatever bc says.
    mesh = mesh_hanging
    exact = lambda x, y: 3.0 * x - 2.0 * y + 0.5
    base = combine(assemble_weighted_laplace(mesh, 1.0),
                   assemble_weighted_mass(mesh, 1.0),
                   rhs=assemble_load(mesh, 1.0))
    bc = {int(n): exact(*mesh.vertex_coords[n])
          for n in mesh.boundary_vertices(BOTTOM)}
    h = int(mesh.constraints.hanging[0])
    plain = apply_dirichlet(base, *dirichlet_arrays(mesh.n_vertices, bc))
    extra = apply_dirichlet(
        base, *dirichlet_arrays(mesh.n_vertices, {**bc, h: 99.0}))
    assert np.array_equal(extra.free, plain.free)
    assert (extra.matrix != plain.matrix).nnz == 0
    assert np.array_equal(extra.rhs, plain.rhs)
    u = solve_field(extra, method="direct")
    a, b = mesh.constraints.masters[h]
    assert u.values[h] == 0.5 * (u.values[a] + u.values[b])
    assert np.array_equal(u.values, solve_field(plain, method="direct").values)


def _folded_system(mesh):
    """A folded Laplace-plus-mass system with a load on ``mesh``, with
    random positive weights."""
    rng = np.random.default_rng(5)
    return combine(
        assemble_weighted_laplace(mesh, rng.uniform(0.5, 2.0,
                                                    (mesh.n_cells, 4))),
        assemble_weighted_mass(mesh, rng.uniform(0.0, 1.0,
                                                 (mesh.n_cells, 4))),
        rhs=assemble_load(mesh, lambda x, y: 1.0 + x * y))


@functools.cache
def _restriction_case():
    return _folded_system(_crack_refined_mesh())


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_restriction_is_scipy_indexing_byte_for_byte(data):
    # Random pinned masks and values on a mesh with hanging nodes, some of
    # them pinned (and ignored), and band-like free sets, a random disc
    # holding 1-10 % of the vertices with all others pinned, as the later
    # sweeps of a phase solve leave: the plan's restriction gives the
    # bytes of scipy's A[free][:, free] and b[free] - A[free] x0, and its
    # coupling block those of A[free] without the free columns.  The same
    # free set hits the same plan, whatever the values and the hanging
    # pins.
    sys = _restriction_case()
    n = sys.mesh.n_vertices
    if data.draw(st.booleans()):
        pinned = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                             max_size=n)))
    else:
        centre = np.array(data.draw(st.tuples(st.floats(0.0, 1.0),
                                              st.floats(0.0, 1.0))))
        size = data.draw(st.integers(max(1, n // 100), n // 10))
        near = np.argsort(np.linalg.norm(sys.mesh.vertex_coords - centre,
                                         axis=1), kind="stable")
        pinned = np.ones(n, dtype=bool)
        pinned[near[:size]] = False
    values = np.array(data.draw(st.lists(
        st.floats(-2.0, 2.0, allow_subnormal=False), min_size=n,
        max_size=n)))
    got = apply_dirichlet(sys, pinned, values)
    want = _scipy_restriction(sys.matrix, sys.rhs, pinned, values, sys.mesh)
    assert _same_bytes(_csr_arrays(got.matrix), _csr_arrays(want.matrix))
    assert _same_bytes([got.rhs, got.prescribed], [want.rhs, want.prescribed])
    assert np.array_equal(got.free, want.free)
    block = fem.free_block(sys.matrix, sys.mesh, pinned)
    assert block.plan is got.plan
    assert _same_bytes(_csr_arrays(block.coupling),
                       scipy_coupling(sys.matrix, want.free))
    pinned[sys.mesh.constraints.hanging] = data.draw(st.booleans())
    assert apply_dirichlet(sys, pinned, -values).plan is got.plan


def test_plan_cache_drops_the_least_recently_used_free_set():
    sys = _folded_system(_crack_refined_mesh())
    rng = np.random.default_rng(7)
    masks = [rng.random(sys.mesh.n_vertices) < 0.3
             for _ in range(fem._PLANS_PER_MESH + 1)]
    restrict = lambda k: apply_dirichlet(sys, masks[k], 0.5)
    first, second = restrict(0), restrict(1)
    for k in range(2, fem._PLANS_PER_MESH):
        restrict(k)
    # Full; a hit makes mask 0 the most recent, so a new mask drops mask 1.
    assert restrict(0).plan is first.plan
    restrict(fem._PLANS_PER_MESH)
    kept = [plan for _, plan in sys.mesh.products["plan"]]
    assert len(kept) == fem._PLANS_PER_MESH
    assert kept[-2:] == [first.plan, restrict(fem._PLANS_PER_MESH).plan]
    assert restrict(0).plan is first.plan
    rebuilt = restrict(1)
    assert rebuilt.plan is not second.plan
    assert _same_bytes(_csr_arrays(rebuilt.matrix), _csr_arrays(second.matrix))
    assert _same_bytes([rebuilt.rhs, rebuilt.free], [second.rhs, second.free])


def test_plans_are_read_only_and_die_with_their_mesh():
    sys = _folded_system(_crack_refined_mesh())
    pinned = _boundary_pins(sys.mesh)
    restricted = apply_dirichlet(sys, pinned, 1.0)
    fem._coarse(restricted)
    plan = restricted.plan
    # _coarse used the system's plan.
    assert "coarse_rows" in vars(plan)
    *coarse_map, _ = plan.coarse_rows
    arrays = {np.intp: (plan.free, plan.agg, plan.coupling),
              np.bool_: (plan.keep,),
              np.int32: (plan.indptr, plan.indices, plan.coupling_indptr,
                         plan.coupling_indices, *coarse_map)}
    for dtype, group in arrays.items():
        for a in group:
            assert a.dtype == dtype and not a.flags.writeable
            with pytest.raises(ValueError):
                a.fill(0)
    # A mesh of the same cells is another mesh: it never sees these plans.
    twin = _folded_system(_crack_refined_mesh())
    assert "plan" not in twin.mesh.products
    assert apply_dirichlet(twin, pinned, 1.0).plan is not plan
    assert len(twin.mesh.products["plan"]) == 1
    mesh, plan = weakref.ref(sys.mesh), weakref.ref(plan)
    del sys, restricted
    gc.collect()
    assert mesh() is None and plan() is None


def test_matrix_off_the_pattern_gets_a_plan_that_is_not_kept(mesh_hanging):
    sys = _folded_system(mesh_hanging)
    pinned = _boundary_pins(mesh_hanging)
    copied = fem.SparseSystem(sys.matrix.copy(), sys.rhs, mesh_hanging)
    got = apply_dirichlet(copied, pinned, 0.5)
    assert "plan" not in mesh_hanging.products
    want = apply_dirichlet(sys, pinned, 0.5)
    assert got.plan is not want.plan
    assert [plan for _, plan in mesh_hanging.products["plan"]] == [want.plan]
    assert _same_bytes(_csr_arrays(got.matrix), _csr_arrays(want.matrix))
    assert _same_bytes([got.rhs, got.free], [want.rhs, want.free])


@pytest.mark.parametrize("method", ["direct", "pcg"])
def test_a_system_with_every_dof_pinned_is_the_prescribed_field(method):
    # Every vertex pinned, hanging ones included (and ignored): nothing is
    # left to solve, so the restriction builds no plan and never touches
    # the matrix, and the solve returns the prescribed values with each
    # hanging node at its masters' mean.
    folded = _restriction_case()
    mesh = folded.mesh
    values = np.random.default_rng(8).uniform(-2.0, 2.0, mesh.n_vertices)
    plans = list(mesh.products.get("plan", []))
    sys = apply_dirichlet(fem.SparseSystem(Untouchable(), folded.rhs, mesh),
                          np.ones(mesh.n_vertices, dtype=bool), values)
    assert sys.matrix.shape == (0, 0) and sys.rhs.shape == (0,)
    assert len(sys.free) == 0 and sys.plan is None
    assert list(mesh.products.get("plan", [])) == plans
    pairs = mesh.constraints.pairs
    want = values.copy()
    want[mesh.constraints.hanging] = 0.5 * (values[pairs[:, 0]]
                                            + values[pairs[:, 1]])
    assert solve_field(sys, method=method).values.tobytes() == want.tobytes()


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_zero_prescribed_values_give_the_general_right_hand_side(zero):
    # Random pinned sets with zero values, +0.0 and -0.0: the right-hand
    # side, taken from the entries next to the pinned dofs alone, is byte
    # for byte (b - A x0)[free].
    sys = _restriction_case()
    rng = np.random.default_rng(9)
    for _ in range(5):
        pinned = rng.random(sys.mesh.n_vertices) < 0.3
        got = apply_dirichlet(sys, pinned, zero)
        x0 = np.where(pinned, zero, 0.0)
        want = (sys.rhs - sys.matrix @ x0)[got.free]
        assert _same_bytes([got.rhs, got.prescribed], [want, x0])


@pytest.mark.parametrize("method", ["direct", "pcg"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["coupling", "block"])
def test_a_matrix_that_is_not_finite_still_fails_the_solve(where, bad,
                                                           method):
    # One entry NaN or inf, with zero prescribed values: in a free row and
    # a pinned column ("coupling"), where only the right-hand side's
    # product meets it, or between two free dofs ("block"), where only
    # the solver does.  Either way the solve raises.
    sys = _restriction_case()
    pinned = _boundary_pins(sys.mesh)
    is_free = ~pinned
    is_free[sys.mesh.constraints.hanging] = False
    A = sys.matrix
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    cols = A.indices
    wanted = is_free[cols] if where == "block" else pinned[cols]
    entry = np.flatnonzero(is_free[rows] & wanted & (rows != cols))[0]
    data = A.data.copy()
    data[entry] = bad
    broken = fem.SparseSystem(sp.csr_matrix((data, cols, A.indptr),
                                            shape=A.shape), sys.rhs, sys.mesh)
    restricted = apply_dirichlet(broken, pinned, 0.0)
    with pytest.raises(LinearSolveError):
        solve_field(restricted, method=method)


# ---------------------------------------------------------------------------
# Solvers


def _poisson_system(mesh, f, g_boundary):
    sys = assemble_weighted_laplace(mesh, 1.0)
    sys = combine(sys, assemble_weighted_mass(mesh, 0.0),
                  rhs=assemble_load(mesh, f))
    pinned = nothing_pinned(mesh)
    for tag in (BOTTOM, RIGHT, TOP, LEFT):
        pinned[mesh.boundary_vertices(tag)] = True
    return apply_dirichlet(sys, pinned, g_boundary(*mesh.vertex_coords.T))


def test_pcg_matches_direct(mesh_hanging):
    sys = _poisson_system(mesh_hanging,
                          lambda x, y: np.sin(np.pi * x) * np.cos(y),
                          lambda x, y: 0.0)
    xd = solve_spd(sys, method="direct")
    with mock.patch.object(fem, "RTOL", 1e-12):
        xp = solve_spd(sys, method="pcg")
    assert np.max(np.abs(xd - xp)) < 1e-9


def test_direct_solve_matches_dense_oracle(mesh_hanging):
    sys = _poisson_system(mesh_hanging,
                          lambda x, y: 1.0 + np.sin(3 * x) * y,
                          lambda x, y: np.cos(x) + x * y)
    x = solve_spd(sys, method="direct")
    want = np.linalg.solve(sys.matrix.toarray(), sys.rhs)
    assert np.max(np.abs(x - want)) < 1e-12


def test_direct_exactly_singular_raises_linear_solve_error(mesh4x4):
    sys = fem.SparseSystem(sp.diags([1.0, 0.0, 2.0]).tocsr(), np.ones(3),
                           mesh4x4)
    with pytest.raises(LinearSolveError) as info:
        solve_spd(sys, method="direct")
    assert info.value.residual == np.inf


def test_direct_pure_neumann_raises_linear_solve_error():
    # The Laplacian without Dirichlet data is singular up to rounding, and a
    # constant load is not in its range.
    mesh = build_uniform(3)
    sys = assemble_weighted_laplace(mesh, 1.0)
    sys.rhs = assemble_load(mesh, 1.0)
    with pytest.raises(LinearSolveError):
        solve_spd(sys, method="direct")


def test_pcg_residual_contract():
    # The tolerance and the iteration cap are the constants fem.RTOL and
    # fem.MAX_ITER, read at call time, and not parameters.
    assert list(inspect.signature(solve_spd).parameters) == \
        ["sys", "method", "guess"]
    mesh = build_uniform(3)
    sys = _poisson_system(mesh, lambda x, y: 1.0, lambda x, y: 0.0)
    with pytest.raises(LinearSolveError), \
            mock.patch.object(fem, "RTOL", 1e-14), \
            mock.patch.object(fem, "MAX_ITER", 2):
        solve_spd(sys, method="pcg")


def _stripe_system():
    """A displacement-type system with a stripe of degraded stiffness
    (eta = 1e-10 along the seeded crack, contrast 1e10)."""
    mesh = build_uniform(4)
    x, y = mesh.vertex_coords.T
    v = ScalarField(mesh, np.where((x == 0.5) & (y > 0.3), 0.0, 1.0))
    pinned = (y == 1.0) & (x != 0.5)
    weight = (1.0 - 1e-10) * fem.field_at_qp(v) ** 2 + 1e-10
    return apply_dirichlet(assemble_weighted_laplace(mesh, weight), pinned,
                           np.sign(x - 0.5))


def test_pcg_meets_the_true_residual_contract():
    # At tol 1e-15 the CG recurrence residual of the stripe system may pass
    # the test while the true residual b - A x is still above it; the
    # solver must not stop there.
    sys = _stripe_system()
    tol = 1e-15
    try:
        with mock.patch.object(fem, "RTOL", tol):
            got = solve_spd(sys, method="pcg")
    except LinearSolveError:
        return  # an honest failure also keeps the contract
    A, b = sys.matrix, sys.rhs
    assert np.linalg.norm(A @ got - b) <= tol * np.linalg.norm(b)


def test_pcg_stops_at_the_rounding_floor_of_a_near_neumann_system(
        monkeypatch):
    # A pure-Neumann Laplacian plus a 1e-4 mass on a level-4 grid: kappa is
    # about 1e7, and the floor of any computed answer, eps ||A|| ||x|| /
    # ||b|| from a dense solve, lies above a tolerance of a tenth of it.
    # The deflated CG reaches that floor within a few restarts and raises
    # there with the residual it reached, instead of running on to
    # max_iter.
    mesh = build_uniform(4)
    sys = combine(assemble_weighted_laplace(mesh, 1.0),
                  assemble_weighted_mass(mesh, 1e-4),
                  rhs=assemble_load(
                      mesh, lambda x, y: 1.0 + np.cos(np.pi * x) * y))
    A, b = sys.matrix.toarray(), sys.rhs
    assert 5e6 < np.linalg.cond(A) < 5e7
    x = np.linalg.solve(A, b)
    floor = (np.finfo(float).eps * np.linalg.norm(A, 2) * np.linalg.norm(x)
             / np.linalg.norm(b))
    solves = cg_passes(monkeypatch)
    with pytest.raises(LinearSolveError, match="stalled") as info, \
            mock.patch.object(fem, "RTOL", floor / 10):
        solve_spd(sys, method="pcg")
    assert floor / 10 < info.value.residual <= floor
    [(passes, iterations)] = solves
    assert passes <= 10 and iterations <= 200


# ---------------------------------------------------------------------------
# The two-level preconditioner


def _crack_refined_mesh():
    """A level-3 mesh refined along the crack, so with hanging nodes, and
    aggregates of two sizes: squares of side 1/2 where the cells are of
    level 3 and of side 1/4 along the crack."""
    m = build_uniform(3)
    centre = m.cell_origin + 0.5 * m.cell_h[:, None]
    m = refine(m, np.flatnonzero((np.abs(centre[:, 0] - 0.5) < 0.2)
                                 & (centre[:, 1] > 0.4)))
    assert len(m.constraints) > 0 and m.level_min == 3
    return m


def _cracked_phase_system(pinned_box=None):
    """A phase system on :func:`_crack_refined_mesh`; the crack nodes are
    pinned, and so is every vertex inside ``pinned_box`` (x0, x1, y0, y1)
    if given."""
    m = _crack_refined_mesh()
    u = ScalarField(m, 0.1 * m.vertex_coords[:, 0] ** 2)
    xi = np.full(m.n_cells, 0.1)
    folded, _ = pf.assemble_phase(m, u, xi)
    pinned = pf.initial_crack(m, 0.5).values == 0.0
    assert pinned.any()
    if pinned_box is not None:
        x, y = m.vertex_coords.T
        x0, x1, y0, y1 = pinned_box
        pinned |= (x0 <= x) & (x < x1) & (y0 <= y) & (y < y1)
    return apply_dirichlet(folded, pinned, 0.0)


def _aggregates(sys):
    """The aggregate of each free dof (of each row's vertex ``i`` on a
    system that was not restricted) and their count, built vertex by
    vertex (:func:`conftest.aggregates_by_vertex`)."""
    rows = np.arange(len(sys.rhs)) if sys.free is None else sys.free
    return aggregates_by_vertex(sys.mesh, rows)


def _dense_coarse_space(sys):
    """``Z``, the 0/1 matrix of :func:`_aggregates`, and ``A``, dense."""
    agg, count = _aggregates(sys)
    Z = np.zeros((len(agg), count))
    Z[np.arange(len(agg)), agg] = 1.0
    return Z, sys.matrix.toarray()


class _Recording:
    """A matrix that keeps a copy of every vector it multiplies."""

    def __init__(self, A):
        self.A, self.seen = A, []

    def diagonal(self):
        return self.A.diagonal()

    def __matmul__(self, v):
        self.seen.append(v.copy())
        return self.A @ v


DEFLATION_CASES = pytest.mark.parametrize("make", [
    _cracked_phase_system,
    _stripe_system,
    lambda: _cracked_phase_system(pinned_box=(0.0, 0.5, 0.0, 0.5)),
], ids=["phase", "stripe", "phase-dropped-aggregate"])


@DEFLATION_CASES
def test_start_correction_leaves_no_residual_on_the_coarse_space(make):
    # From zero, x = Z E^-1 Z^T b; its true residual is orthogonal to the
    # aggregates, and the residual deflate hands back is that residual.
    sys = make()
    Z, A = _dense_coarse_space(sys)
    b = sys.rhs
    deflate, _ = fem._preconditioner(sys.matrix, fem._coarse(sys))
    x, r = np.zeros(len(b)), b.copy()
    deflate(x, r)
    assert np.linalg.norm(Z.T @ (b - A @ x)) <= 1e-12 * np.linalg.norm(b)
    assert np.linalg.norm(r - (b - A @ x)) <= 1e-12 * np.linalg.norm(b)
    want = Z @ np.linalg.solve(Z.T @ A @ Z, Z.T @ b)
    assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))


@DEFLATION_CASES
def test_deflated_cg_directions_are_a_orthogonal_to_the_coarse_space(make):
    # Every search direction p has Z^T A p = 0 up to rounding, and CG
    # reaches the dense answer.  The matrix sees each direction once per
    # iteration, then the iterate it returns.
    sys = make()
    Z, A = _dense_coarse_space(sys)
    b = sys.rhs
    recording = _Recording(sys.matrix)
    x, met, iters = fem._pcg(recording, b, 1e-12 * np.linalg.norm(b), 20000,
                             None, fem._coarse(sys))
    assert met and iters > 0
    directions = recording.seen[:-1]
    assert len(directions) == iters
    for p in directions:
        Ap = A @ p
        assert np.linalg.norm(Z.T @ Ap) <= 1e-10 * np.linalg.norm(Ap)
    want = np.linalg.solve(A, b)
    assert np.max(np.abs(x - want)) <= 1e-9 * np.max(np.abs(want))


@pytest.mark.parametrize("make", [_cracked_phase_system, _stripe_system])
def test_pcg_matches_dense_solve(make):
    sys = make()
    want = np.linalg.solve(sys.matrix.toarray(), sys.rhs)
    with mock.patch.object(fem, "RTOL", 1e-12):
        got = solve_spd(sys, method="pcg")
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_aggregate_without_free_dof_is_dropped():
    # Every vertex in the lower-left quarter is pinned, so some aggregates
    # of the mesh hold no free dof: the coarse operator has one row for
    # each of the others.
    sys = _cracked_phase_system(pinned_box=(0.0, 0.5, 0.0, 0.5))
    agg, factor, W = fem._coarse(sys)
    want, count = _aggregates(sys)
    mesh = sys.mesh
    assert count < aggregates_by_vertex(mesh, np.arange(mesh.n_vertices))[1]
    assert factor.shape[1] == count and W.shape[0] == count
    assert np.array_equal(agg, want)
    with mock.patch.object(fem, "RTOL", 1e-12):
        x = solve_spd(sys, method="pcg")
    assert np.linalg.norm(sys.matrix @ x - sys.rhs) \
        <= 1e-12 * np.linalg.norm(sys.rhs)


def _one_dof_per_aggregate_system():
    """A 3 x 3 SPD chain built by hand on free vertices of a level-4 mesh
    (4 x 4 aggregates), each vertex in an aggregate of its own, so that
    ``Z`` spans every dof.  The middle dof lies in the last aggregate, so
    the last column of ``W``'s row 0 is the first of its row 1."""
    mesh = build_uniform(4)
    free = mesh.vertex_ids(np.array([[0.125, 0.125], [0.625, 0.875],
                                     [0.375, 0.125]]))
    A = sp.csr_matrix(np.array([[4.0, -1.0, 0.0], [-1.0, 3.0, -1.0],
                                [0.0, -1.0, 2.0]]))
    return fem.SparseSystem(A, np.array([1.0, -2.0, 0.5]), mesh, free,
                            np.zeros(mesh.n_vertices))


@pytest.mark.parametrize("start", [None, "far"])
def test_coarse_space_of_every_dof_solves_at_the_start_correction(start):
    # The start correction solves the system, so CG returns it before any
    # iteration: there, p = 0 and alpha = 0/0 would give NaN.  A start far
    # from the answer is corrected just the same.
    sys = _one_dof_per_aggregate_system()
    assert _aggregates(sys)[0].tolist() == [0, 2, 1]
    A, b = sys.matrix, sys.rhs
    x0 = None if start is None else np.array([1e3, -2e3, 5e2])
    x, met, iters = fem._pcg(A, b, 1e-12 * np.linalg.norm(b), 20000, x0,
                             fem._coarse(sys))
    assert met and iters == 0
    want = np.linalg.solve(A.toarray(), b)
    assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))
    with mock.patch.object(fem, "RTOL", 1e-12):
        got = solve_spd(sys, method="pcg")
    assert np.linalg.norm(A @ got - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("method", ["direct", "pcg"])
@pytest.mark.parametrize("guess", [None, "ones"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_right_hand_side_raises(method, guess, bad, solver_calls):
    # An infinite residual bound would accept any answer, a guess or zero
    # included; no solver runs and nothing comes back.
    sys = _one_dof_per_aggregate_system()
    sys.rhs = np.array([1.0, bad, 0.5])
    g = None if guess is None else np.ones(3)
    with pytest.raises(LinearSolveError, match="not finite"):
        solve_spd(sys, method=method, guess=g)
    assert solver_calls == []


def test_indefinite_matrix_raises_at_its_first_nonpositive_curvature(
        mesh4x4):
    # A positive diagonal, and a coarse operator that factors (the one
    # aggregate of the 4 x 4 mesh sums A to 7), but A has the eigenvalue
    # -1 along (1, -1, 0), where b lies.  CG stops at that direction rather
    # than run on, to max_iter or to an answer of an indefinite system.
    A = sp.csr_matrix(np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0],
                                [0.0, 0.0, 1.0]]))
    sys = fem.SparseSystem(A, np.array([1.0, -1.0, 0.0]), mesh4x4)
    with pytest.raises(LinearSolveError, match="curvature") as info:
        solve_spd(sys, method="pcg")
    assert info.value.residual == np.inf


def _sparse_product_coarse_operator(sys):
    """``(Z^T A) Z`` by scipy's sparse products, with ``Z`` from
    :func:`_aggregates` and the column indices of ``Z^T A`` sorted."""
    agg, count = _aggregates(sys)
    Z = sp.csr_matrix((np.ones(len(agg)), agg, np.arange(len(agg) + 1)),
                      shape=(len(agg), count))
    W = sp.csr_matrix(Z.T @ sys.matrix.tocsr())
    W.sort_indices()
    return W @ Z


def _hand_built_system():
    """A 3 x 3 SPD system built by hand on a 4 x 4 mesh, not restricted:
    rows are vertices 0 to 2, all in the one aggregate."""
    A = sp.csr_matrix(np.array([[4.0, -1.0, 0.0], [-1.0, 4.0, -1.5],
                                [0.0, -1.5, 4.0]]))
    return fem.SparseSystem(A, np.ones(3), build_uniform(2))


def _cancelling_system():
    """A 3 x 3 system built by hand on free vertices of a level-3 mesh, two
    in aggregate 0 and one in aggregate 1, whose coupling of the two
    aggregates sums to an exact zero."""
    mesh = build_uniform(3)
    free = mesh.vertex_ids(np.array([[0.125, 0.125], [0.25, 0.25],
                                     [0.75, 0.25]]))
    A = sp.csr_matrix(np.array([[2.0, 0.0, 1.0], [0.0, 2.0, -1.0],
                                [1.0, -1.0, 3.0]]))
    return fem.SparseSystem(A, np.ones(3), mesh, free,
                            np.zeros(mesh.n_vertices))


_global_pcg_systems = functools.cache(global_pcg_systems)


@functools.cache
def _global_band_system():
    """The 346-dof band sweep of the 64 x 64 global-xi state."""
    return apply_dirichlet(*global_pcg_band())


COARSE_CASES = pytest.mark.parametrize("make", [
    lambda: _cracked_displacement_system()[0],
    lambda: _cracked_phase_system(pinned_box=(0.0, 0.5, 0.0, 0.5)),
    _hand_built_system,
    _cancelling_system,
    lambda: _global_pcg_systems()[0],
    lambda: _global_pcg_systems()[1],
    _global_band_system,
], ids=["u", "phase-dropped-aggregate", "hand-built", "cancelling",
        "global-u", "global-phase", "global-band"])


@COARSE_CASES
def test_coarse_operator_is_the_sparse_product_bit_for_bit(make, monkeypatch):
    # The band handed to the Cholesky factor is the lower triangle of
    # (Z^T A) Z, bit for bit: every entry within the band, an entry that
    # cancels to an exact zero included, and nothing of the product
    # outside it.
    sys = make()
    factored, factor = [], fem._band_cholesky
    monkeypatch.setattr(fem, "_band_cholesky",
                        lambda band: factored.append(band.copy())
                        or factor(band))
    agg, _, _ = fem._coarse(sys)
    assert np.array_equal(agg, _aggregates(sys)[0])
    got, want = factored[0], _sparse_product_coarse_operator(sys).toarray()
    k = got.shape[0] - 1
    assert got.shape == (k + 1, len(want))
    assert not np.tril(want, -k - 1).any()
    assert got.tobytes() == lower_band(want, k).tobytes()


@COARSE_CASES
def test_banded_coarse_solve_matches_dense_solve(make):
    sys = make()
    _, factor, _ = fem._coarse(sys)
    dense = _sparse_product_coarse_operator(sys).toarray()
    r = np.random.default_rng(11).normal(size=len(dense))
    got, info = fem.lapack.dpbtrs(factor, r, lower=1)
    want = np.linalg.solve(dense, r)
    assert info == 0
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("make", [
    _cracked_phase_system,
    _stripe_system,
    lambda: _cracked_phase_system(pinned_box=(0.0, 0.5, 0.0, 0.5)),
    lambda: _cracked_displacement_system()[0],
    _hand_built_system,
    _cancelling_system,
    _one_dof_per_aggregate_system,
], ids=["phase", "stripe", "phase-dropped-aggregate", "u", "hand-built",
        "cancelling", "one-dof-per-aggregate"])
def test_coarse_rows_are_z_transpose_a(make):
    # W from the plan's map against the dense Z^T A, and its structure
    # against that of Z^T |A|, where no terms cancel: an entry of W whose
    # terms cancel stays as an explicit zero.
    sys = make()
    Z, dense = _dense_coarse_space(sys)
    got, want = fem._coarse(sys)[2], Z.T @ dense
    assert got.shape == want.shape
    assert np.max(np.abs(got.toarray() - want)) \
        <= 1e-15 * np.max(np.abs(want))
    A = sys.matrix.tocsr()
    ones = sp.csr_matrix((np.ones(A.nnz), A.indices, A.indptr),
                         shape=A.shape)
    pattern = sp.csr_matrix(Z.T) @ ones
    pattern.sort_indices()
    assert np.array_equal(got.indptr, pattern.indptr)
    assert np.array_equal(got.indices, pattern.indices)


@functools.cache
def _level_8_coarse_map():
    """A level-8 grid's pinned system and the traced peak, in bytes, of
    building its plan's coarse map."""
    mesh = build_uniform(8)
    sys = apply_dirichlet(_folded_system(mesh), _boundary_pins(mesh), 0.0)
    assert sys.plan.n_agg == 4096
    tracemalloc.start()
    try:
        sys.plan.coarse_rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return sys, peak


def test_coarse_rows_map_of_a_level_8_grid_is_linear_in_its_entries():
    # 4,096 aggregates and 589k free-block entries.  The map of W and the
    # band is built from at most three int32 arrays of one value per
    # free-block entry, besides arrays of one value per aggregate and
    # numpy's fixed-size indexing buffers (12.2 bytes per entry when
    # measured).  It keeps one, the slots, besides W's structure and the
    # band slot of each entry of W.
    sys, peak = _level_8_coarse_map()
    indptr, indices, slot, band, _ = sys.plan.coarse_rows
    assert len(slot) == sys.matrix.nnz and len(indptr) == 4096 + 1
    assert len(band) == len(indices) < sys.matrix.nnz / 3
    assert peak <= 3 * 4 * sys.matrix.nnz + 2 ** 17


def test_coarse_map_of_a_level_8_grid_takes_a_few_megabytes():
    # A map over all n_agg^2 coarse entries peaked at 92 MB on this grid.
    # The band of E spans one row of the 64 x 64 aggregates, so what the
    # map keeps and its peak while it is built both stay a few megabytes.
    sys, peak = _level_8_coarse_map()
    indptr, indices, slot, band, k = sys.plan.coarse_rows
    assert k <= 64 + 1
    assert np.all((0 <= band) & (band <= (k + 1) * 4096))
    kept = sum(a.nbytes for a in (indptr, indices, slot, band))
    assert kept < peak < 8e6


def test_coarse_band_is_the_half_bandwidth_of_z_transpose_a_z():
    # A level-4 start grid refined twice along the crack, so with hanging
    # nodes and aggregates of three sizes.  The plan's half-bandwidth is
    # that of the dense coarse operator, its widest coupling.
    m = build_uniform(4, level_max=6)
    for _ in range(2):
        centre = m.cell_origin + 0.5 * m.cell_h[:, None]
        m = refine(m, np.flatnonzero((np.abs(centre[:, 0] - 0.5) < 0.1)
                                     & (centre[:, 1] > 0.4)))
    assert len(m.constraints) > 0 and m.cell_levels.max() == 6
    sys = apply_dirichlet(_folded_system(m), _boundary_pins(m), 1.0)
    k = sys.plan.coarse_rows[-1]
    rows, cols = np.nonzero(_sparse_product_coarse_operator(sys).toarray())
    assert k == np.max(rows - cols)


@pytest.mark.parametrize("level", [3, 4, 5, 6])
def test_uniform_grid_aggregates_are_the_squares_two_levels_up_by_rows(
        level):
    # Every vertex of a uniform grid is a corner of cells of its one level,
    # so the aggregates are the 4^(level - 2) squares of four cells a side,
    # numbered row by row in y; a vertex on the right side of the unit
    # square joins the last square of its row.
    m = build_uniform(level)
    sys = apply_dirichlet(_folded_system(m), _boundary_pins(m), 0.0)
    n = 2 ** (level - 2)
    i, j = np.minimum((m.vertex_coords[sys.free] * n).astype(int), n - 1).T
    assert sys.plan.n_agg == 4 ** (level - 2)
    assert np.array_equal(sys.plan.agg, j * n + i)


def test_each_aggregate_is_one_square_four_of_its_finest_cells_wide():
    # On a mesh refined along the crack, the free dofs of one aggregate
    # share the size h of the finest cell at their vertices and lie in one
    # square of side 4 h, at a multiple of 4 h (the far sides of the unit
    # square closed).  Each aggregate has its own square, and the squares
    # are numbered by the (y, x) of their lower-left corners, a larger one
    # before a smaller one at the same corner.
    m = _crack_refined_mesh()
    sys = apply_dirichlet(_folded_system(m), _boundary_pins(m), 0.0)
    h = np.ones(m.n_vertices)
    for size, corners in zip(m.cell_h, m.cell_vertices):
        h[corners] = np.minimum(h[corners], size)
    squares = []
    for a in range(sys.plan.n_agg):
        dofs = sys.free[sys.plan.agg == a]
        [size] = set(h[dofs].tolist())
        side = 4 * size
        corner = side * np.minimum(np.floor(m.vertex_coords[dofs] / side),
                                   1 / side - 1)
        [(x0, y0)] = set(map(tuple, corner.tolist()))
        squares.append((y0, x0, -side))
    assert {side for *_, side in squares} == {-0.25, -0.5}
    assert squares == sorted(squares) and len(set(squares)) == len(squares)


@functools.cache
def _adapted_u_system():
    """The displacement system of the adapted 8,800-cell mesh of the
    ``amr_field`` benchmark window after its first load step, levels 6 to
    9, under that step's load."""
    path = Path(__file__).parents[1] / "configs" / "field_xi_amr.cfg"
    cfg = parse_config(path.read_text(), {"loading.dt": "0.0015",
                                          "loading.n_max": "1"})
    _, state = driver.run(cfg)
    assert state.mesh.n_cells == 8800
    return pf.assemble_displacement(
        state.mesh, state.v,
        *driver.boundary_displacement(state.mesh, state.t, cfg.loading.c))


def test_deflated_cg_of_the_adapted_u_system_takes_few_iterations():
    # From zero to fem.RTOL, CG took 28 iterations with aggregates that
    # follow the refinement (688 of them) and 100 with the 16 x 16 squares
    # of the level-6 start grid, whose aggregates along the crack held up
    # to about 1,000 level-9 dofs.
    sys = _adapted_u_system()
    b = sys.rhs
    _, met, iters = fem._pcg(sys.matrix, b, fem.RTOL * np.linalg.norm(b),
                             fem.MAX_ITER, None, fem._coarse(sys))
    assert met and iters <= 40


def test_coarse_operator_that_is_not_spd_raises_linear_solve_error(mesh4x4):
    # The diagonal is positive, but the one aggregate of the 4 x 4 mesh
    # sums the matrix to A_c = -2.
    sys = fem.SparseSystem(sp.csr_matrix(np.array([[1.0, -2.0],
                                                   [-2.0, 1.0]])),
                           np.ones(2), mesh4x4)
    with pytest.raises(LinearSolveError, match="coarse Cholesky") as info:
        solve_spd(sys, method="pcg")
    assert info.value.residual == np.inf


def _cg_iterations(A, b, limit, precondition):
    """Iterations of preconditioned CG from zero, stopping on the
    recurrence residual: the one-level and additive two-level references."""
    x, r = np.zeros(len(b)), b.copy()
    z = precondition(r)
    p, rz = z.copy(), r @ z
    for k in range(1, 20001):
        Ap = A @ p
        alpha = rz / (p @ Ap)
        x, r = x + alpha * p, r - alpha * Ap
        if np.linalg.norm(r) <= limit:
            return k
        z = precondition(r)
        p, rz = z + (r @ z / rz) * p, r @ z
    raise AssertionError("reference CG did not converge")


def _jacobi(A):
    """``r -> D^-1 r``."""
    minv = 1.0 / A.diagonal()
    return lambda r: minv * r


def _additive_two_level(A, agg, n_agg):
    """``r -> D^-1 r + Z E^-1 Z^T r`` with ``E = Z^T A Z``, in sparse form
    with an explicit ``Z`` and a dense ``E^-1``: the additive coarse
    correction on the same aggregates."""
    Z = sp.csr_matrix((np.ones(len(agg)), agg, np.arange(len(agg) + 1)),
                      shape=(len(agg), n_agg))
    einv = np.linalg.inv((Z.T @ A @ Z).toarray())
    jacobi = _jacobi(A)
    return lambda r: jacobi(r) + Z @ (einv @ (Z.T @ r))


# Deflated CG iterations at rtol 1e-10, then those of the additive
# two-level and of the Jacobi references, as measured: u 29, 43 and 164
# (29/43 = 0.674); phase 35, 51 and 188 (35/51 = 0.686).  Each bound on
# the fraction allows one deflated iteration more than measured.
DEFLATION_GAIN = {"u": 0.7, "phase": 0.72}


def test_coarse_space_cuts_cg_iterations_on_64x64_systems():
    for name, sys in zip(("u", "phase"), _global_pcg_systems()):
        A, b = sys.matrix, sys.rhs
        limit = 1e-10 * np.linalg.norm(b)
        coarse = fem._coarse(sys)
        assert coarse[1].shape[1] == 256
        _, met, iters = fem._pcg(A, b, limit, 20000, None, coarse)
        assert met
        additive = _cg_iterations(A, b, limit,
                                  _additive_two_level(A, coarse[0], 256))
        assert iters <= DEFLATION_GAIN[name] * additive
        assert 3 * iters <= _cg_iterations(A, b, limit, _jacobi(A))


# ---------------------------------------------------------------------------
# Solves from a guess


@pytest.fixture
def solver_calls(monkeypatch):
    """Names of the solver kernels run, in order: "splu" for a SuperLU
    factor, "coarse" for the band Cholesky factor of a coarse operator,
    or "pcg"."""
    calls = []
    splu, band_cholesky, pcg = fem.spla.splu, fem._band_cholesky, fem._pcg
    monkeypatch.setattr(fem.spla, "splu",
                        lambda *a, **k: calls.append("splu") or splu(*a, **k))
    monkeypatch.setattr(fem, "_band_cholesky",
                        lambda band: calls.append("coarse")
                        or band_cholesky(band))
    monkeypatch.setattr(fem, "_pcg",
                        lambda *a, **k: calls.append("pcg") or pcg(*a, **k))
    return calls


@pytest.fixture
def factored_rows(solver_calls, monkeypatch):
    """Rows of each matrix factored, in order, alongside ``solver_calls``:
    those of a SuperLU factor, or one per column of a coarse band."""
    rows = []
    splu, band_cholesky = fem.spla.splu, fem._band_cholesky
    monkeypatch.setattr(fem.spla, "splu",
                        lambda A, *a, **k: rows.append(A.shape[0])
                        or splu(A, *a, **k))
    monkeypatch.setattr(fem, "_band_cholesky",
                        lambda band: rows.append(band.shape[1])
                        or band_cholesky(band))
    return rows


def _guess_system():
    """A Poisson system on a three-level mesh with hanging nodes."""
    mesh = _three_level_mesh()
    assert len(mesh.constraints) > 0
    return _poisson_system(mesh, lambda x, y: 1.0 + np.sin(3 * x) * y,
                           lambda x, y: np.cos(x) + x * y)


def _nodal(sys, free_values):
    """A full-length nodal vector with the given free values."""
    full = sys.prescribed.copy()
    full[sys.free] = free_values
    return sys.mesh.constraints.apply(full)


METHODS = ["direct", "pcg"]


@pytest.mark.parametrize("method", METHODS)
def test_exact_guess_comes_back_unsolved(method, solver_calls):
    sys = _guess_system()
    exact = np.linalg.solve(sys.matrix.toarray(), sys.rhs)
    u = solve_field(sys, method=method, guess=_nodal(sys, exact))
    assert u.values[sys.free].tobytes() == exact.tobytes()
    assert solver_calls == []


@pytest.mark.parametrize("method", METHODS)
def test_multiple_of_the_answer_gives_the_answer(method, solver_calls):
    # alpha = g.b / g.Ag = 1/3 for g = 3 x*, since A x* = b.
    sys = _guess_system()
    exact = np.linalg.solve(sys.matrix.toarray(), sys.rhs)
    u = solve_field(sys, method=method, guess=3.0 * _nodal(sys, exact))
    assert np.max(np.abs(u.values[sys.free] - exact)) <= 1e-12
    assert solver_calls == []


def test_random_guess_starts_cg_from_its_multiple(monkeypatch):
    sys = _guess_system()
    A, b = sys.matrix, sys.rhs
    g = np.random.default_rng(3).normal(size=len(b))
    starts = []
    pcg = fem._pcg
    monkeypatch.setattr(fem, "_pcg",
                        lambda *a: starts.append(a[4]) or pcg(*a))
    x = solve_spd(sys, method="pcg", guess=g)
    assert np.array_equal(starts[0], (g @ b / (g @ (A @ g))) * g)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("scale", [0.0, 1e-170])
def test_degenerate_guess_falls_through_to_the_solver(method, scale,
                                                      solver_calls,
                                                      factored_rows):
    # A zero guess has g.Ag = 0; so has a tiny one, where g.Ag underflows.
    # Neither has a multiple, so CG starts from zero under either method,
    # to that method's contract (1e-8 under direct for RTOL = 1e-10): the
    # bytes of a pcg solve without a guess at that tolerance.  Only the
    # coarse operator is factored, by band Cholesky and never by SuperLU,
    # and it never has more rows than there are aggregates.
    sys = _guess_system()
    g = np.full(len(sys.rhs), scale)
    assert g @ (sys.matrix @ g) == 0.0
    rtol = 1e-8 if method == "direct" else 1e-10
    with mock.patch.object(fem, "RTOL", rtol):
        want = solve_spd(sys, method="pcg")
    got = solve_spd(sys, method=method, guess=g)
    assert got.tobytes() == want.tobytes()
    assert solver_calls == ["coarse", "pcg"] * 2
    assert max(factored_rows) <= _aggregates(sys)[1] < len(sys.rhs)


def test_guess_with_negative_curvature_falls_through(mesh4x4, solver_calls,
                                                     monkeypatch):
    # An indefinite system and a guess along its negative direction:
    # g.Ag < 0, so no multiple is formed and CG starts from zero, also
    # under direct.  CG needs an SPD system, and its preconditioner
    # refuses the negative diagonal instead of returning an answer.
    sys = fem.SparseSystem(sp.diags([1.0, -2.0, 4.0]).tocsr(),
                           np.array([1.0, 1.0, 2.0]), mesh4x4)
    starts, pcg = [], fem._pcg
    monkeypatch.setattr(fem, "_pcg",
                        lambda *a: starts.append(a[4]) or pcg(*a))
    with pytest.raises(LinearSolveError, match="nonpositive diagonal"):
        solve_spd(sys, method="direct", guess=np.array([0.0, 1.0, 0.0]))
    assert starts == [None]
    assert solver_calls == ["coarse", "pcg"]


def _cracked_displacement_system():
    """The displacement system of a body broken along a band of cells, and
    the field before it broke.

    The mesh is that of :func:`_cracked_phase_system` (level 3, refined to
    level 4 along the crack, with hanging nodes).  The band is the column
    of level-4 cells just left of ``x = 0.5`` above ``y = 0.5``: v is 0 on
    all their vertices, so their stiffness is ``eta mu`` with
    ``eta = 1e-10``.  Every vertex also touches an intact cell, so the
    system stays well conditioned.  The Dirichlet data are those of the
    benchmark's top edge at ``t = 0.05``.  The second value is the dense
    answer of the same load before the band broke, with v = 1
    everywhere, as a full nodal vector: the previous staggered iterate of
    an onset step.
    """
    m = _cracked_phase_system().mesh
    x, y = m.vertex_coords.T
    h = 1.0 / 16
    band = (x >= 0.5 - h - 1e-12) & (x <= 0.5 + 1e-12) & (y >= 0.5 - 1e-12)
    bc = driver.boundary_displacement(m, 0.05, 1.0)
    before = pf.assemble_displacement(m, constant_field(m, 1.0), *bc)
    sys = pf.assemble_displacement(
        m, ScalarField(m, np.where(band, 0.0, 1.0)), *bc)
    broken = band[m.cell_vertices].all(axis=1)
    assert broken.any() and len(m.constraints) > 0
    assert np.array_equal(before.free, sys.free)
    return sys, _nodal(before, np.linalg.solve(before.matrix.toarray(),
                                               before.rhs))


def test_failed_guess_under_direct_runs_cg_from_its_multiple(
        solver_calls, factored_rows, monkeypatch):
    # The guess and its multiple both miss the direct contract (rtol
    # 1e-8), so CG starts from the multiple, bit for bit, factors only the
    # coarse operator and meets that contract.  Its answer then lies
    # within kappa_2(A) rtol of the dense answer, relative in the 2-norm,
    # with kappa_2 computed densely; the bound is far from vacuous here.
    sys, guess = _cracked_displacement_system()
    A, b = sys.matrix, sys.rhs
    g = guess[sys.free]
    rtol = 1e-8
    multiple = (g @ b / (g @ (A @ g))) * g
    for start in (g, multiple):
        assert np.linalg.norm(A @ start - b) > rtol * np.linalg.norm(b)
    starts, pcg = [], fem._pcg
    monkeypatch.setattr(fem, "_pcg",
                        lambda *a: starts.append(a[4]) or pcg(*a))
    x = solve_field(sys, method="direct", guess=guess).values[sys.free]
    assert len(starts) == 1 and starts[0].tobytes() == multiple.tobytes()
    assert solver_calls == ["coarse", "pcg"]
    assert max(factored_rows) <= _aggregates(sys)[1] < len(b)
    assert np.linalg.norm(A @ x - b) <= rtol * np.linalg.norm(b)
    dense = A.toarray()
    want = np.linalg.solve(dense, b)
    kappa = np.linalg.cond(dense)
    assert kappa * rtol < 1e-3
    assert np.linalg.norm(x - want) <= kappa * rtol * np.linalg.norm(want)


# ---------------------------------------------------------------------------
# Projection onto earlier solutions


def _family(s, *, reaction=False):
    """``(K + s M) v = b`` on a three-level mesh with hanging nodes, with
    the left edge pinned at 0, as a phase system pins its crack.  With
    ``reaction``, also the folded ``M`` that the family moves along."""
    mesh = _three_level_mesh()
    weight = lambda x, y: 1.0 + np.sin(3 * x)
    stiffness = assemble_weighted_laplace(mesh, lambda x, y: 1.0 + x * y)
    mass = assemble_weighted_mass(mesh, lambda x, y: s * weight(x, y))
    load = assemble_load(mesh, lambda x, y: 1.0 + 0.3 * y)
    pinned = nothing_pinned(mesh)
    pinned[mesh.boundary_vertices(LEFT)] = True
    sys = apply_dirichlet(combine(stiffness, mass, rhs=load), pinned, 0.0)
    if not reaction:
        return sys
    return sys, assemble_weighted_mass(mesh, weight).matrix


def _basis(sys, fields):
    """Orthonormal rows spanning the free values of whole fields."""
    return fem.orthonormalize([f[sys.free] for f in fields])


def _meets_contract(sys, field, rtol):
    A, b = sys.matrix, sys.rhs
    x = field.values[sys.free]
    return np.linalg.norm(A @ x - b) <= rtol * np.linalg.norm(b)


# Drives that grow with the square of a load ramp, as an elastic preload's
# strain drive does, and a ninth drive between two of them.
STRAIN_DRIVES = [10.0 * (1.0 + 0.1 * k) ** 2 for k in range(8)]
NINTH_DRIVE = 10.0 * 1.35 ** 2


@pytest.fixture
def family_basis():
    """Whole fields solving the family for the eight drives."""
    return [solve_field(_family(s), method="direct").values
            for s in STRAIN_DRIVES]


def test_projection_onto_eight_solutions_solves_a_ninth(family_basis,
                                                        solver_calls):
    sys = _family(NINTH_DRIVE)
    assert len(sys.mesh.constraints) > 0
    basis = _basis(sys, family_basis)
    got, accepted, residual = fem.project(sys, basis)
    assert accepted
    assert solver_calls == []
    assert _meets_contract(sys, got, 1e-10)
    # The residual handed back is that of the returned field's free values.
    assert residual.tobytes() == (sys.matrix @ got.values[sys.free]
                                  - sys.rhs).tobytes()
    want = np.linalg.solve(sys.matrix.toarray(), sys.rhs)
    assert (np.linalg.norm(got.values[sys.free] - want)
            <= 1e-8 * np.linalg.norm(want))
    # Prescribed and hanging values are filled as a solve fills them.
    assert np.array_equal(got.values, _nodal(sys, got.values[sys.free]))


def test_projection_verdict_is_the_solver_contract(family_basis):
    # One earlier solution, nudged so that its projection misses the
    # answer by a relative residual between fem.RTOL (1e-10) and the direct
    # solver's floor (1e-8): the direct contract, max(RTOL, 1e-8), accepts
    # it.
    sys = _family(NINTH_DRIVE)
    exact = solve_field(sys, method="direct").values
    nudge = np.random.default_rng(4).normal(size=exact.shape)
    basis = _basis(sys, [exact + 2e-10 * np.linalg.norm(exact) * nudge])
    got, accepted, residual = fem.project(sys, basis)
    assert accepted and _meets_contract(sys, got, 1e-8)
    assert not _meets_contract(sys, got, 1e-10)
    assert residual.tobytes() == (sys.matrix @ got.values[sys.free]
                                  - sys.rhs).tobytes()


@pytest.mark.parametrize("basis", [[], [np.zeros(1)] * 3],
                         ids=["empty", "zero"])
def test_projection_without_a_direction_falls_back(basis, solver_calls):
    # Zero fields add no direction to the basis.
    sys = _family(1.0)
    basis = _basis(sys, [np.resize(f, sys.mesh.n_vertices) for f in basis])
    assert basis == []
    assert fem.project(sys, basis) == (None, False, None)
    assert solver_calls == []


def test_projection_drops_dependent_columns(family_basis):
    sys = _family(NINTH_DRIVE)
    A, b = sys.matrix, sys.rhs
    # Three copies of one direction: the projection is its Galerkin
    # multiple, which misses the ninth solution.
    g = family_basis[0][sys.free]
    basis = _basis(sys, [family_basis[0], 2.0 * family_basis[0],
                         -family_basis[0]])
    assert len(basis) == 1
    got, accepted, _ = fem.project(sys, basis)
    assert not accepted
    want = (g @ b / (g @ (A @ g))) * g
    assert (np.max(np.abs(got.values[sys.free] - want))
            <= 1e-12 * np.max(np.abs(want)))
    # Repeated and combined columns neither raise nor hurt the answer.
    extra = [family_basis[1] + family_basis[2], 3.0 * family_basis[4]]
    basis = _basis(sys, family_basis + extra)
    assert len(basis) == 8
    got, accepted, _ = fem.project(sys, basis)
    assert accepted and _meets_contract(sys, got, 1e-8)


def test_projection_directions_stay_orthonormal(family_basis):
    # Eight solutions of one family are nearly dependent: the smallest
    # singular value of their free values is about 3e-11 of the largest.
    # One Gram-Schmidt pass loses their orthogonality; two keep it.
    sys = _family(NINTH_DRIVE)
    rows = np.array([f[sys.free] for f in family_basis])
    assert np.linalg.cond(rows) > 1e10
    q = np.array(_basis(sys, family_basis))
    assert len(q) == 8
    assert np.max(np.abs(q @ q.T - np.eye(8))) <= 1e-14
    assert (np.max(np.abs(rows - (rows @ q.T) @ q))
            <= 1e-12 * np.max(np.abs(rows)))


# ---------------------------------------------------------------------------
# Tangents of a family from one factor


def _dense_free_block(sys, matrix):
    return matrix[sys.free][:, sys.free].toarray()


@pytest.mark.parametrize("s", [0.5, 40.0])
def test_tangents_are_powers_of_the_family_operator(s, solver_calls):
    sys, reaction = _family(s, reaction=True)
    assert len(sys.mesh.constraints) > 0
    count = driver._TANGENTS
    v, tangents = solved_with_tangents(sys, reaction, count)
    assert solver_calls == ["splu"]
    # The field is the direct solve's, bit for bit.
    assert v.values.tobytes() == solve_field(sys, method="direct").values \
        .tobytes()
    A = sys.matrix.toarray()
    R = _dense_free_block(sys, reaction)
    want = v.values[sys.free]
    assert len(tangents) == count
    for t in tangents:
        want = np.linalg.solve(A, R @ want)
        assert np.max(np.abs(t - want)) <= 1e-12 * np.max(np.abs(want))


def _tangent_projection_errors(count, deltas):
    """Relative max errors, against dense solves, of the projection onto
    the answer at s0 = 20 and its first ``count`` tangents, at
    s0 + delta for each delta."""
    s0 = 20.0
    sys0, reaction = _family(s0, reaction=True)
    v, tangents = solved_with_tangents(sys0, reaction, count)
    basis = fem.orthonormalize([v.values[sys0.free], *tangents])
    assert len(basis) == count + 1
    errors = []
    for delta in deltas:
        sys = _family(s0 + delta)
        got, _, _ = fem.project(sys, basis)
        want = np.linalg.solve(sys.matrix.toarray(), sys.rhs)
        errors.append(np.max(np.abs(got.values[sys.free] - want))
                      / np.max(np.abs(want)))
    return errors


def test_tangent_projection_error_falls_as_the_fourth_power():
    # Galerkin projection onto the solution at s0 and its three tangents
    # matches the family's Taylor series to third order, so its error at
    # s0 + delta falls 16-fold when delta halves.
    errors = _tangent_projection_errors(3, (2.0, 1.0, 0.5))
    for coarse, fine in zip(errors, errors[1:]):
        assert 14.0 < coarse / fine < 18.0


def test_tangent_projection_error_falls_as_the_eighth_power():
    # With the driver._TANGENTS = 7 tangents of a phase basis
    # rows, the projection matches the Taylor series to seventh order, so
    # its error falls 256-fold when delta halves once delta is small
    # enough.  The errors reach rounding (about 1e-15) before that shows
    # in full, so the local order log2(e(2 delta) / e(delta)) is checked
    # to lie between 7 and 9 and to rise toward 8 as delta falls.
    errors = _tangent_projection_errors(driver._TANGENTS,
                                        (12.0, 6.0, 3.0))
    assert errors[-1] > 1e-14
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert all(128.0 < r < 512.0 for r in ratios)
    assert ratios[0] < ratios[1]


def test_tangents_of_a_system_without_unknowns(mesh4x4, solver_calls):
    mass = assemble_weighted_mass(mesh4x4, 1.0)
    sys = apply_dirichlet(mass, ~nothing_pinned(mesh4x4), 2.0)
    v, factor = fem.solve_factored(sys)
    assert factor is None and solver_calls == []
    assert np.all(v.values == 2.0)


def test_projection_takes_a_restricted_system(mesh4x4):
    sys = assemble_weighted_mass(mesh4x4, 1.0)
    with pytest.raises(ValueError):
        fem.project(sys, [np.ones(mesh4x4.n_vertices)])
    with pytest.raises(ValueError):
        fem.solve_factored(sys)


def test_unknown_method_raises(mesh4x4):
    sys = assemble_weighted_mass(mesh4x4, 1.0)
    with pytest.raises(ValueError):
        solve_spd(sys, method="qr")


def test_solve_field_fills_hanging(mesh_hanging):
    sys = _poisson_system(mesh_hanging, lambda x, y: 1.0,
                          lambda x, y: x + 2 * y)
    u = solve_field(sys, method="direct")
    for h, (a, b) in mesh_hanging.constraints.masters.items():
        assert u.values[h] == pytest.approx(
            0.5 * (u.values[a] + u.values[b]), abs=1e-12)


def test_hanging_interface_reproduces_linear_solution(mesh_hanging):
    # Criterion 6d: a linear exact solution passes through a refinement
    # interface without pollution.
    exact = lambda x, y: 3.0 * x - 2.0 * y + 0.5
    sys = _poisson_system(mesh_hanging, lambda x, y: 0.0, exact)
    u = solve_field(sys, method="direct")
    x, y = mesh_hanging.vertex_coords.T
    assert np.max(np.abs(u.values - exact(x, y))) < 1e-12


def test_manufactured_solution_second_order():
    # Criterion 6a: L2 convergence order 2.0 +/- 0.2 for
    # u = sin(pi x) sin(pi y) over levels 4..6.
    exact = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    rhs = lambda x, y: 2.0 * np.pi ** 2 * exact(x, y)
    errors = []
    for level in (4, 5, 6):
        mesh = build_uniform(level)
        sys = _poisson_system(mesh, rhs, lambda x, y: 0.0)
        uh = solve_field(sys, method="direct")
        qp = fem.quadrature_points(mesh)
        diff = fem.field_at_qp(uh) - exact(qp[..., 0], qp[..., 1])
        errors.append(np.sqrt(integrate(mesh, diff ** 2)))
    orders = [np.log2(errors[k] / errors[k + 1]) for k in range(2)]
    print(f"manufactured-solution L2 orders: {orders}")
    for order in orders:
        assert order == pytest.approx(2.0, abs=0.2)


# ---------------------------------------------------------------------------
# Quadrature utilities


def test_integrate_polynomial():
    mesh = build_uniform(2)
    val = integrate(mesh, lambda x, y: x * x * y)
    assert val == pytest.approx(1.0 / 6.0, abs=1e-14)


def test_integrate_constant_is_area(mesh_hanging):
    assert integrate(mesh_hanging, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_field_and_grad_at_qp(mesh4x4):
    x, y = mesh4x4.vertex_coords.T
    f = ScalarField(mesh4x4, 2.0 * x + 3.0 * y)
    vals = fem.field_at_qp(f)
    qp = fem.quadrature_points(mesh4x4)
    assert np.max(np.abs(vals - (2 * qp[..., 0] + 3 * qp[..., 1]))) < 1e-13
    g = fem.grad_at_qp(f)
    assert np.max(np.abs(g[..., 0] - 2.0)) < 1e-13
    assert np.max(np.abs(g[..., 1] - 3.0)) < 1e-13


def test_l2_relative_error():
    mesh = build_uniform(1)
    a = constant_field(mesh, 2.0)
    b = constant_field(mesh, 1.0)
    assert l2_relative_error(a, b) == pytest.approx(0.5, abs=1e-14)
    zero = constant_field(mesh, 0.0)
    assert l2_relative_error(zero, b) == pytest.approx(3.0, abs=1e-14)


def test_scalar_field_validates_length(mesh4x4):
    with pytest.raises(ValueError):
        ScalarField(mesh4x4, np.zeros(3))
