"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the production assembly paths: dense
matrices are built cell by cell with high-order Gauss quadrature and
explicit constraint elimination, so agreement with the vectorized sparse
code is meaningful.
"""

import bisect
import itertools
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from xifrac import driver, fem, mesh as meshmod, phasefield as pf
from xifrac.config import parse_config


# ---------------------------------------------------------------------------
# Dense assembly oracles


def _gauss01(n):
    """Gauss points/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _shape(s, t):
    vals = np.array([(1 - s) * (1 - t), s * (1 - t), s * t, (1 - s) * t])
    grads = np.array([
        [-(1 - t), -(1 - s)],
        [1 - t, -s],
        [t, s],
        [-t, 1 - s],
    ])
    return vals, grads


def dense_laplace(mesh, weight_fn, order=5):
    """Dense sum_K int_K w grad z_i . grad z_j, high-order quadrature."""
    gx, gw = _gauss01(order)
    A = np.zeros((mesh.n_vertices, mesh.n_vertices))
    for c in range(mesh.n_cells):
        h = mesh.cell_h[c]
        ox, oy = mesh.cell_origin[c]
        ids = mesh.cell_vertices[c]
        for a, wa in zip(gx, gw):
            for b, wb in zip(gx, gw):
                _, g = _shape(a, b)
                gphys = g / h
                w = weight_fn(ox + a * h, oy + b * h)
                A[np.ix_(ids, ids)] += wa * wb * h * h * w * (gphys @ gphys.T)
    return A


def dense_mass(mesh, weight_fn, order=5):
    gx, gw = _gauss01(order)
    A = np.zeros((mesh.n_vertices, mesh.n_vertices))
    for c in range(mesh.n_cells):
        h = mesh.cell_h[c]
        ox, oy = mesh.cell_origin[c]
        ids = mesh.cell_vertices[c]
        for a, wa in zip(gx, gw):
            for b, wb in zip(gx, gw):
                n, _ = _shape(a, b)
                w = weight_fn(ox + a * h, oy + b * h)
                A[np.ix_(ids, ids)] += wa * wb * h * h * w * np.outer(n, n)
    return A


def dense_load(mesh, density_fn, order=5):
    gx, gw = _gauss01(order)
    b = np.zeros(mesh.n_vertices)
    for c in range(mesh.n_cells):
        h = mesh.cell_h[c]
        ox, oy = mesh.cell_origin[c]
        ids = mesh.cell_vertices[c]
        for a, wa in zip(gx, gw):
            for bb, wb in zip(gx, gw):
                n, _ = _shape(a, bb)
                rho = density_fn(ox + a * h, oy + bb * h)
                b[ids] += wa * wb * h * h * rho * n
    return b


def at_gauss_points(mesh, f):
    """``f(x, y)`` at the physical points of ``fem.GAUSS2`` in every cell,
    shape ``(n_cells, nq)``: a coefficient in the form that the assembly
    takes."""
    xy = (mesh.cell_origin[:, None, :]
          + mesh.cell_h[:, None, None] * fem.GAUSS2.points)
    out = np.empty(xy.shape[:2])
    out[...] = f(xy[..., 0], xy[..., 1])
    return out


def dense_prolongation(mesh):
    """Dense hanging-node prolongation built from vertex geometry only."""
    T = np.eye(mesh.n_vertices)
    cons = mesh.constraints
    for h, (a, b) in zip(cons.hanging, cons.pairs):
        T[h, :] = 0.0
        T[h, a] = 0.5
        T[h, b] = 0.5
    return T


def sparse_prolongation(mesh):
    """Sparse hanging-node prolongation ``T`` built from the master pairs."""
    cons = mesh.constraints
    n = mesh.n_vertices
    regular = np.setdiff1d(np.arange(n), cons.hanging)
    rows = np.concatenate([regular, cons.hanging, cons.hanging])
    cols = np.concatenate([regular, cons.pairs[:, 0], cons.pairs[:, 1]])
    data = np.repeat([1.0, 0.5], [len(regular), 2 * len(cons.hanging)])
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


def dense_condense(mesh, A, b):
    """Fold constraints the slow way: ``T^T A T`` and ``T^T b``.

    Hanging rows and columns come out zero, since ``T`` has zero columns
    at hanging vertices.
    """
    T = dense_prolongation(mesh)
    return T.T @ A @ T, T.T @ b


def dense_dirichlet(mesh, A, b, bc):
    """Free block and reduced right-hand side of a folded dense system.

    The free dofs are the vertices neither hanging nor in ``bc``.
    """
    x0 = np.zeros(len(b))
    for node, val in bc.items():
        x0[node] = val
    fixed = set(bc) | set(mesh.constraints.hanging.tolist())
    free = [i for i in range(len(b)) if i not in fixed]
    return A[np.ix_(free, free)], (b - A @ x0)[free]


def backward_error(A, x, b):
    """``||A x - b|| / (||A||_inf ||x|| + ||b||)``, from the dense matrix of
    the sparse ``A``: the normwise backward error that the ``pcg``
    contract bounds by ``fem.RTOL``."""
    dense = A.toarray()
    residual = np.linalg.norm(dense @ x - b)
    return residual / (np.abs(dense).sum(axis=1).max() * np.linalg.norm(x)
                       + np.linalg.norm(b))


def aggregates_by_vertex(mesh, rows):
    """The deflation aggregate of each vertex in ``rows``, built vertex by
    vertex, and the number of aggregates.

    A vertex whose finest cell has level ``L`` joins the square of side
    ``4 h``, ``h = 2^-L`` (the unit square when ``L < 2``), that holds it,
    counting a vertex on the right or top side of the unit square into
    the last square there.  The squares that hold a vertex of ``rows`` are
    numbered by the (y, x) of their lower-left corners, and a larger
    square comes before a smaller one with the same corner.
    """
    finest = defaultdict(int)
    for level, corners in zip(mesh.cell_levels.tolist(),
                              mesh.cell_vertices.tolist()):
        for v in corners:
            finest[v] = max(finest[v], level)
    squares = []
    for v in np.asarray(rows).tolist():
        side = min(4.0 * 2.0 ** -finest[v], 1.0)
        x, y = mesh.vertex_coords[v].tolist()
        last = 1.0 - side
        x0 = min(np.floor(x / side) * side, last)
        y0 = min(np.floor(y / side) * side, last)
        squares.append((y0, x0, -side))
    number = {s: k for k, s in enumerate(sorted(set(squares)))}
    return np.array([number[s] for s in squares], dtype=int), len(number)


def lower_band(dense, k):
    """The lower band of a square matrix in LAPACK's ``(k + 1) x n`` band
    storage: diagonal ``-d`` in row ``d``, zero past the matrix's end."""
    n = len(dense)
    band = np.zeros((k + 1, n))
    for d in range(k + 1):
        band[d, :n - d] = np.diagonal(dense, -d)
    return band


def _global_pcg_state():
    """The global-xi benchmark state on the 64 x 64 grid (256
    aggregates), loaded to t = 0.1: the state, its restricted u system and
    its folded phase operator."""
    path = Path(__file__).parents[1] / "configs" / "global_xi_128.cfg"
    cfg = parse_config(path.read_text(), {
        "mesh.level_start": "6", "mesh.level_max": "6",
        "solver.method": "pcg"})
    state = driver.initialize(cfg)
    u_sys = pf.assemble_displacement(
        state.mesh, state.v,
        *driver.boundary_displacement(state.mesh, 0.1, cfg.loading.c))
    u = fem.solve_field(u_sys, method="direct")
    folded, _ = pf.assemble_phase(state.mesh, u, state.xi)
    return state, u_sys, folded


def global_pcg_systems():
    """The u and first phase systems, restricted, of the global-xi
    benchmark state on the 64 x 64 grid (256 aggregates), loaded to
    t = 0.1."""
    state, u_sys, folded = _global_pcg_state()
    return u_sys, fem.apply_dirichlet(folded, state.mask.pinned, 0.0)


def global_pcg_band():
    """The second phase sweep of the state of :func:`global_pcg_systems`,
    as ``(folded, pinned, values)``: the crack pinned at 0 and every node
    where the first sweep's direct answer passes 1 pinned at 1, as the
    driver's active set does.  That leaves a band of 346 free dofs along
    the crack, the size of the later sweeps of a phase solve."""
    state, _, folded = _global_pcg_state()
    crack = state.mask.pinned
    first = fem.solve_field(fem.apply_dirichlet(folded, crack, 0.0),
                            method="direct")
    pinned = crack | (first.values > 1.0 + 1e-12)
    return folded, pinned, np.where(crack, 0.0, 1.0)


def solved_with_tangents(sys, reaction, count):
    """The direct answer of a restricted system and the first ``count``
    tangents of its family that its factor gives."""
    v, factor = fem.solve_factored(sys)
    return v, fem.family_tangents(factor, reaction, sys.free,
                                  v.values[sys.free], count)


def cg_passes(monkeypatch):
    """Spy on the deflated CG of ``fem``: per solve, in order, a list
    ``[passes, iterations]``, where a pass is the start or a restart (one
    coarse correction each) and an iteration one preconditioned
    direction."""
    solves, preconditioner = [], fem._preconditioner

    def spy(A, coarse):
        deflate, precondition = preconditioner(A, coarse)
        counts = [0, 0]
        solves.append(counts)

        def counted_deflate(x, r):
            counts[0] += 1
            return deflate(x, r)

        def counted_precondition(r):
            counts[1] += 1
            return precondition(r)

        return counted_deflate, counted_precondition

    monkeypatch.setattr(fem, "_preconditioner", spy)
    return solves


def nothing_pinned(mesh):
    """A ``pinned`` mask that pins no vertex of ``mesh``."""
    return np.zeros(mesh.n_vertices, dtype=bool)


class Untouchable:
    """A stand-in for a system's matrix that fails any use of it: an
    attribute, such as its data, or a product."""

    def __getattr__(self, name):
        raise AssertionError(f"the matrix was used: .{name}")

    def __matmul__(self, other):
        raise AssertionError("the matrix was used: a product")


def pin_a_bottom_vertex(state):
    """Replace ``state.v`` by one that is also zero at a bottom-edge
    vertex, as a crack that has run through the body is."""
    v = state.v.values.copy()
    v[state.mesh.boundary_vertices(meshmod.BOTTOM)[0]] = 0.0
    state.v = fem.ScalarField(state.mesh, v)


def dirichlet_arrays(n, bc):
    """``(pinned, values)`` of a ``{vertex: value}`` dict on ``n``
    vertices, the form ``fem.apply_dirichlet`` takes."""
    pinned = np.zeros(n, dtype=bool)
    values = np.zeros(n)
    for node, val in bc.items():
        pinned[node], values[node] = True, val
    return pinned, values


def assert_fresh_u_system(sys, v, pinned, values):
    """Assert that ``sys`` is, byte for byte, ``fem.apply_dirichlet`` of a
    freshly assembled ``K(v)``: matrix data, indices and indptr, right-hand
    side, prescribed values and free dofs."""
    mesh = v.mesh
    weight = pf.SHEAR_MODULUS * pf.degradation(fem.field_at_qp(v))
    folded = fem.SparseSystem(fem.assemble_weighted_laplace(
        mesh, weight).matrix, np.zeros(mesh.n_vertices), mesh)
    want = fem.apply_dirichlet(folded, pinned, values)
    arrays = lambda s: (s.matrix.data, s.matrix.indices, s.matrix.indptr,
                        s.rhs, s.prescribed, s.free)
    for a, b in zip(arrays(sys), arrays(want)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Mesh invariants checked by brute force


def edges_of_cell(key):
    """Four (axis, fixed, lo, hi) edge descriptors of a ``(level, i, j)``
    cell in physical coords."""
    l, i, j = key
    h = 0.5 ** l
    ox, oy = i * h, j * h
    return [
        ("y", oy, ox, ox + h),          # bottom
        ("x", ox + h, oy, oy + h),      # right
        ("y", oy + h, ox, ox + h),      # top
        ("x", ox, oy, oy + h),          # left
    ]


def unbalanced_pairs(keys):
    """Pairs of edge-adjacent cells whose levels differ by more than one.

    Two cells are edge-adjacent when edges of theirs lie on one line and
    overlap in a segment of positive length.  Dyadic coordinates are
    exact, so edges are grouped by their line.
    """
    lines = defaultdict(list)
    for key in keys:
        for axis, fixed, lo, hi in edges_of_cell(key):
            lines[axis, fixed].append((lo, hi, key))
    return [(a, b) for edges in lines.values()
            for (lo, hi, a), (dlo, dhi, b) in itertools.combinations(edges, 2)
            if min(hi, dhi) - max(lo, dlo) > 1e-14 and abs(a[0] - b[0]) > 1]


def brute_force_hanging(mesh):
    """``(hanging, pairs)`` of ``mesh``, found cell edge by cell edge: a
    vertex hangs iff it lies strictly inside an edge of some cell, and its
    masters are that edge's ends, the lower or left one first.  Dyadic
    coordinates are exact, so the vertices are grouped by the lines they
    lie on, and each edge bisects the sorted vertices of its line."""
    coords = mesh.vertex_coords.tolist()
    at = {(x, y): k for k, (x, y) in enumerate(coords)}
    lines = defaultdict(list)
    for k, (x, y) in enumerate(coords):
        lines["x", x].append((y, k))
        lines["y", y].append((x, k))
    for line in lines.values():
        line.sort()
    masters = {}
    for key in keys_of(mesh):
        for axis, fixed, lo, hi in edges_of_cell(key):
            line = lines[axis, fixed]
            ends = [at[(fixed, t) if axis == "x" else (t, fixed)]
                    for t in (lo, hi)]
            start = bisect.bisect_right(line, (lo, len(coords)))
            for t, k in itertools.takewhile(lambda p: p[0] < hi,
                                            line[start:]):
                masters[k] = tuple(ends)
    hanging = sorted(masters)
    return (np.array(hanging, dtype=int),
            np.array([masters[k] for k in hanging], dtype=int).reshape(-1, 2))


def pattern_by_cell_loop(mesh, local):
    """``T^T A T`` of the cell blocks ``local`` (``n_cells x 4 x 4``),
    summed cell by cell: the value of corners ``a`` and ``b`` goes to every
    pair of an image of ``a`` and an image of ``b``, the images of ``a``
    outermost; a corner's image is its vertex, of weight 1, or each master
    of a hanging corner, of weight 1/2.  Each sum adds its terms in cell
    order, starting from ``0.0``.  Returns the CSR ``(indptr, indices,
    data)`` of the sums, columns sorted within each row."""
    cons = mesh.constraints
    masters = dict(zip(cons.hanging.tolist(),
                       map(tuple, cons.pairs.tolist())))
    images = [[(m, 0.5) for m in masters[v]] if v in masters else [(v, 1.0)]
              for v in range(mesh.n_vertices)]
    sums = {}
    for corners, block in zip(mesh.cell_vertices.tolist(),
                              np.asarray(local).reshape(-1, 4, 4).tolist()):
        for a, values in zip(corners, block):
            for b, value in zip(corners, values):
                for r, wr in images[a]:
                    for c, wc in images[b]:
                        sums[r, c] = sums.get((r, c), 0.0) + wr * wc * value
    entries = sorted(sums)
    rows = np.array([r for r, _ in entries], dtype=int)
    indptr = np.searchsorted(rows, np.arange(mesh.n_vertices + 1))
    return (indptr, np.array([c for _, c in entries], dtype=int),
            np.array([sums[e] for e in entries]))


def scipy_coupling(A, free):
    """The rows ``free`` of the CSR matrix ``A`` without their entries in
    the columns ``free``, with the columns of ``A``, as CSR arrays
    ``(data, indices, indptr)``: scipy's row indexing, then a mask."""
    rows = A[free]
    outside = ~np.isin(rows.indices, free)
    row = np.repeat(np.arange(len(free)), np.diff(rows.indptr))[outside]
    indptr = np.zeros(len(free) + 1, dtype=rows.indptr.dtype)
    np.cumsum(np.bincount(row, minlength=len(free)), out=indptr[1:])
    return rows.data[outside], rows.indices[outside], indptr


def keys_of(mesh):
    """``(level, i, j)`` of every cell of ``mesh``, in cell id order."""
    return list(map(tuple, mesh._keys.tolist()))


def cell_id(mesh, key):
    """Id of the active cell ``key`` of ``mesh``."""
    c = int(mesh.cell_ids(*key))
    assert c >= 0, f"cell {key} is not active"
    return c


def check_two_to_one(mesh):
    """Assert every pair of edge-adjacent cells differs by <= 1 level."""
    pairs = unbalanced_pairs(keys_of(mesh))
    assert not pairs, f"cells {pairs[0][0]} and {pairs[0][1]} break 2:1 balance"


def children(key):
    l, i, j = key
    return {(l + 1, 2 * i + a, 2 * j + b) for a in (0, 1) for b in (0, 1)}


def reference_refine(keys, flagged, level_max):
    """Minimal 2:1-balanced refinement splitting every flagged cell.

    Flagged cells at ``level_max`` stay.  Then the coarser cell of every
    unbalanced pair is split, until no pair is left; each such split is
    forced in any balanced refinement.
    """
    active = set(keys)
    for key in flagged:
        if key[0] < level_max:
            active = (active - {key}) | children(key)
    while pairs := unbalanced_pairs(active):
        for pair in pairs:
            coarse = min(pair)  # the lower level sorts first
            if coarse in active:
                active = (active - {coarse}) | children(coarse)
    return active


def reference_coarsen(keys, flagged, level_min):
    """Greatest balanced merge of the complete flagged sibling groups.

    Tries every subset of the groups whose parent level is at least
    ``level_min``, and checks that the largest balanced one contains all
    others.  Returns the merged keys.
    """
    flagged = set(flagged)
    groups = sorted({(l - 1, i // 2, j // 2) for l, i, j in flagged
                     if l > level_min
                     and children((l - 1, i // 2, j // 2)) <= flagged})

    def merge(parents):
        return (set(keys) - set().union(*map(children, parents))) | parents

    balanced = [set(subset) for r in range(len(groups) + 1)
                for subset in itertools.combinations(groups, r)
                if not unbalanced_pairs(merge(set(subset)))]
    best = max(balanced, key=len)
    assert all(subset <= best for subset in balanced)
    return merge(best)


def coarsen_rule_flags(mesh, v_values, cfg):
    """The cells that a coarsening AMR pass would flag on ``mesh``: every
    vertex has v >= 1 - 1e-6, the cell xi is not below ``XI_REFINE``, and
    the level is above ``level_min``.  ``driver.amr_pass`` only refines;
    this is the rule that it dropped."""
    reg = cfg.regularization
    xi = pf.xi_field(mesh, fem.ScalarField(mesh, v_values), reg)
    intact = v_values[mesh.cell_vertices].min(axis=1) >= 1.0 - 1e-6
    return np.flatnonzero(intact & (xi >= pf.XI_REFINE)
                          & (mesh.cell_levels > mesh.level_min))


def check_refinement_transfer(old, new, values, got):
    """Assert that ``got`` is the block ``values`` on ``old`` moved onto
    ``new``, a refinement of it.  ``got`` meets the constraints of ``new``
    bit for bit.  A vertex of both meshes that does not hang in ``new``
    keeps its value bit for bit (a -0.0 comes back as +0.0, as from any
    sparse product); every other vertex matches ``old.eval_field``, which
    goes through ``locate``, to 1e-13 of the largest value."""
    values = values.reshape(old.n_vertices, -1)
    got = got.reshape(new.n_vertices, -1)
    assert new.constraints.apply(got).tobytes() == got.tobytes()
    old_ids = old.vertex_ids(new.vertex_coords)
    kept = old_ids >= 0
    kept[new.constraints.hanging] = False
    assert got[kept].tobytes() == (values[old_ids[kept]] + 0.0).tobytes()
    x, y = new.vertex_coords[~kept].T
    want = np.column_stack([old.eval_field(f, x, y) for f in values.T])
    assert np.all(np.abs(got[~kept] - want)
                  <= 1e-13 * np.abs(values).max(initial=0.0))


def total_area(mesh):
    return float(np.sum(mesh.cell_h ** 2))


# ---------------------------------------------------------------------------
# Fresh interpreters


ROOT = Path(__file__).parents[1]


def run_fresh(*args):
    """``python args`` in a fresh interpreter that imports xifrac from this
    checkout's source and writes no bytecode; what it loads is its own, as
    pytest's process already holds scipy."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"),
                                 os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *map(str, args)], env=env,
                          capture_output=True, text=True)


# ---------------------------------------------------------------------------
# Fixtures


@pytest.fixture
def mesh2x2():
    return meshmod.build_uniform(1)


@pytest.fixture
def mesh4x4():
    return meshmod.build_uniform(2)


@pytest.fixture
def mesh_hanging():
    """4x4 mesh with one corner cell refined: has hanging nodes."""
    m = meshmod.build_uniform(2)
    return meshmod.refine(m, [cell_id(m, (2, 0, 0))])
