"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the production assembly paths: dense
matrices are built cell by cell with high-order Gauss quadrature and
explicit constraint elimination, so agreement with the vectorized sparse
code is meaningful.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from xifrac import mesh as meshmod


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


def dense_prolongation(mesh):
    """Dense hanging-node prolongation built from vertex geometry only."""
    T = np.eye(mesh.n_vertices)
    for h, (a, b) in mesh.constraints.masters.items():
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
    fixed = set(bc) | set(mesh.constraints.masters)
    free = [i for i in range(len(b)) if i not in fixed]
    return A[np.ix_(free, free)], (b - A @ x0)[free]


# ---------------------------------------------------------------------------
# Mesh invariants checked by brute force


def edges_of_cell(mesh, c):
    """Four (axis, fixed, lo, hi) edge descriptors in physical coords."""
    h = mesh.cell_h[c]
    ox, oy = mesh.cell_origin[c]
    return [
        ("y", oy, ox, ox + h),          # bottom
        ("x", ox + h, oy, oy + h),      # right
        ("y", oy + h, ox, ox + h),      # top
        ("x", ox, oy, oy + h),          # left
    ]


def check_two_to_one(mesh):
    """Assert every pair of edge-adjacent cells differs by <= 1 level."""
    for c in range(mesh.n_cells):
        for axis, fixed, lo, hi in edges_of_cell(mesh, c):
            for d in range(mesh.n_cells):
                if d == c:
                    continue
                for daxis, dfixed, dlo, dhi in edges_of_cell(mesh, d):
                    if daxis != axis or abs(dfixed - fixed) > 1e-14:
                        continue
                    if min(hi, dhi) - max(lo, dlo) > 1e-14:  # overlap
                        assert abs(int(mesh.cell_levels[c])
                                   - int(mesh.cell_levels[d])) <= 1, (
                            f"cells {mesh.cell_keys[c]} and "
                            f"{mesh.cell_keys[d]} break 2:1 balance")


def total_area(mesh):
    return float(np.sum(mesh.cell_h ** 2))


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
    return meshmod.refine(m, [m.cell_id((2, 0, 0))])
