"""Bilinear (Q1) finite elements on quadtree meshes.

Assembly is vectorized over cells: every cell is an axis-aligned square,
so the reference-to-physical map is a pure scaling and shape data can be
tabulated once, at import, for :data:`GAUSS2`, the 2 x 2 Gauss rule that
every integral here uses.  Each cell kernel is one matrix product of an
``(n_cells, nq)`` coefficient against one of its read-only basis-product
tables (``laplace_table``, ``mass_table``, ``load_table``,
``grad_table``).

scipy's modules are the lazy names ``sp``, ``spla`` and ``lapack``
(:class:`xifrac.mesh.LazyModule`): importing this module loads numpy
alone, and scipy loads at the first assembly or solve.

A linear system is built in two steps.  *Fold*: an assembly sums cell
matrices straight into ``T^T A T``, with ``T`` the hanging-node
prolongation, through a map cached per mesh (:attr:`Mesh.csr_pattern`),
and loads into ``T^T b``; hanging rows and columns stay empty.
*Restrict*: :func:`apply_dirichlet` keeps the free dofs, neither hanging
nor pinned (one bool per vertex, with a full-length value array), so the
solvers only ever see that SPD block; :func:`solve_field` expands the
solution again.  It takes matrices on the mesh's pattern alone and
raises on any other.  The free sets of a run repeat (one Dirichlet set per
mesh for u, the crack mask for each first phase sweep), so what depends
on the free set alone is a :class:`_Plan`, a product that the mesh keeps
for the few most recent free sets (:meth:`Mesh.reuse`): a restriction
gathers the kept values, and the ``pcg`` solver below sums them into
``W = Z^T A``, and W's values into its coarse operator's band, over one
cached map.  A caller that keeps a :class:`FreeBlock`, as the displacement
assembly keeps that of ``K(v)`` and not ``K(v)``, forms its systems from it
(:meth:`FreeBlock.system`) and pays only for the right-hand side.
:func:`combine` adds two systems on the mesh pattern and stays on it, so
a folded phase operator is restricted through a cached plan as well.

The direct solver factors the free block with SuperLU in symmetric mode:
a minimum-degree ordering of ``A^T + A`` and diagonal pivots, which gives
less fill and faster factorizations than the default column ordering with
row pivoting.  The ``pcg`` solver runs deflated conjugate gradients
with Jacobi: the coarse space ``Z`` holds the piecewise constants over
aggregates of the free dofs, the iterate starts corrected on it and every
search direction is kept A-orthogonal to it, so CG iterates only on the
modes that the coarse space misses.  An aggregate is a square two levels
coarser than the finest cell at its dofs' vertices
(:attr:`Mesh.coarse_squares`), so the aggregates follow the refinement:
on the adapted 8,800-cell mesh of the ``amr_field`` benchmark a cold u
solve takes 28 iterations, against 100 with the squares of the start
grid.  On the 64 x 64 benchmark systems the deflation takes about 30 %
fewer iterations than the additive coarse correction
``D^-1 + Z E^-1 Z^T`` on the same aggregates, at the same cost per
iteration.  It factors no fine-grid system and calls no SuperLU: the
small coarse operator ``E = Z^T A Z = W Z`` is banded, because the
aggregates are numbered row by row, so it is summed straight into
LAPACK's band storage from W's values, without forming ``Z``, and
factored by band Cholesky.  Each factor lives only for its own solve.

Every answer meets one residual test, ``||A x - b|| <= eps_b ||b|| +
eps_A ||A||_inf ||x||``, with one pair of coefficients per method
(:func:`_limit`).  Under ``pcg`` both are ``RTOL``, so ``RTOL`` bounds
the normwise backward error: rounding can meet that on any system, while
a relative residual of ``RTOL`` lies below the rounding floor of a
near-Neumann phase system.  Under ``direct`` they are ``max(RTOL, 1e-8)``
and 0, a relative residual, and no norm of ``A`` is taken.

A solve may be handed a guess, such as the previous iterate of the same
field.  The test decides what comes back: the guess itself, its Galerkin
multiple ``(g.b / g.Ag) g``, or else the answer of the deflated CG
started from that multiple, under either method and to that method's
test.  In an elastic load step the operator repeats and the Dirichlet
data scale with the load, so the multiple of the previous displacement
already passes and nothing is factored; in any other step CG from the
multiple needs few iterations and factors only the coarse operator.  So
the direct solver only factors systems that come without a guess.  This module keeps no factor or
value between solves: a plan holds structure only, and the one factor
that outlives its solve, that of :func:`solve_factored`, is the
caller's, for the tangents below.

:func:`project` recycles an earlier solution of a family of systems,
such as the phase systems ``(K + s R) v = b`` of an elastic preload,
whose strain drive ``s`` grows with the load: it solves the Galerkin
system on the span of orthonormal rows (:func:`orthonormalize`) and
hands back the result with the verdict of the direct solver's residual
test.  :func:`solve_factored` and :func:`family_tangents` build such a
basis: with the factor of one direct solve in hand, a few triangular
solves give the tangents ``(A^-1 R)^j x`` of the family at that member,
so a projection onto the answer and its tangents matches the family's
Taylor series to that order (moment matching, as in Pade-via-Lanczos
model reduction).  The driver builds one such basis per family while the
factor is in hand and keeps the rows, not the factor, on the mesh
(:func:`xifrac.driver._first_sweep`).
A caller may use an accepted projection to decide what to do next, but
the field it returns should come from a solve: the projection depends
on which fields happen to be in the span, so a run restarted with other
fields would not repeat its bits.  Passing the test bounds the
projection's error only through the condition number of ``A``, so a
decision taken from it must allow for that error.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .mesh import LazyModule, Mesh, frozen

sp = LazyModule("scipy.sparse")
spla = LazyModule("scipy.sparse.linalg")
lapack = LazyModule("scipy.linalg.lapack")

log = logging.getLogger(__name__)

# pcg answers meet ||A x - b|| <= RTOL (||A||_inf ||x|| + ||b||), direct
# ones ||A x - b|| <= max(RTOL, 1e-8) ||b|| (_limit); CG stops at MAX_ITER.
RTOL = 1e-10
MAX_ITER = 20000


class LinearSolveError(RuntimeError):
    """Linear solver failed to meet the residual contract.

    ``residual`` is the backward error reached under ``pcg``, the
    relative residual under ``direct`` (:meth:`_Limit.error`), or
    infinity when the failure left no answer to measure.
    """

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


def shape_eval(s: float, t: float):
    """Values and reference gradients of the 4 bilinear basis functions.

    Node order matches cell connectivity: (0,0), (1,0), (1,1), (0,1).
    """
    values = np.array([(1 - s) * (1 - t), s * (1 - t), s * t, (1 - s) * t])
    grads = np.array([
        [-(1 - t), -(1 - s)],
        [1 - t, -s],
        [t, s],
        [-t, 1 - s],
    ])
    return values, grads


class QuadratureRule(NamedTuple):
    """A tensor-product Gauss rule on the reference square [0,1]^2 and its
    basis tables (one row per point, one column per entry of a cell block),
    all read-only, since every assembly shares them."""

    points: np.ndarray         # (nq, 2)
    weights: np.ndarray        # (nq,), summing to 1
    # Basis values (nq, 4) and reference gradients (nq, 4, 2) at the points.
    tabulation: tuple[np.ndarray, np.ndarray]
    laplace_table: np.ndarray  # w_q grad(z_a).grad(z_b), (nq, 16)
    mass_table: np.ndarray     # w_q z_a z_b, (nq, 16)
    load_table: np.ndarray     # w_q z_a, (nq, 4)
    grad_table: np.ndarray     # reference gradients, (4, nq * 2), cols (q, d)


def _gauss2() -> QuadratureRule:
    """The 2 x 2 Gauss rule and its tables."""
    s = np.sqrt(1.0 / 3.0)  # leggauss(2): nodes -s, s, both weights 1
    x = 0.5 * (np.array([-s, s]) + 1.0)
    w = 0.5 * np.ones(2)
    pts = np.array([(a, b) for a in x for b in x])
    wts = np.array([wa * wb for wa in w for wb in w])
    vals, grads = shape_eval(pts[:, 0], pts[:, 1])  # (4, nq), (4, 2, nq)
    vals, grads = vals.T.copy(), grads.transpose(2, 0, 1).copy()
    # Partition of unity / gradient consistency at the tabulated points.
    assert np.all(np.abs(vals.sum(axis=1) - 1.0) <= 1e-14)
    assert np.all(np.abs(grads.sum(axis=1)) <= 1e-14)
    gg = grads @ grads.transpose(0, 2, 1)
    nn = vals[:, :, None] * vals[:, None, :]
    return QuadratureRule(
        frozen(pts), frozen(wts), (frozen(vals), frozen(grads)),
        frozen((wts[:, None, None] * gg).reshape(-1, 16)),
        frozen((wts[:, None, None] * nn).reshape(-1, 16)),
        frozen(wts[:, None] * vals),
        frozen(grads.transpose(1, 0, 2).reshape(4, -1)))


GAUSS2 = _gauss2()


@dataclass
class ScalarField:
    """Nodal coefficients of a piecewise-bilinear function on a mesh."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.n_vertices,):
            raise ValueError(
                f"field length {self.values.shape} does not match mesh "
                f"{self.mesh.id} with {self.mesh.n_vertices} vertices")


def constant_field(mesh: Mesh, value: float) -> ScalarField:
    return ScalarField(mesh, np.full(mesh.n_vertices, float(value)))


@dataclass
class SparseSystem:
    """Sparse symmetric system on one mesh.

    As assembled: the folded ``T^T A T`` and ``T^T b`` over all vertices.
    After :func:`apply_dirichlet`: the free block and its reduced
    right-hand side, with the vertex ids of its rows in ``free``, the
    prescribed values, full length, in ``prescribed``, and the
    :class:`_Plan` it was restricted by in ``plan``, None when no dof is
    free.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    mesh: Mesh
    free: np.ndarray | None = None
    prescribed: np.ndarray | None = None
    plan: "_Plan | None" = None


def field_at_qp(field: ScalarField) -> np.ndarray:
    """Field values at quadrature points, shape (n_cells, nq)."""
    vals, _ = GAUSS2.tabulation
    nodal = field.values[field.mesh.cell_vertices]  # (nc, 4)
    return nodal @ vals.T


def grad_at_qp(field: ScalarField) -> np.ndarray:
    """Field gradients at quadrature points, shape (n_cells, nq, 2).

    The reference gradients are scaled by ``1 / h``, which is a power of
    two, so the product gives the bits of a division by ``h``.
    """
    mesh = field.mesh
    g = field.values[mesh.cell_vertices] @ GAUSS2.grad_table
    g *= mesh.cell_inv_h[:, None]
    return g.reshape(mesh.n_cells, -1, 2)


def _coefficient(mesh, w):
    """Normalize a coefficient, a scalar, one value per cell or an
    ``(n_cells, nq)`` array of values at the quadrature points, to an
    array of shape (n_cells, nq)."""
    nq = len(GAUSS2.weights)
    w = np.asarray(w, dtype=float)
    if w.ndim == 0:
        return np.full((mesh.n_cells, nq), float(w))
    if w.shape == (mesh.n_cells,):
        return np.repeat(w[:, None], nq, axis=1)
    if w.shape == (mesh.n_cells, nq):
        return w
    raise ValueError(f"coefficient shape {w.shape} not understood")


def _scatter(mesh, local):
    """Fold local cell matrices, (n_cells, 16) or (n_cells, 4, 4), into CSR.

    One product with the mesh's cached fold gives the data of ``T^T A T``
    (:attr:`Mesh.csr_pattern`); each entry sums its terms in cell order.
    """
    indptr, indices, fold = mesh.csr_pattern
    return sp.csr_matrix((fold @ local.ravel(), indices, indptr),
                         shape=(mesh.n_vertices, mesh.n_vertices))


def assemble_weighted_laplace(mesh: Mesh, weight) -> SparseSystem:
    """System with entries ``sum_K int_K w grad(z_i).grad(z_j)``.

    The weight must be strictly positive at every quadrature point.
    """
    w = _coefficient(mesh, weight)
    if np.any(w <= 0.0):
        raise ValueError("weighted Laplace requires a strictly positive weight")
    # Physical gradient scaling 1/h^2 cancels the area factor h^2 in 2D.
    local = w @ GAUSS2.laplace_table
    return SparseSystem(_scatter(mesh, local), np.zeros(mesh.n_vertices), mesh)


def assemble_weighted_mass(mesh: Mesh, weight) -> SparseSystem:
    """System with entries ``sum_K int_K w z_i z_j`` (w >= 0 allowed)."""
    w = _coefficient(mesh, weight)
    local = (w * mesh.cell_h[:, None] ** 2) @ GAUSS2.mass_table
    return SparseSystem(_scatter(mesh, local), np.zeros(mesh.n_vertices), mesh)


def assemble_load(mesh: Mesh, density) -> np.ndarray:
    """Right-hand side ``b_i = sum_K int_K rho z_i`` with constraints folded."""
    rho = _coefficient(mesh, density)
    local = (rho * mesh.cell_h[:, None] ** 2) @ GAUSS2.load_table
    b = np.bincount(mesh.cell_vertices.ravel(), weights=local.ravel(),
                    minlength=mesh.n_vertices)
    return mesh.constraints.fold(b)


def _on_pattern(A, mesh: Mesh):
    """Raise :class:`ValueError` unless the CSR matrix ``A`` is built on
    :attr:`Mesh.csr_pattern`: its index arrays are the pattern's, or the
    whole-array views of them that scipy keeps."""
    if not all((a is b or a.base is b) and a.shape == b.shape
               for a, b in zip((A.indptr, A.indices), mesh.csr_pattern)):
        raise ValueError("the matrix is not on its mesh's pattern")


def combine(a: SparseSystem, b: SparseSystem) -> SparseSystem:
    """Sum two folded systems assembled on the same mesh.

    Both matrices must lie on the mesh's pattern (:attr:`Mesh.csr_pattern`),
    as every assembled one does; the sum adds their data and stays on it,
    so :func:`apply_dirichlet` restricts it through a cached plan.  Unlike
    scipy's ``a.matrix + b.matrix``, which prunes exact zeros, an entry
    that cancels stays in the pattern as an explicit zero.
    """
    if a.mesh is not b.mesh:
        raise ValueError("systems live on different meshes")
    if a.free is not None or b.free is not None:
        raise ValueError("combine systems before restricting them")
    _on_pattern(a.matrix, a.mesh)
    _on_pattern(b.matrix, b.mesh)
    indptr, indices, _ = a.mesh.csr_pattern
    matrix = sp.csr_matrix((a.matrix.data + b.matrix.data, indices, indptr),
                           shape=a.matrix.shape)
    return SparseSystem(matrix, a.rhs + b.rhs, a.mesh)


class _Plan:
    """Everything that restricting and coarsening a system take from its
    free set alone.

    Built from the CSR structure ``indptr``, ``indices`` of a square
    matrix whose row ``i`` belongs to vertex ``ids[i]`` of ``mesh``, and
    one bool per row, ``is_free``.  It holds:

    - ``free``, the vertex ids of the free rows;
    - ``keep``, one bool per matrix entry: whether it lies in a free row
      and a free column, so that the free block's data is ``data[keep]``;
    - ``indptr`` and ``indices``, the CSR structure of the free block,
      which every matrix restricted by the plan shares;
    - ``coupling``, the entries of the free rows in the other columns, in
      storage order, and ``coupling_indptr`` and ``coupling_indices``,
      the CSR structure of those rows restricted to those entries, with
      the columns of the whole matrix;
    - ``agg``, the aggregate of each free dof (:func:`_coarse`): its
      vertex's square in :attr:`Mesh.coarse_squares`, numbered among the
      squares that hold a free dof, and ``n_agg``, the number of
      aggregates, 256 on the 64 x 64 grid and 688 for the u system of
      the adapted 8,800-cell ``amr_field`` mesh;
    - on first use, :attr:`coarse_rows`.

    Every array is read-only.  The CSR structures and the slots are
    int32, as scipy keeps the first; ``free``, ``coupling`` and ``agg``
    are ``intp``, because numpy casts any other index array on every
    gather, and ``agg`` is gathered once per CG iteration.

    The free rows' entries are read from their ``indptr`` ranges, so a
    plan costs one pass over the entries of its free rows, plus the fill
    of ``keep``: a band sweep's plan of a few hundred dofs does not visit
    the rest of the matrix.
    """

    def __init__(self, mesh: Mesh, ids, indptr, indices, is_free):
        rows = np.flatnonzero(is_free)
        self.free = frozen(ids[rows], np.intp)
        # The entries of the free rows, row by row, from their indptr
        # ranges.
        first = indptr[rows]
        lengths = indptr[rows + 1] - first
        starts = np.zeros(len(rows) + 1, dtype=np.int32)
        np.cumsum(lengths, out=starts[1:])
        entries = np.arange(starts[-1], dtype=np.intp)
        entries += np.repeat(first - starts[:-1], lengths)
        columns = indices.take(entries)
        # take() gathers by an int32 index array about twice as fast as [].
        inside = is_free.take(columns)
        keep = np.zeros(len(indices), dtype=bool)
        keep[entries] = inside
        self.keep = frozen(keep)
        renumber = np.cumsum(is_free, dtype=np.int32) - 1
        self.indices = frozen(renumber.take(columns[inside]))
        kept = np.zeros(len(inside) + 1, dtype=np.int32)
        np.cumsum(inside, dtype=np.int32, out=kept[1:])
        self.indptr = frozen(kept[starts])
        # The entries of a free row that the free block does not keep.
        outside = ~inside
        self.coupling = frozen(entries[outside])
        self.coupling_indices = frozen(columns[outside])
        self.coupling_indptr = frozen(starts - self.indptr)
        # The aggregate of a dof is its vertex's coarse square, numbered
        # among the squares that hold a free dof.
        square, count = mesh.coarse_squares
        square = square[self.free]
        held = np.bincount(square, minlength=count) > 0
        self.agg = frozen((np.cumsum(held) - 1)[square], np.intp)
        self.n_agg = int(held.sum())

    @cached_property
    def coarse_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                   np.ndarray, int]:
        """Where each free-block entry goes in ``W = Z^T A``, and each entry
        of ``W`` in the band of ``E = Z^T A Z = W Z``.

        Entry ``(i, j)`` of the free block adds to ``W[agg[i], j]``, and
        entry ``(I, j)`` of ``W`` to ``E[I, J]``, ``J = agg[j]``.  Returns
        ``(indptr, indices, slot, band, k)``: the CSR structure of ``W``,
        one row per aggregate and one column per free dof, with sorted
        columns (an entry whose terms cancel stays in it); the position of
        each free-block entry, in storage order, in ``W``'s data; the
        position of each entry of ``W`` in LAPACK's lower band storage of
        ``E``, ``(k + 1) x n_agg`` in column-major order, which is
        ``(I - J) + (k + 1) J`` when ``I >= J`` and else one extra slot
        past the band, which is dropped; and the half-bandwidth ``k``, the
        largest ``I - J``.  The aggregates are numbered row by row, so an
        entry couples aggregates that touch, which lie close together in
        that order, and ``k`` is measured here, not assumed: 17
        on the 64 x 64 grid (16 squares per row), and 74 for the 688
        aggregates of the u system on the adapted 8,800-cell ``amr_field``
        mesh, where a square beside the refined zone along the crack
        touches the small squares of several rows.

        The free block's rows, grouped by aggregate, are the rows of one
        CSR matrix of entry numbers, which scipy sorts by column in place;
        an entry of ``W`` starts at each change of column.  At most three
        int32 arrays of one value per entry are alive at once, and the map
        keeps one of them.
        """
        n, nnz = len(self.free), len(self.indices)
        order = np.argsort(self.agg, kind="stable")
        lengths = np.diff(self.indptr)[order]
        starts = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(lengths, out=starts[1:])
        # The entry numbers, row by row in aggregate order.
        entry = np.arange(nnz, dtype=np.int32)
        entry += np.repeat(self.indptr[:-1][order] - starts[:-1], lengths)
        rows = starts[np.concatenate(([0], np.cumsum(
            np.bincount(self.agg, minlength=self.n_agg))))]
        del order, lengths, starts
        # [] rather than take(), which would copy the entries as intp.
        grouped = sp.csr_matrix((entry, self.indices[entry], rows),
                                shape=(self.n_agg, n))
        del entry
        grouped.sort_indices()
        entry, cols = grouped.data, grouped.indices
        del grouped
        # An entry of W starts at each change of column and of row; W's row
        # pointers count the starts before each row, and the slot of an
        # entry counts those up to it.
        new = np.empty(nnz, dtype=bool)
        new[:1] = True
        np.not_equal(cols[1:], cols[:-1], out=new[1:])
        new[rows[:-1][np.diff(rows) > 0]] = True
        indptr = np.searchsorted(np.flatnonzero(new), rows).astype(np.int32)
        cols[:] = new
        del new
        np.cumsum(cols, out=cols)
        cols -= 1
        slot = np.empty(nnz, dtype=np.int32)
        slot[entry] = cols
        del entry, cols
        indices = np.empty(indptr[-1], dtype=np.int32)
        indices[slot] = self.indices
        col = self.agg.astype(np.int32)[indices]
        row = np.repeat(np.arange(self.n_agg, dtype=np.int32), np.diff(indptr))
        k = int((row - col).max(initial=0))
        band = np.where(row >= col, row - col + (k + 1) * col,
                        (k + 1) * self.n_agg)
        return (frozen(indptr), frozen(indices), frozen(slot),
                frozen(band, np.int32), k)


# Plans that a mesh keeps, the least recently used dropped first.  The
# free sets of a run repeat: one Dirichlet set per mesh for u, and the
# crack mask for every first phase sweep.
_PLANS_PER_MESH = 4


def _plan(mesh: Mesh, is_free: np.ndarray) -> _Plan:
    """The plan of the free set ``is_free`` on the mesh's pattern: the
    mesh's product ``"plan"`` of the free set (:meth:`Mesh.reuse`,
    ``_PLANS_PER_MESH`` of them)."""
    indptr, indices, _ = mesh.csr_pattern
    build = lambda: _Plan(mesh, np.arange(mesh.n_vertices), indptr, indices,
                          is_free)
    return mesh.reuse("plan", (is_free,), build, keep=_PLANS_PER_MESH)


class FreeBlock(NamedTuple):
    """A folded matrix ``A`` restricted to its free dofs (:func:`free_block`).

    ``matrix`` is ``A[free][:, free]``, ``coupling`` the free rows of
    ``A`` in the other columns, with the columns of ``A``, ``free`` the
    vertex ids of the free dofs and ``plan`` the :class:`_Plan` that
    restricted ``A``, None when no dof is free.  It refers to no mesh.
    """

    matrix: sp.csr_matrix
    coupling: sp.csr_matrix
    free: np.ndarray
    plan: _Plan | None

    def system(self, rhs, mesh: Mesh, pinned, values) -> SparseSystem:
        """The restricted system (:func:`apply_dirichlet`) of ``A x = rhs``
        for the block's ``pinned`` set and the prescribed ``values``.  Its
        right-hand side is ``rhs[free] - C x0``, with ``C`` the coupling
        and ``x0 = where(pinned, values, 0)``: a term of ``A x0`` that
        ``C`` leaves out multiplies a zero of ``x0``, and a zero term does
        not change a sum that starts at ``+0``."""
        x0 = np.where(pinned, values, 0.0)
        return SparseSystem(self.matrix, rhs[self.free] - self.coupling @ x0,
                            mesh, self.free, x0, self.plan)


def free_block(A, mesh: Mesh, pinned: np.ndarray) -> FreeBlock:
    """The :class:`FreeBlock` of a folded matrix ``A`` for the dofs not
    ``pinned``.

    The free dofs are the vertices that neither hang nor are ``pinned``.
    ``A`` must lie on the mesh's pattern (:attr:`Mesh.csr_pattern`), as
    assembled and :func:`combine`-d matrices do; else :class:`ValueError`.
    The free set decides the :class:`_Plan` that restricts ``A``, which
    the mesh keeps per free set (:func:`_plan`), and only the values are
    gathered: ``data[keep]`` and ``data[coupling]`` on the plan's
    structures.  A set with no free dof needs no plan and does not touch
    ``A``: both blocks are empty.
    """
    is_free = ~pinned
    is_free[mesh.constraints.hanging] = False
    if not is_free.any():
        return FreeBlock(sp.csr_matrix((0, 0)),
                         sp.csr_matrix((0, mesh.n_vertices)),
                         np.zeros(0, dtype=np.intp), None)
    _on_pattern(A, mesh)
    plan = _plan(mesh, is_free)
    n = len(plan.free)
    return FreeBlock(
        sp.csr_matrix((A.data[plan.keep], plan.indices, plan.indptr),
                      shape=(n, n)),
        sp.csr_matrix((A.data.take(plan.coupling), plan.coupling_indices,
                       plan.coupling_indptr), shape=(n, A.shape[1])),
        plan.free, plan)


def apply_dirichlet(sys: SparseSystem, pinned: np.ndarray,
                    values) -> SparseSystem:
    """Restrict a folded system to its free dofs.

    ``pinned`` holds one bool per vertex and ``values`` the prescribed
    values, full length or broadcast against ``pinned``.  The free dofs
    are the vertices that neither hang nor are pinned; a pinned hanging
    vertex is ignored, because a hanging value always comes from its
    masters.  With ``x0 = where(pinned, values, 0)``, the result is
    ``A[free][:, free]`` with right-hand side ``(b - A x0)[free]``, byte
    for byte what scipy's indexing and ``b[free] - A[free, :] x0`` give
    for a finite ``A``.  This is the only form the solvers take: pin
    nothing when there is no data.

    It is :func:`free_block` followed by :meth:`FreeBlock.system`.  A NaN
    or an infinity in the coupling block makes the right-hand side
    non-finite; one in the free block is left to the solvers, which fail
    on it.
    """
    if sys.free is not None:
        raise ValueError("system is already restricted to its free dofs")
    return free_block(sys.matrix, sys.mesh, pinned).system(
        sys.rhs, sys.mesh, pinned, values)


class _Limit(NamedTuple):
    """The residual bound of one system: ``||A x - b|| <= rtol s(x)``,
    with the scale ``s(x) = a ||x|| + ||b||`` (:func:`_limit`).

    ``a`` is ``||A||_inf`` under ``"pcg"``, so that ``rtol`` bounds the
    normwise backward error, and 0 under ``"direct"``, so that it bounds
    the relative residual and no norm of ``x`` is taken.
    """

    rtol: float
    anorm: float
    bnorm: float

    def scale(self, x) -> float:
        """``a ||x|| + ||b||``; NaN when ``||x||`` is not finite, so that
        an infinite entry of ``x`` cannot make the bound infinite."""
        if not self.anorm:
            return self.bnorm
        xnorm = np.linalg.norm(x)
        if not np.isfinite(xnorm):
            return np.nan
        return self.anorm * xnorm + self.bnorm

    def bound(self, x) -> float:
        return self.rtol * self.scale(x)

    def error(self, rnorm, x) -> float:
        """The residual norm ``rnorm`` of ``x`` over the scale: the backward
        error reached under ``"pcg"``, the relative residual under
        ``"direct"``."""
        scale = self.scale(x)
        return rnorm / scale if scale > 0 else np.inf


def _meets(Ax, b, x, limit: _Limit) -> bool:
    """The one residual test, ``||A x - b|| <= limit.bound(x)``, given
    ``A x``.

    Every answer the solvers hand out passes it: an accepted guess, its
    Galerkin multiple, a CG iterate and a direct solution alike.  A NaN
    anywhere fails it, and so does an ``x`` of infinite norm.
    """
    return bool(np.linalg.norm(Ax - b) <= limit.bound(x))


def _limit(method, b, A=None) -> _Limit:
    """The :class:`_Limit` of the contract for ``A x = b``.

    It is ``||A x - b|| <= eps_b ||b|| + eps_A ||A||_inf ||x||``, with the
    pair ``(eps_b, eps_A)`` per method, read at call time: ``(RTOL, RTOL)``
    under ``"pcg"``, the normwise backward-error test of Rigal & Gaches
    (1967), which rounding can meet on a system of any condition, and
    ``(max(RTOL, 1e-8), 0)`` under ``"direct"``, where ``A`` is not read.
    ``||A||_inf``, the largest absolute row sum, takes one pass over
    ``A``'s data.  A right-hand side or a matrix norm that is not finite
    has no bound: it raises :class:`LinearSolveError`, where an infinite
    bound would pass anything.
    """
    if method not in ("direct", "pcg"):
        raise ValueError(f"unknown solver method {method!r}")
    bnorm = np.linalg.norm(b)
    if not np.isfinite(bnorm):
        raise LinearSolveError(
            f"right-hand side of norm {bnorm!r} is not finite", np.inf)
    if method == "direct":
        return _Limit(max(RTOL, 1e-8), 0.0, bnorm)
    anorm = (abs(A) @ np.ones(A.shape[1])).max(initial=0.0)
    if not np.isfinite(anorm):
        raise LinearSolveError(
            f"matrix of norm {anorm!r} is not finite", np.inf)
    return _Limit(RTOL, anorm, bnorm)


def _expand(sys: SparseSystem, x) -> ScalarField:
    """The whole field of a restricted system with free values ``x``."""
    full = sys.prescribed.copy()
    full[sys.free] = x
    return ScalarField(sys.mesh, sys.mesh.constraints.apply(full))


def _coarse(sys: SparseSystem):
    """Aggregation coarse space of a system, with its factored operator.

    Every row, a free dof (or vertex ``i`` for row ``i`` of a system that
    was not restricted), joins the aggregate of the square two levels
    coarser than the finest cell at its vertex that holds the vertex
    (:attr:`Mesh.coarse_squares`), so the aggregates are as fine as the
    mesh around them.  ``Z`` is the 0/1 matrix with one column per
    aggregate that holds a row, numbered row by row, so no column is
    empty and ``E = Z^T A Z`` is SPD when ``A`` is.  Returns the aggregate
    column of each row, the band Cholesky factor of ``E``
    (:func:`_band_cholesky`), ``k + 1`` rows by one column per aggregate
    for the half-bandwidth ``k`` (17 for the 256 aggregates of the
    64 x 64 grid, 74 for the 688 of the u system on the adapted
    8,800-cell ``amr_field`` mesh), and ``W = Z^T A``, a CSR matrix with
    one row per aggregate.

    Neither ``Z`` nor a sparse product is formed: the system's
    :class:`_Plan` maps each entry of ``A`` to its place in ``W`` and each
    entry of ``W`` to its place in the lower band of ``E``
    (:attr:`_Plan.coarse_rows`), so ``W`` is one ``bincount`` of ``A``'s
    data and the band one ``bincount`` of ``W``'s.  Each sum adds its terms
    in storage order, as scipy's ``(Z^T A) Z`` does with sorted indices in
    ``Z^T A``, so the band is that product's lower triangle bit for bit.
    A system restricted by :func:`apply_dirichlet` brings its plan; a
    system built by hand, which no assembly produces, gets one built from
    its own structure.
    """
    A, plan = sys.matrix.tocsr(), sys.plan
    if plan is None:
        rows = np.arange(A.shape[0]) if sys.free is None else sys.free
        plan = _Plan(sys.mesh, rows, A.indptr, A.indices,
                     np.ones(A.shape[0], dtype=bool))
    indptr, indices, slot, band, k = plan.coarse_rows
    w = np.bincount(slot, weights=A.data, minlength=len(indices))
    size = (k + 1) * plan.n_agg
    lower = np.bincount(band, weights=w, minlength=size + 1)[:size]
    factor = _band_cholesky(lower.reshape((k + 1, plan.n_agg), order="F"))
    W = sp.csr_matrix((w, indices, indptr), shape=(plan.n_agg, A.shape[0]))
    return plan.agg, factor, W


def _band_cholesky(band):
    """Cholesky factor of an SPD matrix in LAPACK's lower band storage,
    or :class:`LinearSolveError`; ``band`` is overwritten.

    Lower storage: on the 256 aggregates of a 64 x 64 grid (k = 17),
    ``dpbtrf`` on upper storage took five times longer under two
    OpenBLAS threads.
    """
    factor, info = lapack.dpbtrf(band, lower=1, overwrite_ab=1)
    if info != 0:
        raise LinearSolveError(
            f"coarse Cholesky factorization failed: leading minor {info} "
            f"is not positive definite", np.inf)
    return factor


def _preconditioner(A, coarse):
    """Deflation by the coarse space of :func:`_coarse`, with Jacobi.

    With ``Z``, ``E = Z^T A Z`` and ``W = Z^T A`` from ``coarse``, and
    ``D`` the diagonal of ``A``, returns two functions:

    - ``deflate(x, r)``, the start correction: it adds ``Z E^-1 Z^T r``
      to ``x`` and ``A`` times that to ``-r``, in place, so the residual
      of ``x`` stays the residual of the corrected ``x``, and
      ``Z^T r = 0``;
    - ``precondition(r)``, which gives ``z = (I - Z E^-1 W) D^-1 r`` and
      ``r.D^-1 r``, and raises :class:`LinearSolveError` when that product
      is not positive and finite, as rounding or a non-finite ``r`` could
      make it.

    Every such ``z`` has ``W z = Z^T A z = 0``, so CG directions built
    from them are A-orthogonal to the coarse space and CG iterates on its
    complement: the deflated CG of Saad, Yeung, Erhel & Guyomarc'h
    (2000).  Jacobi damps the high modes, and deflation removes the
    smooth ones that Jacobi alone needs ``O(1/h)`` iterations for; with
    the same ``Z`` it leaves a smaller effective condition number than
    the additive coarse correction ``D^-1 + Z E^-1 Z^T`` (Tang, Nabben,
    Vuik & Erlangga, 2009), at the same cost per iteration.  While
    ``Z^T r = 0``, ``r.z = r.D^-1 r``.  A coarse solve is two banded
    triangular solves.
    """
    diag = A.diagonal()
    if np.any(diag <= 0.0):
        raise LinearSolveError("nonpositive diagonal in SPD solve", np.inf)
    minv = 1.0 / diag
    agg, factor, W = coarse
    n_agg = factor.shape[1]
    dpbtrs = lapack.dpbtrs  # once per solve, not per iteration

    def coarse_solve(y):
        return dpbtrs(factor, y, lower=1, overwrite_b=1)[0]

    def deflate(x, r):
        c = coarse_solve(np.bincount(agg, r, minlength=n_agg))
        x += c[agg]
        r -= W.T @ c  # A Z c, as A is symmetric

    def precondition(r):
        z = minv * r
        rz = r @ z
        if not 0.0 < rz < np.inf:
            raise LinearSolveError(
                f"preconditioned residual product r.z = {rz!r}", np.inf)
        z -= coarse_solve(W @ z)[agg]
        return z, rz

    return deflate, precondition


def _pcg(A, b, limit, max_iter, x0, coarse, Ax0=None):
    """Deflated conjugate gradients on the coarse space ``coarse`` of
    :func:`_coarse`, with Jacobi (:func:`_preconditioner`), started from
    ``x0``, or from zero when ``x0`` is None.

    ``Ax0`` is ``A x0`` when the caller has already formed it; from zero,
    ``A x`` is zero and is not formed either.  Every start, the first and
    each restart, first corrects the iterate on the coarse space, and
    returns it if its true residual then passes: when each aggregate
    holds one dof, the correction is the answer, and CG would have no
    direction left.  The recurrence residual only decides when to look:
    an iterate is returned once its true residual passes :func:`_meets`,
    and CG restarts from the true residual while it does not.  CG also
    restarts when the recurrence residual, having fallen below the one
    its pass started from, climbs back above it: the pass has lost all
    its progress.  On a near-singular system, such as a phase system with
    no pinned node, the deflated recurrence does that once it nears the
    floor that rounding leaves, and then grows without bound.  A
    direction whose curvature ``p.Ap`` is not positive and finite raises
    :class:`LinearSolveError`, since ``A`` is then not SPD.  So does a
    restart whose true residual is not below the previous restart's: the
    iterates have reached that floor, above ``limit``, and more restarts
    would only spend ``max_iter``.  The error carries the backward error
    reached (:meth:`_Limit.error`).

    ``limit`` is the :class:`_Limit` of the contract.  Its bound depends
    on the iterate through ``||x||``, so each of the three tests, on the
    true residual at the top of a pass, on the residual after the
    coarse correction and on the recurrence residual after each update,
    takes the norm of the iterate it tests, as it stands after its
    update.  Returns the iterate, whether it passed, and the number of
    CG iterations.
    """
    deflate, precondition = _preconditioner(A, coarse)
    if x0 is None:
        x, Ax = np.zeros(b.shape[0]), np.zeros(b.shape[0])
    else:
        x, Ax = x0.copy(), (A @ x0 if Ax0 is None else Ax0)
    k, previous = 0, np.inf
    while True:
        if _meets(Ax, b, x, limit):
            return x, True, k
        if k == max_iter:
            return x, False, k
        r = b - Ax
        if k:
            rnorm = np.linalg.norm(r)
            if not rnorm < previous:
                error = limit.error(rnorm, x)
                raise LinearSolveError(
                    f"PCG stalled after {k} iterations: a restart left the "
                    f"backward error at {error:.3e}, no lower than the "
                    f"restart before it", error)
            previous = rnorm
        deflate(x, r)
        start = np.linalg.norm(r)
        if start <= limit.bound(x):
            Ax = A @ x
            if _meets(Ax, b, x, limit):
                return x, True, k
            r = b - Ax
            start = np.linalg.norm(r)
        z, rz = precondition(r)
        p, low = z, start
        while k < max_iter:
            k += 1
            Ap = A @ p
            pAp = p @ Ap
            if not 0.0 < pAp < np.inf:
                raise LinearSolveError(
                    f"CG direction with curvature p.Ap = {pAp!r}: the "
                    f"matrix is not SPD", np.inf)
            alpha = rz / pAp
            x += alpha * p
            r -= alpha * Ap
            rnorm = np.linalg.norm(r)
            if rnorm <= limit.bound(x) or rnorm > start > low:
                break
            low = min(low, rnorm)
            z, rz_new = precondition(r)
            p = z + (rz_new / rz) * p
            rz = rz_new
        Ax = A @ x


def _factor(A):
    """SuperLU factor of an SPD block, or :class:`LinearSolveError`.

    Every system here is SPD, so SuperLU may keep the diagonal pivots of
    a symmetric fill-reducing ordering.  A zero pivot column still raises,
    and is reported like any other failed solve.
    """
    try:
        return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise LinearSolveError(
            f"direct factorization failed: {exc}", np.inf) from exc


def _direct(A, b, limit):
    """Factor ``A`` and solve; returns the checked answer and the factor."""
    lu = _factor(A)
    x = lu.solve(b)
    Ax = A @ x
    if not _meets(Ax, b, x, limit):
        rel = limit.error(np.linalg.norm(Ax - b), x)
        raise LinearSolveError(
            f"direct solve residual {rel:.3e} exceeds tolerance", rel)
    return x, lu


def solve_spd(sys: SparseSystem, method: str = "pcg",
              guess: np.ndarray | None = None) -> np.ndarray:
    """Solve ``sys.matrix x = sys.rhs`` to the method's residual test.

    Under ``"pcg"`` that is ``||Ax-b|| <= RTOL (||A||_inf ||x|| + ||b||)``,
    a normwise backward error of at most :data:`RTOL`, with ``||A||_inf``
    computed once per call; under ``"direct"``, ``||Ax-b|| <=
    max(RTOL, 1e-8) ||b||`` (:func:`_limit`).  ``RTOL`` is read at call
    time.  On a restricted system the contract applies to the free block
    alone.

    Without a guess, ``method`` decides: ``"direct"`` factors the system
    (sparse LU in symmetric mode) and ``"pcg"`` runs CG with Jacobi,
    deflated by the aggregation coarse space of :func:`_coarse`
    (:func:`_pcg`), which factors only the coarse operator.

    ``guess``, one value per row, is tried before any solver work, and the
    same residual test decides each step: the guess itself is returned if
    it passes (never when its norm is infinite); else its Galerkin
    multiple ``alpha g`` with ``alpha = g.b / g.Ag`` (only when
    ``g.Ag > 0``), if that passes; else
    the deflated CG starts from ``alpha g`` (or from zero when there is
    no multiple), under either method and to that method's test, so no
    fine system is factored.  Hand over a guess that lies near the
    answer, such as the previous iterate of the same field: CG from it
    then needs few iterations.  Every failure raises
    :class:`LinearSolveError`: a right-hand side or, under ``"pcg"``, a
    matrix norm that is not finite, a failed coarse factorization, a CG
    direction of nonpositive curvature and a CG that misses the contract
    within :data:`MAX_ITER` iterations included.  With no unknown, or an
    accepted guess, nothing is factored.
    """
    A, b = sys.matrix, sys.rhs
    limit = _limit(method, b, A)
    if not len(b):
        return np.zeros(0)
    if guess is None and method == "direct":
        return _direct(A, b, limit)[0]
    x0 = Ax0 = None
    if guess is not None:
        g = np.array(guess, dtype=float)
        Ag = A @ g
        if _meets(Ag, b, g, limit):
            return g
        gAg = g @ Ag
        if gAg > 0.0:
            # The residual of the multiple comes from its own product, not
            # from alpha * Ag, so it is the residual of what is returned.
            x0 = (g @ b / gAg) * g
            Ax0 = A @ x0
            if _meets(Ax0, b, x0, limit):
                return x0

    x, met, iters = _pcg(A, b, limit, MAX_ITER, x0, _coarse(sys), Ax0)
    if not met:
        error = limit.error(np.linalg.norm(A @ x - b), x)
        raise LinearSolveError(
            f"PCG stopped after {iters} iterations with backward error "
            f"{error:.3e} > {limit.rtol:.1e}", error)
    return x


def solve_field(sys: SparseSystem, method: str = "pcg",
                guess: np.ndarray | None = None) -> ScalarField:
    """Solve a restricted system and return the whole field.

    Free values come from :func:`solve_spd`, prescribed ones from
    ``sys.prescribed`` and hanging ones from their masters.
    ``guess`` is a full-length nodal vector on the same mesh; its free
    values ``guess[sys.free]`` are handed to :func:`solve_spd`, which
    returns them, or their Galerkin multiple, untouched when they already
    meet the residual contract and otherwise starts from them.
    """
    if sys.free is None:
        raise ValueError("solve_field takes a system from apply_dirichlet")
    free_guess = None if guess is None else np.asarray(guess)[sys.free]
    return _expand(sys, solve_spd(sys, method=method, guess=free_guess))


def solve_factored(sys: SparseSystem) -> tuple[ScalarField, object | None]:
    """Direct solve of a restricted system that also hands back its factor.

    The field is the one :func:`solve_field` returns with
    ``method="direct"``, bit for bit.  The factor is SuperLU's, for
    :func:`family_tangents`; it lives as long as the caller keeps it.  With
    no unknown, nothing is factored and the factor is None.
    """
    if sys.free is None:
        raise ValueError("solve_factored takes a system from apply_dirichlet")
    A, b = sys.matrix, sys.rhs
    if not len(b):
        return _expand(sys, np.zeros(0)), None
    x, lu = _direct(A, b, _limit("direct", b))
    return _expand(sys, x), lu


def family_tangents(factor, reaction: sp.spmatrix, free: np.ndarray,
                    x: np.ndarray, count: int) -> list[np.ndarray]:
    """Tangents of a family of systems at a member solved by ``factor``.

    The member ``A x = b`` belongs to a family ``(K + s R) x = b`` whose
    matrix moves along ``R``, given folded and unrestricted as
    ``reaction``; for a phase system that is the strain-drive mass.
    ``factor`` is the factor of ``A`` from :func:`solve_factored`, ``free``
    the free dofs of ``A``'s system and ``x`` the free values of its answer.
    Returns the free values of ``t_j = (A^-1 R)^j x`` for
    ``j = 1..count``, the Krylov sequence of ``A^-1 R`` from ``x``, where
    ``R`` acts on free values through the unrestricted matrix,
    ``(R x_full)[free]`` with ``x_full`` zero off the free dofs.  When the
    prescribed values are zero, as a crack pins them, ``(-1)^j t_j`` is the
    ``j``-th Taylor coefficient of ``x`` in ``s``, so a Galerkin projection
    onto ``x, t_1, ..., t_count`` has an error of order ``count + 1`` in the
    change of ``s``.  Each tangent costs one product with ``R`` and one
    pair of triangular solves; nothing is factored.
    """
    full = np.zeros(reaction.shape[1])
    tangents = [x]
    for _ in range(count):
        full[free] = tangents[-1]
        tangents.append(factor.solve((reaction @ full)[free]))
    return tangents[1:]


def orthonormalize(vectors) -> list[np.ndarray]:
    """Orthonormal rows spanning ``vectors``, taken in order.

    Gram-Schmidt, run twice to keep the rows orthogonal to rounding.  A
    vector that lies within ``1e-12`` of the span of the rows before it,
    relative to its norm, adds no direction and is dropped; so is a zero
    vector.
    """
    rows = []
    for vector in vectors:
        r = np.array(vector, dtype=float)
        for _ in range(2):
            for q in rows:
                r -= (q @ r) * q
        norm = np.linalg.norm(r)
        if norm > 1e-12 * np.linalg.norm(vector):
            rows.append(r / norm)
    return rows


def project(sys: SparseSystem, basis
            ) -> tuple[ScalarField | None, bool, np.ndarray | None]:
    """Galerkin projection of a restricted system onto the span of ``basis``.

    ``basis`` is a list of orthonormal rows of free values on ``sys``, as
    :func:`orthonormalize` gives them; they are the rows of ``Q^T``, used as
    they are, and the small system ``Q^T A Q c = Q^T b`` gives
    ``x = Q c``.  Returns the whole field of ``x``, expanded as
    :func:`solve_field` expands a solution, whether ``x`` meets the
    residual test of a ``"direct"`` :func:`solve_spd`, and the
    residual ``A x - b`` that the test was taken from, one value per free
    dof, for a caller that weighs the answer further.  With an empty basis
    it returns ``(None, False, None)``.  Nothing is factored.

    An accepted projection meets the same contract as a solve, but its bits
    depend on the basis.  Use it only for a decision that its error cannot
    flip, and return a solver's answer: then a run repeats its output
    whatever fields the basis held.
    """
    if sys.free is None:
        raise ValueError("project takes a system from apply_dirichlet")
    if not basis:
        return None, False, None
    A, b = sys.matrix, sys.rhs
    limit = _limit("direct", b)
    qt = np.array(basis)
    x = np.linalg.solve(qt @ (A @ qt.T), qt @ b) @ qt
    Ax = A @ x
    return _expand(sys, x), _meets(Ax, b, x, limit), Ax - b


def integrate(mesh: Mesh, integrand) -> float:
    """Quadrature of a per-point integrand over the whole mesh."""
    f = _coefficient(mesh, integrand)
    return float((f @ GAUSS2.weights) @ mesh.cell_h ** 2)


def l2_relative_error(a, b) -> float:
    """``||a - b|| / ||a||`` over nodal coefficients.

    Falls back to the absolute norm (with a log note) when ``||a|| = 0``.
    """
    av = a.values if isinstance(a, ScalarField) else np.asarray(a, dtype=float)
    bv = b.values if isinstance(b, ScalarField) else np.asarray(b, dtype=float)
    diff = np.linalg.norm(av - bv)
    denom = np.linalg.norm(av)
    if denom == 0.0:
        log.debug("l2_relative_error: zero reference norm, returning absolute")
        return diff
    return diff / denom
