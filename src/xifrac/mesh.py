"""Quadtree meshes of the unit square with hanging-node constraints.

The mesh is a 2:1-balanced quadtree over ``(0,1)^2``.  Every active cell
is a square of size ``h = 2**-level`` addressed by ``(level, i, j)`` where
``(i*h, j*h)`` is its lower-left corner.  Cells and vertices live in
integer arrays: cell keys and exact dyadic vertex coordinates (units of
``2**-_MAXLEVEL``) are packed into sorted codes, so every lookup is an
exact ``searchsorted``.  The key array is the only representation of the
tree: one containing-cell lookup, which probes the sorted codes level by
level, finds the cell holding a position for refinement balance,
coarsening checks, field transfer and point location alike.

A mesh is built from its keys in a few array passes: one stable sort of
the cells' corner codes numbers the vertices and counts the cells at each,
and the count finds the hanging vertices (an interior vertex at the
corner of two cells only), whose masters follow from its coordinates.
The folded CSR pattern (:attr:`Mesh.csr_pattern`) is built on first use,
in passes linear in its terms, and so are the coarse squares of the
vertices (:attr:`Mesh.coarse_squares`), the aggregates of the two-level
CG of :mod:`xifrac.fem`.

Meshes are immutable: :func:`refine` and :func:`coarsen` return new
``Mesh`` objects, or their input when nothing changes.  Fields carry the
id of the mesh they live on; :func:`transfer_field` moves a block of them
from a mesh onto a refinement of it with a single sparse operator.
"""

from __future__ import annotations

import importlib
import itertools
import logging
from functools import cached_property

import numpy as np


class LazyModule:
    """A module imported at the first read of one of its attributes.

    ``mesh``, ``fem`` and ``phasefield`` hold scipy's sparse and
    linear-algebra modules as these, so that importing xifrac, setting a
    run up and reading its output back load numpy alone; a module-level
    ``__getattr__`` would not serve the global lookups of the module's own
    functions.  An attribute read once is kept on the holder, so later
    reads cost a plain attribute lookup, and one set on the holder, such
    as a test's spy, replaces the module's for the holder's users alone.
    """

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        value = getattr(importlib.import_module(self._name), attr)
        setattr(self, attr, value)
        return value


sp = LazyModule("scipy.sparse")

log = logging.getLogger(__name__)

# Integer coordinate resolution.  Levels up to _MAXLEVEL are representable.
_MAXLEVEL = 20
_SCALE = 1 << _MAXLEVEL

_mesh_ids = itertools.count()

# Boundary tags (counterclockwise from the bottom edge).
BOTTOM, RIGHT, TOP, LEFT = 1, 2, 3, 4

# Child offsets (a, b), lower-left first, x fastest.
_CHILD_POS = ((0, 0), (1, 0), (0, 1), (1, 1))


def _cell_code(l, i, j):
    return (l << 2 * _MAXLEVEL) | (i << _MAXLEVEL) | j


def _vertex_code(x, y):
    return (x << (_MAXLEVEL + 1)) | y


def _find(sorted_codes, codes):
    """Position of each code in ``sorted_codes``, -1 where it is absent."""
    pos = np.minimum(np.searchsorted(sorted_codes, codes), len(sorted_codes) - 1)
    return np.where(sorted_codes[pos] == codes, pos, -1)


def _bits(a):
    """``a`` as a key that equals another key only for the same bits: an
    array as its dtype, shape and bytes, anything else as it is."""
    if isinstance(a, np.ndarray):
        return a.dtype.str, a.shape, a.tobytes()
    return a


def frozen(a, dtype=None) -> np.ndarray:
    """``a`` as a read-only C-contiguous array, of ``dtype`` if given: ``a``
    itself when it is one already, else a copy.  What a mesh keeps is
    frozen, because it is handed to every caller (:meth:`Mesh.reuse`)."""
    a = np.ascontiguousarray(a, dtype=dtype)
    a.flags.writeable = False
    return a


def _q1(s, t):
    """The four bilinear basis values at ``(s, t)``, stacked on a last axis."""
    return np.stack([(1 - s) * (1 - t), s * (1 - t), s * t, (1 - s) * t],
                    axis=-1)


def _containing(codes, l, i, j) -> np.ndarray:
    """Position in the sorted cell ``codes`` of the cell equal to or
    containing each position ``(l, i, j)``; -1 where none does.

    A position gets -1 when it lies in a region tiled by finer cells.
    Probes one level at a time, up to the coarsest level in ``codes``.
    """
    pos = np.full(len(l), -1)
    coarsest = int(codes[0]) >> 2 * _MAXLEVEL
    for up in range(int(np.max(l, initial=coarsest)) - coarsest + 1):
        todo = np.flatnonzero(pos < 0)
        if not len(todo):
            break
        pos[todo] = _find(codes, _cell_code(l[todo] - up, i[todo] >> up,
                                            j[todo] >> up))
    return pos


def _child_keys(keys: np.ndarray) -> np.ndarray:
    """The four children of each ``(l, i, j)`` row, in :data:`_CHILD_POS`
    order, as ``4 * len(keys)`` rows."""
    l, i, j = keys.T[:, :, None]
    a, b = np.array(_CHILD_POS).T
    return np.stack(np.broadcast_arrays(l + 1, 2 * i + a, 2 * j + b),
                    axis=-1).reshape(-1, 3)


def _edge_neighbours(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Same-level positions across the edges of each ``(l, i, j)`` row.

    Returns the positions inside the unit square and, for each, the row
    it neighbours.
    """
    l, i, j = keys.T
    nbr = np.concatenate([np.stack([l, i + di, j + dj], axis=1)
                          for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1))])
    n = 1 << nbr[:, :1]
    inside = np.flatnonzero(((nbr[:, 1:] >= 0) & (nbr[:, 1:] < n)).all(axis=1))
    return nbr[inside], inside % len(keys)


class ConstraintSet:
    """Hanging-vertex interpolation constraints.

    Hanging vertex ``hanging[k]`` takes the value
    ``0.5 * (pairs[k, 0] + pairs[k, 1])``, the exact bilinear trace on the
    coarse edge.  In a 2:1-balanced mesh no master is itself hanging, so
    one application of the constraints satisfies all of them.
    """

    def __init__(self, hanging: np.ndarray, pairs: np.ndarray):
        self.hanging = hanging  # sorted vertex ids
        self.pairs = pairs      # (len(hanging), 2) master vertex ids

    def __len__(self):
        return len(self.hanging)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Return a copy with hanging entries (rows) replaced by master averages."""
        out = np.array(values, dtype=float)
        out[self.hanging] = 0.5 * (out[self.pairs[:, 0]]
                                   + out[self.pairs[:, 1]])
        return out

    def fold(self, values: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`apply`: hanging entries split onto masters."""
        out = np.array(values, dtype=float)
        np.add.at(out, self.pairs, 0.5 * out[self.hanging, None])
        out[self.hanging] = 0.0
        return out


class Mesh:
    """Immutable 2:1-balanced quadtree mesh of the unit square.

    ``active`` holds the ``(level, i, j)`` keys of the cells, as tuples or
    as rows of an integer array.  Cells are numbered in sorted key order,
    vertices in order of first appearance over the cells' corners
    (counterclockwise from the lower left).  Building one sorts the corner
    codes once; every other step is a pass over the cells' corners or the
    vertices.  ``cell_h`` and ``cell_inv_h`` are exact powers of two.
    Levels must satisfy ``0 <= level_min <= level <= level_max <=
    _MAXLEVEL`` and every cell must lie inside the square, ``0 <= i, j <
    2^level``; else :class:`ValueError`.  Whether the cells tile the
    square is :meth:`tiles_domain`'s question.
    """

    def __init__(self, active, level_min: int, level_max: int):
        if not isinstance(active, np.ndarray):
            active = list(active)
        keys = np.array(active, dtype=np.int64).reshape(-1, 3)
        if not len(keys):
            raise ValueError("mesh needs at least one active cell")
        if not 0 <= level_min <= level_max <= _MAXLEVEL:
            raise ValueError(f"need 0 <= level_min <= level_max <= "
                             f"{_MAXLEVEL}, got {level_min} and {level_max}")
        l, i, j = keys.T
        if l.min() < level_min or l.max() > level_max:
            raise ValueError("cell level outside [level_min, level_max]")
        if np.any((i | j) >> l):
            raise ValueError("cell outside the unit square")
        self._codes, first = np.unique(_cell_code(*keys.T), return_index=True)
        self._keys = keys = keys.take(first, axis=0)
        self.id = next(_mesh_ids)
        self.level_min = level_min
        self.level_max = level_max

        levels = keys[:, 0].copy()
        self.cell_levels = levels
        # numpy's ldexp loops take an int32 exponent.
        exponent = levels.astype(np.int32)
        self.cell_h = np.ldexp(1.0, -exponent)
        # 1 / cell_h, exactly: a product with it has the bits of a division
        # by cell_h.
        self.cell_inv_h = np.ldexp(1.0, exponent)
        self.n_cells = len(keys)

        # Corner positions in integer units, counterclockwise per cell.
        u = _SCALE >> levels
        x0, y0 = keys[:, 1] * u, keys[:, 2] * u
        cx = np.stack([x0, x0 + u, x0 + u, x0], axis=1).ravel()
        cy = np.stack([y0, y0, y0 + u, y0 + u], axis=1).ravel()
        corners = _vertex_code(cx, cy)
        # A stable sort groups the copies of each code with its first
        # appearance in front; counting first appearances numbers the
        # vertices in that order.
        order = np.argsort(corners, kind="stable")
        ranked = corners[order]
        new = np.empty(len(ranked), dtype=bool)
        new[0] = True
        np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        copies = np.diff(starts, append=len(ranked))
        leads = np.zeros(len(ranked), dtype=bool)
        leads[order[starts]] = True
        self._vcodes = ranked[starts]
        self._vrank = (np.cumsum(leads) - 1)[order[starts]]
        ids = np.empty(len(ranked), dtype=np.intp)
        ids[order] = np.repeat(self._vrank, copies)
        self.cell_vertices = ids.reshape(-1, 4)
        self.n_vertices = len(starts)
        coded = np.empty_like(self._vcodes)
        coded[self._vrank] = self._vcodes
        self._vertex_xy = np.stack([coded >> (_MAXLEVEL + 1),
                                    coded & (2 * _SCALE - 1)], axis=1)
        self.vertex_coords = self._vertex_xy / _SCALE
        self.cell_origin = self.vertex_coords[self.cell_vertices[:, 0]]

        cells_at = np.empty(self.n_vertices, dtype=np.intp)
        cells_at[self._vrank] = copies
        self._constraints = self._find_hanging(cells_at)
        self._boundary = self._tag_boundary()

    # -- construction helpers -------------------------------------------

    def _vertex_ids(self, x, y):
        """Ids of the vertices at integer positions; -1 where none."""
        pos = _find(self._vcodes, _vertex_code(x, y))
        return np.where(pos >= 0, self._vrank[pos], -1)

    def _find_hanging(self, cells_at) -> ConstraintSet:
        """The constraints, given the number of cells at each vertex.

        An interior vertex is a corner of four cells, or of two when it
        hangs: it is then the midpoint of an edge of the coarser cell on
        its other side.  The coordinate along that edge is an odd multiple
        of the two fine cells' size and the other an even one, so the size
        is the lowest set bit of ``x | y``, and the edge's ends, the
        masters, lie that far from the vertex along it.
        """
        x, y = self._vertex_xy.T
        inside = (x > 0) & (x < _SCALE) & (y > 0) & (y < _SCALE)
        hanging = np.flatnonzero((cells_at == 2) & inside)
        x, y = x[hanging], y[hanging]
        size = (x | y) & -(x | y)
        dx = np.where(x & size, size, 0)
        dy = size - dx
        pairs = np.stack([self._vertex_ids(x - dx, y - dy),
                          self._vertex_ids(x + dx, y + dy)], axis=1)
        return ConstraintSet(hanging, pairs)

    def _tag_boundary(self) -> dict[int, np.ndarray]:
        x = self.vertex_coords[:, 0]
        y = self.vertex_coords[:, 1]
        return {
            BOTTOM: np.flatnonzero(y == 0.0),
            RIGHT: np.flatnonzero(x == 1.0),
            TOP: np.flatnonzero(y == 1.0),
            LEFT: np.flatnonzero(x == 0.0),
        }

    # -- queries ----------------------------------------------------------

    @cached_property
    def products(self) -> dict:
        """What :meth:`reuse` keeps of each named product of fields on this
        mesh: a list of ``(inputs, output)`` pairs, the most recently used
        last.

        The products are those of fields that an elastic load step leaves
        unchanged: the free block of the folded displacement operator of
        v, the diffusion matrix and load of xi, the cell xi of v, the
        parts of the energies that depend on v and xi alone (see
        :mod:`xifrac.phasefield`), and the basis that the direct first
        phase sweeps of one xi and crack are projected onto (see
        :func:`xifrac.driver._first_sweep`); and ``|grad u|^2`` of the
        last u, which two callers share.  The restriction plans of systems
        on the mesh's pattern are products too, one per free set, for the
        few most recent free sets (see :func:`xifrac.fem.free_block`).
        Kept on the mesh so that the entries die with it.  An entry holds
        its inputs' bytes and strings and an output of arrays, matrices
        and numbers (a ``FreeBlock`` among them), or a record of them that
        its one caller updates, never the mesh or an object that refers to
        it (a ``SparseSystem`` or a ``ScalarField``): that would make a
        reference cycle, and the mesh and its entries would then live until
        the cyclic garbage collector runs.
        """
        return {}

    def reuse(self, name: str, inputs: tuple, compute, keep: int = 1):
        """``compute()``, or what it returned for the same ``inputs``.

        ``inputs`` holds the arrays and strings that the product ``name``
        depends on besides the mesh.  When they equal, bit for bit, the
        inputs of one of the last ``keep`` outputs kept under ``name``,
        that output comes back, becomes the most recently used, and
        ``compute`` is not called.  Otherwise ``compute()``'s output is
        kept with the inputs, the least recently used output is dropped if
        ``name`` then keeps more than ``keep``, and the output is
        returned.  Arrays are kept and compared as their bytes, so
        ``-0.0`` and ``0.0``, which ``np.array_equal`` calls equal,
        differ, as they may in what the product computes; and since the
        bytes are a copy that nothing can change, an in-place edit of the
        caller's arrays cannot make a stale match.  The output is
        handed out on every match, so it must be immutable (read-only
        arrays (:func:`frozen`), numbers, tuples of them) or left
        unchanged by its users, unless it is a record that only the one
        caller of ``name`` updates.
        """
        key = tuple(map(_bits, inputs))
        kept = self.products.setdefault(name, [])
        for i, (k, out) in enumerate(kept):
            if k == key:
                kept.append(kept.pop(i))
                return out
        out = compute()
        kept.append((key, out))
        del kept[:-keep]
        return out

    @cached_property
    def csr_pattern(self) -> tuple[np.ndarray, np.ndarray, sp.csr_matrix]:
        """CSR structure of ``T^T A T`` and the map from cell blocks onto it.

        ``A`` sums one ``4 x 4`` block per cell and ``T`` is the hanging-node
        prolongation.  Returns ``(indptr, indices, fold)``; hanging rows and
        columns are empty, and ``fold`` takes the blocks, raveled in C
        order, to the CSR data, summing in cell order.  ``indptr`` and
        ``indices`` are read-only, because every assembled matrix shares
        them.

        A corner has one image, its vertex, or two, the masters of a
        hanging corner, each of weight 1/2.  Block entry ``(c, a, b)`` has
        a term for every pair of an image of corner ``a`` and an image of
        corner ``b``, the images of ``a`` outermost, weighted by the
        product of their weights; column ``16 c + 4 a + b`` of ``fold``
        holds them.  ``fold`` is CSR, one row per pattern entry with its
        block entries ascending, so a product sums each entry's terms in
        cell order without scattering.  The terms are formed directly, by
        an ``np.repeat`` of each entry's first images over its number of
        terms, and found in the pattern by grouping them by row and
        sorting each row by column: no pass is longer than the list of
        terms, and no array is padded to the four terms an entry may
        have.
        """
        n, nc, cons = self.n_vertices, self.n_cells, self._constraints
        corner = self.cell_vertices.ravel().astype(np.int32)
        which = np.full(n, -1)
        which[cons.hanging] = np.arange(len(cons))
        hangs = np.flatnonzero(which[corner] >= 0)
        first, second = corner, corner.copy()
        first[hangs], second[hangs] = cons.pairs[which[corner[hangs]]].T
        more = np.zeros(4 * nc, dtype=np.int8)
        more[hangs] = 1
        # Entry e = 16 c + 4 a + b joins corners ka = 4 c + a and
        # kb = 4 c + b, and has (1 + ma) << mb terms, for corners with
        # 1 + ma and 1 + mb images.
        # Each array is dropped once spent, which keeps the build's peak
        # near 40 bytes per block entry.
        entry = np.arange(16 * nc, dtype=np.int32)
        ka, kb = entry >> 2, (entry >> 4 << 2) | (entry & 3)
        del entry
        ma, mb = more.take(ka), more.take(kb)
        per = (ma + 1) << mb
        starts = np.zeros(16 * nc + 1, dtype=np.int32)
        np.cumsum(per, dtype=np.int32, out=starts[1:])
        # Every term takes the first images; with the images of a
        # outermost, the second image of a goes to the last 1 + mb terms
        # of its entry and that of b to the odd ones.
        row = np.repeat(first.take(ka), per)
        col = np.repeat(first.take(kb), per)
        two = np.flatnonzero(ma)
        row[starts[two + 1] - 1] = row[starts[two + 1] - 1 - mb[two]] = \
            second.take(ka[two])
        two = np.flatnonzero(mb)
        col[starts[two + 1] - 1] = col[starts[two] + 1] = second.take(kb[two])
        del ka, kb, ma, mb
        # A term weighs 1, 1/2 or 1/4, the inverse of its entry's count.
        weight = np.repeat(per, per)
        del per
        weight = np.divide(1.0, weight)
        # Group the terms by row with scipy's conversion from COO, a
        # counting sort, which takes the term numbers as columns; then
        # sort each row by column.  A pattern entry starts at each change
        # of column and at the start of each row.
        number = np.arange(len(row), dtype=np.int32)
        by_row = sp.csr_matrix((col, (row, number)), shape=(n, len(row)))
        grouped = sp.csr_matrix((by_row.indices, by_row.data, by_row.indptr),
                                shape=(n, n))
        del by_row, row, col, number
        grouped.sort_indices()
        number, col, rows = grouped.data, grouped.indices, grouped.indptr
        new = np.empty(len(col), dtype=bool)
        np.not_equal(col[1:], col[:-1], out=new[1:])
        new[rows[:-1][np.diff(rows) > 0]] = True
        before = np.zeros(len(col) + 1, dtype=np.int32)
        np.cumsum(new, dtype=np.int32, out=before[1:])
        indptr = frozen(before[rows], np.int32)
        indices = frozen(col[new], np.int32)
        slot = np.empty(len(col), dtype=np.int32)
        slot[number] = before[1:] - 1
        del grouped, number, col, new, before
        # Transposed by a counting sort, each row lists its block entries
        # in ascending order, so a CSR product adds them in cell order.
        fold = sp.csc_matrix((weight, slot, starts),
                             shape=(len(indices), 16 * nc)).tocsr()
        return indptr, indices, fold

    @cached_property
    def coarse_squares(self) -> tuple[np.ndarray, int]:
        """The square two levels coarser than the finest cell at each
        vertex, which is the aggregate of the vertex's dof in the two-level
        CG (:func:`xifrac.fem._coarse`).

        A vertex whose finest cell has level ``L`` lies in the square of
        level ``max(L - 2, 0)`` that holds it: its left and bottom edges
        belong to it, and a vertex on the right or top side of the unit
        square belongs to the last square there.  Returns the number of
        each vertex's square, read-only, and the number of squares.  The
        squares are numbered by the ``(y, x)`` of their lower-left corners,
        row by row, and a coarser square comes before a finer one with the
        same corner.  On a uniform grid of level ``L >= 2`` they are the
        ``4^(L-2)`` squares of level ``L - 2``, numbered row by row.
        """
        finest = np.zeros(self.n_vertices, dtype=np.int64)
        # A vertex is the same corner of at most one cell.
        for corner in self.cell_vertices.T:
            finest[corner] = np.maximum(finest[corner], self.cell_levels)
        level = np.maximum(finest - 2, 0)
        shift = _MAXLEVEL - level
        # The lower-left corner of the square, in the order (y, x, level).
        x, y = (np.minimum(self._vertex_xy, _SCALE - 1) >> shift[:, None]
                << shift[:, None]).T
        code = ((y << _MAXLEVEL | x) << 5) | level
        squares, number = np.unique(code, return_inverse=True)
        return frozen(number, np.intp), len(squares)

    @property
    def constraints(self) -> ConstraintSet:
        return self._constraints

    def boundary_vertices(self, tag: int) -> np.ndarray:
        return self._boundary[tag]

    def cell_ids(self, l, i, j) -> np.ndarray:
        """Ids of the cells with keys ``(l, i, j)``; -1 where not active."""
        return _find(self._codes, _cell_code(l, i, j))

    def vertex_ids(self, coords) -> np.ndarray:
        """Ids of the vertices at ``(x, y)`` rows of ``coords``; -1 where none.

        Points are matched exactly after rounding to the dyadic grid.
        """
        xy = np.rint(np.asarray(coords) * _SCALE).astype(np.int64)
        return self._vertex_ids(xy[:, 0], xy[:, 1])

    def tiles_domain(self) -> bool:
        """Whether the active cells tile the unit square.  In Z order each
        cell, inside the square by construction, covers one interval of the
        finest positions; sorted apart, each interval must end where the
        next starts."""
        l, i, j = self._keys.T
        z = np.stack([i, j])
        for k, mask in ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF),
                        (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333),
                        (1, 0x5555555555555555)):
            z = (z | z << k) & mask  # spread the bits to the even places
        shift = 2 * (l.max() - l)
        start = (z[0] | z[1] << 1) << shift
        start, end = np.sort(start), np.sort(start + (1 << shift))
        return bool(start[0] == 0 and end[-1] == 1 << 2 * l.max()
                    and np.array_equal(start[1:], end[:-1]))

    def locate(self, x, y):
        """Active cell ids containing the points (boundary points included).

        ``x`` and ``y`` are scalars or arrays that broadcast together; a
        scalar point gives an ``int``.
        """
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                                   np.asarray(y, dtype=float))
        if not np.all((x >= 0.0) & (x <= 1.0) & (y >= 0.0) & (y <= 1.0)):
            raise ValueError("point outside the unit square")
        # The finest-level box holding a point (half-open, clamped at
        # x, y = 1) lies in the active cell whose box holds it.
        n = 1 << self.level_max
        ij = (np.stack([x.ravel(), y.ravel()]) * n).astype(np.int64)
        cells = _containing(self._codes, np.full(x.size, self.level_max),
                            *np.minimum(ij, n - 1)).reshape(x.shape)
        if np.any(cells < 0):
            raise RuntimeError("active cells do not tile the domain")
        return int(cells) if cells.ndim == 0 else cells

    def eval_field(self, values: np.ndarray, x, y):
        """Evaluate the piecewise-bilinear interpolant of nodal values.

        Takes points like :meth:`locate`; a scalar point gives a ``float``.
        """
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        c = self.locate(x, y)
        origin, h = self.cell_origin[c], self.cell_h[c]
        s, t = (x - origin[..., 0]) / h, (y - origin[..., 1]) / h
        corner = np.asarray(values)[self.cell_vertices[c]]
        out = (corner * _q1(s, t)).sum(axis=-1)
        return float(out) if np.ndim(out) == 0 else out


def build_uniform(level: int, *, level_min: int | None = None,
                  level_max: int | None = None) -> Mesh:
    """Uniform mesh with ``4**level`` cells of size ``2**-level``.

    ``level_max`` defaults to ``level + 4``, room for four refinements
    below the grid; the driver always passes its ``mesh.level_max``.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    if level_min is None:
        level_min = level
    if level_max is None:
        level_max = level + 4
    n = 1 << level
    i, j = np.divmod(np.arange(n * n), n)
    return Mesh(np.stack([np.full(n * n, level), i, j], axis=1),
                level_min, level_max)


def refine(mesh: Mesh, flags) -> Mesh:
    """Split flagged cells into four children and rebalance.

    ``flags`` is a sequence of cell ids.  Flags at ``level_max`` are
    skipped with a log message, and duplicate flags are idempotent.
    Returns ``mesh`` itself when no cell is split.  The result is the
    coarsest 2:1-balanced mesh in which every flagged cell is split.
    """
    cells = np.unique(np.asarray(flags, dtype=np.intp))
    at_max = mesh.cell_levels[cells] >= mesh.level_max
    if at_max.any():
        log.info("refine: %d flagged cells already at level_max=%d, skipping",
                 at_max.sum(), mesh.level_max)
    if at_max.all():
        return mesh
    keys, split = mesh._keys, cells[~at_max]
    while len(split):
        kids = _child_keys(keys[split])
        keys = np.concatenate([np.delete(keys, split, axis=0), kids])
        codes = _cell_code(*keys.T)
        order = np.argsort(codes)
        keys, codes = keys[order], codes[order]
        # Only a new cell can have an edge neighbour two levels coarser;
        # splitting that neighbour makes new cells in turn.
        nbr, _ = _edge_neighbours(kids)
        pos = _containing(codes, *nbr.T)
        coarse = (pos >= 0) & (keys[pos, 0] <= nbr[:, 0] - 2)
        split = np.unique(pos[coarse])
    return Mesh(keys, mesh.level_min, mesh.level_max)


def coarsen(mesh: Mesh, flags) -> Mesh:
    """Merge flagged sibling quadruples back into their parents.

    A merge happens only when all four siblings are flagged, the parent
    level stays >= ``level_min`` and 2:1 balance survives.  Anything else
    is silently skipped; ``mesh`` itself is returned when nothing merges.
    The merged parents are the largest set of candidates whose merge
    leaves the mesh balanced.

    No run calls it and no field transfer follows it:
    :func:`transfer_field` rejects a merged mesh.  It is kept only because
    the benchmark's layer trace times it as the ``mesh.coarsen`` span.
    """
    l, i, j = mesh._keys[np.unique(np.asarray(flags, dtype=np.intp))].T
    above = l > mesh.level_min
    parents = np.stack([l - 1, i >> 1, j >> 1], axis=1)[above]
    pcodes, first, count = np.unique(_cell_code(*parents.T), return_index=True,
                                     return_counts=True)
    parents, pcodes = parents[first[count == 4]], pcodes[count == 4]

    # A parent is blocked when a cell finer than its children touches its
    # edge: an edge neighbour of a child then lies in a region of finer
    # cells, unless another candidate's merge covers it.  Dropping a
    # parent only makes the mesh finer, so repeat until none is dropped.
    nbr, owner = _edge_neighbours(_child_keys(parents))
    finer = _containing(mesh._codes, *nbr.T) < 0
    nbr, owner = nbr[finer], owner[finer] // 4
    keep = np.ones(len(parents), dtype=bool)
    while len(nbr):
        blocked = owner[_containing(pcodes[keep], *nbr.T) < 0]
        if not len(blocked):
            break
        keep[blocked] = False
        nbr, owner = nbr[keep[owner]], owner[keep[owner]]
    parents = parents[keep]
    if not len(parents):
        return mesh
    kids = _find(mesh._codes, _cell_code(*_child_keys(parents).T))
    return Mesh(np.concatenate([np.delete(mesh._keys, kids, axis=0), parents]),
                mesh.level_min, mesh.level_max)


def transfer_field(old: Mesh, new: Mesh, values: np.ndarray) -> np.ndarray:
    """Move nodal values from ``old`` onto ``new``, a refinement of it.

    ``values`` is one field of shape ``(n_old,)`` or a block of fields of
    shape ``(n_old, k)``; all go through one sparse operator.  A vertex
    present in both meshes keeps its value; every other vertex takes the
    bilinear value of the old cell that holds a new cell at it, which is
    exact for a field that satisfies the constraints of ``old``.
    Hanging-node constraints of ``new`` are applied to the result.  A
    ``ValueError`` is raised when a cell of ``new`` lies in no cell of
    ``old``, as after :func:`coarsen`.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[:1] != (old.n_vertices,):
        raise ValueError(
            f"field of shape {values.shape} does not fit mesh {old.id} with "
            f"{old.n_vertices} vertices")

    # Old cell equal to or containing each new cell.
    anc = _containing(old._codes, *new._keys.T)
    if np.any(anc < 0):
        raise ValueError(
            f"mesh {new.id} has cells in no cell of mesh {old.id}: "
            f"not a refinement of it")

    # A vertex of old keeps its value; every other one takes the bilinear
    # of the old cell that holds any new cell at it.
    old_vid = old._vertex_ids(*new._vertex_xy.T)
    copy = np.flatnonzero(old_vid >= 0)
    ancestor = np.empty(new.n_vertices, dtype=np.intp)
    ancestor[new.cell_vertices] = anc[:, None]
    embed = np.flatnonzero(old_vid < 0)
    akey = old._keys[ancestor[embed]]
    ua = _SCALE >> akey[:, 0]
    s = (new._vertex_xy[embed, 0] - akey[:, 1] * ua) / ua
    t = (new._vertex_xy[embed, 1] - akey[:, 2] * ua) / ua

    rows = np.concatenate([copy, np.repeat(embed, 4)])
    cols = np.concatenate([old_vid[copy],
                           old.cell_vertices[ancestor[embed]].ravel()])
    data = np.concatenate([np.ones(len(copy)), _q1(s, t).ravel()])
    op = sp.csr_matrix((data, (rows, cols)),
                       shape=(new.n_vertices, old.n_vertices))
    return new.constraints.apply(op @ values)
