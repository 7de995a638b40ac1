"""On-disk outputs: legacy VTK snapshots, CSV histories, line profiles.

All files are written atomically (temp file + rename) so an interrupted
run never leaves truncated output behind.  Snapshots are legacy binary
VTK, so their fields read back bit for bit.  In the CSV files, floats are
printed as the shortest string that reads back to the same double
(Python's ``repr``, with a trailing ``.0`` dropped), so they round-trip
through their text too and golden comparisons stay stable.
"""

from __future__ import annotations

import os
import re
import tempfile
from pathlib import Path

import numpy as np

from .mesh import Mesh


def _fmt_all(values) -> list[str]:
    """Shortest round-trip text of each float (``1.0`` prints as ``1``).

    Each distinct bit pattern is formatted once.  Values that compare
    equal but differ in their bits, ``0.0`` and ``-0.0``, keep their own
    text, which deduplicating by value would merge.
    """
    bits = np.ascontiguousarray(values, dtype=float).view(np.uint64)
    patterns, inverse = np.unique(bits, return_inverse=True)
    text = [repr(x).removesuffix(".0") for x in patterns.view(float).tolist()]
    return [text[i] for i in inverse.tolist()]


def csv_text(header: str, rows) -> str:
    """The ``header`` line, then one line per row of numbers, printed by
    :func:`_fmt_all` (so a count or a flag prints as the integer)."""
    cells = _fmt_all(np.ravel(np.asarray(rows, dtype=float)))
    width = header.count(",") + 1
    lines = [header] + [",".join(cells[i:i + width])
                        for i in range(0, len(cells), width)]
    return "\n".join(lines) + "\n"


def _atomic_write(path, data):
    """Write ``data`` (bytes, or text encoded as UTF-8) to ``path``.

    The file gets the mode that ``open`` gives a new file, ``0o666``
    less the umask, and not the ``0o600`` of the temp file it is renamed
    from.  Reading the umask sets it, so it is set back at once.
    """
    if isinstance(data, str):
        data = data.encode()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        umask = os.umask(0o077)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# Each section's values are one big-endian block of these types.
_DOUBLE, _INT = np.dtype(">f8"), np.dtype(">i4")
_SCALAR_TYPES = {b"double": _DOUBLE, b"int": _INT}
# The width, type and unit of the geometry sections' blocks.
_GEOMETRY = {b"POINTS": (3, _DOUBLE, "rows"), b"CELLS": (5, _INT, "rows"),
             b"CELL_TYPES": (1, _INT, "values")}
# The newline that ends a block and the header of the section after it.
_NEXT_SECTION = re.compile(
    rb"\n(?:POINTS|CELLS|CELL_TYPES|POINT_DATA|CELL_DATA|SCALARS) ")


def _section(header: str, values, dtype) -> list[bytes]:
    return [header.encode(), b"\n",
            np.ascontiguousarray(values, dtype=dtype).tobytes(), b"\n"]


def write_vtk(mesh: Mesh, point_data: dict, cell_data: dict, path,
              title: str = "xifrac fields") -> None:
    """Legacy binary VTK unstructured grid with quad cells.

    Each section's values are one big-endian block (``double`` as
    float64, ``int`` as int32) followed by a newline, as ParaView reads
    them.  Hanging nodes are exported as-is; viewers tolerate the
    nonconforming quads.
    """
    points = np.column_stack([mesh.vertex_coords, np.zeros(mesh.n_vertices)])
    cells = np.column_stack([np.full(mesh.n_cells, 4), mesh.cell_vertices])
    parts = [f"# vtk DataFile Version 2.0\n{title}\nBINARY\n"
             f"DATASET UNSTRUCTURED_GRID\n".encode()]
    parts += _section(f"POINTS {mesh.n_vertices} double", points, _DOUBLE)
    parts += _section(f"CELLS {mesh.n_cells} {5 * mesh.n_cells}", cells,
                      _INT)
    parts += _section(f"CELL_TYPES {mesh.n_cells}",
                      np.full(mesh.n_cells, 9), _INT)
    for kind, count, data in (("POINT_DATA", mesh.n_vertices, point_data),
                              ("CELL_DATA", mesh.n_cells, cell_data)):
        if data:
            parts.append(f"{kind} {count}\n".encode())
        for name, values in data.items():
            values = np.asarray(values)
            scalar = ("int" if np.issubdtype(values.dtype, np.integer)
                      else "double")
            parts += _section(f"SCALARS {name} {scalar} 1\n"
                              f"LOOKUP_TABLE default", values,
                              _SCALAR_TYPES[scalar.encode()])
    _atomic_write(path, b"".join(parts))


def read_vtk(path):
    """Parse a file produced by :func:`write_vtk`.

    Returns ``(mesh, point_data, cell_data)``; the mesh is reconstructed
    from the quad geometry and the data arrays are put in its numbering, in
    native byte order.  Points and cells are matched by exact dyadic integer
    keys.  Every error is a ``ValueError`` that starts with the path: a file
    whose third line is not ``BINARY``, a file without ``POINTS`` or
    ``CELLS`` before its data, a header without its count or type, a data
    header whose count is not its geometry's, a ``SCALARS`` section without
    one, a section whose block holds fewer or more values than its header
    says, a quad that indexes past the points, cells that repeat, cells that
    do not tile the unit square (no cell, a gap, a cell inside another, a
    cell outside the square or one finer than ``mesh._MAXLEVEL``), or a quad
    that is not the dyadic square its corners give it.
    """
    data = Path(path).read_bytes()
    lines = data.split(b"\n", 3)  # version, title, format, the rest
    if len(lines) > 2 and lines[2].strip() != b"BINARY":
        raise ValueError(f"{path}: not a legacy VTK file in BINARY format "
                         f"(its third line is "
                         f"{lines[2][:40].decode(errors='replace')!r})")
    geometry, point_data, cell_data = {}, {}, {}
    target = count = None  # the data dict and its header's count
    pos = len(data) - len(lines[3]) if len(lines) > 3 else len(data)
    while pos < len(data):
        end = data.find(b"\n", pos)
        end = len(data) if end < 0 else end
        head, pos = data[pos:end].split(), end + 1
        if not head:
            continue
        if head[0] in _GEOMETRY:
            geometry[head[0]], pos = _block(path, data, pos,
                                            head[0].decode(),
                                            _count(path, head),
                                            *_GEOMETRY[head[0]])
        elif head[0] in (b"POINT_DATA", b"CELL_DATA"):
            target, rows = ((point_data, b"POINTS") if head[0] == b"POINT_DATA"
                            else (cell_data, b"CELLS"))
            if rows not in geometry:
                break  # data before its geometry
            if (count := _count(path, head)) != len(geometry[rows]):
                raise ValueError(f"{path}: the {head[0].decode()} header "
                                 f"counts {count} values, but the "
                                 f"{rows.decode()} section holds "
                                 f"{len(geometry[rows])} rows")
        elif head[0] == b"SCALARS":
            if len(head) < 3 or head[2] not in _SCALAR_TYPES:
                line = b" ".join(head).decode(errors="replace")
                raise ValueError(f"{path}: the header '{line}' gives no "
                                 f"double or int type")
            name = head[1].decode(errors="replace")
            if target is None:
                raise ValueError(f"{path}: the SCALARS {name} section has "
                                 f"no POINT_DATA or CELL_DATA header")
            end = data.find(b"\n", pos)  # past the LOOKUP_TABLE line
            pos = len(data) if end < 0 else end + 1
            values, pos = _block(path, data, pos, f"SCALARS {name}", count,
                                 1, _SCALAR_TYPES[head[2]], "values")
            target[name] = values[:, 0]

    pts, quads = geometry.get(b"POINTS"), geometry.get(b"CELLS")
    if pts is None or quads is None:
        missing = "POINTS" if pts is None else "CELLS"
        raise ValueError(f"{path}: no {missing} section")
    pts, quads = pts[:, :2], quads[:, 1:]
    if quads.size and (quads.min() < 0 or quads.max() >= len(pts)):
        raise ValueError(f"{path}: the CELLS section indexes past its "
                         f"{len(pts)} POINTS")
    # Each quad's size and lower-left corner give its (level, i, j).
    origin = pts[quads[:, 0]]
    h = pts[quads[:, 1], 0] - origin[:, 0]
    not_square = ValueError(f"{path}: the CELLS section holds a quad that "
                            f"is not a square of a quadtree mesh")
    if not np.all(h > 0):
        raise not_square
    keys = np.column_stack([-np.log2(h), origin / h[:, None]])
    keys = keys.round().astype(np.int64)
    not_tiling = ValueError(f"{path}: the CELLS section does not tile the "
                            f"unit square")
    try:
        mesh = Mesh(keys, int(keys[:, 0].min()), int(keys[:, 0].max()))
    except ValueError:  # no cell, or one outside the square or too fine
        raise not_tiling from None
    cperm = _permutation(path, mesh.cell_ids(*keys.T), mesh.n_cells, "cells")
    if not mesh.tiles_domain():
        raise not_tiling
    perm = _permutation(path, mesh.vertex_ids(pts), mesh.n_vertices,
                        "points")
    if not np.array_equal(perm[mesh.cell_vertices], quads[cperm]):
        raise not_square
    point_data = {k: v[perm] for k, v in point_data.items()}
    cell_data = {k: v[cperm] for k, v in cell_data.items()}
    return mesh, point_data, cell_data


def _count(path, head):
    """The count of a section's header line ``head``."""
    if len(head) < 2 or not head[1].isdigit():
        raise ValueError(f"{path}: the {head[0].decode()} header gives no "
                         f"count")
    return int(head[1])


def _block(path, data, pos, section, count, width, dtype, unit):
    """The ``count`` rows of ``width`` values of the block at ``pos``, in
    native byte order, and the position after the block's newline.

    A block that does not end where its header says, at a newline or at
    the end of the file, raises ``ValueError`` naming the section and
    whether it holds fewer or more than the header's count.
    """
    end = pos + count * width * dtype.itemsize
    if end > len(data) or data[end:end + 1] not in (b"\n", b""):
        after = _NEXT_SECTION.search(data, pos)
        fewer = end > len(data) or (after is not None and after.start() < end)
        raise ValueError(f"{path}: the {section} section holds "
                         f"{'fewer' if fewer else 'more'} than the {count} "
                         f"{unit} of its header")
    values = np.frombuffer(data, dtype, count * width, pos)
    native = values.astype(dtype.newbyteorder("="))
    return native.reshape(count, width), end + 1


def _permutation(path, ids, n, what):
    """Map from mesh ids to file positions, given the mesh id of each entry.

    The ids must hold each of ``0, ..., n - 1`` once: all in range and each
    counted once, which takes one pass and no sort.
    """
    if not (np.all((ids >= 0) & (ids < n))
            and np.all(np.bincount(ids, minlength=n) == 1)):
        raise ValueError(f"{path}: the {what} of the file do not form a "
                         f"quadtree mesh")
    perm = np.empty(n, dtype=np.intp)
    perm[ids] = np.arange(n)
    return perm


def write_energy_csv(history, path) -> None:
    rows = [[rec.t, rec.strain, rec.surface, rec.penalty, rec.total,
             rec.stag_iters, rec.converged] for rec in history]
    _atomic_write(path, csv_text("t,E_strain,E_surface,E_penalty,E_total,"
                                 "stag_iters,converged", rows))


def write_xi_history(history, path) -> None:
    rows = [[rec.t, rec.xi_min, rec.xi_max, rec.xi_mean, rec.cells]
            for rec in history]
    _atomic_write(path, csv_text("t,xi_min,xi_max,xi_mean,cells", rows))


def line_profile(mesh: Mesh, values, y: float, samples: int) -> np.ndarray:
    """Sample a nodal field along a horizontal line; rows are (x, value)."""
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"profile ordinate y={y} lies outside the domain")
    if samples < 2:
        raise ValueError("need at least two samples")
    xs = np.linspace(0.0, 1.0, samples)
    values = np.asarray(values, dtype=float)
    return np.column_stack([xs, mesh.eval_field(values, xs, y)])


def write_profile_csv(columns: dict[str, np.ndarray], xs: np.ndarray, path
                      ) -> None:
    _atomic_write(path, csv_text(",".join(["x", *columns]),
                                 np.column_stack([xs, *columns.values()])))


class RunWriter:
    """Single writer owning one run directory."""

    PROFILE_LINES = (0.1, 0.2, 0.3, 0.4)

    def __init__(self, out_dir, config):
        self.dir = Path(out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config = config
        self._snapshot_step = None  # step of the last snapshot written
        self._write_manifest()

    def _write_manifest(self):
        from . import __version__
        from .config import serialize_config
        text = (f"# xifrac {__version__} run manifest; parseable as a "
                f"config file\n" + serialize_config(self.config))
        _atomic_write(self.dir / "run_manifest.cfg", text)

    def snapshot(self, state):
        n = self._snapshot_step = state.step
        write_vtk(state.mesh,
                  {"u": state.u.values, "v": state.v.values},
                  {"xi": state.xi, "level": state.mesh.cell_levels},
                  self.dir / f"fields_{n:04d}.vtk",
                  title=f"step {n} t={state.t:g}")
        xs = np.linspace(0.0, 1.0, 201)
        cols = {}
        for y in self.PROFILE_LINES:
            prof = line_profile(state.mesh, state.v.values, y, 201)
            cols[f"v_y{y:g}"] = prof[:, 1]
        write_profile_csv(cols, xs, self.dir / f"profiles_{n:04d}.csv")

    def finalize(self, state):
        """Write the histories, and the final snapshot unless it exists."""
        write_energy_csv(state.history, self.dir / "energies.csv")
        write_xi_history(state.history, self.dir / "xi_history.csv")
        if state.step > 0 and state.step != self._snapshot_step:
            self.snapshot(state)
