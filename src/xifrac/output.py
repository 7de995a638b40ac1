"""On-disk outputs: legacy VTK snapshots, CSV histories, line profiles.

All files are written atomically (temp file + rename) so an interrupted
run never leaves truncated output behind.  Floats are printed as the
shortest string that reads back to the same double (Python's ``repr``,
with a trailing ``.0`` dropped), so a written field is read back bit for
bit and golden comparisons stay stable.
"""

from __future__ import annotations

import os
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


def _atomic_write(path, text):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def vtk_geometry(mesh: Mesh) -> str:
    """The POINTS, CELLS and CELL_TYPES sections of a mesh's VTK file."""
    lines = [f"POINTS {mesh.n_vertices} double"]
    lines.extend(map("{} {} 0".format, _fmt_all(mesh.vertex_coords[:, 0]),
                     _fmt_all(mesh.vertex_coords[:, 1])))
    lines.append(f"CELLS {mesh.n_cells} {5 * mesh.n_cells}")
    lines.extend(map("4 {} {} {} {}".format,
                     *mesh.cell_vertices.T.tolist()))
    lines.append(f"CELL_TYPES {mesh.n_cells}")
    lines.extend(["9"] * mesh.n_cells)
    return "\n".join(lines)


def write_vtk(mesh: Mesh, point_data: dict, cell_data: dict, path,
              title: str = "xifrac fields", geometry: str | None = None
              ) -> None:
    """Legacy ASCII VTK unstructured grid with quad cells.

    Hanging nodes are exported as-is; viewers tolerate the nonconforming
    quads.  ``geometry`` is :func:`vtk_geometry` of ``mesh`` when the
    caller keeps it from an earlier file; else it is formatted here.
    """
    lines = ["# vtk DataFile Version 2.0", title, "ASCII",
             "DATASET UNSTRUCTURED_GRID",
             vtk_geometry(mesh) if geometry is None else geometry]
    if point_data:
        lines.append(f"POINT_DATA {mesh.n_vertices}")
        for name, values in point_data.items():
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(_fmt_all(values))
    if cell_data:
        lines.append(f"CELL_DATA {mesh.n_cells}")
        for name, values in cell_data.items():
            values = np.asarray(values)
            if np.issubdtype(values.dtype, np.integer):
                lines.append(f"SCALARS {name} int 1")
                lines.append("LOOKUP_TABLE default")
                lines.extend(map("{}".format, values.tolist()))
            else:
                lines.append(f"SCALARS {name} double 1")
                lines.append("LOOKUP_TABLE default")
                lines.extend(_fmt_all(values))
    _atomic_write(path, "\n".join(lines) + "\n")


def read_vtk(path):
    """Parse a file produced by :func:`write_vtk`.

    Returns ``(mesh, point_data, cell_data)``; the mesh is reconstructed
    from the quad geometry and the data arrays are put in its numbering.
    Points and cells are matched by exact dyadic integer keys.  A file
    without ``POINTS`` or ``CELLS`` before its data, a section with fewer
    rows than its header says, a quad that indexes past the points, or a
    quad that is not the dyadic square its corners give it raises
    ``ValueError``.
    """
    lines = Path(path).read_text().splitlines()
    point_data, cell_data = {}, {}
    pts = quads = target = n_pts = n_cells = None
    i = 2  # past the version and title lines
    while i < len(lines):
        head = lines[i].split()
        i += 1
        if not head:
            continue
        if head[0] == "POINTS":
            n_pts = int(head[1])
            pts = _rows(path, "POINTS", lines[i:i + n_pts], n_pts,
                        usecols=(0, 1), ndmin=2)
            i += n_pts
        elif head[0] == "CELLS":
            n_cells = int(head[1])
            quads = _rows(path, "CELLS", lines[i:i + n_cells], n_cells,
                          dtype=np.int64, usecols=(1, 2, 3, 4), ndmin=2)
            i += n_cells
        elif head[0] == "CELL_TYPES":
            i += int(head[1])
        elif head[0] == "POINT_DATA":
            target, count = point_data, n_pts
        elif head[0] == "CELL_DATA":
            target, count = cell_data, n_cells
        elif head[0] == "SCALARS" and target is not None:
            if count is None:
                break  # data before its geometry
            start = i + 1  # skip LOOKUP_TABLE line
            target[head[1]] = np.loadtxt(lines[start:start + count], ndmin=1)
            i = start + count

    if pts is None or quads is None:
        missing = "POINTS" if pts is None else "CELLS"
        raise ValueError(f"{path}: no {missing} section")
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
    mesh = Mesh(keys, int(keys[:, 0].min()), int(keys[:, 0].max()))
    perm = _permutation(mesh.vertex_ids(pts), mesh.n_vertices, "points")
    cperm = _permutation(mesh.cell_ids(*keys.T), mesh.n_cells, "cells")
    if not np.array_equal(perm[mesh.cell_vertices], quads[cperm]):
        raise not_square
    point_data = {k: v[perm] for k, v in point_data.items()}
    cell_data = {k: v[cperm] for k, v in cell_data.items()}
    return mesh, point_data, cell_data


def _rows(path, section, lines, count, **kwargs):
    """The ``count`` numeric rows of a section, or ``ValueError`` naming
    the section when it holds fewer."""
    try:
        table = np.loadtxt(lines, **kwargs)
    except ValueError:
        table = None
    if table is None or len(table) < count:
        raise ValueError(f"{path}: the {section} section holds fewer than "
                         f"the {count} rows of its header")
    return table


def _permutation(ids, n, what):
    """Map from mesh ids to file positions, given the mesh id of each entry."""
    if not np.array_equal(np.sort(ids), np.arange(n)):
        raise ValueError(f"the {what} of the file do not form a quadtree mesh")
    perm = np.empty(n, dtype=np.intp)
    perm[ids] = np.arange(n)
    return perm


def write_energy_csv(history, path) -> None:
    lines = ["t,E_strain,E_surface,E_penalty,E_total,stag_iters,converged"]
    for rec in history:
        lines.append(",".join(_fmt_all([rec.t, rec.strain, rec.surface,
                                        rec.penalty, rec.total])
                              + [str(rec.stag_iters),
                                 str(int(rec.converged))]))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_xi_history(history, path) -> None:
    lines = ["t,xi_min,xi_max,xi_mean,cells"]
    for rec in history:
        lines.append(",".join(_fmt_all([rec.t, rec.xi_min, rec.xi_max,
                                        rec.xi_mean]) + [str(rec.cells)]))
    _atomic_write(path, "\n".join(lines) + "\n")


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
    table = np.column_stack([xs, *columns.values()])
    cells, width = _fmt_all(table.ravel()), table.shape[1]
    lines = ["x," + ",".join(columns)]
    lines.extend(",".join(cells[i:i + width])
                 for i in range(0, len(cells), width))
    _atomic_write(path, "\n".join(lines) + "\n")


class RunWriter:
    """Single writer owning one run directory."""

    PROFILE_LINES = (0.1, 0.2, 0.3, 0.4)

    def __init__(self, out_dir, config):
        self.dir = Path(out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config = config
        self._snapshot_step = None  # step of the last snapshot written
        # (mesh id, vtk_geometry text) of the last snapshot's mesh.  The
        # writer keeps it rather than the mesh, so it lives with the run.
        self._geometry = (None, "")
        self._write_manifest()

    def _write_manifest(self):
        from . import __version__
        from .config import serialize_config
        text = (f"# xifrac {__version__} run manifest; parseable as a "
                f"config file\n" + serialize_config(self.config))
        _atomic_write(self.dir / "run_manifest.cfg", text)

    def snapshot(self, state):
        n = self._snapshot_step = state.step
        mesh = state.mesh
        if self._geometry[0] != mesh.id:
            self._geometry = (mesh.id, vtk_geometry(mesh))
        write_vtk(mesh,
                  {"u": state.u.values, "v": state.v.values},
                  {"xi": state.xi, "level": mesh.cell_levels},
                  self.dir / f"fields_{n:04d}.vtk",
                  title=f"step {n} t={state.t:g}",
                  geometry=self._geometry[1])
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
