"""Model physics for AT1 anti-plane fracture with an adaptive length scale.

The three-field energy couples the out-of-plane displacement ``u``, the
phase field ``v`` (1 intact, 0 broken) and the regularization length
``xi``, held as one value per cell in every mode: constant (``fixed``),
one optimal scalar spread over the cells (``global``) or the per-cell
optimum (``field``).  ``xi`` carries penalty parameters ``zeta`` (lower
bound) and ``alpha`` (upper bound); closed-form optimality conditions are
evaluated here together with the two coupled weak-form systems,
calibration helpers, irreversibility bookkeeping and energy accounting.

Each run parameter is declared once, as a field of a frozen
:class:`Params` dataclass made with :func:`param`: its default, its range
and, where it differs from the attribute name, its config key.
:mod:`xifrac.config` builds its key table from these fields.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.sparse as sp

from . import fem
from .fem import ScalarField, SparseSystem
from .mesh import Mesh, frozen

log = logging.getLogger(__name__)

#: c_v of the energy: AT1's normalization, so its surface energy is G_c.
AT1_NORMALIZATION = 8.0 / 3.0
CRACK_TOL = 0.01  # Xi_CR: a node whose v drops below it joins the crack
RESIDUAL_STIFFNESS = 1e-10  # eta: the share of mu left where v = 0

#: Ranges as ``(test, reason)``: ``test(value)`` is True for a valid value.
POSITIVE = (lambda v: 0 < v < np.inf, "must be finite and > 0")
NONNEGATIVE = (lambda v: 0 <= v < np.inf, "must be finite and >= 0")


def param(default, bounds, key=None):
    """A run parameter: its default, its range ``bounds`` as
    ``(test, reason)`` and its config key when that is not the attribute
    name."""
    return field(default=default, metadata={"range": bounds, "key": key})


class Params:
    """Base of the parameter dataclasses: checks every field's range, and
    that an ``int`` field holds an ``int`` and not a ``bool`` or a float.

    A subclass with a check across fields runs it after this one.
    """

    def __post_init__(self):
        for f in fields(self):
            test, reason = f.metadata["range"]
            value = getattr(self, f.name)
            if f.type in (int, "int") and (isinstance(value, bool)
                                           or not isinstance(value, int)):
                raise ValueError(f"{f.name} = {value!r} must be an integer")
            if not test(value):
                raise ValueError(f"{f.name} = {value!r} {reason}")


@dataclass(frozen=True)
class MaterialParams(Params):
    mu: float = param(80.8, POSITIVE)
    g_c: float = param(2.7, POSITIVE, key="G_c")


@dataclass(frozen=True)
class RegularizationParams(Params):
    """Length-scale bounds, penalties and the update mode.

    ``mode`` is one of ``fixed`` (xi_fixed held constant), ``global``
    (one optimal scalar per update) or ``field`` (per cell, the mean over
    the cell's four Gauss points of the pointwise optimum); it only
    decides how :func:`cell_xi` fills the one value per cell.
    """

    mode: str = param("fixed", (lambda v: v in ("fixed", "global", "field"),
                                "must be fixed, global or field"))
    zeta: float = param(9.36, NONNEGATIVE)
    alpha: float = param(493.75, POSITIVE)
    xi_fixed: float = param(0.13687, POSITIVE)
    xi_min: float = param(0.011, POSITIVE)
    xi_max: float = param(0.15, POSITIVE)
    xi_refine: float = param(0.03, POSITIVE)

    def __post_init__(self):
        super().__post_init__()
        if not self.xi_min < self.xi_max:
            raise ValueError("need xi_min < xi_max")

    def clamp(self, xi):
        return np.clip(xi, self.xi_min, self.xi_max)


@dataclass(frozen=True, eq=False)
class CrackMask:
    """The crack as one bool per vertex: where v is zero.

    The crack is not stored beside v; :attr:`driver.SimState.mask` builds
    one from the zeros of v.  Its array is read-only.
    """

    pinned: np.ndarray

    def __post_init__(self):
        view = np.asarray(self.pinned, dtype=bool).view()
        view.flags.writeable = False
        object.__setattr__(self, "pinned", view)

    def __len__(self):
        return int(np.count_nonzero(self.pinned))

    @property
    def nodes(self) -> np.ndarray:
        """Ids of the pinned vertices, ascending."""
        return np.flatnonzero(self.pinned)


@dataclass
class EnergyRecord:
    t: float
    strain: float
    surface: float
    penalty: float
    total: float
    xi_min: float
    xi_max: float
    xi_mean: float
    cells: int
    stag_iters: int = 0
    converged: bool = True

    def __post_init__(self):
        parts = self.strain + self.surface + self.penalty
        scale = max(abs(self.total), 1.0)
        if abs(self.total - parts) > 1e-10 * scale:
            raise ValueError("energy components do not sum to the total")


def degradation(v):
    """Stiffness multiplier ``(1 - eta) v^2 + eta`` (RESIDUAL_STIFFNESS)."""
    return (1.0 - RESIDUAL_STIFFNESS) * np.asarray(v) ** 2 + RESIDUAL_STIFFNESS


def _grad_sq(f: ScalarField) -> np.ndarray:
    """``|grad f|^2`` at the quadrature points, shape (n_cells, nq).

    The two squares are added as ``np.sum(g ** 2, axis=2)`` adds them,
    bit for bit, without its reduction overhead.
    """
    g = fem.grad_at_qp(f)
    return g[..., 0] ** 2 + g[..., 1] ** 2


def _strain_sq(u: ScalarField) -> np.ndarray:
    """``|grad u|^2`` at the quadrature points, read-only.

    The phase assembly and the strain energy both take it from the same
    u, so its mesh keeps it for the next call with the same u
    (:meth:`Mesh.reuse`).
    """
    return u.mesh.reuse("strain_sq", (u.values,),
                        lambda: frozen(_grad_sq(u)))


def assemble_displacement(mesh: Mesh, v: ScalarField, mat: MaterialParams,
                          pinned: np.ndarray, values) -> SparseSystem:
    """Degraded shear system for u, restricted to the dofs not ``pinned``.

    The folded operator ``K(v)`` and its free block for ``pinned``
    (:func:`fem.free_block`) depend on v and the pinned set alone, so the
    mesh keeps them for the next call with the same v and set
    (:meth:`Mesh.reuse`), which only forms the right-hand side.
    """
    def operator():
        weight = mat.mu * degradation(fem.field_at_qp(v))
        matrix = fem.assemble_weighted_laplace(mesh, weight).matrix
        block = fem.free_block(matrix, mesh, pinned)
        for a in (matrix, block.matrix, block.coupling):
            frozen(a.data)
        return matrix, block

    matrix, block = mesh.reuse("displacement", (v.values, repr(mat), pinned),
                               operator)
    return fem.apply_dirichlet(
        SparseSystem(matrix, np.zeros(mesh.n_vertices), mesh), pinned, values,
        block)


def assemble_phase(mesh: Mesh, u: ScalarField, xi: np.ndarray,
                   mat: MaterialParams
                   ) -> tuple[SparseSystem, sp.csr_matrix]:
    """Phase-field system: reaction from the strain energy, xi diffusion.

    Matrix = mass weighted by ``mu (1-eta) |grad u|^2`` (eta the
    :data:`RESIDUAL_STIFFNESS`) plus stiffness weighted by ``2 G_c xi / c_v``;
    load density ``G_c / (c_v xi)``, with ``xi`` one value per cell.  The
    system is folded but not restricted: the pinned nodes change from one
    active-set sweep to the next, so each sweep restricts this one system
    with :func:`fem.apply_dirichlet`.

    Returns the system and its reaction part ``R``, the folded strain-drive
    mass.  In an elastic step the drive scales with the load, so the phase
    systems of a preload form the family ``K + s R``
    (:func:`fem.family_tangents`).  The diffusion matrix and the load
    depend on xi alone, so the mesh keeps them for the next call with the
    same xi (:meth:`Mesh.reuse`); the reaction is assembled every time,
    from the ``|grad u|^2`` that the mesh keeps for u (:func:`_strain_sq`).
    """
    def diffusion_and_load():
        if np.any(xi <= 0.0):
            raise ValueError("xi must be strictly positive")
        diffusion = fem.assemble_weighted_laplace(
            mesh, 2.0 * mat.g_c * xi / AT1_NORMALIZATION).matrix
        rhs = fem.assemble_load(mesh, mat.g_c / (AT1_NORMALIZATION * xi))
        frozen(diffusion.data)
        return diffusion, frozen(rhs)

    diffusion, rhs = mesh.reuse("phase", (xi, repr(mat)), diffusion_and_load)
    drive = mat.mu * (1.0 - RESIDUAL_STIFFNESS) * _strain_sq(u)
    reaction = fem.assemble_weighted_mass(mesh, drive)
    return (fem.combine(reaction, SparseSystem(diffusion, rhs, mesh), rhs),
            reaction.matrix)


def xi_global(mesh: Mesh, v: ScalarField, mat: MaterialParams,
              reg: RegularizationParams) -> float:
    """Globally optimal xi from the stationarity of the three-field energy."""
    ratio = mat.g_c / AT1_NORMALIZATION
    v_qp = fem.field_at_qp(v)
    numer = ratio * fem.integrate(mesh, 1.0 - v_qp + reg.zeta)
    denom = (ratio * fem.integrate(mesh, _grad_sq(v))
             + reg.alpha * fem.integrate(mesh, 1.0))
    return float(reg.clamp(np.sqrt(numer / denom)))


def xi_pointwise(v, grad_sq, mat: MaterialParams,
                 reg: RegularizationParams):
    """Pointwise optimal xi from local values of v and |grad v|^2, clamped."""
    ratio = mat.g_c / AT1_NORMALIZATION
    numer = ratio * (1.0 - np.asarray(v) + reg.zeta)
    denom = ratio * np.asarray(grad_sq) + reg.alpha
    return reg.clamp(np.sqrt(np.maximum(numer, 0.0) / denom))


def xi_field(mesh: Mesh, v: ScalarField, mat: MaterialParams,
             reg: RegularizationParams) -> np.ndarray:
    """Per-cell xi: mean of the pointwise formula over the quadrature points.

    The mesh keeps the read-only result for the next call with the same v
    (:meth:`Mesh.reuse`).
    """
    def cells():
        v_qp = fem.field_at_qp(v)
        return frozen(
            xi_pointwise(v_qp, _grad_sq(v), mat, reg).mean(axis=1))

    return mesh.reuse("xi_field", (v.values, repr(mat), repr(reg)), cells)


def cell_xi(mesh: Mesh, v: ScalarField, mat: MaterialParams,
            reg: RegularizationParams) -> np.ndarray:
    """xi of ``reg.mode`` on each cell: ``xi_fixed`` as configured, the
    global optimum or the per-cell field (both clamped)."""
    if reg.mode == "field":
        return xi_field(mesh, v, mat, reg)
    if reg.mode == "global":
        return np.full(mesh.n_cells, xi_global(mesh, v, mat, reg))
    return np.full(mesh.n_cells, reg.xi_fixed)


def _check_calibration(**inputs: float) -> None:
    """Raise a ValueError naming the first input that is not finite and > 0."""
    for name, value in inputs.items():
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive: {value}")


def calibrate_alpha(h: float, g_c: float) -> float:
    """Upper-bound penalty from the xi = 2h crack-zone ansatz."""
    _check_calibration(h=h, g_c=g_c)
    return 3.0 * g_c / (96.0 * AT1_NORMALIZATION * h * h)


def calibrate_zeta(h: float, alpha: float, g_c: float) -> float:
    """Lower-bound penalty from the xi = 10h far-field ansatz."""
    _check_calibration(h=h, alpha=alpha, g_c=g_c)
    return 100.0 * h * h * AT1_NORMALIZATION * alpha / g_c


def enforce_irreversibility(v_new: ScalarField, v_prev: ScalarField,
                            cracked: np.ndarray) -> ScalarField:
    """Clamp v to [0,1], forbid healing, and pin sub-threshold nodes.

    ``cracked`` holds one bool per vertex, the crack as it stands: those
    nodes, and the nodes dropping below :data:`CRACK_TOL` (Xi_CR), are set
    to zero, which adds them to the crack (the zeros of v) for good.  A
    hanging node needs ``cracked``: its value is its masters' average, which
    can rise again, and a node pinned since ``v_prev`` was taken is not a
    zero of ``v_prev``.  Neither input is changed.
    """
    if v_new.mesh is not v_prev.mesh:
        raise ValueError("fields live on different meshes")
    v = np.clip(v_new.values, 0.0, 1.0)
    v = np.minimum(v, v_prev.values)
    v[cracked | (v < CRACK_TOL)] = 0.0
    return ScalarField(v_new.mesh, v)


def energies(mesh: Mesh, u: ScalarField, v: ScalarField,
             xi: np.ndarray, mat: MaterialParams,
             reg: RegularizationParams, *, t: float = 0.0,
             stag_iters: int = 0, converged: bool = True) -> EnergyRecord:
    """Strain / surface / penalty split of the three-field energy.

    The ``zeta/xi`` and ``alpha xi`` bound penalties are logged separately
    from the surface term so the surface energy starts near zero for an
    intact body.  What depends on v and xi alone (the degradation at the
    quadrature points, the surface and the penalty terms) is kept on the
    mesh for the next call with the same v and xi (:meth:`Mesh.reuse`);
    the strain term is integrated every time, from the ``|grad u|^2``
    that the phase assembly of the same u left on the mesh
    (:func:`_strain_sq`).
    """
    def frozen_parts():
        xi_qp = fem._coefficient(mesh, xi)
        v_qp = fem.field_at_qp(v)
        ratio = mat.g_c / AT1_NORMALIZATION
        surface = ratio * fem.integrate(
            mesh, (1.0 - v_qp) / xi_qp + xi_qp * _grad_sq(v))
        penalty = fem.integrate(
            mesh, ratio * reg.zeta / xi_qp + reg.alpha * xi_qp)
        return frozen(degradation(v_qp)), surface, penalty

    deg, surface, penalty = mesh.reuse(
        "energies", (v.values, xi, repr(mat), repr(reg)), frozen_parts)
    strain = 0.5 * mat.mu * fem.integrate(mesh, deg * _strain_sq(u))
    return EnergyRecord(t=t, strain=strain, surface=surface, penalty=penalty,
                        total=strain + surface + penalty,
                        xi_min=float(xi.min()), xi_max=float(xi.max()),
                        xi_mean=float(xi.mean()), cells=mesh.n_cells,
                        stag_iters=stag_iters, converged=converged)


def initial_crack(mesh: Mesh, y_tip: float = 0.5) -> ScalarField:
    """v seeded with zeros on the edge crack ``x = 0.5, y in [y_tip, 1]``
    and 1 elsewhere.

    A node is seeded when it lies within half its local cell size of the
    segment.  ``y_tip = 1`` gives an intact body.
    """
    if not 0.0 <= y_tip <= 1.0:
        raise ValueError("y_tip must lie inside the closed unit interval")
    local_h = np.full(mesh.n_vertices, np.inf)
    np.minimum.at(local_h, mesh.cell_vertices, mesh.cell_h[:, None])
    x = mesh.vertex_coords[:, 0]
    y = mesh.vertex_coords[:, 1]
    on_seed = (np.abs(x - 0.5) <= 0.5 * local_h + 1e-15) & \
              (y >= y_tip - 0.5 * local_h - 1e-15) & (y_tip < 1.0)
    return ScalarField(mesh, np.where(on_seed, 0.0, 1.0))


def transfer_regularization(mesh: Mesh, v: ScalarField, mat: MaterialParams,
                            reg: RegularizationParams) -> np.ndarray:
    """Cell xi on a new mesh: :func:`cell_xi` of the transferred ``v``, in
    every mode (a name of its own, which ``perfbench/layers.py`` traces)."""
    return cell_xi(mesh, v, mat, reg)
