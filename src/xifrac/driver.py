"""Load stepping, staggered u/v iteration and xi-driven mesh adaptivity.

One load step solves the displacement system with the phase field frozen,
then the phase-field system with the fresh displacement, enforces
irreversibility and refreshes xi, until both relative nodal L2 changes
drop below the staggered tolerance.  An iteration that leaves v and xi
bit for bit unchanged is an exact fixed point: the loop
stops there and counts the identical iteration it skips, so the
``stag_iters`` it reports are the iterations the plain loop would run.
Each displacement solve starts from the current u (see
:func:`fem.solve_spd`): in an elastic step the Galerkin multiple of the
previous step's u already meets the solver's residual test, so the step
factors no displacement system; otherwise the deflated CG starts from
that multiple, under ``direct`` too, and factors only its coarse
operator.  Under ``pcg`` each active-set sweep of a phase solve starts
from its own answer in the previous staggered iteration of the same load
step, since the system changes only with a slightly changed u and xi;
iteration 1 starts every sweep from zero.  Under ``direct`` only the
first sweep gets such a start, when its answer in the previous iteration
was solved rather than projected: iteration 1 factors it, and later
iterations run the deflated CG from that answer and factor only its
coarse operator.  The later sweeps stay factored, for the reasons given
in :func:`_solve_phase_bounded`.

The crack is the set where v is exactly zero, and irreversibility keeps
it growing: a load step bounds v from above by v as the step started, a
node that drops below the pin threshold is set to zero, and a zero stays
zero (:func:`phasefield.enforce_irreversibility`).  Neither the crack nor
the bound is stored beside v (:class:`SimState`).

Under ``direct``, the first active-set sweep of a phase solve is
projected onto a basis of orthonormal rows (see :func:`fem.project`)
that the mesh keeps for the sweep's family (:func:`_first_sweep`).  In
an elastic preload the mesh, xi and crack stay fixed and only the strain
drive grows with the load, so these systems form one family ``K + s R``
and the projection often meets the residual test.  If it also pins some
node and every free node lies clear of the pin threshold by its error
margin, it only decides which nodes to pin, and the sweep factors
nothing.  Otherwise the sweep is solved, by CG from its start when it
has one and else by a factorization.  A factored answer that lies
above the pin threshold at every free node leaves v at its bound, so the
next first sweep meets the same family; when the basis is empty or has
decided a first sweep since it was built, that answer and its seven
Krylov tangents ``(A^-1 R)^j x`` (:func:`fem.family_tangents`), built
from the factor while it is in hand, become the basis.  The basis is
kept under the sweep's xi and free set (:meth:`Mesh.reuse`), so a change
of mesh, xi or crack finds a fresh, empty one, and nothing has to clear
it.  Under ``pcg``, which has no fine factor, the first sweep is solved
like the others, from its answer in the previous iteration.  Every
returned field is a solver's answer to an active set that the margin
makes independent of the basis, as long as the margin bounds the
projection's true error (see :func:`_pins_clearly`).  That is not
checked at run time; the tests check it on runs that keep no basis.

After convergence an optional AMR pass refines cells whose xi falls below
the refinement threshold until none is flagged, transferring all fields to
the new mesh.  It never coarsens: no cell it refined can become intact
again (:func:`amr_pass`).

Most steps of a preload are elastic: the mesh, v and xi come out of the
step bit for bit as they went in.  What depends on them alone is kept on
the mesh with its inputs and handed back for the same inputs
(:meth:`mesh.Mesh.reuse`): the free block of the folded u operator
``K(v)`` for the Dirichlet set of u, the diffusion matrix and load of the
phase system, the cell xi of v, and the parts of the energies that do not
involve u.  The mesh also keeps ``|grad u|^2`` of the last u, which the
strain-drive reaction and the strain energy share.  An elastic step then
does only the load's work, each part once: the right-hand side and solve
of u, one ``|grad u|^2``, the strain-drive reaction, the phase solve and
the strain energy.  Its second phase sweep pins every node, so it
restricts and solves nothing.  Inputs match bit for bit (``-0.0`` is not
``0.0``), so a kept output is always the one a fresh evaluation would
give, and no entry refers to its mesh, so the entries die with it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import fem, mesh as meshmod, phasefield as pf
from .fem import ScalarField
from .mesh import Mesh

log = logging.getLogger(__name__)

_LEVELS = (lambda v: 1 <= v <= meshmod._MAXLEVEL,  # all that a Mesh holds
           f"must lie in [1, {meshmod._MAXLEVEL}]")


@dataclass(frozen=True)
class MeshParams(pf.Params):
    level_start: int = pf.param(7, _LEVELS)
    level_max: int = pf.param(7, _LEVELS)
    crack_y_tip: float = pf.param(0.5, (lambda v: 0.0 <= v <= 1.0,
                                        "must lie in [0, 1]"))

    def __post_init__(self):
        super().__post_init__()
        if self.level_start > self.level_max:
            raise ValueError("need level_start <= level_max")


@dataclass(frozen=True)
class LoadingParams(pf.Params):
    c: float = pf.param(1.0, pf.NONNEGATIVE)
    dt: float = pf.param(0.01, pf.POSITIVE)
    n_max: int = pf.param(120, pf.NONNEGATIVE)


@dataclass(frozen=True)
class SolverParams(pf.Params):
    staggered_tol: float = pf.param(1e-4, pf.POSITIVE)
    method: str = pf.param("direct", (lambda v: v in ("direct", "pcg"),
                                      "must be direct or pcg"))


@dataclass(frozen=True)
class AmrParams(pf.Params):
    enabled: bool = pf.param(False, (lambda v: isinstance(v, bool),
                                     "must be true or false"))


@dataclass(frozen=True)
class OutputParams(pf.Params):
    cadence: int = pf.param(10, pf.POSITIVE)


@dataclass(frozen=True)
class SimConfig:
    regularization: pf.RegularizationParams = pf.RegularizationParams()
    mesh: MeshParams = MeshParams()
    loading: LoadingParams = LoadingParams()
    solver: SolverParams = SolverParams()
    amr: AmrParams = AmrParams()
    output: OutputParams = OutputParams()


@dataclass(slots=True)
class SimState:
    """The state of a run.

    The crack is the set where ``v`` vanishes, read as :attr:`mask`, and a
    load step's irreversibility bound is ``v`` as the step starts, so
    neither is stored beside ``v``.  A state rebuilt from these fields
    returns the same fields.
    """

    mesh: Mesh
    u: ScalarField
    v: ScalarField
    xi: np.ndarray  # one value per cell, in every mode
    t: float = 0.0
    step: int = 0
    history: list[pf.EnergyRecord] = dc_field(default_factory=list)

    @property
    def mask(self) -> pf.CrackMask:
        """The crack: the vertices where ``v`` is exactly zero."""
        return pf.CrackMask(self.v.values == 0.0)


def boundary_displacement(mesh: Mesh, t: float, c: float
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Opposing Dirichlet data on the top boundary halves, as
    ``(pinned, values)``: left half ``-c t``, right half ``+c t``, and the
    crack-mouth node at ``x = 0.5`` left free.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    x = mesh.vertex_coords[:, 0]
    pinned = np.zeros(mesh.n_vertices, dtype=bool)
    pinned[mesh.boundary_vertices(meshmod.TOP)] = True
    pinned &= x != 0.5
    return pinned, np.where(pinned, np.copysign(c * t, x - 0.5), 0.0)


def initialize(config: SimConfig) -> SimState:
    mp = config.mesh
    grid = meshmod.build_uniform(mp.level_start, level_min=mp.level_start,
                                 level_max=mp.level_max)
    v0 = pf.initial_crack(grid, mp.crack_y_tip)
    u0 = fem.constant_field(grid, 0.0)
    xi = pf.cell_xi(grid, v0, config.regularization)
    return SimState(mesh=grid, u=u0, v=v0, xi=xi)


def update_xi(state: SimState, config: SimConfig) -> np.ndarray:
    """Refresh the cell xi from the current phase field, per mode."""
    return pf.cell_xi(state.mesh, state.v, config.regularization)


# Caps on the staggered iterations of one load step and on the active-set
# sweeps inside one phase-field solve.
_MAX_STAGGERED = 500
_MAX_ACTIVE_SET = 30
# Krylov tangents of a solved first sweep that join its answer in the
# basis of its family (_first_sweep).
_TANGENTS = 7
# Stand-in for the condition number kappa_inf(A) of a phase system in the
# pin margin of _pins_clearly.  The amr_field phase systems (8,439 free
# dofs) measure kappa_inf of 5.6e3 to 7.4e3.
_COND_ALLOWANCE = 1e5


def _pins_clearly(sys, v: ScalarField, residual, threshold, open_) -> bool:
    """Whether ``v`` pins some node of ``open_`` and every node of ``open_``
    lies clear of ``threshold`` by more than ``v``'s error margin.

    ``residual`` is ``A x - b`` for the free values ``x`` of ``v``, as
    :func:`fem.project` hands it back.  The margin is the first-order
    bound ``kappa (rho + rtol) ||v||_inf`` on how far ``v`` and the
    solver's answer can lie apart, where ``rho`` is the relative residual
    of ``v`` in the max norm, ``rtol`` is :data:`fem.RTOL` and stands for
    the solver's, and ``kappa`` is ``_COND_ALLOWANCE``.  When it holds,
    both fields pin the same nodes, to first order, as long as
    ``kappa_inf(A)`` is at most the allowance and the solver's answer
    meets ``rtol`` in the max norm.  Neither is checked here.
    """
    bmax = np.abs(sys.rhs).max()
    over = v.values[open_] - threshold[open_]
    margin = (_COND_ALLOWANCE * (np.abs(residual).max() + fem.RTOL * bmax)
              * np.abs(v.values[open_]).max())
    return bool(np.any(over > 0) and np.all(np.abs(over) * bmax > margin))


@dataclass(slots=True)
class _Basis:
    """The basis that first sweeps of one family are projected onto."""

    # Orthonormal rows of free values: one solved first sweep and its
    # _TANGENTS Krylov tangents; empty until such a sweep is solved.
    rows: list[np.ndarray] = dc_field(default_factory=list)
    # Whether the rows decided a first sweep since they were built.
    served: bool = False


def _first_sweep(state: SimState, sys, solve, threshold, open_, reaction,
                 start) -> tuple[fem.ScalarField, bool]:
    """Sweep 1 of a direct phase solve, projected onto its family's basis
    first.

    The basis is a :class:`_Basis` that the mesh keeps under the sweep's xi
    and free set (:meth:`Mesh.reuse`), so a sweep of another family finds a
    fresh, empty one.  Returns the field and whether it is a solver's
    answer; if not, it depends on the basis but pins clearly
    (:func:`_pins_clearly`), so that only its pin decision is used.  An
    accepted projection that pins clearly comes back as it is and marks the
    basis as served.  Else the sweep is solved once, without the basis.  A
    ``start``, the full-length answer of this sweep in the previous
    staggered iteration or None, goes to ``solve``, the caller's sweep
    solve, as the guess: the guess, its Galerkin multiple or the deflated CG
    from that multiple, to the ``direct`` contract, gives the answer, which
    has no factor and leaves the basis as it is.  Without a start the sweep
    is factored by :func:`fem.solve_factored`.  When that answer ``x`` lies
    above ``threshold`` at every free node, the next sweep has no unknown
    and v stays at its bound, so the next first sweep meets this family
    again; then, if the basis is empty or has served, ``x`` and the
    ``_TANGENTS`` tangents ``(A^-1 R)^j x`` (:func:`fem.family_tangents`,
    with ``R`` the strain-drive mass ``reaction``), orthonormalized
    (:func:`fem.orthonormalize`), replace it.  A basis that decides no first
    sweep would only buy tangents that fail too.  The factor is released on
    return.
    """
    basis = state.mesh.reuse("first_sweep", (state.xi, sys.free), _Basis)
    projected, accepted, residual = fem.project(sys, basis.rows)
    if accepted and _pins_clearly(sys, projected, residual, threshold, open_):
        basis.served = True
        return projected, False
    if start is not None:
        return solve(sys, start), True
    v, factor = fem.solve_factored(sys)
    x = v.values[sys.free]
    if (factor is not None and (basis.served or not basis.rows)
            and np.all(x > threshold[sys.free])):
        basis.rows = fem.orthonormalize(
            [x, *fem.family_tangents(factor, reaction, sys.free, x,
                                     _TANGENTS)])
        basis.served = False
    return v, True


def _solve_phase_bounded(state: SimState, bound: ScalarField, solve,
                         sol: SolverParams, starts: dict
                         ) -> tuple[fem.ScalarField, bool]:
    """Phase-field solve respecting the upper bound ``v <= min(bound, 1)``.

    ``bound`` is ``v`` as the load step started (:func:`staggered_step`).

    A plain solve-then-clip treatment leaves crack-face nodes frozen at
    transient values: the unconstrained solution overshoots the bound next
    to pinned nodes, so clipping can never relax the profile.  Pinning the
    violating nodes at their bound and re-solving (a primal active set)
    recovers the true constrained minimizer in a few sweeps.  The active
    set, one bool per vertex, starts from the crack, the zeros of
    ``state.v`` (pinned at zero), and grows by the violating nodes (pinned
    at their bound).
    The folded operator is assembled once; each sweep only restricts it.
    Returns the solution and False when the active set was still growing
    after ``_MAX_ACTIVE_SET`` sweeps.

    ``solve(sys, guess=None)`` solves one sweep.  Under ``direct`` the
    first sweep, which pins only the crack, goes through
    :func:`_first_sweep`, which projects it onto the basis the mesh keeps
    for its family and may rebuild that basis from its answer.  A
    first-sweep field that depends on the basis is used only when it pins
    some node and clears the pin threshold by its error margin; the next
    sweep then solves with those nodes pinned, so the returned field is
    always a solver's answer.

    ``starts`` maps a sweep index to the full-length answer of that sweep
    in the previous call, and this call replaces its contents with its
    own answers.  Under ``pcg`` sweep k gets ``starts[k]`` as its guess,
    and a sweep without an entry starts from zero: the answer of another
    sweep pins other nodes.  Under ``direct`` only the first sweep's
    answer is kept, and only when it was solved: a projected answer never
    becomes a start, so no start's bits come from the basis.  The next
    call's first sweep then runs CG from it instead of factoring the
    whole system again; its answer only decides which nodes the next
    sweep pins, unless it pins none and is the returned field, as a CG
    answer of u is.  Later sweeps get no guess: their answers are the
    returned field, and a band of a few to a few hundred dofs factors
    faster than CG builds its coarse plan.
    """
    upper = np.minimum(bound.values, 1.0)
    pinned = state.v.values == 0.0
    values = np.where(pinned, 0.0, upper)
    folded, reaction = pf.assemble_phase(state.mesh, state.u, state.xi)
    threshold = upper + 1e-12
    previous = starts.copy()
    starts.clear()
    v = None
    for sweep in range(_MAX_ACTIVE_SET):
        sys = fem.apply_dirichlet(folded, pinned, values)
        if sol.method == "pcg":
            v = solve(sys, previous.get(sweep))
            starts[sweep] = v.values
        elif sweep:
            v = solve(sys)
        else:
            v, solved = _first_sweep(state, sys, solve, threshold, ~pinned,
                                     reaction, previous.get(0))
            if solved:
                starts[0] = v.values
        grow = (v.values > threshold) & ~pinned
        if not grow.any():
            return v, True
        pinned |= grow
    log.warning("phase-field active set still growing after %d sweeps",
                _MAX_ACTIVE_SET)
    return v, False


def staggered_step(state: SimState, config: SimConfig) -> tuple[int, bool]:
    """Alternate u and v solves at the current load until both settle.

    Mutates ``state`` in place and returns (iterations, converged).
    Non-convergence keeps the last iterate and is reported, not fatal; so
    is a phase solve that hits the active-set cap, which marks the step
    not converged.

    The irreversibility bound of every iteration is ``state.v`` as this
    call finds it, and the crack each iteration starts from is the zeros
    of the iteration's starting ``v``.

    The u solve gets ``state.u`` as its guess.  Under ``pcg`` each phase
    sweep starts from its own answer in the previous iteration of this
    call, kept in a local dict, so no start crosses a load step, a mesh
    change or a restart; under ``direct`` the first phase sweep is
    projected onto the basis the mesh keeps for its family, and, when
    that does not decide it, starts from its solved answer in the
    previous iteration if it has one (:func:`_first_sweep`).

    An iteration that leaves ``v`` and xi exactly as it found them has
    reached a fixed point: the next iteration would repeat
    its u and v solves bit for bit and pass the stopping test with both
    changes zero.  The guess keeps this exact.  The skipped iteration
    would assemble the same u system and hand it ``u_k``, which already
    passed that system's residual test (every answer a solve returns
    does, a CG iterate included), so the solve would return ``u_k`` bit
    for bit and the phase solve would repeat too: each of its sweeps
    would meet the system it met before and be factored again, be
    projected onto the same basis, or be handed the answer it gave then,
    which passes the same test.  The loop stops there
    without running it, but counts it, so iteration k returns ``k + 1``
    iterations, converged, whenever ``k + 1 <= _MAX_STAGGERED``.
    """
    sol = config.solver
    bc = boundary_displacement(state.mesh, state.t, config.loading.c)
    solve = lambda sys, guess=None: fem.solve_field(sys, method=sol.method,
                                                    guess=guess)

    bound = state.v
    converged = capped = False
    iters = 0
    starts = {}
    for iters in range(1, _MAX_STAGGERED + 1):
        u_old, v_old, xi_old = state.u, state.v, state.xi
        cracked = v_old.values == 0.0

        sys_u = pf.assemble_displacement(state.mesh, state.v, *bc)
        state.u = solve(sys_u, state.u.values)

        v_raw, settled = _solve_phase_bounded(state, bound, solve, sol, starts)
        capped |= not settled
        state.v = pf.enforce_irreversibility(v_raw, bound, cracked)

        state.xi = update_xi(state, config)

        err_u = fem.l2_relative_error(state.u, u_old)
        err_v = fem.l2_relative_error(state.v, v_old)
        if err_u < sol.staggered_tol and err_v < sol.staggered_tol:
            converged = True
            break
        # An exact fixed point: the next iteration would repeat this one.
        if (iters < _MAX_STAGGERED
                and np.array_equal(state.xi, xi_old)
                and np.array_equal(state.v.values, v_old.values)):
            iters += 1
            converged = True
            break

    if not converged:
        log.warning("step %d: staggered loop hit %d iterations without "
                    "converging (err_u=%.2e, err_v=%.2e)",
                    state.step, iters, err_u, err_v)
    return iters, converged and not capped


def _amr_flags(mesh, v_values, config: SimConfig) -> np.ndarray:
    """The cells below ``level_max`` whose xi, the cell xi of ``v_values``,
    falls below the refinement threshold :data:`phasefield.XI_REFINE`."""
    reg = config.regularization
    xi_cells = pf.xi_field(mesh, ScalarField(mesh, v_values), reg)
    return np.flatnonzero((xi_cells < pf.XI_REFINE)
                          & (mesh.cell_levels < config.mesh.level_max))


def amr_pass(state: SimState, config: SimConfig) -> bool:
    """Refine the mesh to its fixed point; True if the mesh changed.

    Cells are refined until none is flagged: 2:1 balancing can split
    unflagged cells whose children then fall below the threshold.  This
    ends, since :func:`mesh.refine` either returns its input or adds cells,
    none finer than ``level_max``.  ``u`` and ``v`` move together as the
    columns of one block after each refinement, v is clipped to [0, 1]
    after every transfer, and xi on the final mesh is
    :func:`phasefield.cell_xi` of the transferred v, in every mode;
    transfers keep the exact zeros of v, so the crack moves with it.

    Nothing is merged back.  A cell whose vertices all have v >= 1 - 1e-6
    has xi = xi_0 to about 1e-6, so either every such cell is low or every
    low cell has a vertex with v < 1 - 1e-6.  Irreversibility never raises
    that v and refinement keeps it, so the children of a refined cell are
    never all intact and would never merge.  A pass that leaves the mesh
    as it is changes nothing in ``state``.  Its flags take xi from
    :func:`phasefield.xi_field`, which the mesh keeps for the last v; in
    field mode that is what the staggered loop's last xi update evaluated,
    so such a pass evaluates nothing.
    """
    old = mesh = state.mesh
    fields = np.column_stack([state.u.values, state.v.values])
    while (new := meshmod.refine(
            mesh, _amr_flags(mesh, fields[:, 1], config))) is not mesh:
        fields = meshmod.transfer_field(mesh, new, fields)
        np.clip(fields[:, 1], 0.0, 1.0, out=fields[:, 1])
        mesh = new
    if mesh is old:
        return False

    state.mesh = mesh
    state.u, state.v = (ScalarField(mesh, f) for f in fields.T.copy())
    state.xi = pf.transfer_regularization(mesh, state.v,
                                          config.regularization)
    return True


def crack_reached_bottom(state: SimState) -> bool:
    bottom = state.mesh.boundary_vertices(meshmod.BOTTOM)
    return bool(state.mask.pinned[bottom].any())


def run(config: SimConfig, out_dir=None, snapshot_hook=None
        ) -> tuple[list[pf.EnergyRecord], SimState]:
    """Execute the quasi-static load loop.

    Stops early when the crack reaches the bottom boundary.  When
    ``out_dir`` is given, field snapshots, energy and xi histories, and a
    reproduction manifest are written there (see :mod:`xifrac.output`).
    A step whose linear solve fails (:class:`fem.LinearSolveError`) ends
    the run as recorded: its row joins the history with
    ``converged=False`` and ``stag_iters=0``, the outputs are finalized
    (which writes that step's snapshot), ``snapshot_hook`` is not called
    for it, and the error propagates.
    """
    from . import output as out  # local import to keep the core IO-free

    state = initialize(config)
    writer = out.RunWriter(out_dir, config) if out_dir is not None else None
    reg = config.regularization

    def record(iters, converged):
        state.history.append(pf.energies(
            state.mesh, state.u, state.v, state.xi, reg, t=state.t,
            stag_iters=iters, converged=converged))
        return state.history[-1]

    for n in range(1, config.loading.n_max + 1):
        state.step = n
        state.t = n * config.loading.dt
        try:
            iters, converged = staggered_step(state, config)
        except fem.LinearSolveError:
            record(0, False)
            if writer is not None:
                writer.finalize(state)
            raise

        remeshed = config.amr.enabled and amr_pass(state, config)

        rec = record(iters, converged)
        log.info("step %3d t=%.3f iters=%d cells=%d E=(%.4g, %.4g, %.4g) "
                 "xi=[%.4g, %.4g] remeshed=%s",
                 n, state.t, iters, state.mesh.n_cells, rec.strain,
                 rec.surface, rec.total, rec.xi_min, rec.xi_max, remeshed)

        if writer is not None and (n % config.output.cadence == 0
                                   or n == config.loading.n_max):
            writer.snapshot(state)
        if snapshot_hook is not None:
            snapshot_hook(state)
        if crack_reached_bottom(state):
            log.info("crack reached the bottom boundary at step %d, stopping", n)
            break

    if writer is not None:
        writer.finalize(state)
    return state.history, state
