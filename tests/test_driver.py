"""Load stepping, staggered convergence, AMR passes and run orchestration."""

import gc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from xifrac import driver, fem, mesh as meshmod, phasefield as pf
from xifrac.config import parse_config
from xifrac.driver import AmrParams, LoadingParams, MeshParams, SimConfig, \
    SolverParams, boundary_displacement, staggered_step
from xifrac.fem import ScalarField, constant_field
from xifrac.mesh import build_uniform

from conftest import Untouchable, aggregates_by_vertex, backward_error, \
    cg_passes, dirichlet_arrays, pin_a_bottom_vertex


def small_config(**kw):
    """Level-4 benchmark variant that runs in well under a second."""
    defaults = dict(
        mesh=MeshParams(level_start=4, level_max=5),
        loading=LoadingParams(c=1.0, dt=0.01, n_max=2),
    )
    defaults.update(kw)
    return SimConfig(**defaults)


# ---------------------------------------------------------------------------
# Parameter validation


def test_mesh_params_validation():
    with pytest.raises(ValueError):
        MeshParams(level_start=8, level_max=7)
    with pytest.raises(ValueError):
        MeshParams(level_start=0, level_max=3)


def test_loading_params_validation():
    with pytest.raises(ValueError):
        LoadingParams(dt=0.0)
    with pytest.raises(ValueError):
        LoadingParams(c=-1.0)


def test_solver_params_validation():
    with pytest.raises(ValueError):
        SolverParams(staggered_tol=0.0)
    with pytest.raises(ValueError):
        SolverParams(method="bicg")


# ---------------------------------------------------------------------------
# Boundary displacement


def test_boundary_displacement_split():
    mesh = build_uniform(3)
    pinned, values = boundary_displacement(mesh, t=0.5, c=2.0)
    top = mesh.boundary_vertices(meshmod.TOP)
    # all top nodes constrained except the one at x = 0.5
    assert pinned.sum() == len(top) - 1
    for node in np.flatnonzero(pinned):
        x = mesh.vertex_coords[node, 0]
        assert mesh.vertex_coords[node, 1] == 1.0
        assert values[node] == pytest.approx(-1.0 if x < 0.5 else 1.0)
    free = [int(n) for n in top if mesh.vertex_coords[n, 0] == 0.5]
    assert not pinned[free[0]]
    assert np.all(values[~pinned] == 0.0)


def test_boundary_displacement_zero_time():
    mesh = build_uniform(2)
    pinned, values = boundary_displacement(mesh, t=0.0, c=1.0)
    assert pinned.any() and np.all(values == 0.0)
    with pytest.raises(ValueError):
        boundary_displacement(mesh, t=-0.1, c=1.0)


# ---------------------------------------------------------------------------
# Initialization


def test_initialize_seeds_crack():
    state = driver.initialize(small_config())
    assert state.mesh.n_cells == 256
    assert len(state.mask) > 0
    coords = state.mesh.vertex_coords[state.mask.pinned]
    assert np.all(coords[:, 0] == 0.5)
    assert np.all(state.u.values == 0.0)


def test_initialize_xi_modes():
    # One xi per cell in every mode; fixed and global spread one value.
    for mode in ("fixed", "global", "field"):
        cfg = small_config(
            regularization=pf.RegularizationParams(mode=mode))
        state = driver.initialize(cfg)
        assert state.xi.shape == (256,)
        assert (len(np.unique(state.xi)) == 1) == (mode != "field")


# ---------------------------------------------------------------------------
# Staggered iteration


def test_zero_load_converges_in_two_iterations():
    # Invariant: with no load and fixed xi the second sweep reproduces the
    # first, so the loop stops at two iterations.
    cfg = small_config(loading=LoadingParams(c=0.0, dt=0.01, n_max=1))
    state = driver.initialize(cfg)
    state.t = 0.01
    iters, converged = staggered_step(state, cfg)
    assert converged
    assert iters <= 2
    assert np.max(np.abs(state.u.values)) < 1e-12


def test_converged_state_reruns_in_one_iteration():
    cfg = small_config()
    state = driver.initialize(cfg)
    state.t = 0.01
    staggered_step(state, cfg)
    iters, converged = staggered_step(state, cfg)
    assert converged
    assert iters == 1


def test_staggered_solution_satisfies_weak_residual():
    # Independent check: the converged u agrees with a dense solve of the
    # degraded system assembled from the final phase field.
    cfg = small_config()
    state = driver.initialize(cfg)
    state.t = 0.02
    _, converged = staggered_step(state, cfg)
    assert converged
    bc = boundary_displacement(state.mesh, state.t, cfg.loading.c)
    sys = pf.assemble_displacement(state.mesh, state.v, *bc)
    u_dense = sys.prescribed.copy()
    u_dense[sys.free] = np.linalg.solve(sys.matrix.toarray(), sys.rhs)
    u_dense = state.mesh.constraints.apply(u_dense)
    # the loop stops when u changes by < staggered_tol, so the gap between
    # the stored u (from the second-to-last v) and the dense answer is
    # bounded by a few multiples of that tolerance
    gap = np.linalg.norm(state.u.values - u_dense) / np.linalg.norm(u_dense)
    assert gap < 10 * cfg.solver.staggered_tol


def test_irreversibility_across_steps():
    cfg = small_config(loading=LoadingParams(c=1.0, dt=0.05, n_max=6))
    prev = None
    seen = []

    def hook(state):
        seen.append((state.v.values.copy(), state.mask.pinned,
                     state.mesh.id))

    driver.run(cfg, snapshot_hook=hook)
    for (v0, m0, mid0), (v1, m1, mid1) in zip(seen, seen[1:]):
        if mid0 != mid1:
            continue  # mesh changed; nodal comparison not meaningful
        assert np.all(v1 <= v0 + 1e-12)
        assert np.all(m1[m0])  # crack mask growth is monotone


@pytest.mark.parametrize("mode", ["field", "global"])
@pytest.mark.parametrize("alpha", [100.0, 7900.0, 2e5])
def test_xi_stays_clamped(alpha, mode):
    # At the paper's alpha = 7900 the clamp binds nowhere.  The unclamped
    # xi where v = 1 and grad v = 0 is sqrt((G_c/c_v) zeta/alpha): 0.31 at
    # alpha = 100, above XI_MAX, and 0.0069 at alpha = 2e5, below XI_MIN,
    # so there some cell must sit exactly on the bound.
    reg = pf.RegularizationParams(mode=mode, alpha=alpha)
    cfg = small_config(regularization=reg,
                       loading=LoadingParams(c=1.0, dt=0.05, n_max=5))
    lows, highs = [], []

    def hook(state):
        cells = state.xi
        lows.append(cells.min())
        highs.append(cells.max())

    driver.run(cfg, snapshot_hook=hook)
    assert min(lows) >= pf.XI_MIN - 1e-15
    assert max(highs) <= pf.XI_MAX + 1e-15
    if alpha == 100.0:
        assert max(highs) == pf.XI_MAX
    if alpha == 2e5:
        assert min(lows) == pf.XI_MIN


def reference_staggered_step(state, config):
    """The staggered loop as a plain oracle: no fixed-point stop, the phase
    operator assembled on every active-set sweep, no sweep cap.  The bound
    is v as the step starts, and each iteration's crack the zeros of its
    starting v.  Under pcg the n-th sweep of an iteration is handed the
    n-th sweep's answer of the iteration before, when there was one."""
    sol = config.solver
    bc = boundary_displacement(state.mesh, state.t, config.loading.c)

    def solve(sys, guess=None):
        return fem.solve_field(sys, method=sol.method, guess=guess)

    bound = state.v
    upper = np.minimum(bound.values, 1.0)
    answers = []
    iters = 0
    for iters in range(1, driver._MAX_STAGGERED + 1):
        u_old, v_old = state.u, state.v
        state.u = solve(pf.assemble_displacement(state.mesh, state.v, *bc),
                        state.u.values)
        cracked = v_old.values == 0.0
        active = dict.fromkeys(np.flatnonzero(cracked).tolist(), 0.0)
        earlier, answers = answers, []
        while True:
            folded, _ = pf.assemble_phase(state.mesh, state.u, state.xi)
            k = len(answers)
            start = (earlier[k] if sol.method == "pcg" and k < len(earlier)
                     else None)
            v = solve(fem.apply_dirichlet(
                folded, *dirichlet_arrays(state.mesh.n_vertices, active)),
                start)
            answers.append(v.values)
            grow = [int(n) for n in np.flatnonzero(v.values > upper + 1e-12)
                    if n not in active]
            if not grow:
                break
            active.update((n, upper[n]) for n in grow)
        state.v = pf.enforce_irreversibility(v, bound, cracked)
        state.xi = driver.update_xi(state, config)
        if (fem.l2_relative_error(state.u, u_old) < sol.staggered_tol
                and fem.l2_relative_error(state.v, v_old) < sol.staggered_tol):
            return iters, True
    return iters, False


def _assert_same_state(a, b):
    assert a.u.values.tobytes() == b.u.values.tobytes()
    assert a.v.values.tobytes() == b.v.values.tobytes()
    assert a.xi.tobytes() == b.xi.tobytes()
    assert np.array_equal(a.mask.pinned, b.mask.pinned)


def _adapted_field_state(**kw):
    cfg, state = _field_state(level_start=6, level_max=7, **kw)
    while driver.amr_pass(state, cfg):
        pass
    state.t = 0.01
    return cfg, state


@pytest.mark.parametrize("max_iter, method", [
    (1, "direct"), (2, "direct"), (500, "direct"),
    (1, "pcg"), (2, "pcg"), (500, "pcg"),
], ids=["1", "2", "500", "1-pcg", "2-pcg", "500-pcg"])
def test_elastic_amr_step_matches_reference_loop(max_iter, method,
                                                monkeypatch):
    monkeypatch.setattr(driver, "_MAX_STAGGERED", max_iter)
    cfg, state = _adapted_field_state(solver=SolverParams(method=method))
    _, ref = _adapted_field_state(solver=SolverParams(method=method))
    assert len(state.mesh.constraints) > 0
    got = staggered_step(state, cfg)
    assert got == reference_staggered_step(ref, cfg)
    assert got == ((1, False) if max_iter == 1 else (2, True))
    _assert_same_state(state, ref)


def _fracture_config(method):
    # Level 3, fixed xi, dt = 0.05: step 1 is elastic, step 4 takes 26
    # iterations under direct and 14 under pcg, and by step 5 the crack
    # mask has grown from 5 to 9 and 13 nodes.
    return small_config(mesh=MeshParams(level_start=3, level_max=3),
                        loading=LoadingParams(c=1.0, dt=0.05, n_max=5),
                        solver=SolverParams(method=method))


def _phase_sweeps(monkeypatch):
    """Spy on the driver's phase solves: per phase solve, a list with the
    guess and the answer of each sweep, in order, as bytes.  The guess is
    None for a sweep solved without one, through fem.solve_field or
    fem.solve_factored, and "projected" for a direct first sweep decided
    by projection."""
    solves, current = [], [None]
    solve_field, solve_bounded = fem.solve_field, driver._solve_phase_bounded
    solve_factored, first_sweep = fem.solve_factored, driver._first_sweep

    def spy_bounded(*args):
        current[0] = []
        solves.append(current[0])
        try:
            return solve_bounded(*args)
        finally:
            current[0] = None

    def spy_solve(sys, *args, guess=None, **kwargs):
        v = solve_field(sys, *args, guess=guess, **kwargs)
        if current[0] is not None:
            current[0].append((None if guess is None
                               else np.asarray(guess).tobytes(),
                               v.values.tobytes()))
        return v

    def spy_solve_factored(sys, *args, **kwargs):
        v, factor = solve_factored(sys, *args, **kwargs)
        current[0].append((None, v.values.tobytes()))
        return v, factor

    def spy_first_sweep(*args):
        v, solved = first_sweep(*args)
        if not solved:
            current[0].append(("projected", v.values.tobytes()))
        return v, solved

    monkeypatch.setattr(driver, "_solve_phase_bounded", spy_bounded)
    monkeypatch.setattr(fem, "solve_field", spy_solve)
    monkeypatch.setattr(fem, "solve_factored", spy_solve_factored)
    monkeypatch.setattr(driver, "_first_sweep", spy_first_sweep)
    return solves


def _cg_iterations(monkeypatch):
    """Spy on fem._pcg: the list of CG iterations of each call."""
    counts, pcg = [], fem._pcg

    def spy(*args):
        x, met, k = pcg(*args)
        counts.append(k)
        return x, met, k

    monkeypatch.setattr(fem, "_pcg", spy)
    return counts


def _fracture_steps_match_reference_loop(method, monkeypatch):
    """Run the fracture steps with the driver and the reference loop, which
    must agree bit for bit.  Returns, per load step, the driver's phase
    sweeps per staggered iteration (see _phase_sweeps), and the number of
    CG iterations the driver ran."""
    cfg = _fracture_config(method)
    sweeps, cg = _phase_sweeps(monkeypatch), _cg_iterations(monkeypatch)
    state, ref = driver.initialize(cfg), driver.initialize(cfg)
    counts, steps, driver_cg = [], [], 0
    for n in range(1, 6):
        for s in (state, ref):
            s.step, s.t = n, n * cfg.loading.dt
        first, before = len(sweeps), sum(cg)
        got = staggered_step(state, cfg)
        steps.append(sweeps[first:])
        driver_cg += sum(cg) - before
        assert got == reference_staggered_step(ref, cfg)
        _assert_same_state(state, ref)
        counts.append((got[0], len(state.mask)))
    assert max(iters for iters, _ in counts) > 10
    assert counts[-1][1] > counts[0][1]
    return steps, driver_cg


def test_fracture_steps_match_reference_loop(monkeypatch):
    # Under direct the first sweep of iteration j >= 2 that is not decided
    # by projection starts from the first sweep's answer in iteration
    # j - 1, when that one was solved rather than projected; no other
    # sweep gets a guess.  The reference loop factors every sweep, so the
    # CG answers pin the nodes that SuperLU's answers would pin.
    steps, cg = _fracture_steps_match_reference_loop("direct", monkeypatch)
    started = 0
    for solves in steps:
        assert solves[0][0][0] in (None, "projected")
        for before, after in zip(solves, solves[1:]):
            assert all(guess is None for guess, _ in after[1:])
            guess = after[0][0]
            if guess != "projected":
                solved = before[0][0] != "projected"
                assert guess == (before[0][1] if solved else None)
                started += guess is not None
    assert started > 10 and cg > 0


def test_pcg_fracture_steps_match_reference_loop(monkeypatch):
    # Under CG the stop stays exact only because every returned iterate
    # meets the true residual test that accepts it as the next guess.
    # Sweep k of iteration j >= 2 starts from sweep k's answer in iteration
    # j - 1, or from zero when that iteration had fewer sweeps; iteration 1
    # of a load step starts every sweep from zero.
    steps, warm_cg = _fracture_steps_match_reference_loop("pcg", monkeypatch)
    started = 0
    for solves in steps:
        assert all(guess is None for guess, _ in solves[0])
        for before, after in zip(solves, solves[1:]):
            for k, (guess, _) in enumerate(after):
                want = before[k][1] if k < len(before) else None
                assert guess == want
                started += guess is not None
    assert started > 10

    # The same steps with every phase sweep started from zero take more CG
    # iterations.
    cfg = _fracture_config("pcg")
    bounded = driver._solve_phase_bounded
    monkeypatch.setattr(driver, "_solve_phase_bounded",
                        lambda state, bound, solve, sol, starts:
                        bounded(state, bound, solve, sol, {}))
    cg = _cg_iterations(monkeypatch)
    cold = driver.initialize(cfg)
    for n in range(1, 6):
        cold.step, cold.t = n, n * cfg.loading.dt
        staggered_step(cold, cfg)
    assert warm_cg < sum(cg)


def test_elastic_step_solves_u_once_and_assembles_phase_once(monkeypatch):
    cfg, state = _adapted_field_state()
    u_systems, u_solves, phase_assemblies = [], [], []
    assemble_u, solve_spd = pf.assemble_displacement, fem.solve_spd
    assemble_v = pf.assemble_phase

    def spy_assemble_u(*args, **kwargs):
        u_systems.append(assemble_u(*args, **kwargs))
        return u_systems[-1]

    def spy_solve(sys, *args, **kwargs):
        if any(sys is known for known in u_systems):
            u_solves.append(sys)
        return solve_spd(sys, *args, **kwargs)

    def spy_assemble_v(*args, **kwargs):
        phase_assemblies.append(1)
        return assemble_v(*args, **kwargs)

    monkeypatch.setattr(pf, "assemble_displacement", spy_assemble_u)
    monkeypatch.setattr(fem, "solve_spd", spy_solve)
    monkeypatch.setattr(pf, "assemble_phase", spy_assemble_v)
    assert staggered_step(state, cfg) == (2, True)
    assert len(u_solves) == 1
    assert len(phase_assemblies) == 1


def _label_factorizations(monkeypatch):
    """Label each factorization "u" when it serves a displacement system
    assembled since the caller last cleared the returned list of them,
    and "v" otherwise; a SuperLU factor gets the label alone, the band
    Cholesky factor of a two-level CG's coarse operator the label and
    " coarse".  Returns that list and the labels, in order."""
    u_systems, factors, solving_u = [], [], [False]
    assemble_u, solve_spd, splu = (pf.assemble_displacement, fem.solve_spd,
                                   fem.spla.splu)
    solve_factored, band_cholesky = fem.solve_factored, fem._band_cholesky

    def spy_assemble_u(*args, **kwargs):
        u_systems.append(assemble_u(*args, **kwargs))
        return u_systems[-1]

    def spy_solve(sys, *args, **kwargs):
        solving_u[0] = any(sys is known for known in u_systems)
        return solve_spd(sys, *args, **kwargs)

    def spy_solve_factored(*args, **kwargs):
        solving_u[0] = False
        return solve_factored(*args, **kwargs)

    def spy_splu(*args, **kwargs):
        factors.append("u" if solving_u[0] else "v")
        return splu(*args, **kwargs)

    def spy_band_cholesky(band):
        factors.append(("u" if solving_u[0] else "v") + " coarse")
        return band_cholesky(band)

    monkeypatch.setattr(pf, "assemble_displacement", spy_assemble_u)
    monkeypatch.setattr(fem, "solve_spd", spy_solve)
    monkeypatch.setattr(fem, "solve_factored", spy_solve_factored)
    monkeypatch.setattr(fem.spla, "splu", spy_splu)
    monkeypatch.setattr(fem, "_band_cholesky", spy_band_cholesky)
    return u_systems, factors


def test_second_elastic_step_reuses_the_scaled_displacement(monkeypatch):
    # A level 3-4 field-mode mesh adapted around the seeded crack (XI_REFINE
    # sits between its cell xi values), small enough for a dense oracle.
    # Both steps are elastic: v does not change, so the step-2 u system is
    # the step-1 operator with Dirichlet data scaled by t2 / t1 = 1.5, and
    # the Galerkin multiple of the step-1 u solves it without a
    # factorization.  The ratio is not a power of two, so that multiple and
    # a fresh solve differ in their last bits, and the reference loop only
    # matches because it passes the same guess.  The step-1 u comes from CG
    # started at zero (u = 0 has no multiple) and meets the direct
    # contract, rtol = 1e-8, so the step-2 u lies within kappa_2(A) rtol of
    # the dense answer, with kappa_2 computed densely.
    monkeypatch.setattr(pf, "XI_REFINE", 0.0348)
    cfg = small_config(
        mesh=MeshParams(level_start=3, level_max=4),
        regularization=pf.RegularizationParams(mode="field", alpha=7900.0),
        amr=AmrParams(enabled=True))
    state, ref = driver.initialize(cfg), driver.initialize(cfg)
    for s in (state, ref):
        while driver.amr_pass(s, cfg):
            pass
        s.step, s.t = 1, 0.02
    assert len(state.mesh.constraints) > 0
    assert staggered_step(state, cfg) == (2, True)
    assert reference_staggered_step(ref, cfg) == (2, True)
    for s in (state, ref):
        s.step, s.t = 2, 0.03
    assert reference_staggered_step(ref, cfg) == (2, True)

    u_systems, factors = _label_factorizations(monkeypatch)
    g = state.u.values
    assert staggered_step(state, cfg) == (2, True)
    # Nothing is factored: the u solve takes the multiple, the first phase
    # sweep is decided by the projection onto the step-1 answer and its
    # tangents, and the second pins every node.
    assert factors == []
    assert len(u_systems) == 1
    sys = u_systems[0]
    A, b, g = sys.matrix, sys.rhs, g[sys.free]
    got = state.u.values[sys.free]
    assert got.tobytes() == ((g @ b / (g @ (A @ g))) * g).tobytes()
    dense = A.toarray()
    want = np.linalg.solve(dense, b)
    bound = np.linalg.cond(dense) * 1e-8
    assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want)
    _assert_same_state(state, ref)


def test_onset_step_under_direct_factors_no_fine_u_system(monkeypatch):
    # An elastic step at t = 0.05 on the adapted field-mode mesh, then an
    # onset step at t = 0.07 in which v moves for several iterations, so
    # the u guess, the previous iterate, and its multiple fail.  Every u
    # solve then runs CG from that multiple, and factors only the coarse
    # operator, by band Cholesky, one column per aggregate (at most one
    # per square two levels coarser than the finest cell at a vertex, as
    # conftest.aggregates_by_vertex counts them on the mesh); no u system
    # meets SuperLU.  The first phase sweep of iteration 1 is factored by
    # SuperLU, at full size; that of every later iteration runs CG from
    # the first sweep's answer in the iteration before, and factors only
    # its coarse operator.  SuperLU then sees only the small later sweeps.
    # The state matches the reference loop, which passes the same u
    # guesses and factors every phase sweep, bit for bit.
    cfg, state = _adapted_field_state()
    _, ref = _adapted_field_state()
    for s in (state, ref):
        s.step, s.t = 1, 0.05
    assert staggered_step(state, cfg) == reference_staggered_step(ref, cfg)
    for s in (state, ref):
        s.step, s.t = 2, 0.07

    u_systems, factors = _label_factorizations(monkeypatch)
    rows, first_sweeps, starts = [], [], []
    splu, band_cholesky, solve_factored, pcg = (
        fem.spla.splu, fem._band_cholesky, fem.solve_factored, fem._pcg)
    monkeypatch.setattr(fem.spla, "splu", lambda A, *a, **k:
                        rows.append(A.shape[0]) or splu(A, *a, **k))
    monkeypatch.setattr(fem, "_band_cholesky", lambda band:
                        rows.append(band.shape[1]) or band_cholesky(band))
    monkeypatch.setattr(fem, "solve_factored", lambda *a, **k:
                        first_sweeps.append(len(a[0].rhs))
                        or solve_factored(*a, **k))
    monkeypatch.setattr(fem, "_pcg", lambda *a: starts.append(
        (factors[-1], a[4])) or pcg(*a))
    iters, converged = staggered_step(state, cfg)
    ours = len(rows), len(starts)
    assert (iters, converged) == reference_staggered_step(ref, cfg)
    assert converged and iters > 2
    _assert_same_state(state, ref)

    # The driver's solves alone, without the reference loop's.
    factors, rows, starts = (factors[:ours[0]], rows[:ours[0]],
                             starts[:ours[1]])
    mesh = state.mesh
    aggregates = aggregates_by_vertex(mesh, np.arange(mesh.n_vertices))[1]
    assert "u" not in factors
    u_rows = [n for f, n in zip(factors, rows) if f == "u coarse"]
    v_rows = [n for f, n in zip(factors, rows) if f == "v coarse"]
    assert u_rows and max(u_rows) <= aggregates
    assert v_rows and max(v_rows) <= aggregates
    assert [f for f, _ in starts] == [f for f in factors if "coarse" in f]
    assert all(x0 is not None for _, x0 in starts)
    assert len(v_rows) == iters - 1
    fine_v = [n for f, n in zip(factors, rows) if f == "v"]
    assert first_sweeps == fine_v[:1] and first_sweeps[0] > aggregates
    assert max(fine_v[1:]) < aggregates


def _kept_basis(state):
    """The first-sweep basis that ``state.mesh`` keeps, or None."""
    kept = state.mesh.products.get("first_sweep")
    return kept[-1][1] if kept else None


def test_elastic_preload_projects_first_phase_sweeps(monkeypatch):
    # Twelve elastic steps of 0.003 on the adapted field-mode mesh: mesh,
    # xi and mask stay fixed and only the strain drive grows, so the first
    # phase sweeps form one family.  All but the first are decided by the
    # projection onto the first one's answer and its seven tangents and
    # factor nothing; the state still matches the reference loop, which
    # keeps no basis, bit for bit.
    cfg, state = _adapted_field_state()
    _, ref = _adapted_field_state()
    assert len(state.mesh.constraints) > 0
    u_systems, factors = _label_factorizations(monkeypatch)
    steps = 12
    for n in range(1, steps + 1):
        for s in (state, ref):
            s.step, s.t = n, 0.003 * n
        got = staggered_step(state, cfg)
        counted = len(factors)
        assert got == reference_staggered_step(ref, cfg) == (2, True)
        del factors[counted:]
        _assert_same_state(state, ref)
        assert 1 <= len(_kept_basis(state).rows) <= driver._TANGENTS + 1
        u_systems.clear()
    # The one u solve, at step 1, runs CG from zero, which factors only
    # its coarse operator.
    assert [f for f in factors if f.startswith("u")] == ["u coarse"]
    # The step-1 first sweep is the one solved: its answer and seven
    # tangents keep the projections within the pin margin up to step 12.
    assert [f for f in factors if f.startswith("v")] == ["v"]


def test_an_elastic_step_computes_each_product_once(monkeypatch):
    # Two elastic steps on the adapted field-mode mesh, each followed by
    # its energies as driver.run records them.  Each step evaluates
    # |grad u|^2 once, for its u: the phase assembly and the strain energy
    # share it.  Step 1 restricts the new K(v) to the Dirichlet set of u;
    # step 2 finds that block kept and gathers only the first phase
    # sweep's block, whose free set is everything off the crack.  The
    # second sweep of each step has no free dof, and its restriction is
    # handed a matrix that fails any use.
    cfg, state = _adapted_field_state()
    mesh = state.mesh
    hanging = np.zeros(mesh.n_vertices, dtype=bool)
    hanging[mesh.constraints.hanging] = True
    grad_sq, gathers, emptied = [], [], []
    real_grad_sq, real_free_block, real_apply = (
        pf._grad_sq, fem.free_block, fem.apply_dirichlet)

    def spy_grad_sq(f):
        grad_sq.append(f.values.tobytes())
        return real_grad_sq(f)

    def spy_free_block(A, mesh, pinned):
        block = real_free_block(A, mesh, pinned)
        if block.plan is not None:
            gathers.append(len(block.free))
        return block

    def spy_apply(sys, pinned, values):
        if np.all(pinned | hanging):
            emptied.append(len(emptied))
            sys = fem.SparseSystem(Untouchable(), sys.rhs, sys.mesh)
        return real_apply(sys, pinned, values)

    monkeypatch.setattr(pf, "_grad_sq", spy_grad_sq)
    monkeypatch.setattr(fem, "free_block", spy_free_block)
    monkeypatch.setattr(fem, "apply_dirichlet", spy_apply)
    u_free = np.count_nonzero(
        ~boundary_displacement(mesh, 0.0, cfg.loading.c)[0] & ~hanging)
    for n in (1, 2):
        state.step, state.t = n, 0.003 * n
        grad_sq.clear(), gathers.clear(), emptied.clear()
        assert staggered_step(state, cfg) == (2, True)
        pf.energies(mesh, state.u, state.v, state.xi, cfg.regularization,
                    t=state.t)
        assert state.mesh is mesh
        u = state.u.values.tobytes()
        assert grad_sq.count(u) == 1
        crack_free = np.count_nonzero((state.v.values != 0.0) & ~hanging)
        assert gathers == ([u_free, crack_free] if n == 1 else [crack_free])
        assert emptied == [0]
    # Step 2 evaluated nothing but its u's |grad u|^2.
    assert grad_sq == [u]
    # What the mesh keeps is read-only, and |grad u|^2 is a fresh one's.
    strain_sq = mesh.products["strain_sq"][-1][1]
    assert strain_sq.tobytes() == real_grad_sq(state.u).tobytes()
    block = mesh.products["displacement"][-1][1]
    for a in (strain_sq, block.matrix.data, block.coupling.data):
        assert not a.flags.writeable


def test_pcg_first_sweeps_factor_no_fine_system_and_get_no_tangents(
        monkeypatch):
    # The same preload under pcg: every phase sweep is a plain solve.  No
    # projection, basis update or tangent runs and the mesh keeps no basis;
    # the only factors are the band Cholesky factors of the CG
    # preconditioner's coarse operators, one column per aggregate (at most
    # as many as conftest.aggregates_by_vertex finds on the mesh), and
    # SuperLU is never called.
    cfg, state = _adapted_field_state(solver=SolverParams(method="pcg"))
    rows, extra = [], []
    band_cholesky = fem._band_cholesky

    def no_splu(*args, **kwargs):
        raise AssertionError("pcg called SuperLU")

    monkeypatch.setattr(fem.spla, "splu", no_splu)
    monkeypatch.setattr(fem, "_band_cholesky",
                        lambda band: rows.append(band.shape[1])
                        or band_cholesky(band))
    for name in ("project", "orthonormalize", "solve_factored",
                 "family_tangents"):
        monkeypatch.setattr(fem, name,
                            lambda *a, name=name, **k: extra.append(name))
    for n in range(1, 7):
        state.step, state.t = n, 0.003 * n
        assert staggered_step(state, cfg) == (2, True)
        assert _kept_basis(state) is None
    assert extra == []
    mesh = state.mesh
    assert rows and max(rows) <= aggregates_by_vertex(
        mesh, np.arange(mesh.n_vertices))[1]


def test_pcg_phase_solve_of_the_intact_trace_stops_where_it_stalls(
        monkeypatch):
    # Step 1 of energy_trace_fixed.cfg at level 6 under pcg: the intact
    # body pins no node, so the phase systems are near-Neumann (kappa_2
    # about 8.5e6), and their relative-residual floor, about 1.9e-9, lies
    # above fem.RTOL.  The backward-error contract lies above the floor:
    # the step converges, and the backward error of every phase solve,
    # computed densely, is at most fem.RTOL.  With the phase solves held
    # below the floor, at fem.RTOL = 1e-17, the first one stalls: it raises
    # within a few restarts and a few hundred iterations, where it once ran
    # on to fem.MAX_ITER (20,000 iterations).
    path = Path(__file__).parents[1] / "configs" / "energy_trace_fixed.cfg"
    cfg = parse_config(path.read_text(), {
        "mesh.level_start": "6", "mesh.level_max": "6",
        "solver.method": "pcg"})
    state = driver.initialize(cfg)
    assert not state.mask.pinned.any()
    state.step, state.t = 1, cfg.loading.dt
    phase, bounded = [], driver._solve_phase_bounded

    def spy(state, bound, solve, sol, starts):
        def kept(sys, guess=None):
            v = solve(sys, guess)
            if len(sys.free):
                phase.append((sys, v.values[sys.free]))
            return v
        return bounded(state, bound, kept, sol, starts)

    monkeypatch.setattr(driver, "_solve_phase_bounded", spy)
    assert staggered_step(state, cfg)[1]
    assert phase
    for sys, x in phase:
        assert backward_error(sys.matrix, x, sys.rhs) <= fem.RTOL

    state = driver.initialize(cfg)
    state.step, state.t = 1, cfg.loading.dt

    def below_the_floor(*args):
        with mock.patch.object(fem, "RTOL", 1e-17):
            return bounded(*args)

    monkeypatch.setattr(driver, "_solve_phase_bounded", below_the_floor)
    solves = cg_passes(monkeypatch)
    with pytest.raises(fem.LinearSolveError, match="stalled") as info:
        staggered_step(state, cfg)
    assert 1e-17 < info.value.residual <= np.finfo(float).eps
    passes, iterations = solves[-1]
    assert passes <= 10 and iterations <= 1000


def _basis_at_each_phase_solve(monkeypatch):
    """Per phase solve, a list: mesh id, xi bytes and mask on entry, the
    number of rows its first sweep is projected onto, the numbers of first
    sweeps solved (factored or started by CG) and of tangents built before
    it, and the number of rows of the basis it built (0 when it built
    none)."""
    seen, solved, built = [], [0], [0]
    solve_bounded, project, first_sweep, family_tangents, orthonormalize = (
        driver._solve_phase_bounded, fem.project, driver._first_sweep,
        fem.family_tangents, fem.orthonormalize)

    def spy(state, *args):
        seen.append([state.mesh.id, state.xi.tobytes(),
                     state.mask.pinned.tobytes(), None, solved[0], built[0],
                     0])
        return solve_bounded(state, *args)

    def spy_project(sys, basis):
        seen[-1][3] = len(basis)
        return project(sys, basis)

    def spy_first_sweep(*args):
        v, was_solved = first_sweep(*args)
        solved[0] += was_solved
        return v, was_solved

    def spy_family_tangents(factor, reaction, free, x, count):
        built[0] += count
        return family_tangents(factor, reaction, free, x, count)

    def spy_orthonormalize(vectors):
        rows = orthonormalize(vectors)
        seen[-1][6] = len(rows)
        return rows

    monkeypatch.setattr(driver, "_solve_phase_bounded", spy)
    monkeypatch.setattr(fem, "project", spy_project)
    monkeypatch.setattr(driver, "_first_sweep", spy_first_sweep)
    monkeypatch.setattr(fem, "family_tangents", spy_family_tangents)
    monkeypatch.setattr(fem, "orthonormalize", spy_orthonormalize)
    return seen


def _family_changes(seen):
    """Check that a phase solve's first sweep finds an empty basis when
    mesh, xi or mask changed since the phase solve before, and otherwise
    the basis that one left; return the kinds of change."""
    kinds = set()
    for before, after in zip(seen, seen[1:]):
        changed = frozenset(
            name for name, a, b in zip(("mesh", "xi", "mask"), before, after)
            if a != b)
        assert after[3] == (0 if changed else before[6] or before[3]), changed
        kinds.add(changed)
    return kinds


@pytest.mark.parametrize("case", ["mesh", "xi", "mask"])
def test_first_sweep_basis_is_fresh_when_its_family_changes(case,
                                                            monkeypatch):
    seen = _basis_at_each_phase_solve(monkeypatch)
    if case == "mesh":
        # Step 1 runs on the start grid; its AMR pass changes the mesh.
        cfg, _ = _field_state(level_start=6, level_max=7,
                              loading=LoadingParams(c=1.0, dt=0.01, n_max=4))
    else:
        # Level 3, dt = 0.05: fracture iterations at steps 4 and 5.  In
        # global mode every one of them moves xi; in fixed mode xi never
        # moves and step 5 grows the mask.
        mode = "global" if case == "xi" else "fixed"
        cfg = small_config(
            mesh=MeshParams(level_start=3, level_max=3),
            loading=LoadingParams(c=1.0, dt=0.05, n_max=5),
            regularization=pf.RegularizationParams(mode=mode))
    driver.run(cfg)
    kinds = _family_changes(seen)
    assert frozenset() in kinds
    assert any(entry[3] for entry in seen)  # some solves did find a basis
    assert any(case in kind for kind in kinds)
    if case != "mesh":
        assert frozenset({case}) in kinds
    # An iteration that changes xi or the mask on its mesh builds no
    # tangent for the first sweep it solved: that family is gone.
    dropped = 0
    for before, after in zip(seen, seen[1:]):
        if before[0] == after[0] and before[1:3] != after[1:3]:
            assert after[5] == before[5]
            dropped += after[4] - before[4]
    assert dropped > 0 or case == "mesh"


def test_fixed_xi_fracture_builds_tangents_only_for_a_basis_that_serves(
        monkeypatch):
    # Level 3, fixed xi, dt = 0.01: 25 steps, elastic up to onset, then
    # fracture iterations.  A first sweep that is solved, with an answer
    # above the pin threshold at every free node, replaces its family's
    # basis with that answer and seven tangents, orthonormalized, when the
    # basis is empty or decided a first sweep since it was built.  Any
    # other first sweep builds no tangent and leaves the basis as it is.
    # A first sweep solved by CG from the previous iteration's answer has no
    # factor, so it builds no tangent either.  Run again with no projection
    # trusted, no basis ever serves, so every later solved sweep of a
    # family keeps the basis it finds.
    outcomes, built, answers = [], [], []
    first_sweep, solve_factored, family_tangents = (
        driver._first_sweep, fem.solve_factored, fem.family_tangents)

    def spy_first_sweep(state, sys, solve, threshold, open_, reaction, start):
        kept = _kept_basis(state)
        before = [] if kept is None else list(kept.rows)
        served = kept is not None and kept.served
        calls, solves = len(built), len(answers)
        v, solved = first_sweep(state, sys, solve, threshold, open_,
                                reaction, start)
        basis = _kept_basis(state)
        if basis is not kept:  # the sweep's family found a fresh basis
            before, served = [], False
        if len(answers) == solves:
            assert built[calls:] == []
            assert [a is b for a, b in zip(basis.rows, before)] == \
                [True] * len(before) == [True] * len(basis.rows)
            if solved:
                assert start is not None and basis.served == served
                outcomes.append("started")
            else:
                assert basis.served
                outcomes.append("projected")
            return v, solved
        assert solved and start is None
        x, factored = answers[-1]
        pins_all = factored and np.all(x > threshold[sys.free])
        if pins_all and (served or not before):
            assert built[calls:] == [driver._TANGENTS]
            assert basis.rows[0].tobytes() == \
                (x / np.linalg.norm(x)).tobytes()
            q = np.array(basis.rows)
            assert 1 < len(q) <= driver._TANGENTS + 1
            assert np.max(np.abs(q @ q.T - np.eye(len(q)))) <= 1e-14
            assert not basis.served
            outcomes.append("rebuilt after serving" if before else "built")
        else:
            assert built[calls:] == []
            assert len(basis.rows) == len(before)
            assert all(a is b for a, b in zip(basis.rows, before))
            assert basis.served == served
            outcomes.append("basis kept" if pins_all else "pins not all")
        return v, solved

    def spy_solve_factored(sys, *args, **kwargs):
        v, factor = solve_factored(sys, *args, **kwargs)
        answers.append((v.values[sys.free], factor is not None))
        return v, factor

    def spy_family_tangents(factor, reaction, free, x, count):
        built.append(count)
        return family_tangents(factor, reaction, free, x, count)

    monkeypatch.setattr(driver, "_first_sweep", spy_first_sweep)
    monkeypatch.setattr(fem, "solve_factored", spy_solve_factored)
    monkeypatch.setattr(fem, "family_tangents", spy_family_tangents)
    cfg = small_config(mesh=MeshParams(level_start=3, level_max=3),
                       loading=LoadingParams(c=1.0, dt=0.01, n_max=25))
    driver.run(cfg)
    assert {"built", "rebuilt after serving", "projected", "started",
            "pins not all"} <= set(outcomes)
    outcomes.clear()
    monkeypatch.setattr(driver, "_pins_clearly", lambda *args: False)
    driver.run(cfg)
    assert {"built", "basis kept", "pins not all", "started"} == \
        set(outcomes)


def test_amr_pass_keeps_the_first_sweep_basis_only_on_an_unchanged_mesh():
    # The basis lives on the mesh: a pass that changes the mesh leaves it
    # behind, and a pass that keeps the mesh keeps it as it was.
    cfg, state = _field_state(level_start=6, level_max=7)

    def seed_basis():
        basis = state.mesh.reuse("first_sweep", (state.xi,), driver._Basis)
        basis.rows.append(state.v.values.copy())
        return basis

    seed_basis()
    assert driver.amr_pass(state, cfg)
    assert _kept_basis(state) is None
    basis = seed_basis()
    while driver.amr_pass(state, cfg):
        assert _kept_basis(state) is None
        basis = seed_basis()
    assert _kept_basis(state) is basis and len(basis.rows) == 1


def _first_phase_sweep_after_an_elastic_step():
    """A level-3 state after one elastic step at t = 0.1, its first phase
    sweep (only the crack pinned) with the solver's answer, and a phase
    solve that starts from a basis spanning the given fields, under a
    bound that defaults to the state's v."""
    cfg = small_config(mesh=MeshParams(level_start=3, level_max=3),
                       loading=LoadingParams(c=1.0, dt=0.1, n_max=1))
    state = driver.initialize(cfg)
    state.step, state.t = 1, 0.1
    staggered_step(state, cfg)
    sol = cfg.solver
    solve = lambda sys, guess=None: fem.solve_field(sys, method=sol.method,
                                                    guess=guess)

    def restricted():
        return fem.apply_dirichlet(
            pf.assemble_phase(state.mesh, state.u, state.xi)[0],
            state.mask.pinned, 0.0)

    def first_sweep():
        sys = restricted()
        return sys, solve(sys).values

    def phase_solve(fields, bound=None):
        free = restricted().free
        basis = state.mesh.reuse("first_sweep", (state.xi, free),
                                 driver._Basis)
        basis.rows = fem.orthonormalize([f[free] for f in fields])
        return driver._solve_phase_bounded(
            state, state.v if bound is None else bound, solve, sol,
            {})[0].values

    return state, first_sweep, phase_solve


def _project_to(monkeypatch, values):
    # An accepted projection onto ``values``, with their own residual.
    monkeypatch.setattr(fem, "project", lambda sys, basis: (
        ScalarField(sys.mesh, values), True,
        sys.matrix @ values[sys.free] - sys.rhs))


def test_accepted_projection_that_pins_nothing_is_solved_again(monkeypatch):
    # Ten times the displacement and a bound of 1: the solver's first sweep
    # stays below 1 and pins nothing.  A projection 1e-12 above it passes,
    # clears the pin threshold by its error margin and pins nothing too,
    # so it would be the returned field; instead the sweep is solved, and
    # the phase solve returns the bytes of a solve with an empty basis.
    state, first_sweep, phase_solve = \
        _first_phase_sweep_after_an_elastic_step()
    state.u = ScalarField(state.mesh, 10.0 * state.u.values)
    bound = constant_field(state.mesh, 1.0)
    sys, first = first_sweep()
    want = phase_solve([], bound)
    assert want.tobytes() == first.tobytes() and want.max() < 1.0
    proposed = first.copy()
    proposed[sys.free] += 1e-12
    _project_to(monkeypatch, proposed)
    assert want.tobytes() == phase_solve([proposed], bound).tobytes()


def test_projection_across_the_pin_threshold_is_not_trusted(monkeypatch):
    # A node k that the solver's first sweep leaves free, 5e-10 below its
    # pin threshold, and a projection that passes the contract but lies
    # 5e-10 above it: trusting that projection would pin k for good.  It
    # falls inside its error margin, so the sweep is solved, and the phase
    # solve returns the bytes of a solve that starts with an empty basis.
    state, first_sweep, phase_solve = \
        _first_phase_sweep_after_an_elastic_step()
    sys, first = first_sweep()
    k = sys.free[np.argmin(np.abs(first[sys.free] - 0.5))]
    assert 0.0 < first[k] < 1.0
    bound = ScalarField(state.mesh, state.v.values.copy())
    bound.values[k] = first[k] + 5e-10 - 1e-12
    want = phase_solve([], bound)
    proposed = first.copy()
    proposed[k] += 1e-9
    _project_to(monkeypatch, proposed)
    assert want.tobytes() == phase_solve([proposed], bound).tobytes()
    # Pinning as the projection says would have given other bytes.
    monkeypatch.setattr(driver, "_pins_clearly", lambda sys, v, *a: True)
    assert want.tobytes() != phase_solve([proposed], bound).tobytes()


def test_capped_active_set_is_recorded_as_not_converged(monkeypatch,
                                                        tmp_path):
    # The first elastic phase solve pins only the seeded crack and finds
    # the intact body above its bound, so it needs a second sweep.
    cfg = small_config(loading=LoadingParams(c=1.0, dt=0.01, n_max=1))

    def converged_column(out):
        driver.run(cfg, out_dir=out)
        rows = (out / "energies.csv").read_text().splitlines()
        return [row.split(",")[-1] for row in rows[1:]]

    assert converged_column(tmp_path / "free") == ["1"]
    monkeypatch.setattr(driver, "_MAX_ACTIVE_SET", 1)
    assert converged_column(tmp_path / "capped") == ["0"]


def test_phase_solve_and_irreversibility_leave_the_mask_alone(monkeypatch):
    # The staggered loop compares each iteration's crack, the zeros of v,
    # with the one before it, and a snapshot hook may keep old fields:
    # neither the phase solve nor the irreversibility projection changes
    # state.v or the crack array it is given.
    cfg = small_config(mesh=MeshParams(level_start=3, level_max=3))
    state = driver.initialize(cfg)
    state.t, sol = 0.1, cfg.solver
    solve = lambda sys, guess=None: fem.solve_field(sys, method=sol.method,
                                                    guess=guess)
    state.u = solve(pf.assemble_displacement(
        state.mesh, state.v,
        *boundary_displacement(state.mesh, state.t, cfg.loading.c)))
    v0 = state.v
    before = v0.values.copy()
    cracked = before == 0.0
    sweeps = []
    apply_dirichlet = fem.apply_dirichlet
    monkeypatch.setattr(fem, "apply_dirichlet", lambda sys, pinned, values:
                        sweeps.append(pinned.sum())
                        or apply_dirichlet(sys, pinned, values))
    v, _ = driver._solve_phase_bounded(state, v0, solve, sol, {})
    assert max(sweeps) > cracked.sum()  # the active set grew past the crack
    assert state.v is v0 and v0.values.tobytes() == before.tobytes()

    damaged = ScalarField(v.mesh, v.values.copy())
    damaged.values[np.flatnonzero(~cracked)[0]] = 0.0
    given = cracked.copy()
    grown = pf.enforce_irreversibility(damaged, v0, given)
    assert np.count_nonzero(grown.values == 0.0) > cracked.sum()
    assert np.array_equal(given, cracked)
    assert v0.values.tobytes() == before.tobytes()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
def test_bounded_phase_solve_is_a_kkt_point():
    # On a 4 x 4 mesh with a seeded crack, after four load steps of 0.02,
    # the grow-only active set keeps nodes pinned at their bound whose
    # multiplier b - A v is negative: releasing them would lower the
    # energy, so the solve did not reach the constrained minimizer.
    cfg = SimConfig(mesh=MeshParams(level_start=2, level_max=2),
                    loading=LoadingParams(c=1.0, dt=0.02, n_max=4))
    state = driver.initialize(cfg)
    for n in range(1, 5):
        state.step, state.t = n, n * cfg.loading.dt
        bound = state.v
        staggered_step(state, cfg)
    solve = lambda sys, guess=None: fem.solve_field(sys, method="direct",
                                                    guess=guess)
    v, settled = driver._solve_phase_bounded(state, bound, solve,
                                             cfg.solver, {})
    assert settled
    folded, _ = pf.assemble_phase(state.mesh, state.u, state.xi)
    multiplier = folded.rhs - folded.matrix @ v.values
    pinned = v.values == np.minimum(bound.values, 1.0)
    pinned[state.mask.pinned] = False
    pinned[state.mesh.constraints.hanging] = False
    assert pinned.any()
    assert multiplier[pinned].min() >= -1e-10


@pytest.mark.parametrize("method", ["direct", "pcg"])
def test_a_zero_of_v_stays_zero_on_an_unchanged_mesh(method, monkeypatch):
    # The crack is the set where v vanishes, and it only grows: on the
    # level-3 fracture steps (one mesh throughout) a vertex that is 0 after
    # some staggered iteration is 0 after every later one, across steps.
    cfg = _fracture_config(method)
    zeros, enforce = [driver.initialize(cfg).v.values == 0.0], \
        pf.enforce_irreversibility

    def spy(*args):
        v = enforce(*args)
        zeros.append(v.values == 0.0)
        return v

    monkeypatch.setattr(pf, "enforce_irreversibility", spy)
    history, state = driver.run(cfg)
    assert sum(rec.stag_iters for rec in history) + 1 >= len(zeros) > 20
    for before, after in zip(zeros, zeros[1:]):
        assert np.all(after[before])
    assert zeros[-1].sum() > zeros[0].sum()
    assert np.array_equal(state.mask.pinned, zeros[-1])


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_direct_and_pcg_reach_the_same_crack():
    # Both methods meet their residual contracts, so a bound-constrained
    # phase solve that returns the constrained minimizer gives both the
    # same crack.  The grow-only active set does not: on these five steps
    # direct ends with 9 crack nodes and pcg with 13, and the final
    # surface energies differ by 13 % (2.521 and 2.858), where they may
    # differ by the staggered tolerance.
    cfg = _fracture_config("direct")
    direct, d_state = driver.run(cfg)
    pcg, p_state = driver.run(_fracture_config("pcg"))
    assert np.array_equal(d_state.mask.pinned, p_state.mask.pinned)
    assert pcg[-1].surface == pytest.approx(direct[-1].surface,
                                            rel=cfg.solver.staggered_tol)


def _load_steps(state, config, last):
    """Load steps ``state.step + 1 .. last`` taken as driver.run takes
    them, without output; returns their energy records."""
    records = []
    reg = config.regularization
    for n in range(state.step + 1, last + 1):
        state.step, state.t = n, n * config.loading.dt
        iters, converged = staggered_step(state, config)
        if config.amr.enabled:
            driver.amr_pass(state, config)
        records.append(pf.energies(
            state.mesh, state.u, state.v, state.xi, reg, t=state.t,
            stag_iters=iters, converged=converged))
        if driver.crack_reached_bottom(state):
            break
    return records


def _projected_first_sweeps(monkeypatch):
    """Spy on the direct first sweeps: the list of the load steps of those
    decided by projection, that is, with neither a factorization nor a CG
    solve from the previous iteration's answer."""
    decided, solved = [], [0]
    first_sweep, solve_factored, solve_field = (
        driver._first_sweep, fem.solve_factored, fem.solve_field)

    def spy_first_sweep(state, *args):
        before = solved[0]
        v, was_solved = first_sweep(state, *args)
        assert was_solved == (solved[0] == before + 1)
        if solved[0] == before:
            decided.append(state.step)
        return v, was_solved

    def spy_solve_factored(*args, **kwargs):
        solved[0] += 1
        return solve_factored(*args, **kwargs)

    def spy_solve_field(*args, **kwargs):
        solved[0] += 1
        return solve_field(*args, **kwargs)

    monkeypatch.setattr(driver, "_first_sweep", spy_first_sweep)
    monkeypatch.setattr(fem, "solve_factored", spy_solve_factored)
    monkeypatch.setattr(fem, "solve_field", spy_solve_field)
    return decided


@pytest.mark.parametrize("overrides, split", [
    ({"mesh.level_start": "6", "mesh.level_max": "7",
      "loading.dt": "0.0015", "loading.n_max": "20"}, 8),
    ({"mesh.level_start": "4", "mesh.level_max": "6",
      "loading.dt": "0.01", "loading.n_max": "14"}, 5),
], ids=["preload", "fracture"])
def test_restart_from_the_fields_alone_repeats_the_run(overrides, split,
                                                       monkeypatch):
    # field_xi_amr.cfg, cut short.  A state rebuilt at step ``split`` from
    # its u, v, xi, t and step, on a mesh rebuilt from its cell keys as a
    # VTK restart would rebuild it, which keeps no basis, stepped on to the
    # end repeats the uninterrupted run byte for byte, although the
    # uninterrupted run's basis decides first sweeps after the split: the
    # returned fields do not depend on the basis.  The preload case is
    # elastic after the step-1 adaptation; in the fracture case damage
    # grows from the seeded tip after the split (the surface energy rises
    # and steps take up to 6 staggered iterations) on the level-4 grid.
    path = Path(__file__).parents[1] / "configs" / "field_xi_amr.cfg"
    cfg = parse_config(path.read_text(), overrides)
    decided = _projected_first_sweeps(monkeypatch)
    saved = {}

    def keep(state):
        if state.step == split:
            old = state.mesh
            mesh = meshmod.Mesh(old._keys, old.level_min, old.level_max)
            assert np.array_equal(mesh.cell_vertices, old.cell_vertices)
            assert np.array_equal(mesh.vertex_coords, old.vertex_coords)
            saved.update(mesh=mesh, u=ScalarField(mesh, state.u.values.copy()),
                         v=ScalarField(mesh, state.v.values.copy()),
                         xi=state.xi.copy(), t=state.t, step=state.step)

    history, final = driver.run(cfg, snapshot_hook=keep)
    assert len(history) == cfg.loading.n_max
    assert any(n > split for n in decided)

    state = driver.SimState(**saved)
    assert _kept_basis(state) is None
    records = _load_steps(state, cfg, cfg.loading.n_max)
    assert records == history[split:]
    for a, b in ((state.u.values, final.u.values),
                 (state.v.values, final.v.values), (state.xi, final.xi)):
        assert a.tobytes() == b.tobytes()
    if split == 5:
        assert history[-1].surface > history[split - 1].surface
        assert max(rec.stag_iters for rec in records) > 2


def test_failed_solve_ends_the_run_as_recorded(tmp_path):
    # Step 1 of the level-6 intact energy trace under pcg, with fem.RTOL
    # below the rounding floor of every system, raises (see the stall test
    # above): the run writes that step's row as not converged, finalizes
    # its outputs and re-raises, and the snapshot hook never sees the
    # failed step.
    path = Path(__file__).parents[1] / "configs" / "energy_trace_fixed.cfg"
    cfg = parse_config(path.read_text(), {
        "mesh.level_start": "6", "mesh.level_max": "6",
        "solver.method": "pcg"})
    seen = []
    with pytest.raises(fem.LinearSolveError, match="stalled"), \
            mock.patch.object(fem, "RTOL", 1e-17):
        driver.run(cfg, out_dir=tmp_path, snapshot_hook=seen.append)
    assert seen == []
    rows = (tmp_path / "energies.csv").read_text().splitlines()
    assert rows[0].endswith("stag_iters,converged")
    assert len(rows) == 2 and rows[1].endswith(",0,0")
    assert (tmp_path / "xi_history.csv").is_file()
    assert sorted(p.name for p in tmp_path.glob("fields_*.vtk")) == \
        ["fields_0001.vtk"]


def test_an_intact_step_scales_u_with_the_load_and_the_strain_energy_as_c2():
    # The shear modulus is a constant; the load enters as mu c^2.  On an
    # intact body the phase solve leaves v at its bound 1, so the u system
    # is the same at c and 2c and only its Dirichlet data doubles: a solve
    # linear in the load returns 2 u, and the strain energy quadruples.
    runs = []
    for c in (1.0, 2.0):
        cfg = parse_config("", {
            "mesh.crack_y_tip": "1.0", "mesh.level_start": "4",
            "mesh.level_max": "4", "regularization.mode": "fixed",
            "solver.method": "direct", "loading.n_max": "1",
            "loading.c": repr(c)})
        history, state = driver.run(cfg)
        runs.append((history[-1], state))
    (once, state1), (twice, state2) = runs
    assert np.all(state1.v.values == 1.0) and np.all(state2.v.values == 1.0)
    u1, u2 = state1.u.values, state2.u.values
    assert np.abs(u1).max() > 0
    assert np.abs(u2 - 2.0 * u1).max() <= 1e-13 * np.abs(u2).max()
    assert twice.strain == pytest.approx(4.0 * once.strain, rel=1e-13)
    assert once.surface == twice.surface == 0.0


# ---------------------------------------------------------------------------
# Products kept on the mesh


def _field_preload():
    # field_xi_amr.cfg, cut short: step 1 adapts the mesh and the other
    # eleven steps are elastic, so they meet the same mesh, v and xi.
    path = Path(__file__).parents[1] / "configs" / "field_xi_amr.cfg"
    return parse_config(path.read_text(), {
        "mesh.level_start": "6", "mesh.level_max": "7",
        "loading.dt": "0.0015", "loading.n_max": "12"})


def _global_pcg_fracture():
    # global_xi_128.cfg on the level-4 grid under pcg: the crack grows from
    # 9 to 17 nodes, and step 18 takes 27 staggered iterations.
    path = Path(__file__).parents[1] / "configs" / "global_xi_128.cfg"
    return parse_config(path.read_text(), {
        "mesh.level_start": "4", "mesh.level_max": "4",
        "solver.method": "pcg", "loading.n_max": "24"})


@pytest.mark.parametrize("make_config", [
    _field_preload, _global_pcg_fracture,
    lambda: _fracture_config("direct"),
], ids=["field-amr-direct", "global-pcg", "fixed"])
def test_a_cold_cache_gives_the_same_run(make_config, monkeypatch):
    # A run whose every lookup of a kept product misses, because the mesh
    # forgets all it keeps before each lookup, repeats a normal run byte
    # for byte, which reuses some of them.
    cfg = make_config()
    reuse = meshmod.Mesh.reuse
    lookups, computed = [], []
    decided = _projected_first_sweeps(monkeypatch)

    def counted(self, name, inputs, compute, keep=1):
        lookups.append(name)
        return reuse(self, name, inputs,
                     lambda: computed.append(name) or compute(), keep)

    monkeypatch.setattr(meshmod.Mesh, "reuse", counted)
    history, state = driver.run(cfg)
    assert len(computed) < len(lookups)
    # Warm direct runs decide some first sweeps by projection; cold runs
    # find every basis empty, so their output owes nothing to a basis.
    assert bool(decided) == (cfg.solver.method == "direct")

    def forgetful(self, name, inputs, compute, keep=1):
        self.products.clear()
        return reuse(self, name, inputs, compute, keep)

    monkeypatch.setattr(meshmod.Mesh, "reuse", forgetful)
    decided.clear()
    cold_history, cold = driver.run(cfg)
    assert decided == []
    assert repr(cold_history) == repr(history)
    for a, b in ((cold.u.values, state.u.values),
                 (cold.v.values, state.v.values), (cold.xi, state.xi)):
        assert a.tobytes() == b.tobytes()


def test_a_finished_run_leaves_no_reference_cycle():
    # What a mesh keeps never refers back to the mesh, so with the cyclic
    # garbage collector off the mesh of a finished run dies as soon as the
    # returned state is dropped.
    cfg = _field_preload()
    gc.disable()
    try:
        history, state = driver.run(cfg)
        assert {"displacement", "phase", "xi_field", "energies",
                "first_sweep", "strain_sq", "plan"} \
            <= set(state.mesh.products)
        mesh = weakref.ref(state.mesh)
        del history, state
        assert mesh() is None
    finally:
        gc.enable()


def test_elastic_steps_balance_the_work_of_the_loads():
    # ROADMAP item 2's balance on the elastic steps of a field-xi preload.
    # The power of the loads is P_n = sum_i (A_u(v_n) u_n)_i c_i over the
    # non-hanging pinned top nodes, with the load rate c_i = +-c, and A_u is
    # assembled afresh, not taken from what the mesh keeps.  While mesh, v
    # and xi stay fixed, u grows linearly with the load, so the trapezoid
    # rule's work (P_{n-1} + P_n) dt / 2 is the change of the energy.
    cfg = _field_preload()
    c = cfg.loading.c
    steps = []

    def power(state):
        mesh = state.mesh
        weight = pf.SHEAR_MODULUS * pf.degradation(fem.field_at_qp(state.v))
        reaction = fem.assemble_weighted_laplace(mesh, weight).matrix \
            @ state.u.values
        pinned, _ = boundary_displacement(mesh, state.t, c)
        pinned[mesh.constraints.hanging] = False
        rate = np.copysign(c, mesh.vertex_coords[:, 0] - 0.5)
        steps.append((mesh, state.v.values.tobytes(), state.xi.tobytes(),
                      float(reaction[pinned] @ rate[pinned])))

    history, _ = driver.run(cfg, snapshot_hook=power)
    # A step is elastic when it leaves mesh, v and xi as it found them.
    elastic = [False] + [a[:3] == b[:3] for a, b in zip(steps, steps[1:])]
    checked = 0
    for n in range(1, len(steps)):
        if elastic[n - 1] and elastic[n]:
            change = history[n].total - history[n - 1].total
            work = 0.5 * (steps[n - 1][3] + steps[n][3]) * cfg.loading.dt
            assert abs(change - work) <= 1e-12 * history[n].total
            checked += 1
    assert checked == len(steps) - 2


# ---------------------------------------------------------------------------
# xi update policy


def test_update_xi_fixed_is_inert():
    cfg = small_config()
    state = driver.initialize(cfg)
    state.v = constant_field(state.mesh, 0.5)
    assert np.array_equal(driver.update_xi(state, cfg), state.xi)


def test_update_xi_global_tracks_damage():
    cfg = small_config(regularization=pf.RegularizationParams(
        mode="global", alpha=7900.0))
    state = driver.initialize(cfg)
    xi_seeded = state.xi[0]
    state.v = constant_field(state.mesh, 1.0)
    xi_intact = driver.update_xi(state, cfg)[0]
    assert xi_intact == pytest.approx(0.03463553454423011, abs=1e-12)
    # the seeded crack shifts the optimum away from the intact value
    assert xi_seeded != pytest.approx(xi_intact, abs=1e-6)


# ---------------------------------------------------------------------------
# AMR


def _field_state(level_start=6, level_max=8, **kw):
    # The seeded crack drops the cell xi below the 0.03 refinement
    # threshold only once h <= 1/64, so AMR tests start at level 6.
    cfg = small_config(
        mesh=MeshParams(level_start=level_start, level_max=level_max),
        regularization=pf.RegularizationParams(mode="field", alpha=7900.0),
        amr=AmrParams(enabled=True), **kw)
    return cfg, driver.initialize(cfg)


def test_amr_refines_low_xi_cells():
    cfg, state = _field_state()
    changed = driver.amr_pass(state, cfg)
    assert changed
    assert state.mesh.cell_levels.max() == cfg.mesh.level_max
    # refinement happens along the seeded crack where xi is small
    fine = state.mesh.cell_levels > 6
    centers = state.mesh.cell_origin + 0.5 * state.mesh.cell_h[:, None]
    assert np.all(np.abs(centers[fine, 0] - 0.5) < 0.2)
    # fields moved with the mesh: v still 0 on the mask, u untouched at 0
    assert np.all(state.v.values[state.mask.pinned] == 0.0)
    assert np.all(state.u.values == 0.0)


def test_amr_reaches_fixed_point_within_level_budget():
    # Invariant: one pass reaches the fixed point; the next changes nothing.
    cfg, state = _field_state(level_start=6, level_max=8)
    assert driver.amr_pass(state, cfg)
    assert not driver.amr_pass(state, cfg)
    assert state.mesh.cell_levels.max() == cfg.mesh.level_max
    assert state.mesh.cell_levels.min() >= state.mesh.level_min


def test_one_amr_pass_leaves_no_cell_flagged(monkeypatch):
    # Over levels 6 to 9 refinement takes five rounds, one more than the
    # range has levels, since balancing splits cells whose children then
    # fall below the threshold.  One pass refines until no cell below
    # level_max is flagged, and a second pass builds no mesh.
    cfg, state = _field_state(level_start=6, level_max=9)
    assert driver.amr_pass(state, cfg)
    assert len(driver._amr_flags(state.mesh, state.v.values, cfg)) == 0
    assert state.mesh.n_cells == 8800
    built = _meshes_built(monkeypatch)
    assert not driver.amr_pass(state, cfg)
    assert built == []


def _meshes_built(monkeypatch):
    """The list of the meshes built from now on, one entry per build."""
    built = []
    init = meshmod.Mesh.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(meshmod.Mesh, "__init__", counting_init)
    return built


def test_amr_pass_on_adapted_mesh_builds_nothing(monkeypatch):
    cfg, state = _field_state(level_start=6, level_max=8)
    while driver.amr_pass(state, cfg):
        pass
    adapted = state.mesh
    built = _meshes_built(monkeypatch)
    assert not driver.amr_pass(state, cfg)
    assert built == []
    assert state.mesh is adapted


def test_amr_pass_reuses_the_field_xi(monkeypatch):
    # On a field-mode mesh that the pass leaves unchanged, a pass after a
    # staggered step takes its flags from the xi that the step's last xi
    # update evaluated: no gradient is evaluated again, and the flags are
    # those of an independent evaluation of the cell xi.  So is every
    # later pass with the same v.
    cfg, state = _field_state(level_start=6, level_max=8)
    while driver.amr_pass(state, cfg):
        pass
    mesh, reg = state.mesh, cfg.regularization
    # Forget the adaptation's xi: the step's xi update is then the only
    # evaluation the pass can reuse.
    mesh.products.clear()
    state.t = 0.01
    staggered_step(state, cfg)
    assert state.mesh is mesh
    g = fem.grad_at_qp(state.v)
    xi = pf.xi_pointwise(fem.field_at_qp(state.v), np.sum(g ** 2, axis=2),
                         reg).mean(axis=1)
    want = np.flatnonzero((xi < pf.XI_REFINE) & (mesh.cell_levels < 8))

    gradients, flags = [], []
    grad_at_qp, refine = fem.grad_at_qp, meshmod.refine
    monkeypatch.setattr(fem, "grad_at_qp",
                        lambda *a: gradients.append(1) or grad_at_qp(*a))
    monkeypatch.setattr(meshmod, "refine",
                        lambda m, c: flags.append(c) or refine(m, c))
    for _ in range(2):
        assert not driver.amr_pass(state, cfg)
    assert gradients == []
    assert len(flags) == 2 and all(np.array_equal(f, want) for f in flags)
    assert state.mesh is mesh


def test_amr_disabled_keeps_mesh():
    cfg = small_config(loading=LoadingParams(c=1.0, dt=0.01, n_max=2))
    hist, state = driver.run(cfg)
    assert state.mesh.n_cells == 256


def test_amr_adapted_mesh_stays_sparse():
    # The fixed-point mesh concentrates cells near the crack: far fewer
    # than a uniform mesh at the maximum level.
    cfg, state = _field_state(level_start=6, level_max=8)
    while driver.amr_pass(state, cfg):
        pass
    assert state.mesh.n_cells < 0.2 * 4 ** 8
    assert state.mesh.cell_levels.min() == 6  # intact corners stay coarse


# ---------------------------------------------------------------------------
# Full runs


def test_run_zero_steps():
    hist, state = driver.run(small_config(
        loading=LoadingParams(c=1.0, dt=0.01, n_max=0)))
    assert hist == []
    assert state.step == 0


def test_run_records_energy_components():
    cfg = small_config(loading=LoadingParams(c=1.0, dt=0.02, n_max=3))
    hist, state = driver.run(cfg)
    assert len(hist) == 3
    for rec in hist:
        assert rec.total == pytest.approx(
            rec.strain + rec.surface + rec.penalty, rel=1e-10)
        assert rec.strain >= 0.0
    # monotone loading: strain energy grows while no fracture happens
    assert hist[0].strain < hist[-1].strain


def test_run_stops_when_crack_reaches_bottom():
    # Inject a bottom-boundary mask node after step 3: the run must stop
    # there instead of finishing all 60 steps.
    cfg = small_config(loading=LoadingParams(c=0.1, dt=0.01, n_max=60))

    def hook(state):
        if state.step == 3:
            pin_a_bottom_vertex(state)

    hist, state = driver.run(cfg, snapshot_hook=hook)
    assert driver.crack_reached_bottom(state)
    assert len(hist) == 3


def test_crack_reached_bottom_detector():
    cfg = small_config()
    state = driver.initialize(cfg)
    assert not driver.crack_reached_bottom(state)
    pin_a_bottom_vertex(state)
    assert driver.crack_reached_bottom(state)
