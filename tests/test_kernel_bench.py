"""Micro-benchmarks of the assembly, qp-evaluation, factorization, CG,
guessed-solve, warm-CG, restriction-and-coarsening, coarse factor and
solve, deflated-CG, projection, tangent, mesh-build, band-plan,
mesh-coarsening and refinement-transfer kernels, of the VTK snapshot round
trip, and of one warm elastic load step.

Each benchmark times one kernel on a mesh of about 8.7k cells (the size of
the adapted ``field_xi_amr`` mesh) and then checks the timed result
against a reference built another way: per-call ``einsum`` local kernels
scattered through a COO matrix and condensed by sparse products with the
hanging-node prolongation, ``spsolve`` with SuperLU's default ordering,
or, for the restriction and the coarse operator, scipy's fancy indexing
and the sparse products ``(Z^T A) Z`` that the cached plans replaced,
factored by SuperLU where the coarse level uses band Cholesky.  The
deflated-CG and band-plan benches run on the 64 x 64 systems of the
``global_pcg`` benchmark instead; the first records its CG iterations and the cost of a
plan's ``W`` map in each result's ``extra_info`` (``--benchmark-json``);
the started-first-sweep bench, on an onset phase system of the adapted
``amr_field`` mesh, records its CG iterations there and checks that its
answer pins the nodes SuperLU's pins;
the elastic-step bench records there, per round, how many times it
evaluated ``|grad u|^2`` and gathered matrix data for a restriction, and
asserts one of each; the mesh-build and band-plan benches record the
best time of each of their two parts.  Those two check against the
brute-force oracles of ``conftest``: the hanging vertices of a search over
every cell edge, the folded pattern of a cell-by-cell loop, and scipy's
indexing and sparse products for the band's plan; the transfer bench,
against the old mesh's interpolant evaluated point by point through
``locate``.
Rounds are fixed, so the file adds a few seconds to the suite.
Run it alone with ``python3 -m pytest tests/test_kernel_bench.py`` to see
the timing table; it is skipped when pytest-benchmark is not installed
(it is in the ``test`` extra).
"""

import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

pytest.importorskip("pytest_benchmark")

from xifrac import driver, fem, output, phasefield as pf  # noqa: E402
from xifrac.config import parse_config  # noqa: E402
from xifrac.fem import GAUSS2, ScalarField  # noqa: E402
from xifrac.mesh import Mesh, build_uniform, coarsen, refine, \
    transfer_field  # noqa: E402

from conftest import aggregates_by_vertex, brute_force_hanging, \
    check_refinement_transfer, coarsen_rule_flags, global_pcg_band, \
    global_pcg_systems, lower_band, pattern_by_cell_loop, scipy_coupling, \
    solved_with_tangents, sparse_prolongation  # noqa: E402

ROUNDS = 20


@pytest.fixture(scope="module")
def mesh():
    """A 64 x 64 grid whose central band of 24 columns is refined once."""
    m = build_uniform(6, level_max=7)
    centre = m.cell_origin[:, 0] + 0.5 * m.cell_h
    m = refine(m, np.flatnonzero(np.abs(centre - 0.5) < 0.19))
    assert 8000 < m.n_cells < 9500 and len(m.constraints) > 0
    return m


@pytest.fixture(scope="module")
def weight(mesh):
    return np.random.default_rng(0).uniform(0.5, 2.0, (mesh.n_cells, 4))


def _reference_matrix(mesh, local):
    conn = mesh.cell_vertices
    a = sp.coo_matrix((local.ravel(), (np.repeat(conn, 4, axis=1).ravel(),
                                       np.tile(conn, (1, 4)).ravel())),
                      shape=(mesh.n_vertices,) * 2).tocsr()
    T = sparse_prolongation(mesh)
    return T.T @ a @ T


def _assert_matrix_close(got, want):
    diff = abs(got - want).max()
    assert diff <= 1e-13 * abs(want).max()


def _run(benchmark, fn, *args, rounds=ROUNDS, **kwargs):
    return benchmark.pedantic(fn, args, kwargs, rounds=rounds, iterations=1,
                              warmup_rounds=1)


def test_bench_laplace_assembly(benchmark, mesh, weight):
    sys = _run(benchmark, fem.assemble_weighted_laplace, mesh, weight)
    _, grads = GAUSS2.tabulation
    local = np.einsum("q,cq,qad,qbd->cab", GAUSS2.weights, weight, grads,
                      grads)
    _assert_matrix_close(sys.matrix, _reference_matrix(mesh, local))


def test_bench_mass_assembly(benchmark, mesh, weight):
    sys = _run(benchmark, fem.assemble_weighted_mass, mesh, weight)
    vals, _ = GAUSS2.tabulation
    local = np.einsum("q,cq,c,qa,qb->cab", GAUSS2.weights, weight,
                      mesh.cell_h ** 2, vals, vals)
    _assert_matrix_close(sys.matrix, _reference_matrix(mesh, local))


def test_bench_load_assembly(benchmark, mesh, weight):
    b = _run(benchmark, fem.assemble_load, mesh, weight)
    vals, _ = GAUSS2.tabulation
    local = np.einsum("q,cq,c,qa->ca", GAUSS2.weights, weight,
                      mesh.cell_h ** 2, vals)
    want = np.zeros(mesh.n_vertices)
    np.add.at(want, mesh.cell_vertices.ravel(), local.ravel())
    want = sparse_prolongation(mesh).T @ want
    assert np.max(np.abs(b - want)) <= 1e-13 * np.max(np.abs(want))


def test_bench_grad_at_qp(benchmark, mesh):
    f = ScalarField(mesh, np.random.default_rng(1).uniform(
        -1.0, 1.0, mesh.n_vertices))
    g = _run(benchmark, fem.grad_at_qp, f)
    _, grads = GAUSS2.tabulation
    want = np.einsum("ca,qad->cqd", f.values[mesh.cell_vertices], grads)
    want /= mesh.cell_h[:, None, None]
    assert np.max(np.abs(g - want)) <= 1e-13 * np.max(np.abs(want))


def test_bench_u_system_factorization(benchmark, mesh):
    # The displacement system of a cracked body under the benchmark load.
    v = pf.initial_crack(mesh, 0.5)
    bc = driver.boundary_displacement(mesh, 0.05, 1.0)
    sys = pf.assemble_displacement(mesh, v, *bc)
    x = _run(benchmark, fem.solve_spd, sys, rounds=5, method="direct")
    want = spla.spsolve(sys.matrix.tocsc(), sys.rhs)
    assert np.max(np.abs(x - want)) <= 1e-9 * np.max(np.abs(want))


def test_bench_u_system_pcg(benchmark, mesh):
    # The same system solved cold by CG with the two-level preconditioner:
    # one factorization of the coarse operator, one row per aggregate, per
    # solve.
    v = pf.initial_crack(mesh, 0.5)
    bc = driver.boundary_displacement(mesh, 0.05, 1.0)
    sys = pf.assemble_displacement(mesh, v, *bc)
    x = _run(benchmark, fem.solve_spd, sys, rounds=5, method="pcg")
    want = spla.spsolve(sys.matrix.tocsc(), sys.rhs)
    assert np.max(np.abs(x - want)) <= 1e-8 * np.max(np.abs(want))


def test_bench_u_system_guess(benchmark, mesh, monkeypatch):
    # An elastic load step: the previous step's u system with its Dirichlet
    # data scaled by 1.5.  The Galerkin multiple of the previous u passes
    # the residual test, so the timed solve is three products and no
    # factorization; a missed acceptance raises instead of factoring.
    v = pf.initial_crack(mesh, 0.5)
    before, sys = (pf.assemble_displacement(
        mesh, v, *driver.boundary_displacement(mesh, t, 1.0))
        for t in (0.04, 0.06))
    previous = fem.solve_spd(before, method="direct")

    def no_factor(*args, **kwargs):
        raise AssertionError("the guess was not accepted")

    with monkeypatch.context() as patch:
        patch.setattr(fem.spla, "splu", no_factor)
        patch.setattr(fem, "_band_cholesky", no_factor)
        x = _run(benchmark, fem.solve_spd, sys, method="direct",
                 guess=previous)
    want = spla.spsolve(sys.matrix.tocsc(), sys.rhs)
    assert np.max(np.abs(x - want)) <= 1e-9 * np.max(np.abs(want))


def test_bench_u_system_warm_cg(benchmark, mesh, monkeypatch):
    # An onset iteration: the crack has grown from y = 0.5 to 0.45 since
    # the previous iterate u, so neither u nor its Galerkin multiple meets
    # the residual test, and the direct method runs CG from that multiple
    # to its contract (rtol 1e-8).  Only the coarse operator is factored,
    # by band Cholesky, with one column per aggregate; a SuperLU call
    # fails the bench.
    bc = driver.boundary_displacement(mesh, 0.05, 1.0)
    before, sys = (pf.assemble_displacement(
        mesh, pf.initial_crack(mesh, tip), *bc) for tip in (0.5, 0.45))
    assert np.array_equal(before.free, sys.free)
    previous = fem.solve_spd(before, method="direct")
    A, b = sys.matrix, sys.rhs
    multiple = (previous @ b / (previous @ (A @ previous))) * previous
    assert np.linalg.norm(A @ multiple - b) > 1e-8 * np.linalg.norm(b)
    band_cholesky = fem._band_cholesky
    _, aggregates = aggregates_by_vertex(mesh, sys.free)

    def no_splu(*args, **kwargs):
        raise AssertionError("a system was factored by SuperLU")

    def coarse_only(band):
        assert band.shape[1] <= aggregates, "a fine system was factored"
        return band_cholesky(band)

    with monkeypatch.context() as patch:
        patch.setattr(fem.spla, "splu", no_splu)
        patch.setattr(fem, "_band_cholesky", coarse_only)
        x = _run(benchmark, fem.solve_spd, sys, method="direct",
                 guess=previous)
    assert np.linalg.norm(A @ x - b) <= 1e-8 * np.linalg.norm(b)
    want = spla.spsolve(A.tocsc(), b)
    assert np.max(np.abs(x - want)) <= 1e-6 * np.max(np.abs(want))


def _reference_coarse(mesh, free, A):
    """The aggregate of each free dof, built vertex by vertex
    (:func:`conftest.aggregates_by_vertex`), and ``(Z^T A) Z`` in CSC
    form, by scipy's sparse products: ``Z`` from the aggregates, and the
    column indices of ``Z^T A`` sorted."""
    agg, count = aggregates_by_vertex(mesh, free)
    shape = (len(free), count)
    Z = sp.csr_matrix((np.ones(len(free)), agg, np.arange(len(free) + 1)),
                      shape=shape)
    W = sp.csr_matrix(Z.T @ A)
    W.sort_indices()
    return agg, (W @ Z).tocsc()


def test_bench_restrict_and_coarsen(benchmark, mesh, monkeypatch):
    # The folded u system of a cracked body, restricted to the dofs off the
    # Dirichlet edges, and its coarse operator, on the cache-hit path: a
    # first call outside the timing builds the plan of this free set and
    # its coarse map, and each timed call gathers values, sums W and the
    # band and factors it.  The result must match the old construction bit
    # for bit: A[free][:, free] and b[free] - A[free] x0 by scipy's
    # indexing, and the lower triangle of (Z^T A) Z by scipy's sparse
    # products.
    v = pf.initial_crack(mesh, 0.5)
    weight = pf.SHEAR_MODULUS * pf.degradation(fem.field_at_qp(v))
    folded = fem.assemble_weighted_laplace(mesh, weight)
    folded.rhs = fem.assemble_load(mesh, 1.0)
    pinned, values = driver.boundary_displacement(mesh, 0.05, 1.0)
    factored, factor = [], fem._band_cholesky

    def restrict_and_coarsen():
        sys = fem.apply_dirichlet(folded, pinned, values)
        return sys, fem._coarse(sys)

    first, _ = restrict_and_coarsen()
    sys, (agg, _, _) = _run(benchmark, restrict_and_coarsen)
    assert sys.plan is first.plan
    with monkeypatch.context() as patch:
        patch.setattr(fem, "_band_cholesky",
                      lambda band: factored.append(band.copy())
                      or factor(band))
        restrict_and_coarsen()

    A, x0 = folded.matrix, np.where(pinned, values, 0.0)
    is_free = ~pinned
    is_free[mesh.constraints.hanging] = False
    free = np.flatnonzero(is_free)
    rows = A[free]
    want = rows[:, free]
    for got_a, want_a in ((sys.matrix.data, want.data),
                          (sys.matrix.indices, want.indices),
                          (sys.matrix.indptr, want.indptr),
                          (sys.rhs, folded.rhs[free] - rows @ x0)):
        assert got_a.dtype == want_a.dtype
        assert got_a.tobytes() == want_a.tobytes()
    want_agg, coarse = _reference_coarse(mesh, free, want)
    assert np.array_equal(agg, want_agg)
    dense = coarse.toarray()
    got = factored[0]
    k = got.shape[0] - 1
    rows, cols = np.nonzero(dense)
    assert got.shape == (k + 1, len(dense)) and k == np.max(rows - cols)
    assert got.tobytes() == lower_band(dense, k).tobytes()


def test_bench_coarse_factor_and_solve(benchmark, mesh):
    # The coarse level of one two-level CG solve of the cracked u system:
    # the band Cholesky factor of its coarse operator (one row per
    # aggregate, half-bandwidth that of (Z^T A) Z), from a plan whose
    # coarse map is built, and 40 coarse solves, about one per CG
    # iteration.  Each answer must match SuperLU's on (Z^T A) Z from the
    # sparse products.
    v = pf.initial_crack(mesh, 0.5)
    bc = driver.boundary_displacement(mesh, 0.05, 1.0)
    sys = pf.assemble_displacement(mesh, v, *bc)
    fem._coarse(sys)
    k = sys.plan.coarse_rows[-1]
    _, coarse = _reference_coarse(mesh, sys.free, sys.matrix)
    rows, cols = coarse.nonzero()
    assert sys.plan.n_agg == coarse.shape[0] and k == np.max(rows - cols)
    rhs = np.random.default_rng(2).normal(size=(40, sys.plan.n_agg))

    def factor_and_solve():
        _, factor, _ = fem._coarse(sys)
        return [fem.lapack.dpbtrs(factor, r, lower=1)[0] for r in rhs]

    got = _run(benchmark, factor_and_solve)
    lu = spla.splu(coarse)
    for x, r in zip(got, rhs):
        want = lu.solve(r)
        assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)


@pytest.fixture(scope="module")
def global_pcg():
    """The u and phase systems of the 64 x 64 global-xi benchmark state."""
    return dict(zip(("u", "phase"), global_pcg_systems()))


@pytest.mark.parametrize("name", ["u", "phase"])
def test_bench_deflated_cg(benchmark, global_pcg, name):
    # One pcg solve of a 64 x 64 system from zero to the pcg contract, a
    # backward error of 1e-10: the coarse band, W = Z^T A and the deflated
    # CG, on the cache-hit path.  The iterations go in extra_info next to
    # the time (25 for u, 24 for the phase system when written; 29 and 35
    # to a relative residual of 1e-10), and so does what the map of W costs
    # when the plan cache misses: the best of ROUNDS builds on fresh plans
    # of the same free set, and the build's traced peak per free-block
    # entry.  The answer must match SuperLU's, and W the sparse product.
    sys = global_pcg[name]
    A, b = sys.matrix, sys.rhs
    limit = fem._limit("pcg", b, A)

    def solve():
        return fem._pcg(A, b, limit, 20000, None, fem._coarse(sys))

    x, met, iters = _run(benchmark, solve)
    assert met
    builds = []
    for _ in range(ROUNDS):
        plan = fem._Plan(sys.mesh, sys.free, A.indptr, A.indices,
                         np.ones(len(b), dtype=bool))
        start = time.perf_counter()
        plan.coarse_rows
        builds.append(time.perf_counter() - start)
    plan = fem._Plan(sys.mesh, sys.free, A.indptr, A.indices,
                     np.ones(len(b), dtype=bool))
    tracemalloc.start()
    try:
        plan.coarse_rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    benchmark.extra_info.update(
        iterations=iters, coarse_rows_build_ms=1e3 * min(builds),
        coarse_rows_peak_bytes_per_entry=peak / A.nnz)
    want = spla.spsolve(A.tocsc(), b)
    assert np.max(np.abs(x - want)) <= 1e-8 * np.max(np.abs(want))
    agg, _ = _reference_coarse(sys.mesh, sys.free, A)
    Z = sp.csr_matrix((np.ones(len(agg)), agg, np.arange(len(agg) + 1)),
                      shape=(len(agg), 256))
    W = fem._coarse(sys)[2]
    assert abs(W - Z.T @ A).max() <= 1e-15 * abs(W).max()


def _preload_first_sweeps(mesh):
    """The first active-set sweep of an elastic preload's phase solve as a
    function of the load t: the crack mask pinned, the displacement scaled
    with the load, so the strain drive grows as t^2.  Each call returns
    the restricted system and its reaction matrix."""
    v = pf.initial_crack(mesh, 0.5)
    reg = pf.RegularizationParams(mode="field", alpha=7900.0)
    xi = pf.xi_field(mesh, v, reg)
    u1 = fem.solve_field(pf.assemble_displacement(
        mesh, v, *driver.boundary_displacement(mesh, 1.0, 1.0)),
        method="direct")

    def first_sweep(t):
        u = ScalarField(mesh, t * u1.values)
        folded, reaction = pf.assemble_phase(mesh, u, xi)
        return fem.apply_dirichlet(folded, v.values == 0.0, 0.0), reaction

    return first_sweep


def test_bench_phase_projection(benchmark, mesh, monkeypatch):
    # Eight earlier first sweeps span a basis, and the projection of the
    # ninth meets the residual test with no factorization; a missed
    # acceptance fails instead of factoring.
    first_sweep = _preload_first_sweeps(mesh)
    basis = fem.orthonormalize(
        [fem.solve_spd(first_sweep(0.0015 * n)[0], method="direct")
         for n in range(20, 28)])
    sys, _ = first_sweep(0.0015 * 28)
    assert 8000 < len(sys.rhs) < 9500

    def no_factor(*args, **kwargs):
        raise AssertionError("the projection factored")

    with monkeypatch.context() as patch:
        patch.setattr(fem.spla, "splu", no_factor)
        got, accepted, residual = _run(benchmark, fem.project, sys, basis)
    assert accepted
    want = spla.spsolve(sys.matrix.tocsc(), sys.rhs)
    x = got.values[sys.free]
    assert np.max(np.abs(x - want)) <= 1e-9 * np.max(np.abs(want))
    assert residual.tobytes() == (sys.matrix @ x - sys.rhs).tobytes()


def test_bench_phase_tangents(benchmark, mesh):
    # A solved first sweep: one factorization gives the answer and the
    # seven tangents (A^-1 R)^j x of the family that fill a phase basis.
    # The reference solves each power with SuperLU's default ordering, R
    # acting on the free values through its free block.
    sys, reaction = _preload_first_sweeps(mesh)(0.0015 * 20)
    count = driver._TANGENTS
    got, tangents = _run(benchmark, solved_with_tangents, sys, reaction,
                         count, rounds=5)
    A = sys.matrix.tocsc()
    r_free = reaction[sys.free][:, sys.free]
    want = spla.spsolve(A, sys.rhs)
    x = got.values[sys.free]
    assert np.max(np.abs(x - want)) <= 1e-9 * np.max(np.abs(want))
    assert len(tangents) == count
    for t in tangents:
        want = spla.spsolve(A, r_free @ want)
        assert np.max(np.abs(t - want)) <= 1e-9 * np.max(np.abs(want))


@pytest.fixture(scope="module")
def onset_first_sweep():
    """The first phase sweep of the amr_field window that CG solves from
    its answer in the staggered iteration before, where damage starts on
    the adapted 8,800-cell mesh: its system, that start, the pin
    threshold, and the solver parameters."""
    path = Path(__file__).parents[1] / "configs" / "field_xi_amr.cfg"
    cfg = parse_config(path.read_text(), {"loading.dt": "0.0015",
                                          "loading.n_max": "42"})
    seen, first_sweep = [], driver._first_sweep

    def spy(state, sys, solve, threshold, open_, reaction, start):
        def started(sys, start):
            seen.append((sys, start, threshold))
            return solve(sys, start)

        return first_sweep(state, sys, started, threshold, open_,
                           reaction, start)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(driver, "_first_sweep", spy)
        _, state = driver.run(cfg)
    assert state.mesh.n_cells == 8800
    assert seen
    return (*seen[0], cfg.solver)


def test_bench_started_first_sweep(benchmark, onset_first_sweep,
                                   monkeypatch):
    # A first sweep of a later staggered iteration under direct: CG from
    # the previous iteration's first-sweep answer (its Galerkin multiple)
    # to the direct contract, rtol 1e-8, with only the coarse operator
    # factored; a SuperLU call fails the bench.  The CG iterations go in
    # extra_info.  The answer must pin the nodes that a SuperLU solve of
    # the same system pins, which is all the driver uses of it.
    sys, start, threshold, sol = onset_first_sweep
    A, b = sys.matrix, sys.rhs
    assert 8000 < len(b) < 9500
    iterations, pcg = [], fem._pcg

    def counted(*args):
        x, met, k = pcg(*args)
        iterations.append(k)
        return x, met, k

    def no_splu(*args, **kwargs):
        raise AssertionError("a system was factored by SuperLU")

    with monkeypatch.context() as patch:
        patch.setattr(fem, "_pcg", counted)
        patch.setattr(fem.spla, "splu", no_splu)
        v = _run(benchmark, fem.solve_field, sys, method=sol.method,
                 guess=start)
    benchmark.extra_info.update(iterations=iterations[-1])
    assert sol.method == "direct" and iterations[-1] > 0
    x = v.values[sys.free]
    assert np.linalg.norm(A @ x - b) <= 1e-8 * np.linalg.norm(b)
    want = v.values.copy()
    want[sys.free] = spla.spsolve(A.tocsc(), b)
    pins = want > threshold
    assert pins.any()
    assert np.array_equal(v.values > threshold, pins)


@pytest.fixture(scope="module")
def amr_field():
    """The field_xi_amr state after three AMR passes, on its adapted
    8,800-cell mesh, and its config."""
    path = Path(__file__).parents[1] / "configs" / "field_xi_amr.cfg"
    cfg = parse_config(path.read_text())
    state = driver.initialize(cfg)
    for _ in range(3):
        driver.amr_pass(state, cfg)
    return state, cfg


def test_bench_mesh_build(benchmark, amr_field):
    # The adapted field_xi_amr mesh built from its 8,800 cell keys, as
    # read_vtk, refine and coarsen build a mesh, with the folded CSR
    # pattern that the first assembly on it builds.  The best times of
    # the mesh alone and of the pattern alone go in extra_info.  The
    # constraints must be those of a search over every cell edge, and
    # the pattern that of a cell-by-cell loop over the folded terms, bit
    # for bit.
    adapted = amr_field[0].mesh
    keys = np.array(adapted.cell_keys)
    levels = adapted.level_min, adapted.level_max

    def build():
        mesh = Mesh(keys, *levels)
        mesh.csr_pattern
        return mesh

    mesh = _run(benchmark, build)
    parts = {"mesh": [], "pattern": []}
    for _ in range(ROUNDS):
        start = time.perf_counter()
        fresh = Mesh(keys, *levels)
        parts["mesh"].append(time.perf_counter() - start)
        start = time.perf_counter()
        fresh.csr_pattern
        parts["pattern"].append(time.perf_counter() - start)
    benchmark.extra_info.update(
        {f"{k}_ms": 1e3 * min(v) for k, v in parts.items()})
    assert mesh.n_cells == 8800 and len(mesh.constraints) == 484
    assert mesh.cell_keys == adapted.cell_keys
    hanging, pairs = brute_force_hanging(mesh)
    assert np.array_equal(mesh.constraints.hanging, hanging)
    assert np.array_equal(mesh.constraints.pairs, pairs)
    local = np.random.default_rng(4).standard_normal((mesh.n_cells, 4, 4))
    indptr, indices, fold = mesh.csr_pattern
    want_indptr, want_indices, want = pattern_by_cell_loop(mesh, local)
    assert np.array_equal(indptr, want_indptr)
    assert np.array_equal(indices, want_indices)
    assert (fold @ local.ravel()).tobytes() == want.tobytes()


def test_bench_band_plan(benchmark, monkeypatch):
    # The plan of a band sweep, the 346 free dofs along the crack of the
    # 64 x 64 global-xi state, with its coarse map, built afresh each
    # round, as a sweep whose free set the mesh does not keep builds
    # them.  The best times of the plan alone and of its coarse map go in
    # extra_info.  The restriction must be scipy's indexing and the
    # coarse band the lower triangle of (Z^T A) Z from scipy's sparse
    # products, bit for bit.
    folded, pinned, values = global_pcg_band()
    mesh, A = folded.mesh, folded.matrix
    is_free = ~pinned
    is_free[mesh.constraints.hanging] = False
    ids = np.arange(mesh.n_vertices)

    def build():
        plan = fem._Plan(mesh, ids, A.indptr, A.indices, is_free)
        plan.coarse_rows
        return plan

    plan = _run(benchmark, build)
    parts = {"plan": [], "coarse_rows": []}
    for _ in range(ROUNDS):
        start = time.perf_counter()
        fresh = fem._Plan(mesh, ids, A.indptr, A.indices, is_free)
        parts["plan"].append(time.perf_counter() - start)
        start = time.perf_counter()
        fresh.coarse_rows
        parts["coarse_rows"].append(time.perf_counter() - start)
    benchmark.extra_info.update(
        {f"{k}_ms": 1e3 * min(v) for k, v in parts.items()})
    free = np.flatnonzero(is_free)
    assert len(free) == 346 and np.array_equal(plan.free, free)
    n = len(free)
    block = sp.csr_matrix((A.data[plan.keep], plan.indices, plan.indptr),
                          shape=(n, n))
    want = A[free][:, free]
    coupling = (A.data.take(plan.coupling), plan.coupling_indices,
                plan.coupling_indptr)
    for got_a, want_a in zip(
            (block.data, block.indices, block.indptr, *coupling),
            (want.data, want.indices, want.indptr, *scipy_coupling(A, free))):
        assert got_a.dtype == want_a.dtype
        assert got_a.tobytes() == want_a.tobytes()
    factored, factor = [], fem._band_cholesky
    monkeypatch.setattr(fem, "_band_cholesky",
                        lambda band: factored.append(band.copy())
                        or factor(band))
    sys = fem.SparseSystem(block, np.zeros(n), mesh, free,
                           np.where(pinned, values, 0.0), plan)
    agg, _, _ = fem._coarse(sys)
    want_agg, coarse = _reference_coarse(mesh, free, want)
    assert np.array_equal(agg, want_agg)
    dense = coarse.toarray()
    got = factored[0]
    k = got.shape[0] - 1
    assert not np.tril(dense, -k - 1).any()
    assert got.tobytes() == lower_band(dense, k).tobytes()


def test_bench_refinement_transfer(benchmark, amr_field):
    # The (u, v) block moved in one transfer from the 4,096-cell start grid
    # onto the 8,800-cell mesh that the first AMR pass of field_xi_amr
    # reaches in five refinements.  v is the initial crack; u, zero at the
    # start, is a seeded random field, as the grid has no constraints to
    # meet.  The result is checked against the old mesh's interpolant.
    state, cfg = amr_field
    start = driver.initialize(cfg)
    old = start.mesh
    u = np.random.default_rng(5).standard_normal(old.n_vertices)
    block = np.column_stack([u, start.v.values])
    got = _run(benchmark, transfer_field, old, state.mesh, block)
    assert old.n_cells == 4096 and state.mesh.n_cells == 8800
    check_refinement_transfer(old, state.mesh, block, got)


def test_bench_coarsen_blocked_groups(benchmark, amr_field):
    # The field_xi_amr mesh after three AMR passes.  The cells that the
    # coarsening rule flags (conftest.coarsen_rule_flags) hold complete
    # sibling groups, but each would merge next to cells two levels finer,
    # so nothing merges and the input comes back.
    state, cfg = amr_field
    flags = coarsen_rule_flags(state.mesh, state.v.values, cfg)
    assert state.mesh.n_cells == 8800 and len(flags) == 668
    assert _run(benchmark, coarsen, state.mesh, flags) is state.mesh


def test_bench_snapshot_round_trip(benchmark, mesh, tmp_path):
    # A snapshot of the adapted mesh as RunWriter.snapshot writes it, and
    # its read-back as `xifrac profile` does it: the mesh comes back with
    # the same cells and the fields with the same bits, -0.0 included.
    rng = np.random.default_rng(3)
    u = rng.standard_normal(mesh.n_vertices) * 10.0 ** rng.integers(
        -8, 8, mesh.n_vertices)
    u[::7] = -0.0
    v = np.where(rng.uniform(size=mesh.n_vertices) < 0.5, 1.0,
                 rng.uniform(size=mesh.n_vertices))
    xi = rng.uniform(0.011, 0.15, mesh.n_cells)
    path = tmp_path / "fields.vtk"

    def round_trip():
        output.write_vtk(mesh, {"u": u, "v": v},
                         {"xi": xi, "level": mesh.cell_levels}, path,
                         title="step 1 t=0.01")
        return output.read_vtk(path)

    got, point_data, cell_data = _run(benchmark, round_trip)
    assert got.cell_keys == mesh.cell_keys
    assert np.array_equal(got.cell_vertices, mesh.cell_vertices)
    assert point_data["u"].tobytes() == u.tobytes()
    assert np.signbit(point_data["u"][::7]).all()
    assert point_data["v"].tobytes() == v.tobytes()
    assert cell_data["xi"].tobytes() == xi.tobytes()
    assert np.array_equal(cell_data["level"], mesh.cell_levels)


def test_bench_elastic_step(benchmark, monkeypatch):
    # One warm elastic load step of the amr_field window on its adapted
    # 8,800-cell mesh: the staggered loop, one AMR pass and the energies,
    # each round one load increment further.  Mesh, v and xi come out as
    # they went in, so what the mesh keeps (Mesh.reuse) leaves each round
    # only the load's work: one |grad u|^2, shared by the phase assembly
    # and the strain energy, and one gather of matrix data, the first
    # phase sweep's block off the crack.  Both counts go in extra_info.
    # The last round's record matches one computed with nothing kept.
    path = Path(__file__).parents[1] / "configs" / "field_xi_amr.cfg"
    cfg = parse_config(path.read_text(), {"loading.dt": "0.0015",
                                          "loading.n_max": "2"})
    _, state = driver.run(cfg)
    mesh, v, xi = state.mesh, state.v.values, state.xi
    assert mesh.n_cells == 8800
    grad_sq, free_block = pf._grad_sq, fem.free_block
    rounds, work = [], {}

    def counted_grad_sq(f):
        work["grad_sq"] += 1
        return grad_sq(f)

    def counted_free_block(A, mesh, pinned):
        block = free_block(A, mesh, pinned)
        if block.plan is not None:
            work["gathers"].append(len(block.free))
        return block

    monkeypatch.setattr(pf, "_grad_sq", counted_grad_sq)
    monkeypatch.setattr(fem, "free_block", counted_free_block)

    def elastic_step():
        work.update(grad_sq=0, gathers=[])
        state.step += 1
        state.t = state.step * cfg.loading.dt
        iters, converged = driver.staggered_step(state, cfg)
        changed = driver.amr_pass(state, cfg)
        record = pf.energies(state.mesh, state.u, state.v, state.xi,
                             cfg.regularization, t=state.t)
        rounds.append(dict(work))
        return iters, converged, changed, record

    *verdict, record = _run(benchmark, elastic_step)
    monkeypatch.undo()
    benchmark.extra_info.update(
        grad_sq_per_round=[r["grad_sq"] for r in rounds],
        gathers_per_round=[len(r["gathers"]) for r in rounds])
    hanging = np.zeros(mesh.n_vertices, dtype=bool)
    hanging[mesh.constraints.hanging] = True
    off_crack = np.count_nonzero((v != 0.0) & ~hanging)
    assert len(rounds) == 1 + ROUNDS
    assert all(r == {"grad_sq": 1, "gathers": [off_crack]} for r in rounds)
    assert verdict == [2, True, False] and state.step == 2 + 1 + ROUNDS
    assert state.mesh is mesh
    assert state.v.values.tobytes() == v.tobytes()
    assert state.xi.tobytes() == xi.tobytes()
    mesh.products.clear()
    assert repr(record) == repr(pf.energies(
        mesh, state.u, state.v, state.xi, cfg.regularization,
        t=state.t))
