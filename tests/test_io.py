"""Config parsing, VTK/CSV outputs, line profiles and the CLI."""

import json
import os
import struct
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from xifrac import cli, config, driver, fem, mesh as meshmod, output, \
    phasefield as pf
from xifrac.config import ConfigError, parse_config, serialize_config
from xifrac.fem import ScalarField
from xifrac.mesh import Mesh, build_uniform, refine

from conftest import ROOT, pin_a_bottom_vertex, run_fresh


# ---------------------------------------------------------------------------
# Config parsing


def test_empty_config_is_default():
    assert parse_config("") == driver.SimConfig()


def test_parse_sets_values_on_one_line():
    cfg = parse_config("loading.c = 2.5, regularization.alpha = 329.0")
    assert cfg.loading.c == 2.5
    assert cfg.regularization.alpha == 329.0


def test_parse_comments_and_blank_lines():
    text = """
    # a comment
    loading.dt = 0.02  # trailing comment

    mesh.level_start = 5, mesh.level_max = 6
    """
    cfg = parse_config(text)
    assert cfg.loading.dt == 0.02
    assert cfg.mesh.level_start == 5
    assert cfg.mesh.level_max == 6


def test_parse_unknown_key_names_key_and_line():
    with pytest.raises(ConfigError) as err:
        parse_config("loading.dt = 0.1\nmaterial.bogus = 3\n")
    assert "material.bogus" in str(err.value)
    assert "line 2" in str(err.value)
    # A removed key is unknown too: xi refreshes every staggered iteration.
    with pytest.raises(ConfigError) as err:
        parse_config("solver.xi_each_iteration = false")
    assert "solver.xi_each_iteration" in str(err.value)


# Keys that are gone, with the value an old run_manifest.cfg holds.
_REMOVED = {
    "material.mu": "80.8",
    "material.G_c": "2.7",
    "material.c_v": "2.6666666666666665",
    "solver.staggered_max_iter": "500",
    "solver.linear_tol": "1e-10",
    "solver.linear_max_iter": "20000",
    "solver.crack_tol": "0.01",
    "material.eta": "1e-10",
    "regularization.zeta": "9.36",
    "regularization.xi_min": "0.011",
    "regularization.xi_max": "0.15",
    "regularization.xi_refine": "0.03",
}


@pytest.mark.parametrize("key", list(_REMOVED))
def test_removed_key_is_unknown(key, tmp_path, capsys):
    # AT1 fixes c_v at 8/3 (pf.AT1_NORMALIZATION), and the material, the
    # solver caps, the linear tolerance, the pin threshold, the residual
    # stiffness, zeta, the xi clamp and the refinement threshold are
    # constants (pf.SHEAR_MODULUS, pf.TOUGHNESS, driver._MAX_STAGGERED,
    # fem.RTOL, fem.MAX_ITER, pf.CRACK_TOL, pf.RESIDUAL_STIFFNESS, pf.ZETA,
    # pf.XI_MIN, pf.XI_MAX, pf.XI_REFINE), so a config or old manifest that
    # sets one of them is rejected, in the text with its line, through an
    # override and through --set, before the run writes anything.
    value = _REMOVED[key]
    with pytest.raises(ConfigError) as err:
        parse_config(f"loading.c = 1.0\n{key} = {value}\n")
    assert err.value.key == key and err.value.line == 2
    assert key in str(err.value) and "line 2" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config("", {key: value})
    assert err.value.key == key
    assert "unknown configuration key" in str(err.value)
    assert cli.main(["run", "--out", str(tmp_path / "out"),
                     "--set", f"{key}={value}"]) == 1
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert len(config.KEYS) == 13


def test_parse_constraint_violation_names_key():
    with pytest.raises(ConfigError) as err:
        parse_config("loading.dt = -1")
    assert "loading.dt" in str(err.value)


def test_parse_type_mismatch():
    with pytest.raises(ConfigError) as err:
        parse_config("mesh.level_start = six")
    assert "mesh.level_start" in str(err.value)


def test_parse_malformed_assignment():
    with pytest.raises(ConfigError):
        parse_config("just some words")


def test_key_set_twice_in_the_text_is_rejected():
    with pytest.raises(ConfigError, match="set twice") as exc:
        parse_config("loading.dt = 0.02\nloading.dt = 0.05")
    assert exc.value.key == "loading.dt" and exc.value.line == 2
    # on one line the second assignment's line is that line
    with pytest.raises(ConfigError, match="set twice") as exc:
        parse_config("loading.c = 1.0\nloading.n_max = 3, loading.n_max = 4")
    assert exc.value.key == "loading.n_max" and exc.value.line == 2
    # an override of a key the text sets once still wins
    cfg = parse_config("loading.dt = 0.02", {"loading.dt": "0.05"})
    assert cfg.loading.dt == 0.05


def test_overrides_beat_file_values():
    cfg = parse_config("loading.c = 2.0",
                       overrides={"loading.c": "0.5",
                                  "regularization.mode": "global"})
    assert cfg.loading.c == 0.5
    assert cfg.regularization.mode == "global"


def test_config_round_trip():
    cfg = parse_config("regularization.mode = field, regularization.alpha = 7900\n"
                       "mesh.level_start = 6, mesh.level_max = 9\n"
                       "amr.enabled = true, solver.method = pcg")
    text = serialize_config(cfg)
    assert parse_config(text) == cfg
    # and the canonical form is a fixed point
    assert serialize_config(parse_config(text)) == text


def test_bundled_configs_parse_and_round_trip():
    paths = sorted((Path(__file__).parents[1] / "configs").glob("*.cfg"))
    assert paths
    for path in paths:
        cfg = parse_config(path.read_text())
        assert parse_config(serialize_config(cfg)) == cfg, path.name


def test_cross_field_constraint_reported():
    with pytest.raises(ConfigError):
        parse_config("mesh.level_start = 8, mesh.level_max = 7")


# One out-of-range value per key: its config text and its Python value.
_OUT_OF_RANGE = {
    "regularization.mode": ("adaptive", "adaptive"),
    "regularization.alpha": ("0", 0.0),
    "regularization.xi_fixed": ("0", 0.0),
    "mesh.level_start": ("0", 0),
    "mesh.level_max": ("21", 21),
    "mesh.crack_y_tip": ("1.5", 1.5),
    "loading.c": ("-1", -1.0),
    "loading.dt": ("0", 0.0),
    "loading.n_max": ("-1", -1),
    "solver.staggered_tol": ("0", 0.0),
    "solver.method": ("lu", "lu"),
    "amr.enabled": ("maybe", "maybe"),
    "output.cadence": ("0", 0),
}


def test_out_of_range_table_lists_exactly_the_keys():
    # A row whose key is gone would otherwise stay behind unread.
    assert set(_OUT_OF_RANGE) == set(config.KEYS)


@pytest.mark.parametrize("key", ["mesh.level_start", "mesh.level_max"])
def test_mesh_levels_above_the_finest_are_rejected(key):
    # A Mesh holds levels up to mesh._MAXLEVEL (20); the config names the
    # key and the line, instead of the run failing in Mesh with neither.
    with pytest.raises(ConfigError) as err:
        parse_config(f"loading.n_max = 0\n{key} = 21\n")
    assert err.value.key == key and err.value.line == 2
    assert "must lie in [1, 20]" in str(err.value)


@pytest.mark.parametrize("text", ["inf", "1e400"])
@pytest.mark.parametrize("key", [key for key, (_, _, parser) in
                                 config.KEYS.items() if parser is float])
def test_every_float_key_rejects_an_infinite_value(key, text):
    # 1e400 parses to inf.  An infinite dt failed later with a NaN norm that
    # named no key, and an infinite alpha or staggered_tol ran to the end.
    with pytest.raises(ConfigError) as err:
        parse_config(f"loading.n_max = 3\n{key} = {text}\n")
    assert err.value.key == key and err.value.line == 2
    assert key in str(err.value) and "line 2" in str(err.value)


@pytest.mark.parametrize("key", list(config.KEYS))
def test_every_key_rejects_an_out_of_range_value(key):
    text, value = _OUT_OF_RANGE[key]
    with pytest.raises(ConfigError) as err:
        parse_config(f"loading.n_max = 3\n{key} = {text}\n")
    assert key in str(err.value) and "line 2" in str(err.value)
    section, f, _ = config.KEYS[key]
    params = type(getattr(driver.SimConfig(), section))
    with pytest.raises(ValueError, match=f.name):
        params(**{f.name: value})


@pytest.mark.parametrize("key", [key for key, (_, _, parser) in
                                 config.KEYS.items() if parser is int])
def test_every_integer_key_rejects_a_float_or_a_bool(key):
    # A config file parses with int(); a SimConfig built in code must not
    # let 4.0 or True through either.
    section, f, _ = config.KEYS[key]
    params = type(getattr(driver.SimConfig(), section))
    for value in (float(f.default), True):
        with pytest.raises(ValueError, match=f"{f.name} = .* integer"):
            params(**{f.name: value})
    assert getattr(params(**{f.name: f.default}), f.name) == f.default


DEFAULT_MANIFEST = """# [regularization]
regularization.mode = fixed
regularization.alpha = 493.75
regularization.xi_fixed = 0.13687

# [mesh]
mesh.level_start = 7
mesh.level_max = 7
mesh.crack_y_tip = 0.5

# [loading]
loading.c = 1.0
loading.dt = 0.01
loading.n_max = 120

# [solver]
solver.staggered_tol = 0.0001
solver.method = direct

# [amr]
amr.enabled = false

# [output]
output.cadence = 10
"""

KEY_REFERENCE = """\
regularization.mode              str    default=fixed
regularization.alpha             float  default=493.75
regularization.xi_fixed          float  default=0.13687
mesh.level_start                 int    default=7
mesh.level_max                   int    default=7
mesh.crack_y_tip                 float  default=0.5
loading.c                        float  default=1.0
loading.dt                       float  default=0.01
loading.n_max                    int    default=120
solver.staggered_tol             float  default=0.0001
solver.method                    str    default=direct
amr.enabled                      bool   default=false
output.cadence                   int    default=10"""


def test_serialized_default_config_golden():
    # The bytes of every run_manifest.cfg after its header line.
    assert serialize_config(driver.SimConfig()) == DEFAULT_MANIFEST


def test_key_reference_golden(capsys):
    assert config.describe_keys() == KEY_REFERENCE
    assert cli.main(["keys"]) == 0
    assert capsys.readouterr().out == KEY_REFERENCE + "\n"


# ---------------------------------------------------------------------------
# VTK writer / reader


def _block(fmt, values):
    """A big-endian binary block and the newline that ends it."""
    return struct.pack(f">{len(values)}{fmt}", *values) + b"\n"


def _quads(*rows):
    """The CELLS header and the first rows of its block, without newline."""
    values = [x for row in rows for x in (4, *row)]
    return b"CELLS 4 20\n" + struct.pack(f">{len(values)}i", *values)


def test_write_vtk_golden(tmp_path):
    # The expected bytes are built here from the legacy VTK 2.0 layout:
    # header text, and each section's values as one big-endian block.
    want = b"".join([
        b"# vtk DataFile Version 2.0\ngolden 4-cell\nBINARY\n"
        b"DATASET UNSTRUCTURED_GRID\n",
        b"POINTS 9 double\n", _block("d", [0, 0, 0, 0.5, 0, 0, 0.5, 0.5, 0,
                                           0, 0.5, 0, 0.5, 1, 0, 0, 1, 0,
                                           1, 0, 0, 1, 0.5, 0, 1, 1, 0]),
        b"CELLS 4 20\n", _block("i", [4, 0, 1, 2, 3, 4, 3, 2, 4, 5,
                                      4, 1, 6, 7, 2, 4, 2, 7, 8, 4]),
        b"CELL_TYPES 4\n", _block("i", [9] * 4),
        b"POINT_DATA 9\n",
        b"SCALARS u double 1\nLOOKUP_TABLE default\n", _block("d", [0] * 9),
        b"SCALARS v double 1\nLOOKUP_TABLE default\n", _block("d", [1] * 9),
        b"CELL_DATA 4\n",
        b"SCALARS xi double 1\nLOOKUP_TABLE default\n",
        _block("d", [0.13687] * 4),
        b"SCALARS level int 1\nLOOKUP_TABLE default\n", _block("i", [1] * 4),
    ])
    m = build_uniform(1)
    path = tmp_path / "golden.vtk"
    output.write_vtk(m, {"u": np.zeros(9), "v": np.ones(9)},
                     {"xi": np.full(4, 0.13687), "level": m.cell_levels},
                     path, title="golden 4-cell")
    assert path.read_bytes() == want


def test_vtk_cell_count_matches_mesh(tmp_path):
    m = build_uniform(2)
    m = refine(m, [0, 5])
    path = tmp_path / "f.vtk"
    output.write_vtk(m, {"u": np.zeros(m.n_vertices)}, {}, path)
    data = path.read_bytes()
    line = data[data.index(b"\nCELLS ") + 1:].split(b"\n", 1)[0]
    assert int(line.split()[1]) == m.n_cells


def test_vtk_round_trip(tmp_path):
    # Three levels and several hanging nodes; the read-back mesh must number
    # points and cells as the written one and return the data in that order.
    m = refine(build_uniform(2), [0, 5])
    m = refine(m, [m.locate(0.01, 0.01), m.locate(0.3, 0.3)])
    assert len(m.constraints) > 2
    x, y = m.vertex_coords.T
    u = x + 2 * y
    v = np.clip(1 - x, 0, 1)
    xi = np.linspace(0.02, 0.1, m.n_cells)
    path = tmp_path / "f.vtk"
    output.write_vtk(m, {"u": u, "v": v}, {"xi": xi, "level": m.cell_levels},
                     path)
    m2, pdata, cdata = output.read_vtk(path)
    assert np.array_equal(m2._keys, m._keys)
    assert np.array_equal(m2.vertex_coords, m.vertex_coords)
    assert np.array_equal(m2.cell_vertices, m.cell_vertices)
    assert np.array_equal(pdata["u"], u)
    assert np.array_equal(pdata["v"], v)
    assert np.array_equal(cdata["level"], m.cell_levels)
    assert np.array_equal(cdata["xi"], xi)


def test_vtk_round_trip_is_bitwise(tmp_path):
    # Random doubles need up to 17 significant digits to survive a
    # write/read cycle.
    m = refine(build_uniform(3), [0, 9, 30])
    rng = np.random.default_rng(11)
    u = rng.standard_normal(m.n_vertices) * 10.0 ** rng.integers(
        -8, 8, m.n_vertices)
    v = rng.uniform(0.0, 1.0, m.n_vertices)
    xi = rng.uniform(0.011, 0.15, m.n_cells)
    path = tmp_path / "f.vtk"
    output.write_vtk(m, {"u": u, "v": v}, {"xi": xi}, path)
    _, pdata, cdata = output.read_vtk(path)
    assert np.array_equal(pdata["u"], u)
    assert np.array_equal(pdata["v"], v)
    assert np.array_equal(cdata["xi"], xi)


_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                   float("inf"), float("-inf"), float("nan"), 1.0, -3.0,
                   2.0 ** 53, 1e22]


@given(st.lists(st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS),
                          st.integers(-10 ** 6, 10 ** 6).map(float)),
                min_size=1))
def test_fmt_all_keeps_each_bit_pattern(values):
    # Every CSV cell reads back to its value's bits (a nan to a nan), so
    # 0.0 and -0.0 and each repeat keep their own text; -0.0 prints as
    # -0 and an integral float without its ".0".  The special values come
    # first and last, so both zeros always appear, in both orders.
    values = _SPECIAL_FLOATS + values + _SPECIAL_FLOATS[::-1]
    rows = np.array(values * 3).reshape(3, -1).T
    lines = output.csv_text("a,b,c", rows).split("\n")
    assert lines[0] == "a,b,c" and lines[-1] == ""
    cells = [c for line in lines[1:-1] for c in line.split(",")]
    assert len(cells) == rows.size
    for x, text in zip(rows.ravel().tolist(), cells):
        back = float(text)
        if np.isnan(x):
            assert np.isnan(back)
        else:
            assert struct.pack("<d", back) == struct.pack("<d", x)
        if x == 0.0 and np.signbit(x):
            assert text == "-0"
        if np.isfinite(x) and x == int(x):
            assert not text.endswith(".0")


def _snapshot_state(mesh, step, rng):
    u = rng.standard_normal(mesh.n_vertices)
    u[::7] = -0.0
    v = np.where(rng.uniform(size=mesh.n_vertices) < 0.5, 1.0,
                 rng.uniform(size=mesh.n_vertices))
    xi = rng.uniform(0.011, 0.15, mesh.n_cells)
    return SimpleNamespace(mesh=mesh, step=step, t=0.01 * step,
                           u=ScalarField(mesh, u), v=ScalarField(mesh, v),
                           xi=xi)


def test_run_writer_snapshots_equal_write_vtk(tmp_path):
    # Three snapshots, the third after a mesh change: every file has the
    # bytes of a write_vtk call with the same fields.
    rng = np.random.default_rng(5)
    coarse = refine(build_uniform(3), [0, 9, 30])
    fine = refine(coarse, [coarse.locate(0.6, 0.6)])
    writer = output.RunWriter(tmp_path / "run", driver.SimConfig())
    for step, mesh in enumerate([coarse, coarse, fine], start=1):
        state = _snapshot_state(mesh, step, rng)
        writer.snapshot(state)
        want = tmp_path / f"want_{step}.vtk"
        output.write_vtk(mesh, {"u": state.u.values, "v": state.v.values},
                         {"xi": state.xi, "level": mesh.cell_levels},
                         want, title=f"step {step} t={state.t:g}")
        got = tmp_path / "run" / f"fields_{step:04d}.vtk"
        assert got.read_bytes() == want.read_bytes()


# ---------------------------------------------------------------------------
# CSV outputs


ENERGY_HEADER = "t,E_strain,E_surface,E_penalty,E_total,stag_iters,converged"


def _record(t, strain, surface, penalty, iters=3, converged=True):
    return pf.EnergyRecord(t=t, strain=strain, surface=surface,
                           penalty=penalty,
                           total=strain + surface + penalty,
                           xi_min=0.02, xi_max=0.04, xi_mean=0.03,
                           cells=16, stag_iters=iters, converged=converged)


def test_energy_csv_single_row(tmp_path):
    path = tmp_path / "e.csv"
    output.write_energy_csv([_record(0.01, 1.0, 2.0, 3.0),
                             _record(0.02, 1.0, 2.5, 3.0, iters=500,
                                     converged=False)], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0] == ENERGY_HEADER
    parts = lines[1].split(",")
    assert float(parts[4]) == pytest.approx(
        float(parts[1]) + float(parts[2]) + float(parts[3]), abs=1e-9)
    assert parts[5:] == ["3", "1"]
    assert lines[2].split(",")[5:] == ["500", "0"]


def test_energy_csv_empty_history(tmp_path):
    path = tmp_path / "e.csv"
    output.write_energy_csv([], path)
    assert path.read_text() == ENERGY_HEADER + "\n"


def test_xi_history_csv(tmp_path):
    path = tmp_path / "x.csv"
    output.write_xi_history([_record(0.01, 1, 2, 3)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,xi_min,xi_max,xi_mean,cells"
    assert lines[1].split(",") == ["0.01", "0.02", "0.04", "0.03", "16"]


# ---------------------------------------------------------------------------
# Line profiles


def test_line_profile_constant_field():
    m = build_uniform(3)
    rows = output.line_profile(m, np.ones(m.n_vertices), 0.37, 21)
    assert np.all(rows[:, 1] == 1.0)


def test_line_profile_linear_reproduction():
    m = build_uniform(3)
    x = m.vertex_coords[:, 0]
    rows = output.line_profile(m, x, 0.3, 11)
    assert np.allclose(rows[:, 0], np.linspace(0, 1, 11), atol=1e-15)
    assert np.allclose(rows[:, 1], rows[:, 0], atol=1e-13)


def test_line_profile_matches_pointwise_eval():
    m = refine(build_uniform(2), [0, 5])
    m = refine(m, [m.locate(0.01, 0.01), m.locate(0.3, 0.3)])
    f = m.constraints.apply(np.random.default_rng(2).standard_normal(
        m.n_vertices))
    for y in (0.0, 0.2, 0.25, 1.0):
        rows = output.line_profile(m, f, y, 33)
        assert np.array_equal(rows[:, 0], np.linspace(0.0, 1.0, 33))
        assert np.array_equal(rows[:, 1],
                              [m.eval_field(f, x, y) for x in rows[:, 0]])


def test_line_profile_validates_ordinate():
    m = build_uniform(2)
    with pytest.raises(ValueError):
        output.line_profile(m, np.ones(m.n_vertices), 1.5, 11)
    with pytest.raises(ValueError):
        output.line_profile(m, np.ones(m.n_vertices), 0.5, 1)


# ---------------------------------------------------------------------------
# Run writer


def test_run_writer_manifest_reparses(tmp_path):
    cfg = parse_config("loading.n_max = 0, mesh.level_start = 3, "
                       "mesh.level_max = 4")
    driver.run(cfg, out_dir=tmp_path)
    manifest = (tmp_path / "run_manifest.cfg").read_text()
    assert parse_config(manifest) == cfg
    # zero steps: energies.csv holds only the header, no snapshots
    assert (tmp_path / "energies.csv").read_text().count("\n") == 1
    assert not list(tmp_path.glob("fields_*.vtk"))


def test_fixed_xi_above_xi_max_is_run_as_configured(tmp_path):
    # pf.XI_MIN and pf.XI_MAX clamp the optimized xi; a fixed xi is used as
    # it is set, so the run, its xi history and its manifest agree.
    cfg = parse_config("loading.n_max = 1, mesh.level_start = 3, "
                       "mesh.level_max = 3", {"regularization.xi_fixed": "0.5"})
    assert cfg.regularization.xi_fixed > pf.XI_MAX
    _, state = driver.run(cfg, out_dir=tmp_path)
    assert np.all(state.xi == 0.5)
    [row] = (tmp_path / "xi_history.csv").read_text().splitlines()[1:]
    assert row.split(",")[1:4] == ["0.5", "0.5", "0.5"]
    manifest = parse_config((tmp_path / "run_manifest.cfg").read_text())
    assert manifest.regularization.xi_fixed == 0.5


def test_run_writer_outputs_deterministic(tmp_path):
    cfg = parse_config("loading.n_max = 2, mesh.level_start = 3, "
                       "mesh.level_max = 4, output.cadence = 1")
    driver.run(cfg, out_dir=tmp_path / "a")
    driver.run(cfg, out_dir=tmp_path / "b")
    for name in ("energies.csv", "xi_history.csv", "fields_0002.vtk",
                 "profiles_0002.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_run_files_get_the_mode_of_a_plain_open(tmp_path, umask):
    # Every file of a run is written through a temp file, which mkstemp
    # creates 0o600; renamed into place, each still gets the mode that
    # open() gives a new file under the umask, which is left as it was.
    cfg = parse_config("loading.n_max = 1, mesh.level_start = 3, "
                       "mesh.level_max = 3, output.cadence = 1")
    before = os.umask(umask)
    try:
        open(tmp_path / "plain", "w").close()
        driver.run(cfg, out_dir=tmp_path / "run")
        assert os.umask(before) == umask
    finally:
        os.umask(before)
    mode = (tmp_path / "plain").stat().st_mode & 0o777
    assert mode == 0o666 & ~umask
    written = sorted((tmp_path / "run").iterdir())
    assert [p.name for p in written] == [
        "energies.csv", "fields_0001.vtk", "profiles_0001.csv",
        "run_manifest.cfg", "xi_history.csv"]
    assert {p.name: p.stat().st_mode & 0o777 for p in written} == \
        dict.fromkeys((p.name for p in written), mode)


@pytest.fixture
def snapshot_writes(monkeypatch):
    """Names of the snapshot files written, one entry per write."""
    names = []

    def spy(fn, path_arg):
        write = getattr(output, fn)

        def recorded(*args, **kwargs):
            names.append(args[path_arg].name)
            return write(*args, **kwargs)
        monkeypatch.setattr(output, fn, recorded)

    spy("write_vtk", 3)
    spy("write_profile_csv", 2)
    return names


def test_run_writes_each_snapshot_once(tmp_path, snapshot_writes):
    cfg = parse_config("loading.n_max = 20, mesh.level_start = 3, "
                       "mesh.level_max = 3, output.cadence = 10")
    driver.run(cfg, out_dir=tmp_path)
    assert sorted(snapshot_writes) == [
        "fields_0010.vtk", "fields_0020.vtk",
        "profiles_0010.csv", "profiles_0020.csv"]


def test_early_stop_writes_its_snapshot_once(tmp_path, snapshot_writes):
    # The crack is made to reach the bottom at step 3, between cadences.
    cfg = parse_config("loading.n_max = 20, mesh.level_start = 3, "
                       "mesh.level_max = 3, output.cadence = 2")

    def hook(state):
        if state.step == 3:
            pin_a_bottom_vertex(state)

    hist, _ = driver.run(cfg, out_dir=tmp_path, snapshot_hook=hook)
    assert len(hist) == 3
    assert sorted(snapshot_writes) == [
        "fields_0002.vtk", "fields_0003.vtk",
        "profiles_0002.csv", "profiles_0003.csv"]


# ---------------------------------------------------------------------------
# CLI


def test_importing_the_driver_does_not_load_the_io_module():
    # A fresh interpreter that imports the solver core leaves xifrac.output
    # unloaded; the package attribute still loads it on first use.
    done = run_fresh("-c", "import sys, xifrac.driver, xifrac\n"
                           "print('xifrac.output' in sys.modules)\n"
                           "print(xifrac.output.write_vtk.__module__)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "xifrac.output"]


# Run in a fresh interpreter: after each stage, the watched modules loaded.
_START_UP = """
import json, sys
from pathlib import Path

WATCHED = ("scipy.sparse", "scipy.sparse.linalg", "scipy.linalg",
           "numpy.polynomial")
loaded = {}

def report(stage):
    loaded[stage] = [m for m in WATCHED if m in sys.modules]

import xifrac
report("import xifrac")
from xifrac import cli, driver
from xifrac.config import parse_config
report("import xifrac.cli")
configs, snapshot = map(Path, sys.argv[1:])
for name in ("field_xi_amr.cfg", "global_xi_128.cfg"):
    cfg = parse_config((configs / name).read_text())
    state = driver.initialize(cfg)
    report("initialize " + name)
for args in (["keys"], ["tables"], ["calibrate", "--h", "0.004"],
             ["profile", "--in", str(snapshot), "--y", "0.5"]):
    assert cli.main(args) == 0
    report("xifrac " + args[0])
state.t = cfg.loading.dt
driver.staggered_step(state, cfg)
report("staggered_step")
print(json.dumps(loaded))
"""


def test_start_up_loads_no_scipy(tmp_path):
    # Importing the package, setting a run up and the commands that solve
    # nothing load numpy alone; scipy's sparse and linear-algebra modules
    # load at the first assembly or solve.
    snapshot = tmp_path / "f.vtk"
    m = build_uniform(2)
    output.write_vtk(m, {"v": m.vertex_coords[:, 0]}, {}, snapshot)
    done = run_fresh("-c", _START_UP, ROOT / "configs", snapshot)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert list(loaded) == [
        "import xifrac", "import xifrac.cli",
        "initialize field_xi_amr.cfg", "initialize global_xi_128.cfg",
        "xifrac keys", "xifrac tables", "xifrac calibrate", "xifrac profile",
        "staggered_step"]
    assert {"scipy.sparse", "scipy.sparse.linalg", "scipy.linalg"} <= set(
        loaded.pop("staggered_step"))
    assert loaded == dict.fromkeys(loaded, [])


def test_amr_history_script_prints_one_row_per_step():
    # The README's mesh-adaptation trace: one step refines the 4096-cell
    # start grid of field_xi_amr.cfg to 8800 cells.
    done = run_fresh(ROOT / "scripts" / "amr_history.py", "--steps", "1")
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split()[:2] == ["step", "cells"]
    assert [row.split()[:2] for row in rows] == [["1", "8800"]]


def test_cli_calibrate_table1_row(capsys):
    assert cli.main(["calibrate", "--h", "0.004"]) == 0
    out = capsys.readouterr().out
    assert "1977.5" in out
    assert "1975" in out  # comparison against the published row


@pytest.mark.parametrize("args, name", [
    (["--h", "0"], "h"),
    (["--h", "nan"], "h"),
    (["--h", "inf"], "h")])
def test_cli_calibrate_rejects_bad_input(capsys, args, name):
    # Each of these used to divide by zero or print alpha/zeta as nan/inf.
    assert cli.main(["calibrate", *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {name} must be finite and "
                                   f"positive")


def test_cli_calibrate_has_no_c_v_flag(capsys):
    # c_v is AT1's 8/3, not a calibration input: the flag is a usage error.
    with pytest.raises(SystemExit) as exc:
        cli.main(["calibrate", "--h", "0.004", "--c-v", "2"])
    assert exc.value.code == 2
    assert "--c-v" in capsys.readouterr().err


def test_cli_calibrate_has_no_g_c_flag(capsys):
    # G_c is the constant pf.TOUGHNESS: the flag is a usage error.
    with pytest.raises(SystemExit) as exc:
        cli.main(["calibrate", "--h", "0.004", "--G-c", "2.7"])
    assert exc.value.code == 2
    assert "--G-c" in capsys.readouterr().err


TABLES = """\
Calibration of the xi bound penalties (G_c=2.7, c_v=8/3):
       h      alpha  published     zeta  published
   0.008      494.4      493.8    3.125       9.36
   0.004       1978       1975    3.125       9.36
   0.002       7910       7900    3.125       9.36
note: the published zeta is ~3x the closed-form value; both are reported as-is.

Closed-form optimal xi for an intact body (sqrt(G_c*zeta / (c_v*alpha))):
alpha=  493.75: xi = 0.13854  (published 0.13687)
alpha=    1975: xi = 0.06927  (published 0.06927)
alpha=    7900: xi = 0.03464  (published 0.03464)
note: for alpha=493.75 the published 0.13687 reflects the seeded crack; the closed form gives 0.13854.
"""


def test_cli_tables_reference_values(capsys):
    assert cli.main(["tables"]) == 0
    out = capsys.readouterr().out
    for digits in ("0.13854", "0.06927", "0.03464"):
        assert digits in out
    # Every digit: the optimal-xi rows lie inside the clamp [XI_MIN,
    # XI_MAX], which they share with the runs.
    assert out == TABLES


def test_cli_run_zero_steps(tmp_path, capsys):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("loading.n_max = 0\nmesh.level_start = 3\n"
                       "mesh.level_max = 3\n")
    rc = cli.main(["run", "--config", str(cfgfile),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "energies.csv").exists()
    assert (tmp_path / "out" / "run_manifest.cfg").exists()


def test_cli_run_reports_nonconverged_steps(tmp_path, capsys, monkeypatch):
    # One staggered iteration never meets the tolerance from a new load.
    monkeypatch.setattr(driver, "_MAX_STAGGERED", 1)
    rc = cli.main(["run", "--out", str(tmp_path / "out"),
                   "--set", "loading.n_max=2",
                   "--set", "mesh.level_start=3",
                   "--set", "mesh.level_max=3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "completed 2 steps on 64 cells; 2 did not converge" in out
    rows = (tmp_path / "out" / "energies.csv").read_text().splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["0", "0"]


def test_cli_run_reports_a_failed_solve(tmp_path, capsys):
    # Step 1 of the level-6 intact energy trace under pcg, with fem.RTOL
    # below the rounding floor of every system, stalls: the run returns 1,
    # names the error and the output directory, and leaves the failed
    # step's row, the xi history and that step's snapshot.
    out = tmp_path / "out"
    config = Path(__file__).parents[1] / "configs" / "energy_trace_fixed.cfg"
    with mock.patch.object(fem, "RTOL", 1e-17):
        rc = cli.main(["run", "--config", str(config), "--out", str(out),
                       "--set", "mesh.level_start=6",
                       "--set", "mesh.level_max=6",
                       "--set", "solver.method=pcg"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "stalled" in err and str(out) in err
    rows = (out / "energies.csv").read_text().splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["0"]
    assert (out / "xi_history.csv").is_file()
    assert (out / "fields_0001.vtk").is_file()


def test_cli_run_rejects_bad_config(tmp_path, capsys):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("loading.dt = -1\n")
    assert cli.main(["run", "--config", str(cfgfile),
                     "--out", str(tmp_path / "out")]) == 1
    assert "loading.dt" in capsys.readouterr().err


def test_cli_set_overrides(tmp_path):
    rc = cli.main(["run", "--out", str(tmp_path / "out"),
                   "--set", "loading.n_max=0",
                   "--set", "mesh.level_start=3",
                   "--set", "mesh.level_max=3"])
    assert rc == 0
    manifest = (tmp_path / "out" / "run_manifest.cfg").read_text()
    assert "loading.n_max = 0" in manifest


def test_cli_set_of_a_key_twice_is_rejected(tmp_path, capsys):
    # The second value used to overwrite the first without a word.
    rc = cli.main(["run", "--out", str(tmp_path / "out"),
                   "--set", "loading.n_max=0", "--set", "mesh.level_start=3",
                   "--set", "mesh.level_max=3", "--set", "loading.n_max = 1"])
    assert rc == 2
    assert "'loading.n_max' twice" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_manifest_with_a_material_section_is_rejected():
    # A run_manifest.cfg written while the material was configurable opens
    # with its material section; the first of its keys is reported.
    old = ("# xifrac 0.1.0 run manifest; parseable as a config file\n"
           "# [material]\nmaterial.mu = 80.8\nmaterial.G_c = 2.7\n\n"
           + DEFAULT_MANIFEST)
    with pytest.raises(ConfigError) as err:
        parse_config(old)
    assert err.value.key == "material.mu" and err.value.line == 3
    assert "unknown configuration key" in str(err.value)


def test_a_manifest_with_the_former_regularization_keys_is_rejected():
    # A run_manifest.cfg written while zeta, the xi clamp and the
    # refinement threshold were keys; zeta, the first of them, is reported.
    old = ("# xifrac 0.1.0 run manifest; parseable as a config file\n"
           "# [regularization]\nregularization.mode = fixed\n"
           "regularization.zeta = 9.36\nregularization.alpha = 493.75\n"
           "regularization.xi_fixed = 0.13687\n"
           "regularization.xi_min = 0.011\nregularization.xi_max = 0.15\n"
           "regularization.xi_refine = 0.03\n\n"
           + DEFAULT_MANIFEST.split("\n\n", 1)[1])
    with pytest.raises(ConfigError) as err:
        parse_config(old)
    assert err.value.key == "regularization.zeta" and err.value.line == 4
    assert "'regularization.zeta', line 4" in str(err.value)
    assert "unknown configuration key" in str(err.value)


def test_cli_profile_roundtrip(tmp_path, capsys):
    m = build_uniform(2)
    x = m.vertex_coords[:, 0]
    output.write_vtk(m, {"v": x}, {}, tmp_path / "f.vtk")
    rc = cli.main(["profile", "--in", str(tmp_path / "f.vtk"),
                   "--y", "0.25", "--samples", "5"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,v"
    vals = [float(l.split(",")[1]) for l in lines[1:]]
    assert vals == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0], abs=1e-13)


def test_cli_profile_floats_round_trip(tmp_path, capsys):
    # Non-dyadic values at non-dyadic sample points: the printed numbers
    # read back to the doubles of output.line_profile, bit for bit.
    m = refine(build_uniform(2), [0])
    x, y = m.vertex_coords.T
    output.write_vtk(m, {"v": np.sin(7.0 * x) + y / 3.0}, {},
                     tmp_path / "f.vtk")
    mesh, point_data, _ = output.read_vtk(tmp_path / "f.vtk")
    want = output.line_profile(mesh, point_data["v"], 0.3, 7)
    assert cli.main(["profile", "--in", str(tmp_path / "f.vtk"),
                     "--y", "0.3", "--samples", "7"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,v"
    got = np.array([[float(t) for t in line.split(",")]
                    for line in lines[1:]])
    assert got.tobytes() == want.tobytes()


def test_cli_profile_out_is_written_atomically(tmp_path, capsys, monkeypatch):
    # --out goes through a temp file and a rename, as every output does: the
    # file holds what stdout would, no temp file is left behind, and a
    # write cut short before its rename leaves the old file as it was.
    output.write_vtk(build_uniform(2), {"v": np.arange(25.0)}, {},
                     tmp_path / "f.vtk")
    args = ["profile", "--in", str(tmp_path / "f.vtk"), "--y", "0.3",
            "--samples", "5"]
    assert cli.main(args) == 0
    want = capsys.readouterr().out
    out = tmp_path / "p.csv"
    replaced, replace = [], os.replace
    monkeypatch.setattr(os, "replace", lambda src, dst: replaced.append(
        (Path(src).parent, Path(dst))) or replace(src, dst))
    assert cli.main(args + ["--out", str(out)]) == 0
    assert replaced == [(tmp_path, out)]
    assert out.read_text() == want
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.vtk", "p.csv"]

    def interrupted(src, dst):
        raise OSError("interrupted")

    monkeypatch.setattr(os, "replace", interrupted)
    assert cli.main(args[:-1] + ["7", "--out", str(out)]) == 1
    assert "interrupted" in capsys.readouterr().err
    assert out.read_text() == want
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.vtk", "p.csv"]


@pytest.mark.parametrize("field, what", [("xi", "a cell field"),
                                         ("w", "not present")],
                         ids=["cell-field", "absent"])
def test_cli_profile_of_a_field_it_cannot_sample_is_an_error(
        tmp_path, capsys, field, what):
    # A snapshot holds u and v at the points and xi and level on the cells;
    # profile samples point fields, and says which kind a name is.
    m = build_uniform(1)
    path = tmp_path / "f.vtk"
    output.write_vtk(m, {"u": np.zeros(9), "v": np.ones(9)},
                     {"xi": np.full(4, 0.1), "level": m.cell_levels}, path)
    assert cli.main(["profile", "--in", str(path), "--y", "0.5",
                     "--field", field]) == 1
    assert capsys.readouterr().err == (
        f"field {field!r} is {what} in {path}; profile samples point fields "
        f"(point: u, v; cell: xi, level)\n")


def _level1_file(path, point_data=None, cell_data=None):
    """The bytes of a snapshot of the level-1 mesh, written to ``path``."""
    output.write_vtk(build_uniform(1), point_data or {"v": np.ones(9)},
                     cell_data or {}, path)
    return path.read_bytes()


def _without_cells(tmp_path):
    """A file written for a level-1 mesh, cut before its CELLS section."""
    data = _level1_file(tmp_path / "f.vtk")
    return data[:data.index(b"CELLS")]


def _assert_profile_error(path, capsys, message):
    """``read_vtk`` and ``xifrac profile`` both report ``path: message``."""
    with pytest.raises(ValueError) as err:
        output.read_vtk(path)
    assert str(err.value) == f"{path}: {message}"
    assert cli.main(["profile", "--in", str(path), "--y", "0.5"]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("data, missing", [
    (b"# vtk DataFile Version 2.0\nxifrac fields\nBINARY\n"
     b"DATASET UNSTRUCTURED_GRID\n", "POINTS"),
    (b"# vtk DataFile Version 2.0\n", "POINTS"),
    (_without_cells, "CELLS"),
    (b"# vtk DataFile Version 2.0\nxifrac fields\nBINARY\n"
     b"DATASET UNSTRUCTURED_GRID\nPOINT_DATA 1\nSCALARS v double 1\n"
     b"LOOKUP_TABLE default\n" + _block("d", [1]), "POINTS"),
], ids=["header-only", "one-line", "no-cells", "data-first"])
def test_cli_profile_of_a_file_without_its_mesh_is_an_error(
        tmp_path, capsys, data, missing):
    # A file without a POINTS or CELLS section before its data is reported
    # as an error that names the section, not as a traceback.
    path = tmp_path / "bad.vtk"
    path.write_bytes(data(tmp_path) if callable(data) else data)
    _assert_profile_error(path, capsys, f"no {missing} section")


@pytest.mark.parametrize("old, new, message", [
    (b"POINTS 9", b"POINTS 7",
     "the POINTS section holds more than the 7 rows of its header"),
    (b"POINTS 9", b"POINTS 12",
     "the POINTS section holds fewer than the 12 rows of its header"),
    (b"CELLS 4", b"CELLS 6",
     "the CELLS section holds fewer than the 6 rows of its header"),
    (_quads((0,)), _quads((9,)),
     "the CELLS section indexes past its 9 POINTS"),
    (b"POINTS 9", b"POINTS nine", "the POINTS header gives no count"),
    (b"POINT_DATA 9", b"POINT_DATA 5", "the POINT_DATA header counts 5 "
     "values, but the POINTS section holds 9 rows"),
    (b"POINT_DATA 9", b"POINT_DATA", "the POINT_DATA header gives no count"),
    (b"POINT_DATA 9", b"POINT_DATA abc",
     "the POINT_DATA header gives no count"),
    (b"CELL_DATA 4", b"CELL_DATA 99", "the CELL_DATA header counts 99 "
     "values, but the CELLS section holds 4 rows"),
], ids=["points-short", "points-long", "cells-long", "index-past",
        "points-no-count", "point-data-short", "point-data-no-count",
        "point-data-word", "cell-data-long"])
def test_cli_profile_of_a_file_with_wrong_counts_is_an_error(
        tmp_path, capsys, old, new, message):
    # A level-1 snapshot whose POINTS, CELLS, POINT_DATA or CELL_DATA
    # header count, or one of whose quad indices, was edited is reported
    # as an error that names the section, not as a traceback.
    path = tmp_path / "f.vtk"
    data = _level1_file(path, cell_data={"xi": np.full(4, 0.1)})
    assert data.count(old) == 1
    path.write_bytes(data.replace(old, new))
    _assert_profile_error(path, capsys, message)


_SCALARS_U = b"SCALARS u double 1\nLOOKUP_TABLE default\n"


@pytest.mark.parametrize("edit, message", [
    (lambda data: data[:-9],
     "the SCALARS v section holds fewer than the 9 values of its header"),
    (lambda data: data.replace(_SCALARS_U + _block("d", [0] * 9),
                               _SCALARS_U + _block("d", [0] * 8)),
     "the SCALARS u section holds fewer than the 9 values of its header"),
    (lambda data: data.replace(_SCALARS_U + _block("d", [0] * 9),
                               _SCALARS_U + _block("d", [0] * 10)),
     "the SCALARS u section holds more than the 9 values of its header"),
    (lambda data: data.replace(b"SCALARS v double", b"SCALARS v float"),
     "the header 'SCALARS v float 1' gives no double or int type"),
    (lambda data: data.replace(b"POINT_DATA 9\n", b""),
     "the SCALARS u section has no POINT_DATA or CELL_DATA header"),
], ids=["last-short", "middle-short", "middle-long", "float",
        "no-data-header"])
def test_cli_profile_of_a_file_with_a_wrong_data_section_is_an_error(
        tmp_path, capsys, edit, message):
    # A level-1 snapshot with u and v whose data block does not hold what
    # its header says, or whose data header is missing, is reported as an
    # error that names the section.
    path = tmp_path / "f.vtk"
    data = _level1_file(path, {"u": np.zeros(9), "v": np.ones(9)})
    edited = edit(data)
    assert edited != data
    path.write_bytes(edited)
    _assert_profile_error(path, capsys, message)


def test_cli_profile_of_an_ascii_snapshot_is_an_error(tmp_path, capsys):
    # Snapshots written before the binary format are not read as garbage.
    path = tmp_path / "f.vtk"
    path.write_text("# vtk DataFile Version 2.0\nstep 10 t=0.1\nASCII\n"
                    "DATASET UNSTRUCTURED_GRID\nPOINTS 4 double\n0 0 0\n")
    _assert_profile_error(
        path, capsys,
        "not a legacy VTK file in BINARY format (its third line is 'ASCII')")


def test_cli_profile_of_a_file_with_a_degenerate_quad_is_an_error(
        tmp_path, capsys):
    # A level-1 snapshot whose first quad has corner 1 equal to corner 0:
    # its cell key would say nothing of its corners, so the file is
    # reported as an error, not read as a mesh.
    path = tmp_path / "f.vtk"
    data = _level1_file(path)
    assert data.count(_quads((0, 1, 2, 3))) == 1
    path.write_bytes(data.replace(_quads((0, 1, 2, 3)), _quads((0, 0, 2, 3))))
    _assert_profile_error(path, capsys, "the CELLS section holds a quad that "
                          "is not a square of a quadtree mesh")


def test_cli_profile_of_a_file_with_a_repeated_quad_is_an_error(
        tmp_path, capsys):
    # A level-1 snapshot whose second quad repeats the first: the cells
    # are checked before the points, so the error names the cells.
    path = tmp_path / "f.vtk"
    data = _level1_file(path)
    first_two = _quads((0, 1, 2, 3), (3, 2, 4, 5))
    assert data.count(first_two) == 1
    path.write_bytes(data.replace(first_two,
                                  _quads((0, 1, 2, 3), (0, 1, 2, 3))))
    _assert_profile_error(path, capsys,
                          "the cells of the file do not form a quadtree mesh")


@pytest.mark.parametrize("keys, level_max", [
    ([(1, 0, 0)], 1),                       # a gap: area 1/4
    ([(1, 0, 0), (2, 0, 0)], 2),            # a cell inside its parent
    ([(1, 0, 0), (2, 0, 0), (1, 1, 0), (1, 0, 1), (2, 2, 2), (2, 3, 2),
      (2, 2, 3)], 2),                       # both, with area exactly 1
])
def test_cli_profile_of_cells_that_do_not_tile_is_an_error(
        tmp_path, capsys, keys, level_max):
    # Snapshots of such cell sets used to read back as meshes, on which a
    # profile died in Mesh.locate or sampled a field twice over a region.
    path = tmp_path / "f.vtk"
    mesh = Mesh(keys, 1, level_max)
    output.write_vtk(mesh, {"v": np.ones(mesh.n_vertices)}, {}, path)
    _assert_profile_error(path, capsys,
                          "the CELLS section does not tile the unit square")


@pytest.mark.parametrize("move", [
    lambda xy: xy + [1.0, 0.0],                   # right of the square
    lambda xy: xy - [0.0, 0.5],                   # below it
    lambda xy: 4.0 * xy,                          # squares larger than it
    lambda xy: 2.0 ** -(meshmod._MAXLEVEL + 1) * xy,  # too fine a level
], ids=["right", "below", "larger", "finer"])
def test_cli_profile_of_squares_off_the_quadtree_is_an_error(
        tmp_path, capsys, move):
    # A level-1 snapshot with its points moved: the quads stay squares,
    # but their keys lie outside the quadtree of the unit square, which
    # the mesh constructor rejects; the error still names the file.
    path = tmp_path / "f.vtk"
    data = _level1_file(path)
    head = b"POINTS 9 double\n"
    start = data.index(head) + len(head)
    points = np.frombuffer(data[start:start + 9 * 24], ">f8").reshape(9, 3)
    moved = points.copy()
    moved[:, :2] = move(points[:, :2])
    path.write_bytes(data[:start] + moved.astype(">f8").tobytes()
                     + data[start + 9 * 24:])
    _assert_profile_error(path, capsys,
                          "the CELLS section does not tile the unit square")


def test_cli_profile_of_a_snapshot_without_cells_is_an_error(tmp_path,
                                                            capsys):
    # No cell gives no level to build a mesh with, and tiles nothing.
    path = tmp_path / "f.vtk"
    path.write_bytes(b"# vtk DataFile Version 2.0\nxifrac fields\nBINARY\n"
                     b"DATASET UNSTRUCTURED_GRID\nPOINTS 0 double\n\n"
                     b"CELLS 0 0\n\nCELL_TYPES 0\n\n")
    _assert_profile_error(path, capsys,
                          "the CELLS section does not tile the unit square")


def test_cli_keys_lists_all(capsys):
    assert cli.main(["keys"]) == 0
    out = capsys.readouterr().out
    for key in ("regularization.mode", "solver.method", "amr.enabled",
                "output.cadence"):
        assert key in out
    assert len(out.splitlines()) == len(config.KEYS) == 13
    assert "material." not in out
