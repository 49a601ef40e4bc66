import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homotopt import io_cli, solver
from homotopt.homotopy import SolveTrace, TraceRecord
from homotopt.fem import MaterialModel
from homotopt.io_cli import (BarrierConfig, ConfigError, MeshConfig,
                             NewtonSettings, SolverConfig, SteppingConfig,
                             config_digest, parse_config, parse_config_text,
                             read_density_vtk, run_cli, serialize_config,
                             write_density_vtk, write_param_history)
from homotopt.lagrangian import ProblemParams
from homotopt.mesh import DomainSpec, build_structured_mesh

SMALL_CONFIG = """
mesh.nx = 20
mesh.ny = 8
"""


# --- config parsing ------------------------------------------------------------

def test_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    assert parse_config(path) == SolverConfig()


def test_default_configuration_values():
    cfg = SolverConfig()
    assert (cfg.mesh.nx, cfg.mesh.ny) == (60, 20)
    assert cfg.params.gamma == 9.75
    assert cfg.params.beta == 0.5
    assert cfg.params.epsilon == 0.0075
    assert cfg.material.lambda1 == 0.750
    assert cfg.material.mu1 == 0.375
    assert cfg.material.lambda0 == 7.498e-5
    assert cfg.material.mu0 == 3.750e-5
    assert cfg.material.exponent == 3.0
    assert cfg.barrier.mu0 == 50.0
    assert cfg.barrier.mu_inf == 1e-3
    assert cfg.stepping.dt_init == 0.25
    assert cfg.stepping.dt_max == 0.25
    assert cfg.stepping.growth == 1.5
    assert cfg.stepping.shrink == 0.5
    assert cfg.predictor_order == 0


def test_overrides_and_comments():
    cfg = parse_config_text("""
        # comment line
        mesh.nx = 40   # trailing comment
        params.gamma = 3.5
        snapshots = 0.5,1.0
    """)
    assert cfg.mesh.nx == 40
    assert cfg.params.gamma == 3.5
    assert cfg.snapshots == (0.5, 1.0)


def test_negative_gamma_rejected():
    with pytest.raises(ConfigError, match="gamma"):
        parse_config_text("params.gamma = -1.0")


def test_increasing_schedule_rejected():
    with pytest.raises(ConfigError, match="mu_inf"):
        parse_config_text("barrier.mu0 = 1.0\nbarrier.mu_inf = 2.0")


@pytest.mark.parametrize("growth", ["0", "-1"])
def test_non_positive_divergence_growth_rejected(growth):
    with pytest.raises(ConfigError, match="divergence_growth must be positive"):
        parse_config_text(f"newton.divergence_growth = {growth}")


def test_unknown_key_rejected_with_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("mesh.nx = 10\nmesh.nz = 3")


def test_parse_error_reports_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("mesh.nx equals 10")
    with pytest.raises(ConfigError, match="must be int"):
        parse_config_text("mesh.nx = ten")


def test_config_roundtrip_fixed_point():
    cfg = parse_config_text(SMALL_CONFIG)
    text = serialize_config(cfg)
    again = parse_config_text(text)
    assert again == cfg
    assert serialize_config(again) == text
    assert config_digest(again) == config_digest(cfg)


FLOAT_KEYS = [key for key, (_, _, (_, cast)) in io_cli._TABLE.items()
              if cast is io_cli._finite_float]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_rejected(key, value):
    with pytest.raises(ConfigError, match=rf"line 2: value for {re.escape(key)} "):
        parse_config_text(f"mesh.nx = 20\n{key} = {value}")


def test_non_finite_snapshot_rejected():
    with pytest.raises(ConfigError, match="line 1: value for snapshots"):
        parse_config_text("snapshots = 0.5,nan")


DEFAULT_TEXT = """\
mesh.nx = 60
mesh.ny = 20
mesh.diagonal = mirrored
material.lambda0 = 7.498e-05
material.lambda1 = 0.75
material.mu0 = 3.75e-05
material.mu1 = 0.375
material.exponent = 3.0
params.gamma = 9.75
params.beta = 0.5
params.epsilon = 0.0075
barrier.mu0 = 50.0
barrier.mu_inf = 0.001
barrier.schedule = linear
stepping.dt_init = 0.25
stepping.dt_max = 0.25
stepping.growth = 1.5
stepping.shrink = 0.5
stepping.dt_min = 1e-08
newton.tol = 1e-08
newton.max_iter = 20
newton.divergence_growth = 1000.0
newton.damping = 0.995
predictor_order = 0
out_dir = out
snapshots = 0.0,0.5,0.9375,0.999931,0.999946,0.999956,0.999974,0.999988,1.0
"""


def test_serialization_and_digest_pinned():
    # The digest goes into every VTK title, so this text must not drift.
    assert serialize_config(SolverConfig()) == DEFAULT_TEXT
    assert config_digest(SolverConfig()) == "ffdc917cbf6e"
    assert config_digest(parse_config_text(SMALL_CONFIG)) == "a65c93cd40de"


POSITIVE = st.floats(min_value=1e-6, max_value=1e6)


@st.composite
def valid_configs(draw):
    lam0, mu0, mu_inf, dt_init = draw(POSITIVE), draw(POSITIVE), draw(POSITIVE), draw(POSITIVE)
    ratio = st.floats(min_value=1.001, max_value=1e3)
    return SolverConfig(
        mesh=MeshConfig(draw(st.integers(1, 10**6)), draw(st.integers(1, 10**6)),
                        draw(st.sampled_from(["right", "mirrored"]))),
        material=MaterialModel(lam0, lam0 * draw(ratio), mu0, mu0 * draw(ratio),
                               draw(st.floats(min_value=1.0, max_value=10.0))),
        params=ProblemParams(draw(POSITIVE), draw(POSITIVE), draw(POSITIVE)),
        barrier=BarrierConfig(mu_inf * draw(ratio), mu_inf,
                              draw(st.sampled_from(["linear", "geometric"]))),
        stepping=SteppingConfig(dt_init, dt_init * draw(st.floats(1.0, 10.0)),
                                draw(st.floats(1.0, 10.0)),
                                draw(st.floats(1e-3, 0.999)), draw(POSITIVE)),
        newton=NewtonSettings(draw(POSITIVE), draw(st.integers(1, 1000)), draw(POSITIVE),
                              draw(st.floats(0.0, 0.999))),
        predictor_order=draw(st.sampled_from([0, 1])),
        out_dir=draw(st.from_regex(r"[A-Za-z0-9_./-]+", fullmatch=True)),
        snapshots=tuple(draw(st.lists(st.floats(0.0, 1.0), max_size=10))),
    )


@settings(max_examples=200, deadline=None)
@given(valid_configs())
def test_config_roundtrip_property(cfg):
    text = serialize_config(cfg)
    assert parse_config_text(text) == cfg
    assert serialize_config(parse_config_text(text)) == text


def test_readme_config_block_is_complete_and_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    assert parse_config_text(block) == SolverConfig()
    named = {line.split("=")[0].strip() for line in block.splitlines() if "=" in line}
    assert named == set(io_cli._TABLE)


# --- param history --------------------------------------------------------------

def make_trace(rows):
    trace = SolveTrace()
    for i, (t, mu, acc) in enumerate(rows, start=1):
        trace.records.append(TraceRecord(i, t, mu, 3, 1e-9, acc))
    return trace


def test_param_history_line_count(tmp_path):
    path = tmp_path / "hist.csv"
    write_param_history(make_trace([(0.25, 37.5, True), (0.5, 25.0, True)]), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "it,t,mu"
    assert len(lines) == 3
    assert lines[1].startswith("1,0.25,")


def test_param_history_rejected_rows_included(tmp_path):
    path = tmp_path / "hist.csv"
    rows = [(0.25, 37.5, True), (0.5, 25.0, False), (0.375, 31.25, True)]
    write_param_history(make_trace(rows), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    its = [int(line.split(",")[0]) for line in lines[1:]]
    assert its == [1, 2, 3]
    accepted_t = [0.25, 0.375]
    assert accepted_t == sorted(accepted_t)


def test_param_history_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        write_param_history(SolveTrace(), tmp_path / "x.csv")


def test_param_history_full_precision_roundtrip(tmp_path):
    t = 0.1 + 0.2  # not exactly representable as a short decimal
    path = tmp_path / "hist.csv"
    write_param_history(make_trace([(t, 1.0 / 3.0, True)]), path)
    row = path.read_text().splitlines()[1].split(",")
    assert float(row[1]) == t
    assert float(row[2]) == 1.0 / 3.0


# --- VTK ------------------------------------------------------------------------

def test_vtk_write_and_roundtrip(tmp_path):
    spec = DomainSpec(1.0, 1.0)
    msh = build_structured_mesh(spec, nx=1, ny=1)
    rho = np.array([0.0, 0.0, 1.0, 1.0])
    path = tmp_path / "field.vtk"
    write_density_vtk(msh, rho, path, title="test field")
    text = path.read_text()
    assert "POINTS 4 double" in text
    assert "CELLS 2 8" in text
    assert text.count("\n5\n") >= 1  # triangle cell type
    assert "SCALARS rho double 1" in text
    pts, tris, rho_back = read_density_vtk(path)
    assert np.array_equal(rho_back, rho)
    assert np.array_equal(pts, msh.vertices)
    assert np.array_equal(tris, msh.triangles)


def test_vtk_exact_roundtrip_of_irrational_values(tmp_path, rng):
    spec = DomainSpec(1.0, 1.0)
    msh = build_structured_mesh(spec, nx=2, ny=2)
    rho = rng.uniform(0.0001, 0.9999, msh.n_vertices)
    path = tmp_path / "field.vtk"
    write_density_vtk(msh, rho, path)
    _, _, rho_back = read_density_vtk(path)
    assert np.array_equal(rho_back, rho)  # bitwise, via repr round-trip


def test_vtk_byte_stable(tmp_path, rng):
    spec = DomainSpec(1.0, 1.0)
    msh = build_structured_mesh(spec, nx=2, ny=2)
    rho = rng.uniform(0.1, 0.9, msh.n_vertices)
    p1 = tmp_path / "a.vtk"
    p2 = tmp_path / "b.vtk"
    write_density_vtk(msh, rho, p1, title="t")
    write_density_vtk(msh, rho, p2, title="t")
    assert p1.read_bytes() == p2.read_bytes()


def test_vtk_size_mismatch(tmp_path):
    spec = DomainSpec(1.0, 1.0)
    msh = build_structured_mesh(spec, nx=1, ny=1)
    with pytest.raises(ValueError):
        write_density_vtk(msh, np.zeros(3), tmp_path / "x.vtk")


# --- CLI ------------------------------------------------------------------------

def test_cli_unknown_subcommand(capsys):
    assert run_cli(["frobnicate"]) == 2
    assert run_cli([]) == 2


def test_cli_scalar_demos(capsys):
    assert run_cli(["scalar-demos"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


def test_cli_solve_and_determinism(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_CONFIG + "snapshots = 0.5,1.0\n")
    out1 = tmp_path / "out1"
    out2 = tmp_path / "out2"
    assert run_cli(["solve", str(cfg_path), "--out-dir", str(out1)]) == 0
    assert run_cli(["solve", "--config", str(cfg_path), "--out-dir", str(out2)]) == 0
    hist1 = (out1 / "param_history.csv").read_bytes()
    hist2 = (out2 / "param_history.csv").read_bytes()
    assert hist1 == hist2
    final1 = (out1 / "density_final.vtk").read_bytes()
    final2 = (out2 / "density_final.vtk").read_bytes()
    assert final1 == final2
    snaps1 = sorted(p.name for p in out1.glob("density_t*.vtk"))
    snaps2 = sorted(p.name for p in out2.glob("density_t*.vtk"))
    assert snaps1 == snaps2 and snaps1
    for name in snaps1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_solve_rejects_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("params.gamma = -2\n")
    assert run_cli(["solve", str(cfg_path)]) == 1
    assert "gamma" in capsys.readouterr().err


@pytest.mark.parametrize("snapshots", ["abc", "1.5,-3"])
def test_cli_solve_rejects_bad_snapshots_override(tmp_path, capsys, snapshots):
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text(SMALL_CONFIG)
    out_dir = tmp_path / "out"
    argv = ["solve", str(cfg_path), "--out-dir", str(out_dir), "--snapshots", snapshots]
    assert run_cli(argv) == 1
    assert "snapshots" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_solve_rejects_mesh_without_supports(tmp_path, capsys):
    # 0.24-wide cells miss the 0.12-wide clamped segments of the bridge
    cfg_path = tmp_path / "coarse.cfg"
    cfg_path.write_text("mesh.nx = 10\nmesh.ny = 4\n")
    out_dir = tmp_path / "out"
    assert run_cli(["solve", str(cfg_path), "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert "clamped" in err and "multiple of 20" in err
    assert not out_dir.exists()


def test_cli_check_derivatives(tmp_path, capsys):
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text(SMALL_CONFIG)
    assert run_cli(["check-derivatives", str(cfg_path), "--points", "1"]) == 0
    out = capsys.readouterr().out
    assert "gradient vs FD(L)" in out
    assert "FAIL" not in out
