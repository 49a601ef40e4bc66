import gc
import hashlib
import re
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from homotopt import io_cli, solver
from homotopt.homotopy import SolveTrace, TraceRecord
from homotopt.barrier import BarrierSchedule
from homotopt.fem import MaterialModel
from homotopt.homotopy import StepController
from homotopt.io_cli import (ConfigError, MeshConfig, NewtonSettings, SolverConfig,
                             config_digest, parse_config, parse_config_text,
                             run_cli, serialize_config, write_density_vtk,
                             write_param_history)
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


@pytest.mark.parametrize("text, message", [
    ("mesh.ny = 0", "mesh.nx and mesh.ny must be at least 1"),
    ("mesh.diagonal = left", "mesh.diagonal must be 'right' or 'mirrored', got 'left'"),
    ("barrier.schedule = cubic", "schedule: unknown kind 'cubic'"),
    ("stepping.dt_init = 0.5", "controller: need 0 < dt_init <= dt_max"),
    ("stepping.shrink = 1.0", "controller: need growth >= 1 and 0 < shrink < 1"),
    ("stepping.dt_min = 0", "controller: dt_min must be positive"),
    ("newton.tol = 0", "newton: tol must be positive"),
    ("newton.max_iter = 0", "newton: max_iter must be at least 1"),
    ("newton.damping = 1.0", "newton.damping must lie in [0, 1); 0 disables it"),
    ("snapshots = 0.5,1.5", "snapshots must lie in [0, 1]"),
])
def test_each_section_checks_its_own_fields(text, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config_text(text)


def test_unknown_key_rejected_with_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("mesh.nx = 10\nmesh.nz = 3")


def test_repeated_key_rejected_with_both_lines():
    with pytest.raises(ConfigError, match=r"line 3: key 'mesh.nx' already set on line 1"):
        parse_config_text("mesh.nx = 20\nmesh.ny = 8\nmesh.nx = 40")


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
out_dir = out
snapshots = 0.0,0.5,0.9375,0.999931,0.999946,0.999956,0.999974,0.999988,1.0
"""


def test_serialization_and_digest_pinned():
    # The digest goes into every VTK title, so this text must not drift.
    assert serialize_config(SolverConfig()) == DEFAULT_TEXT
    assert config_digest(SolverConfig()) == "6e7392c7702b"
    assert config_digest(parse_config_text(SMALL_CONFIG)) == "f97d9f13acfd"


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
        barrier=BarrierSchedule(mu_inf * draw(ratio), mu_inf,
                                draw(st.sampled_from(["linear", "geometric"]))),
        stepping=StepController(dt_init, dt_init * draw(st.floats(1.0, 10.0)),
                                draw(st.floats(1.0, 10.0)),
                                draw(st.floats(1e-3, 0.999)), draw(POSITIVE)),
        newton=NewtonSettings(draw(POSITIVE), draw(st.integers(1, 1000)), draw(POSITIVE),
                              draw(st.floats(0.0, 0.999))),
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

def _read_density_vtk(path):
    """Read back a file written by ``write_density_vtk``: ``(points, triangles, rho)``."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    idx = 0

    def expect_prefix(prefix):
        nonlocal idx
        while idx < len(lines) and not lines[idx].startswith(prefix):
            idx += 1
        if idx == len(lines):
            raise ValueError(f"missing {prefix!r} section in {path}")
        return lines[idx]

    header = expect_prefix("POINTS")
    n_points = int(header.split()[1])
    points = np.array([[float(v) for v in lines[idx + 1 + i].split()[:2]]
                       for i in range(n_points)])
    idx += n_points
    header = expect_prefix("CELLS")
    n_cells = int(header.split()[1])
    tris = np.array([[int(v) for v in lines[idx + 1 + i].split()[1:]]
                     for i in range(n_cells)], dtype=np.int64)
    idx += n_cells
    expect_prefix("LOOKUP_TABLE")
    rho = np.array([float(lines[idx + 1 + i]) for i in range(n_points)])
    return points, tris, rho


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
    pts, tris, rho_back = _read_density_vtk(path)
    assert np.array_equal(rho_back, rho)
    assert np.array_equal(pts, msh.vertices)
    assert np.array_equal(tris, msh.triangles)


def test_vtk_exact_roundtrip_of_irrational_values(tmp_path, rng):
    spec = DomainSpec(1.0, 1.0)
    msh = build_structured_mesh(spec, nx=2, ny=2)
    rho = rng.uniform(0.0001, 0.9999, msh.n_vertices)
    path = tmp_path / "field.vtk"
    write_density_vtk(msh, rho, path)
    _, _, rho_back = _read_density_vtk(path)
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


# sha256 of write_density_vtk's file of the bridge mesh at rho_i = (i + 1/2) / n_v,
# title "rho", as the writer that rendered every line on every call wrote it
VTK_DIGESTS = {
    (20, 8, "mirrored"): "264a02bf1eef6abf3bc8139f23af4820bc14946cf8a2476b703c1418838859b2",
    (40, 12, "right"): "591e88caa05f451f4e62c6b55e6295ca73b15a74168f7a58f107d186a7c0c19f",
}


def _vtk_digest(msh, path):
    write_density_vtk(msh, (np.arange(msh.n_vertices) + 0.5) / msh.n_vertices, path, title="rho")
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("nx, ny, diagonal", sorted(VTK_DIGESTS))
def test_vtk_bytes_pinned(tmp_path, bridge, nx, ny, diagonal):
    msh = build_structured_mesh(bridge, nx, ny, diagonal)
    assert _vtk_digest(msh, tmp_path / "first.vtk") == VTK_DIGESTS[nx, ny, diagonal]
    assert _vtk_digest(msh, tmp_path / "again.vtk") == VTK_DIGESTS[nx, ny, diagonal]


def test_vtk_meshes_written_alternately_keep_their_blocks(tmp_path, bridge):
    meshes = {key: build_structured_mesh(bridge, *key) for key in sorted(VTK_DIGESTS)}
    for turn in range(2):
        for key, msh in meshes.items():
            assert _vtk_digest(msh, tmp_path / f"{turn}.vtk") == VTK_DIGESTS[key]


def test_vtk_keeps_no_mesh_alive(tmp_path, bridge):
    msh = build_structured_mesh(bridge, 20, 8)
    write_density_vtk(msh, np.full(msh.n_vertices, 0.5), tmp_path / "field.vtk")
    ref = weakref.ref(msh)
    del msh
    gc.collect()
    assert ref() is None


def test_vtk_size_mismatch(tmp_path):
    spec = DomainSpec(1.0, 1.0)
    msh = build_structured_mesh(spec, nx=1, ny=1)
    with pytest.raises(ValueError):
        write_density_vtk(msh, np.zeros(3), tmp_path / "x.vtk")


# --- CLI ------------------------------------------------------------------------

def test_cli_unknown_subcommand(capsys):
    assert run_cli(["frobnicate"]) == 2
    assert run_cli([]) == 2


SCALAR_DEMOS_TEXT = """\
cubic x(0.40) = -1.042026 (reference -1.0420)  PASS
cubic x(0.65) = -0.914651 (reference -0.9147)  PASS
cubic x(0.90) = -0.739945 (reference -0.7399)  PASS
cubic x(1.00) = -0.64038820 (root -0.64038820)  PASS
quartic argmin B(x;2.9) = +0.200758 (reference +0.2008)  PASS
quartic argmin B(x;1.1) = +0.031392 (reference +0.0315)  PASS
quartic argmin B(x;0.4) = -0.245568 (reference -0.2456)  PASS
quartic argmin B(x;0.1) = -0.409988 (reference -0.4100)  PASS
quartic x(mu->0) = -0.499999 (bound -0.5)  PASS
"""


def test_cli_scalar_demos(capsys):
    assert run_cli(["scalar-demos"]) == 0
    assert capsys.readouterr().out == SCALAR_DEMOS_TEXT


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
    out = capsys.readouterr().out
    assert "endpoint jump" not in out
    assert out.splitlines()[1] == ("negative eigenvalues of the final reduced Hessian: "
                                   "8 mirror-symmetric, 8 antisymmetric")
    snaps1 = sorted(p.name for p in out1.glob("density_t*.vtk"))
    snaps2 = sorted(p.name for p in out2.glob("density_t*.vtk"))
    assert snaps1 == snaps2 and snaps1
    for name in snaps1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_solve_builds_one_mesh(tmp_path, monkeypatch):
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return build_structured_mesh(*args, **kwargs)

    for module in (io_cli, solver):
        monkeypatch.setattr(module, "build_structured_mesh", counting)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_CONFIG)
    assert run_cli(["solve", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 0
    assert len(built) == 1


def test_cli_closing_line_names_the_endpoint_jump(tmp_path, capsys):
    # with four Newton iterations per step the 20x8 trace stalls below t = 1
    cfg_path = tmp_path / "jump.cfg"
    cfg_path.write_text(SMALL_CONFIG + "newton.max_iter = 4\n")
    assert run_cli(["solve", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("solve finished: 22 accepted / 58 total steps")
    assert first.endswith("; t = 1 reached by endpoint jump from t = 0.99925574")


@pytest.mark.parametrize("extra, last_t, rows", [
    # every corrector diverges, so the jump follows two rejections at t = 0
    ("newton.divergence_growth = 1e-300\nstepping.dt_min = 0.1\n", 0.0, 4),
    ("newton.max_iter = 3\nstepping.dt_min = 0.01\n", 0.986328125, 15),
])
def test_cli_failed_solve_keeps_partial_outputs(tmp_path, capsys, extra, last_t, rows):
    cfg_path = tmp_path / "fail.cfg"
    cfg_path.write_text(SMALL_CONFIG + extra)
    out_dir = tmp_path / "out"
    assert run_cli(["solve", str(cfg_path), "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert "error: solve failed: homotopy step underflow" in err
    assert f"partial outputs in {out_dir}" in err
    history = (out_dir / "param_history.csv").read_text().splitlines()
    assert history[0] == "it,t,mu" and len(history) == rows
    assert history[-1].split(",")[1] == "1.0"  # the failed endpoint jump
    assert (out_dir / f"density_t{last_t:.6f}.vtk").exists()
    assert not (out_dir / "density_final.vtk").exists()


def test_cli_solve_reports_an_unsolved_start(tmp_path, capsys):
    # the 20x8 start solves t = 0 to 8.701e-15; 1e-22 * sqrt(1307) is far below
    cfg_path = tmp_path / "tol.cfg"
    cfg_path.write_text(SMALL_CONFIG + "newton.tol = 1e-22\n")
    assert run_cli(["solve", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "error: solve failed: x0 does not solve the t=0 problem" in err
    assert "Newton tolerance 3.615e-21 (residual 8.701e-15)" in err
    assert "the tolerance is too small" in err


def test_cli_solve_rejects_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("params.gamma = -2\n")
    assert run_cli(["solve", str(cfg_path)]) == 1
    assert "gamma" in capsys.readouterr().err


@pytest.mark.parametrize("config_text, extra_args", [
    (SMALL_CONFIG + "out_dir =\n", []),
    (SMALL_CONFIG, ["--out-dir", ""]),
], ids=["config-file", "command-line"])
def test_cli_solve_rejects_an_empty_out_dir(tmp_path, monkeypatch, capsys, config_text,
                                            extra_args):
    # an empty out_dir would write every output into the working directory
    monkeypatch.chdir(tmp_path)
    Path("small.cfg").write_text(config_text)
    assert run_cli(["solve", "small.cfg", *extra_args]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: out_dir must not be empty\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["small.cfg"]
    with pytest.raises(ConfigError, match="^out_dir must not be empty$"):
        SolverConfig(out_dir="")


@pytest.mark.parametrize("snapshots", ["abc", "1.5,-3"])
def test_cli_solve_rejects_bad_snapshots_override(tmp_path, capsys, snapshots):
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text(SMALL_CONFIG)
    out_dir = tmp_path / "out"
    argv = ["solve", str(cfg_path), "--out-dir", str(out_dir), "--snapshots", snapshots]
    assert run_cli(argv) == 1
    assert "snapshots" in capsys.readouterr().err
    assert not out_dir.exists()


def test_config_file_not_utf8_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"mesh.nx = 20\xff\n")
    with pytest.raises(ConfigError, match=rf"{re.escape(str(path))}: not valid UTF-8 at byte 12"):
        parse_config(path)


def test_config_file_with_byte_order_mark_parses(tmp_path):
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    text = "mesh.nx = 20\nmesh.ny = 8\nnewton.tol = 1e-9\n"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert parse_config(marked) == parse_config(plain)
    assert parse_config(marked).mesh.nx == 20


def test_config_file_with_byte_order_mark_reports_the_file_offset(tmp_path):
    # the bad byte is at offset 15 of the file: 3 bytes of mark, then 12
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"\xef\xbb\xbfmesh.nx = 20\xff\n")
    with pytest.raises(ConfigError, match=rf"{re.escape(str(path))}: not valid UTF-8 at byte 15"):
        parse_config(path)


def test_cli_solve_rejects_a_config_that_is_not_utf8(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_bytes(b"mesh.nx = 20\xff\n")
    out_dir = tmp_path / "out"
    assert run_cli(["solve", str(cfg_path), "--out-dir", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {cfg_path}: not valid UTF-8 at byte 12\n"
    assert captured.out == ""
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


def test_cli_solve_rejects_an_unwritable_out_dir(tmp_path, capsys):
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text(SMALL_CONFIG)
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    assert run_cli(["solve", str(cfg_path), "--out-dir", str(not_a_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(not_a_dir) in captured.err
    assert captured.out == ""
    assert not_a_dir.read_text() == ""


@pytest.mark.parametrize("command", ["solve", "check-derivatives"])
def test_cli_rejects_two_config_paths(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.cfg").write_text(SMALL_CONFIG)
    (tmp_path / "b.cfg").write_text(SMALL_CONFIG)
    assert run_cli([command, "a.cfg", "--config", "b.cfg"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: two config files given: a.cfg and --config b.cfg\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.cfg", "b.cfg"]


def test_cli_check_derivatives(tmp_path, capsys):
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text(SMALL_CONFIG)
    assert run_cli(["check-derivatives", str(cfg_path), "--points", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    checks = [("gradient vs FD(L)", "1e-06"), ("hessian vs FD(gradient)", "1e-05"),
              ("jacobian vs FD(residual)", "1e-05"), ("h_t vs FD in t", "1e-06")]
    assert len(lines) == len(checks)
    for line, (name, tol) in zip(lines, checks):
        assert re.fullmatch(rf"{re.escape(name)}: max relative error \d\.\d{{3}}e[-+]\d\d "
                            rf"\(tol {tol}\)  PASS", line), line


def test_cli_check_derivatives_catches_m_without_sigma(tmp_path, capsys, monkeypatch):
    # the checked matrix is the factored M: dropping Sigma from its rho
    # diagonal fails the jacobian line and the command
    jacobian = solver.KktSystem.jacobian

    def without_sigma(self, point):
        m = jacobian(self, point)
        sigma = (point.z_a / self.box.lower_gap(point.rho)
                 + point.z_b / self.box.upper_gap(point.rho))
        return m - sp.diags(np.concatenate([sigma, np.zeros(self.l)]))

    monkeypatch.setattr(solver.KktSystem, "jacobian", without_sigma)
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text(SMALL_CONFIG)
    assert run_cli(["check-derivatives", str(cfg_path), "--points", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.rsplit(" ", 1)[-1] for line in lines] == ["PASS", "PASS", "FAIL", "PASS"]
    assert lines[2].startswith("jacobian vs FD(residual): ")


def test_check_derivatives_draws_each_check_from_its_own_generator(monkeypatch):
    # so a change to one check's draws moves no other check's line
    seeds = []
    default_rng = np.random.default_rng

    def recorded(seed):
        seeds.append(seed)
        return default_rng(seed)

    system, schedule = solver.build_system(SolverConfig(mesh=MeshConfig(nx=20, ny=8)))
    _, anchor = system.initialize(schedule.mu0)
    monkeypatch.setattr(np.random, "default_rng", recorded)
    io_cli._fd_errors(system, schedule, anchor, 2)
    assert seeds == [(0, 2, check) for check in range(4)]


@pytest.mark.parametrize("points", ["0", "-2"])
def test_cli_check_derivatives_rejects_non_positive_points(capsys, points):
    assert run_cli(["check-derivatives", "--points", points]) == 2
    captured = capsys.readouterr()
    assert f"argument --points: must be at least 1, got {points}" in captured.err
    assert "PASS" not in captured.out
