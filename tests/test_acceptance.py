"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete; the heavy end-to-end criteria share two session-scoped full runs.
"""
import math
import time

import numpy as np
import pytest

from test_barrier import golden_section_min, quartic_barrier

from homotopt import solver
from homotopt.barrier import BarrierSchedule, BoxConstraints, run_pd_barrier
from homotopt.homotopy import NewtonConfig, StepController, global_homotopy, trace
from homotopt.io_cli import (MeshConfig, NewtonSettings, SolverConfig,
                             mu_sequence_rule, quartic_oracle, write_density_vtk,
                             write_param_history)

CUBIC_ROOT = (-1.0 - math.sqrt(17.0)) / 8.0


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} ({desc}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def default_run_first():
    accepted = []
    start = time.perf_counter()
    point, tr = solver.run(SolverConfig(), on_accept=lambda t, p: accepted.append((t, p)))
    elapsed = time.perf_counter() - start
    return point, tr, accepted, elapsed


@pytest.fixture(scope="session")
def default_run_second():
    point, tr = solver.run(SolverConfig())
    return point, tr


def test_criterion_1_scalar_homotopy_oracle():
    start = time.perf_counter()

    def cubic(x):
        return 4.0 * x ** 3 - 3.0 * x ** 2 - 2.0 * x + 1.0

    def cubic_jac(x):
        return np.diag(12.0 * x ** 2 - 6.0 * x - 2.0)

    problem = global_homotopy(cubic, cubic_jac, np.array([-1.2]))
    landed = {}
    controller = StepController(dt_init=0.25, dt_max=0.25)
    x, _ = trace(problem, np.array([-1.2]), controller, NewtonConfig(),
                 on_accept=lambda t, xx: landed.__setitem__(round(t, 12), float(xx[0])),
                 checkpoints=(0.4, 0.65, 0.9))
    elapsed = time.perf_counter() - start
    ok = (abs(landed[0.4] - (-1.0420)) < 1e-3
          and abs(landed[0.65] - (-0.9147)) < 1e-3
          and abs(landed[0.9] - (-0.7399)) < 1e-3
          and abs(float(x[0]) - CUBIC_ROOT) < 1e-6
          and elapsed < 1.0)
    report(1, "scalar homotopy oracle", ok,
           f"x(0.4)={landed[0.4]:.4f} x(0.65)={landed[0.65]:.4f} "
           f"x(0.9)={landed[0.9]:.4f} x(1)={float(x[0]):.6f} {elapsed:.2f}s")


def test_criterion_2_scalar_barrier_oracle():
    start = time.perf_counter()
    box = BoxConstraints(np.array([-0.5]), np.array([1.0]))
    reference = {2.9: 0.2008, 1.1: 0.0315, 0.4: -0.2456, 0.1: -0.41}
    mus = sorted(reference, reverse=True)
    seen = {}
    run_pd_barrier(quartic_oracle(), box.analytic_center(), box,
                   mu0=mus[0], mu_inf=0.2, theta=mu_sequence_rule(mus),
                   on_subproblem=lambda mu, x, d: seen.__setitem__(round(mu, 12), float(x[0])))
    ok = True
    for mu, ref in reference.items():
        got = seen[round(mu, 12)]
        oracle = golden_section_min(lambda y: quartic_barrier(y, mu), -0.4999, 0.9999)
        ok &= abs(got - ref) < 1e-3 and abs(got - oracle) < 1e-3
    x_lim, _ = run_pd_barrier(quartic_oracle(), box.analytic_center(), box,
                              mu0=2.9, mu_inf=1e-6)
    elapsed = time.perf_counter() - start
    ok &= abs(float(x_lim[0]) - (-0.5)) < 1e-3
    ok &= elapsed < 1.0
    report(2, "scalar barrier oracle", ok,
           " ".join(f"x({mu})={seen[round(mu, 12)]:.4f}" for mu in mus)
           + f" x(1e-6)={float(x_lim[0]):.4f} {elapsed:.2f}s")


def test_criterion_3_derivative_consistency():
    start = time.perf_counter()
    system, _ = solver.build_system(SolverConfig(mesh=MeshConfig(nx=20, ny=8)))
    lagr = system.lagr
    rng = np.random.default_rng(7)
    n, l = system.n, system.l
    h = 1e-6
    worst_grad = 0.0
    worst_hess = 0.0
    for _ in range(5):
        rho = rng.uniform(0.2, 0.8, n)
        u = rng.standard_normal(l)
        p = rng.standard_normal(l)
        g = lagr.gradient(rho, u, p)
        fd = np.empty(n)
        for i in range(n):
            e = np.zeros(n); e[i] = h
            fd[i] = (lagr.value(rho + e, u, p) - lagr.value(rho - e, u, p)) / (2 * h)
        worst_grad = max(worst_grad, np.linalg.norm(fd - g.d_rho) / np.linalg.norm(g.d_rho))
        fd_u = np.empty(l)
        fd_p = np.empty(l)
        for i in range(l):
            e = np.zeros(l); e[i] = h
            fd_u[i] = (lagr.value(rho, u + e, p) - lagr.value(rho, u - e, p)) / (2 * h)
            fd_p[i] = (lagr.value(rho, u, p + e) - lagr.value(rho, u, p - e)) / (2 * h)
        worst_grad = max(worst_grad, np.linalg.norm(fd_u - g.d_u) / np.linalg.norm(g.d_u))
        worst_grad = max(worst_grad, np.linalg.norm(fd_p - g.d_p) / np.linalg.norm(g.d_p))

        # hessian blocks probed by directional differences of the gradient
        blocks = lagr.hessian(rho, u, p)
        rp = lagr.hessian(rho, p, u).ru  # d2L/drho dp: ru at swapped fields
        for _k in range(3):
            d_r = rng.standard_normal(n); d_r /= np.linalg.norm(d_r)
            gp = lagr.gradient(rho + h * d_r, u, p)
            gm = lagr.gradient(rho - h * d_r, u, p)
            for fd_blk, action in (((gp.d_rho - gm.d_rho) / (2 * h), blocks.rr @ d_r),
                                   ((gp.d_u - gm.d_u) / (2 * h), blocks.ru.T @ d_r),
                                   ((gp.d_p - gm.d_p) / (2 * h), rp.T @ d_r)):
                worst_hess = max(worst_hess, np.linalg.norm(fd_blk - action)
                                 / max(np.linalg.norm(action), 1.0))
            d_u = rng.standard_normal(l); d_u /= np.linalg.norm(d_u)
            gp = lagr.gradient(rho, u + h * d_u, p)
            gm = lagr.gradient(rho, u - h * d_u, p)
            for fd_blk, action in (((gp.d_rho - gm.d_rho) / (2 * h), blocks.ru @ d_u),
                                   ((gp.d_p - gm.d_p) / (2 * h), blocks.up @ d_u)):
                worst_hess = max(worst_hess, np.linalg.norm(fd_blk - action)
                                 / max(np.linalg.norm(action), 1.0))
            d_p = rng.standard_normal(l); d_p /= np.linalg.norm(d_p)
            gp = lagr.gradient(rho, u, p + h * d_p)
            gm = lagr.gradient(rho, u, p - h * d_p)
            for fd_blk, action in (((gp.d_rho - gm.d_rho) / (2 * h), rp @ d_p),
                                   ((gp.d_u - gm.d_u) / (2 * h), blocks.up @ d_p)):
                worst_hess = max(worst_hess, np.linalg.norm(fd_blk - action)
                                 / max(np.linalg.norm(action), 1.0))
    elapsed = time.perf_counter() - start
    ok = worst_grad <= 1e-6 and worst_hess <= 1e-5 and elapsed < 30.0
    report(3, "derivative consistency", ok,
           f"grad err={worst_grad:.2e} hess err={worst_hess:.2e} {elapsed:.1f}s")


def test_criterion_4_homotopy_map_construction():
    system, schedule = solver.build_system(SolverConfig(mesh=MeshConfig(nx=20, ny=8)))
    point, anchor = system.initialize(50.0)
    r0 = np.linalg.norm(system.residual(point, anchor, 0.0, schedule))
    rng = np.random.default_rng(3)
    pt = solver.KktPoint(rho=rng.uniform(0.2, 0.8, system.n),
                         u=rng.standard_normal(system.l),
                         p_adj=rng.standard_normal(system.l),
                         z_a=rng.uniform(0.5, 2.0, system.n),
                         z_b=rng.uniform(0.5, 2.0, system.n))
    diff = np.max(np.abs(system.residual(pt, anchor, 1.0, schedule)
                         - system.f_box(pt, schedule.mu(1.0))))
    ok = r0 <= 1e-10 and diff <= 1e-14
    report(4, "homotopy map construction", ok, f"|H(x0,0)|={r0:.2e} t=1 diff={diff:.2e}")


def test_criterion_5_end_to_end_solve(default_run_first):
    point, tr, accepted, elapsed = default_run_first
    cfg = SolverConfig()
    system, schedule = solver.build_system(cfg)
    tol = cfg.newton.tol * np.sqrt(system.dim)
    mu_inf = cfg.barrier.mu_inf

    final_t = tr.accepted()[-1].t
    res = np.linalg.norm(system.f_box(point, mu_inf))
    interior = bool(np.all(point.rho > 0) and np.all(point.rho < 1))
    comp = max(np.max(np.abs(point.z_a * point.rho - mu_inf)),
               np.max(np.abs(point.z_b * (1 - point.rho) - mu_inf)))
    inter_frac = float(np.mean((point.rho > 0.1) & (point.rho < 0.9)))
    j0 = system.lagr.objective(accepted[0][1].rho, accepted[0][1].u)
    j1 = system.lagr.objective(point.rho, point.u)
    msh = system.lagr.mesh
    index = {(round(x, 9), round(y, 9)): i for i, (x, y) in enumerate(msh.vertices)}
    defect = max(abs(point.rho[i] - point.rho[index[(round(2.4 - x, 9), round(y, 9))]])
                 for i, (x, y) in enumerate(msh.vertices))

    # iteration counts are logged, not asserted (mesh-dependent)
    print(f"  iteration counts: {tr.n_accepted} successful / {tr.n_attempts} total")
    ok = (final_t == 1.0 and res <= tol and interior and comp <= 10 * tol
          and inter_frac <= 0.15 and j1 < j0 and defect <= 1e-3
          and elapsed <= 600.0)
    report(5, "end-to-end solve", ok,
           f"res={res:.2e} comp={comp:.2e} intermediate={inter_frac:.4f} "
           f"J {j0:.3f}->{j1:.3f} sym={defect:.2e} {elapsed:.0f}s")


def test_criterion_6_interior_violation_handling():
    cfg = SolverConfig(mesh=MeshConfig(nx=20, ny=8),
                       stepping=StepController(dt_init=0.9, dt_max=0.9),
                       barrier=BarrierSchedule(mu0=50.0, mu_inf=0.05),
                       newton=NewtonSettings(damping=0.0))
    _, tr = solver.run(cfg)
    rejected = [r for r in tr.records if not r.accepted]
    violation = any(r.reason == "invalid_iterate" for r in rejected)
    # the increment halves exactly after each rejection; check the attempts
    # that are visible in the t column (not clamped at 1)
    halved = False
    exact = True
    base_t, prev_dt = 0.0, None
    for rec in tr.records:
        dt = rec.t - base_t
        if prev_dt is not None and rec.t < 1.0:
            exact &= abs(dt - 0.5 * prev_dt) <= 1e-12 * prev_dt
            halved = True
        if rec.accepted:
            base_t, prev_dt = rec.t, None
        else:
            prev_dt = dt if rec.t < 1.0 else None
    ok = bool(rejected) and violation and halved and exact
    report(6, "interior-violation handling", ok,
           f"{len(rejected)} rejected, halving exact={exact}")


def test_criterion_7_determinism(default_run_first, default_run_second, tmp_path):
    point1, tr1, _, _ = default_run_first
    point2, tr2 = default_run_second
    cfg = SolverConfig()
    system, _ = solver.build_system(cfg)
    msh = system.lagr.mesh
    files = {}
    for tag, (pt, tr) in (("a", (point1, tr1)), ("b", (point2, tr2))):
        hist = tmp_path / f"hist_{tag}.csv"
        dens = tmp_path / f"dens_{tag}.vtk"
        write_param_history(tr, hist)
        write_density_vtk(msh, pt.rho, dens, title="density")
        files[tag] = (hist.read_bytes(), dens.read_bytes())
    ok = (files["a"] == files["b"]
          and np.array_equal(point1.rho, point2.rho)
          and np.array_equal(point1.u, point2.u))
    report(7, "determinism", ok,
           f"param_history {len(files['a'][0])} bytes, density {len(files['a'][1])} bytes")
