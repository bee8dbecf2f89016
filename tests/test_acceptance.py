"""Acceptance suite: the library's exit criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s`).  The
expected numbers tied to closed-form expressions are recomputed from those
expressions here, never hard-coded beyond quoted reference digits.
"""

import math
import time

import numpy as np
import pytest

from branchedham import classical, deformation, models, quantum

E1_REF = 1.89379          # reported first excited level
SUSY_C = models.SUSY_C    # 3 * 4^(-2/3)

GAUSS = models.GaussianModel(1.0, 1.0, models.Potential("zero"))
GAUSS_HARM = models.GaussianModel(
    1.0, 1.0, models.Potential("harmonic_shifted", c0=1.0, a=1.0))

_cache: dict = {}


def report(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'}  criterion {num:2d}: {detail}"
    print(line)
    assert ok, line


def l2_distance(grid, f, g):
    return math.sqrt(float(np.trapezoid((f - g) ** 2, grid)))


def test_criterion_01_susy_ground_state():
    t0 = time.perf_counter()
    sol = quantum.solve_eigenvalue(quantum.PotentialProfile.susy_minus(),
                                   quantum.BoundaryCondition.neumann(),
                                   (-0.5, 0.5))
    dt = time.perf_counter() - t0
    _cache["ground"] = sol
    n0 = 6.0 ** (1.0 / 6.0) / math.sqrt(math.gamma(2.0 / 3.0))
    exact = n0 * np.exp(-2.0 * sol.grid ** 1.5 / 3.0)
    dist = l2_distance(sol.grid, sol.psi, exact)
    ok = abs(sol.E) <= 1e-6 and dist < 1e-4 and dt < 1.0
    report(1, ok, f"E0={sol.E:+.2e} (tol 1e-6), L2-to-exact={dist:.2e} "
                  f"(tol 1e-4), runtime={dt:.2f}s (<1s)")


def test_criterion_02_first_excited_level():
    t0 = time.perf_counter()
    sol = quantum.solve_eigenvalue(quantum.PotentialProfile.susy_minus(),
                                   quantum.BoundaryCondition.dirichlet(),
                                   (1.5, 2.2))
    dt = time.perf_counter() - t0
    _cache["excited"] = sol
    ok = abs(sol.E - E1_REF) <= 1e-3 and dt < 5.0
    report(2, ok, f"E1={sol.E:.6f} vs {E1_REF} (tol 1e-3), "
                  f"runtime={dt:.2f}s (<5s)")


def test_criterion_03_degeneracy_and_bc_flip():
    partner = quantum.solve_eigenvalue(quantum.PotentialProfile.susy_plus(),
                                       quantum.BoundaryCondition.neumann(),
                                       (1.5, 2.2))
    excited = _cache["excited"]
    gap = abs(partner.E - excited.E)
    mapped = quantum.apply_ladder(quantum.LadderOperator.A, excited)
    if mapped[int(np.argmax(np.abs(mapped)))] < 0.0:
        mapped = -mapped
    dist = l2_distance(excited.grid, mapped, partner.psi)
    ok = gap < 1e-4 and dist < 1e-3
    report(3, ok, f"|E1(+)-E1(-)|={gap:.2e} (tol 1e-4), "
                  f"ladder map L2={dist:.2e} (tol 1e-3)")


def test_criterion_04_spectral_positivity():
    worst = None
    es = np.arange(-2.0, 0.0 + 1e-12, 0.05)
    for profile in (quantum.PotentialProfile.susy_minus(),
                    quantum.PotentialProfile.susy_plus()):
        for bc in (quantum.BoundaryCondition.dirichlet(),
                   quantum.BoundaryCondition.neumann()):
            signs = []
            for e in es:
                if e >= -1e-6:
                    continue
                signs.append(quantum.shoot(profile, float(e), bc,
                                           p_max=25.0).mismatch < 0.0)
            flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
            worst = flips if worst is None else max(worst, flips)
    ok = worst == 0
    report(4, ok, f"no mismatch sign change below -1e-6 on E in [-2,0] "
                  f"for either partner under Dirichlet/Neumann (flips={worst})")


def test_criterion_05_gaussian_series():
    ps = np.linspace(-0.05, 0.05, 101)
    hs = np.array([models.gaussian_hamiltonian(GAUSS, 0.0, float(p),
                                               models.BranchId.MIDDLE)
                   for p in ps])
    t = ps / 0.05
    basis = np.vstack([t ** 2, t ** 4, t ** 6, t ** 8]).T
    coef, *_ = np.linalg.lstsq(basis, hs, rcond=None)
    rel = [abs(coef[0] / 0.05 ** 2 - 0.5) / 0.5,
           abs(coef[1] / 0.05 ** 4 - 0.125) / 0.125,
           abs(coef[2] / 0.05 ** 6 - 5.0 / 48.0) / (5.0 / 48.0)]
    ok = all(r < 1e-4 for r in rel)
    report(5, ok, "H(p) fit coefficients (1/2, 1/8, 5/48) relative errors "
                  f"({rel[0]:.1e}, {rel[1]:.1e}, {rel[2]:.1e}) < 1e-4")


def test_criterion_06_gaussian_geometry():
    vc = math.sqrt(GAUSS.C / GAUSS.m)
    pc_expect = math.sqrt(GAUSS.m * GAUSS.C / math.e)
    err = abs(models.gaussian_momentum(GAUSS, vc) - pc_expect)
    # parametric H at the cusp velocity and in the v -> infinity limit
    h_par = models.gaussian_momentum(GAUSS, vc) * vc \
        - models.gaussian_lagrangian(GAUSS, 0.0, vc)
    v_big = 14.0
    h_inf = models.gaussian_momentum(GAUSS, v_big) * v_big \
        - models.gaussian_lagrangian(GAUSS, 0.0, v_big)
    cusps = models.gaussian_cusps(GAUSS, 0.0)
    err = max(err,
              abs(cusps[1][0] - pc_expect), abs(cusps[0][0] + pc_expect),
              abs(cusps[1][1] - h_par), abs(cusps[0][1] - h_par),
              abs(cusps[2][1] - h_inf), abs(cusps[2][0]))
    ok = err < 1e-10
    report(6, ok, f"momentum extremes and three cusps vs parametric "
                  f"evaluation: max disagreement {err:.1e} < 1e-10")


def test_criterion_07_classical_conservation_and_switching():
    E = 1.5
    init = classical.make_state(GAUSS_HARM, 0.0, math.sqrt(E - 1.0), 0.0,
                                models.BranchId.MIDDLE)
    traj = classical.integrate_branch_flow(GAUSS_HARM, init, 50.0, tol=1e-9)
    drift = traj.energy_drift / E
    cusp = [ev for ev in traj.events if ev.p_at_switch != 0.0]
    # at a cusp bounce the momentum reflects: signed v flips while the
    # speed |v| and H stay continuous (see decisions ledger)
    speed_jump = max(abs(abs(ev.v_after) - abs(ev.v_before)) for ev in cusp)
    h_jump = max(abs(ev.h_after - ev.h_before) for ev in traj.events)
    ok = drift < 1e-6 and len(traj.events) >= 2 and speed_jump < 1e-6 \
        and h_jump < 1e-6
    report(7, ok, f"E=1.5 over t in [0,50]: relative drift {drift:.1e} < 1e-6, "
                  f"{len(traj.events)} switch events (>=2), speed continuity "
                  f"{speed_jump:.1e} and H continuity {h_jump:.1e} < 1e-6")


def test_criterion_08_separatrix_bracketing():
    pc = GAUSS_HARM.p_cusp

    def orbit(E):
        init = classical.make_state(GAUSS_HARM, 0.0, math.sqrt(E - 1.0), 0.0,
                                    models.BranchId.MIDDLE)
        return classical.integrate_branch_flow(GAUSS_HARM, init, 20.0, tol=1e-9)

    low = orbit(1.19)    # below 2/sqrt(e) ~ 1.2131: inner oval
    high = orbit(1.23)   # above: cusped triangular region
    low_cusps = sum(1 for ev in low.events if ev.p_at_switch != 0.0)
    high_cusps = sum(1 for ev in high.events if ev.p_at_switch != 0.0)
    p_low = max(abs(st.p) for st in low.samples)
    ok = low_cusps == 0 and p_low < pc and high_cusps >= 2
    report(8, ok, f"E=1.19 inner oval (0 cusp events, max|p|={p_low:.3f}<p_c) "
                  f"vs E=1.23 cusped orbit ({high_cusps} cusp bounces)")


def test_criterion_09_susy_classical_thresholds():
    try:
        classical.classify_orbit(models.susy_model(), 1.0, classical.Region.V_BELOW_1)
        no_orbit = False
    except classical.NoOrbitError:
        no_orbit = True
    bounded = classical.classify_orbit(models.susy_model(), 1.2,
                                       classical.Region.V_BELOW_1) \
        is classical.OrbitClass.BOUNDED_CLOSED
    (xm, xp), pt = classical.turning_points(1.4)
    x_expect = math.sqrt(1.4 - SUSY_C)    # = 0.4576562... from x = sqrt(E-C)
    p_expect = SUSY_C / 3.0               # = 0.3968503...
    geom_ok = abs(xp - x_expect) < 1e-5 and abs(xm + x_expect) < 1e-5 \
        and abs(pt - p_expect) < 1e-5
    traj = classical.integrate_lagrangian_flow((0.0, 1.0), 10.0)
    uniform = max(abs(st.v - 1.0) for st in traj.samples)
    ok = no_orbit and bounded and geom_ok and uniform < 1e-9
    report(9, ok, f"no orbit at (E=1.0, v<1); bounded at E=1.2; "
                  f"turning points ({xp:.6f}, {pt:.6f}) vs formula "
                  f"({x_expect:.6f}, {p_expect:.6f}) tol 1e-5; "
                  f"sup|v-1|={uniform:.1e} < 1e-9 on [0,10]")


def test_criterion_10_riccati_invariance():
    worst = 0.0
    for kappa in (0.125, 0.25, 0.5, 1.0):
        prof = deformation.DeformationProfile(kappa)
        for p in np.geomspace(0.05, 30.0, 60):
            worst = max(worst, prof.riccati_residual(float(p)))
    ok = worst < 1e-7
    report(10, ok, f"max |w^2 - w' - (p - 1/(2 sqrt p))| over kappa x p grid "
                   f"= {worst:.1e} < 1e-7")


def test_criterion_11_deformed_zero_mode():
    prof = deformation.DeformationProfile(1.0)
    r1, r2 = prof.zero_mode_residual(np.linspace(0.3, 10.0, 7761))
    robin = prof.residuals(np.linspace(0.3, 5.0, 801))["robin"]
    sol = quantum.solve_eigenvalue(quantum.PotentialProfile.deformed_plus(1.0),
                                   quantum.BoundaryCondition.robin(1.0),
                                   (-0.5, 0.5))
    dist = l2_distance(sol.grid, sol.psi, prof.normalized_phi0(sol.grid))
    ok = r1 < 1e-5 and r2 < 1e-5 and robin < 1e-6 and abs(sol.E) < 1e-6 \
        and dist < 1e-4
    report(11, ok, f"zero-mode residuals ({r1:.1e}, {r2:.1e}) < 1e-5, "
                   f"Robin identity {robin:.1e} < 1e-6, E={sol.E:+.1e} (tol 1e-6), "
                   f"eigenfunction L2-to-phi0 {dist:.1e} < 1e-4")


def test_criterion_12_norm_constant():
    from branchedham.specfun import quad
    exact = math.gamma(2.0 / 3.0) * 6.0 ** (-1.0 / 3.0)
    val = quad(lambda p: math.exp(-4.0 * p ** 1.5 / 3.0), 0.0, math.inf)
    ok = abs(val - exact) < 1e-4 and abs(val - 0.745) < 1e-3
    report(12, ok, f"int_0^inf e^(-4p^(3/2)/3) dp = {val:.6f} vs "
                   f"Gamma(2/3) 6^(-1/3) = {exact:.6f} (tol 1e-4; ~0.745)")


def test_criterion_13_asymptotics():
    ratios = {k: deformation.DeformationProfile(k).w(25.0) / 5.0 for k in (0.125, 1.0)}
    gap30 = abs(deformation.DeformationProfile(0.125).w(30.0)
                - deformation.DeformationProfile(1.0).w(30.0))
    ok = all(-1.01 <= r <= -0.99 for r in ratios.values()) and gap30 < 1e-6
    report(13, ok, f"w(25)/sqrt(25) = {ratios[0.125]:.5f}, {ratios[1.0]:.5f} "
                   f"in [-1.01,-0.99]; |w_1/8(30)-w_1(30)| = {gap30:.1e} < 1e-6")
