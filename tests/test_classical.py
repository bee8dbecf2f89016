import math

import numpy as np
import pytest

from branchedham import classical
from branchedham.classical import (GridSpec, OrbitClass, Region, Termination,
                                   classify_orbit, contours_to_csv,
                                   energy_contour, integrate_branch_flow,
                                   integrate_lagrangian_flow, make_state,
                                   trajectory_to_csv, trajectory_to_json,
                                   turning_points)
from branchedham.errors import (BelowThresholdError, ConvergenceError,
                                DomainError, NoOrbitError, SingularInputError)
from branchedham.models import (SUSY_C, BranchId, GaussianModel, Potential,
                                family_momentum, gaussian_hamiltonian,
                                susy_energy, susy_model)

GAUSS_HARMONIC = GaussianModel(1.0, 1.0, Potential("harmonic_shifted", c0=1.0, a=1.0))
PC = GAUSS_HARMONIC.p_cusp


def hausdorff(points_a: np.ndarray, points_b: np.ndarray) -> float:
    """Symmetric point-to-segment Hausdorff distance between polylines."""

    def one_sided(pts, poly):
        a = poly[:-1]
        d = poly[1:] - a
        dd = np.sum(d * d, axis=1)
        dd[dd == 0.0] = 1.0
        worst = 0.0
        for q in pts:
            t = np.clip(np.sum((q - a) * d, axis=1) / dd, 0.0, 1.0)
            proj = a + t[:, None] * d
            dist = np.min(np.sqrt(np.sum((proj - q) ** 2, axis=1)))
            worst = max(worst, dist)
        return worst

    return max(one_sided(points_a, points_b), one_sided(points_b, points_a))


def segments_intersect(p1, p2, q1, q2):
    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    d1 = cross(q1, q2, p1)
    d2 = cross(q1, q2, p2)
    d3 = cross(p1, p2, q1)
    d4 = cross(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def start_on_middle(model, E):
    """Middle-branch state at p=0 on the energy surface (V(x) = E there)."""
    x0 = math.sqrt(E - model.potential(0.0))
    return make_state(model, 0.0, x0, 0.0, BranchId.MIDDLE)


class TestGaussianFlow:
    def test_middle_oval_no_switches(self):
        # E below the separatrix and above the middle floor: pure middle oval
        traj = integrate_branch_flow(GAUSS_HARMONIC, start_on_middle(GAUSS_HARMONIC, 1.19),
                                     20.0, tol=1e-9)
        assert traj.termination is Termination.TIME_LIMIT
        assert len(traj.events) == 0
        assert traj.energy_drift < 1e-7
        assert max(abs(st.p) for st in traj.samples) < PC
        # closed with a finite period
        x0 = math.sqrt(0.19)
        revisit = min(math.hypot(st.x - x0, st.p) for st in traj.samples
                      if st.t > 0.5)
        assert revisit < 5e-3

    def test_outer_oval_zero_crossings(self):
        # the E = 0.8 closed oval lives on the outer branches (the middle
        # branch floor is V(0) = 1 here); it crosses p=0 twice per period
        # with v wrapping through infinity, and never reaches the cusps
        m = GAUSS_HARMONIC
        p0 = 0.3
        t_out = gaussian_hamiltonian(m, 0.0, p0, BranchId.PLUS) - m.potential(0.0)
        x0 = math.sqrt(0.8 - 1.0 - t_out)  # V(x) = E - T with V = 1 + x^2
        init = make_state(m, 0.0, x0, p0, BranchId.PLUS)
        traj = integrate_branch_flow(m, init, 20.0, tol=1e-9)
        assert traj.energy_drift < 2e-7
        assert len(traj.events) >= 10
        assert all(ev.p_at_switch == 0.0 for ev in traj.events)
        for ev in traj.events:
            assert abs(ev.h_after - ev.h_before) < 1e-6
            assert math.isinf(ev.v_before) and math.isinf(ev.v_after)
        # closed periodic orbit: the flow revisits its initial point
        revisit = min(math.hypot(st.x - x0, st.p - p0)
                      for st in traj.samples if st.t > 0.5)
        assert revisit < 5e-3

    def test_high_energy_switching_trajectory(self):
        # E = 1.5 beyond the separatrix: cusp bounces plus p=0 crossings
        traj = integrate_branch_flow(GAUSS_HARMONIC, start_on_middle(GAUSS_HARMONIC, 1.5),
                                     50.0, tol=1e-9)
        assert traj.energy_drift / 1.5 < 1e-6
        cusp_events = [ev for ev in traj.events if abs(ev.p_at_switch) > 0.5 * PC]
        zero_events = [ev for ev in traj.events if ev.p_at_switch == 0.0]
        assert len(cusp_events) >= 2 and len(zero_events) >= 1
        for ev in cusp_events:
            assert abs(abs(ev.p_at_switch) - PC) < 1e-10
            # the bounce reflects p and v; speed and energy are continuous
            assert abs(abs(ev.v_after) - abs(ev.v_before)) < 1e-6
            assert abs(ev.h_after - ev.h_before) < 1e-6
            assert {ev.from_branch, ev.to_branch} != {BranchId.MINUS, BranchId.PLUS}
            assert BranchId.MIDDLE in (ev.from_branch, ev.to_branch)

    def test_switch_momenta_are_cusp_momenta(self):
        traj = integrate_branch_flow(GAUSS_HARMONIC, start_on_middle(GAUSS_HARMONIC, 1.5),
                                     10.0, tol=1e-9)
        for ev in traj.events:
            assert min(abs(abs(ev.p_at_switch) - PC), abs(ev.p_at_switch)) < 1e-10

    def test_drift_contract(self):
        for tol in (1e-8, 1e-9):
            traj = integrate_branch_flow(GAUSS_HARMONIC,
                                         start_on_middle(GAUSS_HARMONIC, 1.5),
                                         10.0, tol=tol)
            assert traj.energy_drift <= 10.0 * tol * 10.0

    def test_crossing_trajectories_are_on_different_branches(self):
        # quasi-Hamiltonian flow: (x, p) polylines of different energies
        # intersect; since H differs, the branch labels at any crossing must
        # differ too
        t1 = integrate_branch_flow(GAUSS_HARMONIC, start_on_middle(GAUSS_HARMONIC, 1.5),
                                   2.0, tol=1e-9, n_samples=400)
        t2 = integrate_branch_flow(GAUSS_HARMONIC, start_on_middle(GAUSS_HARMONIC, 2.0),
                                   2.0, tol=1e-9, n_samples=400)
        a = np.array([(st.x, st.p) for st in t1.samples])
        b = np.array([(st.x, st.p) for st in t2.samples])
        br_a = [st.branch for st in t1.samples]
        br_b = [st.branch for st in t2.samples]
        crossings = []
        for i in range(len(a) - 1):
            for j in range(len(b) - 1):
                if segments_intersect(a[i], a[i + 1], b[j], b[j + 1]):
                    crossings.append((i, j))
        assert crossings
        assert any(br_a[i] != br_b[j] for i, j in crossings)
        # the (x, p, branch) triples never coincide across the two energies
        for i, j in crossings:
            if br_a[i] == br_b[j]:
                assert np.linalg.norm(a[i] - b[j]) > 1e-6

    def test_escape_on_flat_potential(self):
        m = GaussianModel(1.0, 1.0, Potential("zero"))
        init = make_state(m, 0.0, 0.0, 0.3, BranchId.MIDDLE)
        traj = integrate_branch_flow(m, init, 1e9, tol=1e-9, escape_bound=100.0)
        assert traj.termination is Termination.ESCAPE_TO_INFINITY
        assert traj.t_escape is not None

    def test_switch_cap_raises_instead_of_stopping_early(self, monkeypatch):
        # x = 0.7 on V = x^2 makes 36 switches by t = 20; the cap admits
        # exactly that many and fails on the next one
        m = GaussianModel(1.0, 1.0, Potential("square"))
        init = make_state(m, 0.0, 0.7, 0.1, BranchId.MIDDLE)
        monkeypatch.setattr(classical, "_MAX_SWITCHES", 36)
        traj = integrate_branch_flow(m, init, 20.0)
        assert len(traj.events) == 36
        assert traj.termination is Termination.TIME_LIMIT
        monkeypatch.setattr(classical, "_MAX_SWITCHES", 35)
        with pytest.raises(ConvergenceError, match=r"more than 35 branch switches, "
                                                   r"the next at t=19\.6"):
            integrate_branch_flow(m, init, 20.0)

    def test_init_validation(self):
        with pytest.raises(DomainError):
            integrate_branch_flow(GAUSS_HARMONIC,
                                  make_state(susy_model(), 0.0, 0.0, 0.4,
                                             BranchId.H_PLUS), 1.0)

    def test_parallel_sweeps_share_no_state(self):
        from concurrent.futures import ThreadPoolExecutor
        energies = (1.19, 1.3, 1.5)

        def sweep(e):
            traj = integrate_branch_flow(GAUSS_HARMONIC,
                                         start_on_middle(GAUSS_HARMONIC, e),
                                         5.0, tol=1e-9)
            return traj.energy_drift, len(traj.events)

        serial = [sweep(e) for e in energies]
        with ThreadPoolExecutor(max_workers=3) as ex:
            threaded = list(ex.map(sweep, energies))
        assert serial == threaded


class TestFamilyFlow:
    def test_hplus_bounded_orbit(self):
        E = 1.4
        xt = math.sqrt(E - SUSY_C)
        init = make_state(susy_model(), 0.0, xt, SUSY_C / 3.0, BranchId.H_PLUS)
        traj = integrate_branch_flow(susy_model(), init, 10.0, tol=1e-9)
        assert traj.termination is Termination.TIME_LIMIT
        assert len(traj.events) == 0
        assert traj.energy_drift < 1e-7
        xs = [st.x for st in traj.samples]
        assert max(xs) == pytest.approx(xt, abs=1e-4)
        assert min(xs) == pytest.approx(-xt, abs=1e-4)

    def test_hminus_escapes_in_finite_time(self):
        m = susy_model()
        init = make_state(m, 0.0, 0.0, family_momentum(m, 2.0), BranchId.H_MINUS)
        traj = integrate_branch_flow(m, init, 50.0, tol=1e-9)
        assert traj.termination is Termination.ESCAPE_TO_INFINITY
        assert traj.t_escape is not None and traj.t_escape < 1.0
        assert traj.orbit_class is OrbitClass.UNBOUNDED_ESCAPE

    def test_above_barrier_class_tag(self):
        traj = integrate_lagrangian_flow((0.0, 1.5), 20.0, tol=1e-9)
        assert traj.orbit_class is OrbitClass.UNBOUNDED_ESCAPE


class TestLagrangianFlow:
    def test_special_uniform_solution(self):
        traj = integrate_lagrangian_flow((0.0, 1.0), 10.0, tol=1e-9)
        assert max(abs(st.v - 1.0) for st in traj.samples) < 1e-9
        assert max(abs(st.x - st.t) for st in traj.samples) < 1e-10
        assert all(math.isinf(st.p) for st in traj.samples)
        assert traj.orbit_class is OrbitClass.SPECIAL_UNIFORM

    def test_bounded_oscillation(self):
        E = 1.4
        xt = math.sqrt(E - SUSY_C)
        traj = integrate_lagrangian_flow((xt, 0.0), 12.0, tol=1e-10)
        assert traj.termination is Termination.TIME_LIMIT
        assert traj.orbit_class is OrbitClass.BOUNDED_CLOSED
        assert traj.energy_drift < 1e-8
        xs = np.array([st.x for st in traj.samples])
        vs = np.array([st.v for st in traj.samples])
        assert np.max(np.abs(xs)) == pytest.approx(xt, abs=1e-5)
        assert np.all(vs < 1.0)
        assert np.min(xs) < 0.0  # genuinely oscillates through the origin

    def test_above_barrier_escapes(self):
        for v0 in (1.2, 2.0, 5.0):
            traj = integrate_lagrangian_flow((0.0, v0), 50.0, tol=1e-9)
            assert traj.termination is Termination.ESCAPE_TO_INFINITY
            assert traj.t_escape < 10.0
            assert all(st.v > 1.0 for st in traj.samples if st.t > 0)

    @pytest.mark.parametrize("x_v", [(0.0, 5e5), (0.0, math.nextafter(1e6, 0.0)),
                                     (math.nextafter(1e6, 0.0), 1.5),
                                     (3e5, 0.5)])
    def test_start_near_the_escape_bound_escapes(self, x_v):
        # the first trial step from these starts overflows a double; the
        # stepper rejects it and the escape event fires within microseconds
        traj = integrate_lagrangian_flow(x_v, 20.0)
        assert traj.termination is Termination.ESCAPE_TO_INFINITY
        assert 0.0 < traj.t_escape < 1e-5

    def test_energy_conservation(self):
        traj = integrate_lagrangian_flow((0.2, -0.5), 10.0, tol=1e-9)
        e0 = susy_energy(0.2, -0.5)
        for st in traj.samples:
            assert susy_energy(st.x, st.v) == pytest.approx(e0, abs=1e-7)

    def test_matches_branch_flow_in_phase_space(self):
        # same orbit integrated in (x, v) and in (x, p) agrees as a curve
        E = 1.4
        xt = math.sqrt(E - SUSY_C)
        lag = integrate_lagrangian_flow((xt, 0.0), 8.0, tol=1e-10, n_samples=1500)
        ham = integrate_branch_flow(susy_model(),
                                    make_state(susy_model(), 0.0, xt, SUSY_C / 3.0,
                                               BranchId.H_PLUS),
                                    8.0, tol=1e-10, n_samples=1500)
        a = np.array([(st.x, st.p) for st in lag.samples])
        b = np.array([(st.x, st.p) for st in ham.samples])
        assert hausdorff(a, b) < 1e-4


class TestClassification:
    def test_susy_below_threshold(self):
        with pytest.raises(NoOrbitError):
            classify_orbit(susy_model(), 1.0, Region.V_BELOW_1)

    def test_susy_bounded(self):
        assert classify_orbit(susy_model(), 1.2, Region.V_BELOW_1) is \
            OrbitClass.BOUNDED_CLOSED

    def test_susy_escape(self):
        for e in (-1.0, 0.5, 2.0):
            assert classify_orbit(susy_model(), e, Region.V_ABOVE_1) is \
                OrbitClass.UNBOUNDED_ESCAPE

    def test_gaussian_separatrix(self):
        e_sep = 2.0 / math.sqrt(math.e)
        assert classify_orbit(GAUSS_HARMONIC, e_sep, BranchId.MIDDLE) is \
            OrbitClass.SEPARATRIX_CANDIDATE
        assert classify_orbit(GAUSS_HARMONIC, 1.19, BranchId.MIDDLE) is \
            OrbitClass.BOUNDED_CLOSED
        assert classify_orbit(GAUSS_HARMONIC, 0.8, BranchId.PLUS) is \
            OrbitClass.BOUNDED_CLOSED
        with pytest.raises(NoOrbitError):
            classify_orbit(GAUSS_HARMONIC, 0.8, BranchId.MIDDLE)

    def test_separatrix_bracketing_topologies(self):
        # E=1.19 inner oval (no cusp events) vs E=1.23 bouncing triangular
        low = integrate_branch_flow(GAUSS_HARMONIC, start_on_middle(GAUSS_HARMONIC, 1.19),
                                    20.0, tol=1e-9)
        high = integrate_branch_flow(GAUSS_HARMONIC, start_on_middle(GAUSS_HARMONIC, 1.23),
                                     20.0, tol=1e-9)
        assert len(low.events) == 0
        assert max(abs(st.p) for st in low.samples) < PC
        cusp_events = [ev for ev in high.events if abs(ev.p_at_switch) > 0.5 * PC]
        assert len(cusp_events) >= 2

    def test_turning_points(self):
        (xm, xp), pt = turning_points(1.4)
        assert xp == pytest.approx(math.sqrt(1.4 - SUSY_C), rel=1e-14)
        assert xm == -xp
        assert pt == pytest.approx(SUSY_C / 3.0, rel=1e-14)
        (xm, xp), pt = turning_points(SUSY_C)
        assert xp == 0.0
        with pytest.raises(BelowThresholdError):
            turning_points(1.0)

    def test_turning_point_velocity_vanishes(self):
        from branchedham.models import family_velocity
        (_, _), pt = turning_points(1.4)
        assert family_velocity(susy_model(), pt, BranchId.H_PLUS) == \
            pytest.approx(0.0, abs=1e-13)


class TestEnergyContour:
    def test_hminus_open_hplus_empty_below_threshold(self):
        m = susy_model()
        minus = energy_contour(m, 0.0, BranchId.H_MINUS)
        plus = energy_contour(m, 0.0, BranchId.H_PLUS)
        assert len(minus) >= 1 and len(plus) == 0
        line = max(minus, key=len)
        assert not np.allclose(line[0], line[-1])

    def test_both_populated_above_threshold(self):
        m = susy_model()
        plus = energy_contour(m, 1.4, BranchId.H_PLUS)
        minus = energy_contour(m, 1.4, BranchId.H_MINUS)
        assert plus and minus
        loop = max(plus, key=len)
        assert np.allclose(loop[0], loop[-1])  # closed
        # the loop passes through the turning points (+-sqrt(E-C), C/3)
        xt = math.sqrt(1.4 - SUSY_C)
        for sign in (1.0, -1.0):
            d = np.min(np.hypot(loop[:, 0] - sign * xt, loop[:, 1] - SUSY_C / 3.0))
            assert d < 0.02

    def test_gaussian_outer_cusp_level(self):
        m = GaussianModel()
        lines = energy_contour(m, -0.95, BranchId.PLUS,
                               GridSpec(-1.0, 1.0, 0.001, 0.2, 201, 401))
        assert lines
        ps = np.concatenate([ln[:, 1] for ln in lines])
        assert np.all(ps < 0.05)  # level sits near the p=0 outer cusp

    def test_empty_result_is_not_an_error(self):
        assert energy_contour(susy_model(), -50.0, BranchId.H_PLUS) == []


def _pointwise_contour(model, E, branch, grid):
    """energy_contour with H built by one scalar call per grid point."""
    from branchedham.classical import _hamiltonian, _marching_squares
    xs = np.linspace(grid.x_min, grid.x_max, grid.nx)
    ps = np.linspace(grid.p_min, grid.p_max, grid.np_)
    h = np.full((grid.nx, grid.np_), np.nan)
    for j, pv in enumerate(ps):
        try:
            kin = _hamiltonian(model, 0.0, float(pv), branch) - model.potential(0.0)
        except (DomainError, SingularInputError):
            continue
        h[:, j] = kin + np.array([model.potential(float(xv)) for xv in xs])
    return _marching_squares(xs, ps, h, E)


_POTENTIALS = {
    "zero": Potential("zero"),
    "square": Potential("square"),
    "harmonic_shifted": Potential("harmonic_shifted", c0=0.3, a=0.7),
}


class TestEnergyContourBits:
    """The array potential row reproduces the pointwise H grid bit for bit."""

    @pytest.mark.parametrize("pot", sorted(_POTENTIALS))
    @pytest.mark.parametrize("branch", [BranchId.MINUS, BranchId.MIDDLE, BranchId.PLUS])
    def test_gaussian(self, pot, branch):
        m = GaussianModel(1.3, 0.8, _POTENTIALS[pot])
        pc = m.p_cusp
        grid = GridSpec(-1.7, 1.9, -1.05 * pc, 1.05 * pc, 73, 61)
        for E in (-0.7, -0.4, 0.1, 0.3, 0.9, 1.6):
            got = energy_contour(m, E, branch, grid)
            ref = _pointwise_contour(m, E, branch, grid)
            assert len(got) == len(ref)
            assert all(np.array_equal(a, b) for a, b in zip(got, ref))

    @pytest.mark.parametrize("pot", sorted(_POTENTIALS))
    @pytest.mark.parametrize("branch", [BranchId.H_MINUS, BranchId.H_PLUS])
    def test_family(self, pot, branch):
        from branchedham.models import FamilyModel
        m = FamilyModel(2, _POTENTIALS[pot])
        grid = GridSpec(-2.1, 2.3, 1e-3, 4.0, 67, 59)
        for E in (-0.2, 0.8, 1.5, 2.7):
            got = energy_contour(m, E, branch, grid)
            ref = _pointwise_contour(m, E, branch, grid)
            assert len(got) == len(ref)
            assert all(np.array_equal(a, b) for a, b in zip(got, ref))

    def test_default_grid(self):
        m = susy_model()
        grid = GridSpec(-2.5, 2.5, 1e-3, 4.0, 501, 501)
        got = energy_contour(m, 1.4, BranchId.H_PLUS)
        ref = _pointwise_contour(m, 1.4, BranchId.H_PLUS, grid)
        assert got and len(got) == len(ref)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))


class TestExports(object):
    def test_trajectory_csv_json(self, tmp_path):
        traj = integrate_branch_flow(GAUSS_HARMONIC, start_on_middle(GAUSS_HARMONIC, 1.5),
                                     2.0, tol=1e-9, n_samples=50)
        csv_path = tmp_path / "t.csv"
        trajectory_to_csv(traj, GAUSS_HARMONIC, csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "t,x,p,v,branch,H"
        assert len(lines) == 51
        row = lines[1].split(",")
        assert float(row[0]) == 0.0 and row[4] == "middle"
        # H column conserved across the file
        hs = [float(l.split(",")[5]) for l in lines[1:]]
        assert max(hs) - min(hs) < 1e-6

        json_path = tmp_path / "t.json"
        trajectory_to_json(traj, GAUSS_HARMONIC, json_path)
        import json
        data = json.loads(json_path.read_text())
        assert data["termination"] == "time_limit"
        assert len(data["samples"]) == 50
        assert all(len(ev) == 9 for ev in data["events"])

    def test_contours_csv(self, tmp_path):
        lines = energy_contour(susy_model(), 1.4, BranchId.H_PLUS)
        path = tmp_path / "c.csv"
        contours_to_csv(lines, path)
        rows = path.read_text().splitlines()
        assert rows[0] == "polyline,x,p"
        assert len(rows) == 1 + sum(len(l) for l in lines)
