import math

import numpy as np
import pytest

from branchedham.deformation import DeformationProfile
from branchedham.errors import (DomainError, NoSignChangeError, ZeroEnergyError)
from branchedham.quantum import (BoundaryCondition, LadderOperator,
                                 PotentialProfile, apply_ladder, boundary_term,
                                 classify_boundary, eigensolution_header,
                                 eigensolution_to_csv, shoot, solve_eigenvalue,
                                 spectrum, spectrum_to_json)

E1_REPORTED = 1.89379  # first excited level of the lower partner

MINUS = PotentialProfile.susy_minus()
PLUS = PotentialProfile.susy_plus()
D = BoundaryCondition.dirichlet()
N = BoundaryCondition.neumann()


def numerov_e1_oracle():
    """Independent fixed-grid Numerov estimate of the Dirichlet level near 1.9.

    Uses its own grid, its own recurrence and plain bisection on the
    far-boundary value; shares nothing with the shooting solver.
    """
    p0, p_max, n = 1e-6, 28.0, 56000
    ps = np.linspace(p0, p_max, n)
    h = ps[1] - ps[0]

    def endpoint(e):
        f = ps - 0.5 / np.sqrt(ps) - e
        w = 1.0 - (h * h / 12.0) * f
        psi_a = ps[0] - 0.25 * e * ps[0] ** 2
        psi_b = ps[1] - 0.25 * e * ps[1] ** 2
        for i in range(1, n - 1):
            psi_c = ((12.0 - 10.0 * w[i]) * psi_b - w[i - 1] * psi_a) / w[i + 1]
            psi_a, psi_b = psi_b, psi_c
            if abs(psi_b) > 1e250:
                psi_a *= 1e-250
                psi_b *= 1e-250
        return psi_b

    lo, hi = 1.8, 2.0
    flo = endpoint(lo)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        fm = endpoint(mid)
        if (flo < 0) != (fm < 0):
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def fd_levels(profile, bc, length=55.0, n=1500):
    """Eigenvalues of a second-order finite-difference matrix for
    -psi'' + (p + s/(2 sqrt p)) psi on (0, length) with psi(length) = 0,
    s = profile.sign.

    Dirichlet data uses vertex nodes, Neumann data cell centres with a
    mirrored ghost node; the singular term is replaced by its cell average.
    """
    if bc.kind == "dirichlet":
        h = length / n
        p = h * np.arange(1, n)
    else:
        h = length / (n - 0.5)
        p = h * (np.arange(1, n) - 0.5)
    lo, hi = np.maximum(p - 0.5 * h, 0.0), p + 0.5 * h
    diag = 2.0 / h ** 2 + p + profile.sign * (np.sqrt(hi) - np.sqrt(lo)) / (hi - lo)
    if bc.kind == "neumann":
        diag[0] -= 1.0 / h ** 2
    off = np.full(n - 2, -1.0 / h ** 2)
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))


@pytest.fixture(scope="module")
def ground():
    return solve_eigenvalue(MINUS, N, (-0.5, 0.5))


@pytest.fixture(scope="module")
def excited():
    return solve_eigenvalue(MINUS, D, (1.5, 2.2))


@pytest.fixture(scope="module")
def partner():
    return solve_eigenvalue(PLUS, N, (1.5, 2.2))


class TestShoot:
    def test_ground_state_mismatch_scale(self):
        # at E=0 the outward solution is the pure decaying mode; while the
        # decay is numerically resolvable (truncation noise feeds the growing
        # mode beyond p ~ 7) the far-boundary value matches e^{-2p^{3/2}/3}
        res = shoot(MINUS, 0.0, N, p_max=6.0, tol=1e-10)
        expect = math.exp(-2.0 * 6.0 ** 1.5 / 3.0)
        assert 0.9 * expect < res.mismatch < 1.1 * expect

    def test_bracket_around_first_excited(self):
        lo = shoot(MINUS, 1.8, D).mismatch
        hi = shoot(MINUS, 2.0, D).mismatch
        assert (lo < 0) != (hi < 0)

    @pytest.mark.parametrize("profile", [MINUS, PLUS])
    @pytest.mark.parametrize("bc", [D, N])
    def test_no_negative_spectrum(self, profile, bc):
        # scan E in [-2, 0]: both spectra are non-negative, so the mismatch
        # cannot change sign below -1e-6
        es = np.arange(-2.0, 0.0 + 1e-12, 0.05)
        signs = [shoot(profile, float(e), bc, p_max=25.0).mismatch < 0 for e in es
                 if e < -1e-6]
        assert all(s == signs[0] for s in signs)

    def test_pmax_validation(self):
        with pytest.raises(DomainError):
            shoot(MINUS, 3.0, D, p_max=2.0)

    @pytest.mark.parametrize("profile", [MINUS, PLUS])
    @pytest.mark.parametrize("bc", [D, N])
    def test_zero_count_is_level_count(self, profile, bc):
        # Sturm oscillation: the zeros of the shot on (0, p_max] number the
        # levels below E.  Each energy of a coarse grid up to 40 is moved to
        # the middle of the finite-difference level gap that holds it, so the
        # matrix's O(h^2) level error (< 0.04 at n = 1500) cannot flip a count.
        levels = fd_levels(profile, bc)
        edges = np.concatenate([[-1.0], levels])
        for e in np.arange(-0.1, 40.0, 1.0):
            k = int(np.sum(levels < e))
            mid = 0.5 * (edges[k] + edges[k + 1])
            assert shoot(profile, float(mid), bc).n_zeros == k, (e, mid)

    def test_zero_count_parity_is_mismatch_sign(self):
        for e in np.arange(-0.5, 6.0, 0.25):
            res = shoot(MINUS, float(e), D)
            assert (res.n_zeros % 2 == 1) == (res.mismatch < 0.0)

    def test_overflow_guard_rescales(self):
        res = shoot(MINUS, 1.0, D, p_max=110.0)
        assert res.n_rescale >= 1
        assert res.log_scale > 0.0
        assert math.isfinite(res.mismatch)


class TestSolveEigenvalue:
    def test_ground_state_energy_and_shape(self, ground):
        assert abs(ground.E) < 1e-6
        n0 = 6.0 ** (1.0 / 6.0) / math.sqrt(math.gamma(2.0 / 3.0))
        exact = n0 * np.exp(-2.0 * ground.grid ** 1.5 / 3.0)
        l2 = math.sqrt(np.trapezoid((ground.psi - exact) ** 2, ground.grid))
        assert l2 < 1e-4

    def test_first_excited(self, excited):
        assert excited.E == pytest.approx(E1_REPORTED, abs=1e-3)

    def test_against_numerov_oracle(self, excited):
        assert excited.E == pytest.approx(numerov_e1_oracle(), abs=5e-4)

    def test_partner_degeneracy(self, excited, partner):
        assert abs(partner.E - excited.E) < 1e-4

    def test_pmax_doubling_robustness(self, ground, excited, partner):
        for sol in (ground, excited, partner):
            assert sol.diagnostics["pmax_doubling_shift"] < 10.0 * 1e-7

    def test_normalization(self, ground, excited):
        for sol in (ground, excited):
            assert sol.norm == pytest.approx(1.0, abs=1e-8)

    def test_far_boundary_decay_consistency(self, ground, excited):
        # log-derivative at p_max matches the decaying branch -sqrt(U - E)
        for sol, profile in ((ground, MINUS), (excited, MINUS)):
            rate = float(sol.dpsi[-1] / sol.psi[-1])
            wkb = -math.sqrt(profile.u(float(sol.grid[-1])) - sol.E)
            assert rate == pytest.approx(wkb, rel=5e-2)
            assert abs(sol.psi[-1]) < 1e-20 * np.max(np.abs(sol.psi))

    def test_concurrent_solves_are_independent(self):
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=4) as ex:
            futs = [ex.submit(solve_eigenvalue, MINUS, D, (1.5, 2.2),
                              1e-7, None, 1e-9, False)
                    for _ in range(4)]
            es = [f.result().E for f in futs]
        assert max(es) - min(es) == 0.0

    def test_interior_residual(self, excited, partner):
        # -psi''_fd + (U - E) psi small relative to max|psi| away from the
        # singular endpoint (central differences on the output grid)
        for sol, profile in ((excited, MINUS), (partner, PLUS)):
            g = sol.grid
            h = g[1] - g[0]
            interior = slice(1, -1)
            d2 = (sol.psi[2:] - 2.0 * sol.psi[1:-1] + sol.psi[:-2]) / h ** 2
            u = np.array([profile.u(float(p)) for p in g[interior]])
            res = np.abs(-d2 + (u - sol.E) * sol.psi[interior])
            mask = g[interior] >= 0.25
            assert np.max(res[mask]) / np.max(np.abs(sol.psi)) < 1e-4

    def test_deformed_robin_zero_mode(self):
        prof = PotentialProfile.deformed_plus(1.0)
        sol = solve_eigenvalue(prof, BoundaryCondition.robin(1.0), (-0.5, 0.5))
        assert abs(sol.E) < 1e-6
        dp = DeformationProfile(1.0)
        ref = dp.normalized_phi0(sol.grid)
        l2 = math.sqrt(np.trapezoid((sol.psi - ref) ** 2, sol.grid))
        assert l2 < 1e-4

    def test_no_sign_change_error(self):
        with pytest.raises(NoSignChangeError):
            solve_eigenvalue(MINUS, D, (2.5, 3.0))

    def test_bisection_width_diagnostic(self, excited):
        assert 0.0 <= excited.diagnostics["bisection_width"] <= 1e-7


class TestDeformedFloats:
    """Deformed shots run on Python floats and keep the bits they had when
    numpy scalars leaked into the stepper."""

    @pytest.fixture(scope="class", params=[
        (1.0, "5.7129401043187755e-08"),
        (0.715282, "7.376501287570392e-08"),
    ])
    def solved(self, request):
        from branchedham import quantum
        kappa, defect = request.param
        calls = []
        real = quantum.shoot

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        quantum.shoot = counted
        try:
            sol = solve_eigenvalue(PotentialProfile.deformed_plus(kappa),
                                   BoundaryCondition.robin(kappa), (-0.5, 0.5))
        finally:
            quantum.shoot = real
        return sol, defect, len(calls)

    def test_shot_mismatch_is_float(self):
        res = shoot(PotentialProfile.deformed_plus(1.0), 0.1,
                    BoundaryCondition.robin(1.0))
        assert type(res.mismatch) is float

    def test_diagnostics_are_floats(self, solved):
        sol, _, _ = solved
        assert type(sol.E) is float
        for key, value in sol.diagnostics.items():
            assert type(value) is float, key

    def test_bits_pinned(self, solved):
        sol, defect, _ = solved
        assert repr(sol.E) == "2.9802322387695312e-08"
        assert repr(sol.diagnostics["match_defect"]) == defect
        assert repr(sol.diagnostics["pmax_doubling_shift"]) == "3.90625e-08"

    def test_shot_count_pinned(self, solved):
        # guards against work regressions: 2 + 24 bisection shots on the
        # bracket, the mismatch shot, then 2 + 8 for the p_max-doubling check
        _, _, n_shots = solved
        assert n_shots == 37


class TestSpectrum:
    def test_degenerate_ladders_with_flipped_bc(self):
        list_minus = spectrum(MINUS, D, 8.0)
        list_plus = spectrum(PLUS, N, 8.0)
        assert len(list_minus) == len(list_plus) >= 2
        for a, b in zip(list_minus, list_plus):
            assert abs(a.E - b.E) < 1e-4
        assert [s.E for s in list_minus] == sorted(s.E for s in list_minus)

    def test_alternating_boundary_conditions(self):
        # lowest two levels of the lower partner: E0=0 under Neumann,
        # E1=1.89379 under Dirichlet
        neumann = spectrum(MINUS, N, 1.0)
        dirichlet = spectrum(MINUS, D, 2.5)
        assert len(neumann) >= 1 and abs(neumann[0].E) < 1e-6
        assert len(dirichlet) >= 1
        assert dirichlet[0].E == pytest.approx(E1_REPORTED, abs=1e-3)

    def test_empty_below_zero(self):
        assert spectrum(MINUS, D, -1.0) == []

    @pytest.mark.parametrize("e_max, scan_step", [(1e9, 0.05), (1.0, 0.0),
                                                   (1.0, -0.05)])
    def test_grid_refused_before_any_work(self, e_max, scan_step):
        with pytest.raises(DomainError, match="spectrum"):
            spectrum(MINUS, D, e_max, scan_step=scan_step)

    def test_coarse_grid_keeps_levels_sharing_a_cell(self):
        # with scan_step=3 the cell (3, 6] holds the levels 3.74 and 5.21,
        # which a sign test on the grid alone cannot see
        fine = spectrum(MINUS, D, 8.0)
        coarse = spectrum(MINUS, D, 8.0, scan_step=3.0)
        assert len(coarse) == len(fine) == 5
        for a, b in zip(coarse, fine):
            assert abs(a.E - b.E) <= 1e-7

    @pytest.mark.parametrize("profile, bc, expect", [
        (MINUS, D, ["1.8937906742095958", "3.7352236270904484",
                    "5.211244726181019", "6.50470318794249"]),
        (MINUS, N, ["-4.76837158203125e-08", "2.7709591388702375",
                    "4.436734724044792", "5.827843236923204"]),
        (PLUS, D, ["2.7709591388702375", "4.436734724044792",
                   "5.827843236923204"]),
        (PLUS, N, ["1.8937906742095958", "3.7352236270904484",
                   "5.211244726181019", "6.50470318794249"]),
    ])
    def test_level_bits_pinned(self, profile, bc, expect):
        # each level is bisected from the same 0.05 grid cell as by a plain
        # sign scan over that grid, so the bits must not move
        assert [repr(s.E) for s in spectrum(profile, bc, 7.0)] == expect

    def test_shot_count_pinned(self, monkeypatch):
        # guards against work regressions: 15 count shots on the 93-point
        # grid, then 22 bisection shots for each of the two levels
        from branchedham import quantum
        calls = []
        real = quantum.shoot

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(quantum, "shoot", counted)
        assert len(spectrum(MINUS, D, 4.5)) == 2
        assert len(calls) == 59


class TestLadder:
    def test_annihilates_ground_state(self, ground):
        out = apply_ladder(LadderOperator.A, ground, normalize=False)
        norm_out = math.sqrt(np.trapezoid(out ** 2, ground.grid))
        norm_in = math.sqrt(np.trapezoid(ground.psi ** 2, ground.grid))
        assert norm_out / norm_in < 1e-6

    def test_zero_energy_normalization_error(self, ground):
        with pytest.raises(ZeroEnergyError):
            apply_ladder(LadderOperator.A, ground)

    def test_maps_between_degenerate_partners(self, excited, partner):
        mapped = apply_ladder(LadderOperator.A, excited)
        if mapped[np.argmax(np.abs(mapped))] < 0.0:
            mapped = -mapped
        l2 = math.sqrt(np.trapezoid((mapped - partner.psi) ** 2, excited.grid))
        assert l2 < 1e-3

    def test_bc_flip(self, excited, partner):
        mapped = apply_ladder(LadderOperator.A, excited)
        assert classify_boundary(excited.psi) == "dirichlet"
        assert classify_boundary(mapped) == "neumann"
        back = apply_ladder(LadderOperator.ADAGGER, partner)
        assert classify_boundary(partner.psi) == "neumann"
        assert classify_boundary(back) == "dirichlet"

    def test_ladder_composition_is_hamiltonian(self, excited):
        # a^dag a psi = E psi on the grid, derivatives of the intermediate
        # by central differences (discretization-limited)
        g = excited.grid
        h = g[1] - g[0]
        a_psi = apply_ladder(LadderOperator.A, excited, normalize=False)
        da = np.gradient(a_psi, h)
        adag_a = -da + np.sqrt(g) * a_psi
        mask = (g >= 0.5) & (g <= g[-1] - 1.0)
        err = np.max(np.abs(adag_a - excited.E * excited.psi)[mask])
        assert err / np.max(np.abs(excited.psi)) < 2e-3

    def test_norm_preserved_by_normalized_map(self, excited):
        mapped = apply_ladder(LadderOperator.A, excited)
        norm = math.sqrt(np.trapezoid(mapped ** 2, excited.grid))
        assert norm == pytest.approx(1.0, abs=1e-4)


class TestBoundaryTerm:
    def test_same_sector_vanishes(self, ground, excited):
        d2 = solve_eigenvalue(MINUS, D, (1.5, 2.2), p_max=excited.diagnostics["p_max"])
        assert abs(boundary_term(excited, d2)) < 1e-8
        n2 = solve_eigenvalue(MINUS, N, (-0.5, 0.5), p_max=ground.diagnostics["p_max"])
        assert abs(boundary_term(ground, n2)) < 1e-8

    def test_mixed_sector_nonzero(self, ground, excited):
        val = boundary_term(ground, excited)
        expect = abs(float(ground.psi[0]) * float(excited.dpsi[0]))
        assert abs(val) == pytest.approx(expect, rel=1e-6)
        assert abs(val) > 0.1

    def test_incompatible_grids(self, ground):
        other = solve_eigenvalue(MINUS, D, (1.5, 2.2), grid_size=2001)
        with pytest.raises(DomainError):
            boundary_term(ground, other)


class TestZeroModeUniqueness:
    def test_upper_partner_has_no_normalizable_zero_mode(self):
        # (d/dp - sqrt p) phi = 0 grows as e^{+2 p^{3/2}/3}: integrate the
        # first-order equation and compare the growth against the closed form
        p, phi = 0.01, 1.0
        h = 1e-4
        while p < 10.0:
            k1 = math.sqrt(p) * phi
            k2 = math.sqrt(p + 0.5 * h) * (phi + 0.5 * h * k1)
            k3 = math.sqrt(p + 0.5 * h) * (phi + 0.5 * h * k2)
            k4 = math.sqrt(p + h) * (phi + h * k3)
            phi += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            p += h
        expect = math.exp((2.0 / 3.0) * (10.0 ** 1.5 - 0.01 ** 1.5))
        assert phi == pytest.approx(expect, rel=1e-2)
        assert phi > 1e9


class TestExports:
    def test_csv(self, ground, tmp_path):
        path = tmp_path / "state.csv"
        eigensolution_to_csv(ground, path)
        rows = path.read_text().splitlines()
        assert rows[0] == "p,psi,dpsi"
        assert len(rows) == len(ground.grid) + 1
        p0, psi0, dpsi0 = (float(v) for v in rows[1].split(","))
        assert p0 == ground.grid[0] and psi0 == ground.psi[0]

    def test_header_and_spectrum_json(self, ground, tmp_path):
        hdr = eigensolution_header(ground)
        assert hdr["bc"]["kind"] == "neumann"
        assert set(hdr["diagnostics"]) >= {"mismatch_at_pmax",
                                           "pmax_doubling_shift",
                                           "bisection_width"}
        path = tmp_path / "spec.json"
        spectrum_to_json([ground], path)
        import json
        data = json.loads(path.read_text())
        assert len(data) == 1 and abs(data[0]["E"]) < 1e-6
