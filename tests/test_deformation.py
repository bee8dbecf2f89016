import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from branchedham.deformation import DeformationProfile, profile_to_csv
from branchedham.errors import DegenerateInputError, DomainError
from branchedham.specfun import fd_derivative, quad

KAPPAS = (0.125, 0.25, 0.5, 1.0)


def w_direct_oracle(kappa, p):
    """Superpotential from the raw (unscaled) defining integral.

    Valid while e^{4p^{3/2}/3} fits a double (p <~ 40); shares nothing with
    the scaled implementation path.
    """
    g, err = scipy_quad(lambda s: math.exp(4.0 * s ** 1.5 / 3.0), 0.0, p,
                        epsabs=1e-13, epsrel=1e-13, limit=200)
    assert err < 1e-9
    return math.sqrt(p) - kappa * math.exp(4.0 * p ** 1.5 / 3.0) / (1.0 + kappa * g)


class TestSuperpotential:
    def test_undeformed(self):
        assert DeformationProfile(0.0).w(4.0) == 2.0

    def test_matches_direct_quadrature(self):
        for p in (0.1, 0.5, 1.0, 2.5, 5.0):
            assert DeformationProfile(1.0).w(p) == pytest.approx(
                w_direct_oracle(1.0, p), abs=1e-9)
        assert DeformationProfile(0.25).w(3.0) == pytest.approx(
            w_direct_oracle(0.25, 3.0), abs=1e-9)

    def test_large_p_asymptote(self):
        # w_kappa ~ -sqrt(p) with an O(p^{-3/2}) relative correction
        for kappa in (0.125, 1.0):
            ratio = DeformationProfile(kappa).w(25.0) / math.sqrt(25.0)
            assert -1.01 < ratio < -0.99

    def test_kappa_independent_asymptote(self):
        assert abs(DeformationProfile(0.125).w(30.0)
                   - DeformationProfile(1.0).w(30.0)) < 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            DeformationProfile(1.0).w(0.0)
        with pytest.raises(DomainError):
            DeformationProfile(-0.5).w(1.0)


class TestPhi0:
    def test_boundary_values(self):
        assert DeformationProfile(1.0).phi0(0.0) == pytest.approx(1.0, rel=1e-14)
        d0 = DeformationProfile(1.0)._phi0_deriv_at_zero()
        assert d0 == pytest.approx(-1.0, abs=1e-6)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_robin_combination(self, kappa):
        prof = DeformationProfile(kappa)
        d = prof.residuals(np.linspace(0.3, 5.0, 1001))
        assert d["robin"] < 1e-6

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_positive(self, kappa):
        ps = np.linspace(0.0, 40.0, 200)
        assert np.all(DeformationProfile(kappa).phi0(ps) > 0.0)

    def test_square_integrable_with_exact_norm(self):
        # d/dp[-1/(1+kappa g)] = phi0^2/kappa, so the half-line norm is
        # exactly kappa; the doubled upper limit changes nothing measurable
        for kappa in (0.5, 1.0):
            prof = DeformationProfile(kappa)
            n1 = quad(lambda p: prof.phi0(p) ** 2, 0.0, 60.0, tol=1e-11)
            n2 = quad(lambda p: prof.phi0(p) ** 2, 0.0, 120.0, tol=1e-11)
            assert n1 == pytest.approx(kappa, abs=1e-8)
            assert abs(n2 - n1) < 1e-8

    def test_large_p_form(self):
        # phi0 -> 2 sqrt(p) e^{-2p^{3/2}/3}
        for p in (20.0, 30.0):
            assert DeformationProfile(1.0).phi0(p) == pytest.approx(
                2.0 * math.sqrt(p) * math.exp(-2.0 * p ** 1.5 / 3.0), rel=5e-3)

    def test_degenerate_kappa(self):
        with pytest.raises(DegenerateInputError):
            DeformationProfile(0.0).phi0(1.0)


class TestDeformedPotential:
    def test_undeformed_value(self):
        assert DeformationProfile(0.0).potential(1.0) == 1.5

    def test_factorization_identity(self):
        # U_kappa equals w^2 + w' with the derivative by finite differences
        prof = DeformationProfile(1.0)
        for p in (0.2, 0.7, 1.5, 4.0, 9.0):
            w = prof.w(p)
            wp = fd_derivative(prof.w, p, h=1e-5)
            assert prof.potential(p) == pytest.approx(w * w + wp, abs=1e-6)

    def test_infinite_kappa_limit_finite(self):
        # kappa cancels in the ratio; convergence to the limit goes like
        # e^{-4p^{3/2}/3}/kappa, so the 1e-6 agreement needs p beyond ~3
        for p in (3.0, 5.0, 10.0):
            assert abs(DeformationProfile(1e6).potential(p)
                       - DeformationProfile(1e8).potential(p)) < 1e-6
        assert abs(DeformationProfile(1e6).potential(0.5)
                   - DeformationProfile(1e8).potential(0.5)) < 1e-3
        # and the limit expression itself is finite
        g = 0.5  # any p: U_inf = p + 1/(2 sqrt p) - 4 sqrt(p)/G + 2/G^2
        assert math.isfinite(DeformationProfile(1e8).potential(g))

    def test_shift_at_zero(self):
        assert DeformationProfile(0.5).shift0 == 0.5
        # the regular part of U_kappa at p -> 0+ tends to 2 kappa^2
        for kappa in (0.25, 1.0):
            base = 1e-8 + 0.5 / math.sqrt(1e-8)
            assert DeformationProfile(kappa).potential(1e-8) - base == pytest.approx(
                2.0 * kappa ** 2, abs=1e-3)

    def test_undeformed_limit_inside_crossover(self):
        # kappa g(p) << 1 requires tiny kappa; the pointwise limit is not
        # uniform in p, so the window must shrink with kappa:
        # kappa=1e-30 is undeformed to 1e-6 across [0.1, 10] ...
        ps = np.linspace(0.1, 10.0, 300)
        base = ps + 0.5 / np.sqrt(ps)
        assert np.max(np.abs(DeformationProfile(1e-30).potential(ps) - base)) < 1e-6
        # ... while kappa=1e-8 only is below the same bound for p <~ 1.8
        ps2 = np.linspace(0.1, 1.5, 100)
        base2 = ps2 + 0.5 / np.sqrt(ps2)
        tiny = DeformationProfile(1e-8)
        assert np.max(np.abs(tiny.potential(ps2) - base2)) < 1e-6
        assert abs(tiny.potential(10.0) - (10.0 + 0.5 / math.sqrt(10.0))) > 0.1

    @pytest.mark.parametrize("kappa", [0.0, 0.715282, 1.0])
    def test_scalar_potential_is_float(self, kappa):
        prof = DeformationProfile(kappa)
        for p in (1e-6, 0.01, 2.0, 129.5):
            assert type(prof.potential_scalar(p)) is float

    @pytest.mark.parametrize("kappa", [0.0, 0.001, 0.1, 0.715282, 1.0, 2.0, 10.0, 100.0])
    def test_scalar_potential_matches_array(self, kappa):
        # two transcriptions of one formula: the array path samples tables,
        # the scalar path drives the shots
        prof = DeformationProfile(kappa)
        ps = np.concatenate([np.geomspace(1e-6, 1.0, 2000), np.linspace(1.0, 129.9, 4000)])
        u = prof.potential(ps)
        u_scalar = np.array([prof.potential_scalar(float(p)) for p in ps])
        assert np.max(np.abs(u_scalar - u) / np.maximum(np.abs(u), 1.0)) < 1e-14


class TestRiccati:
    def test_undeformed_point(self):
        assert DeformationProfile(0.0).riccati_residual(1.0) < 1e-9

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_kappa_independent_partner(self, kappa):
        for p in (0.1, 1.0, 5.0, 20.0):
            assert DeformationProfile(kappa).riccati_residual(p) < 1e-7

    def test_specific_values(self):
        assert DeformationProfile(0.125).riccati_residual(2.0) < 1e-7
        for p in (0.1, 1.0, 5.0, 20.0):
            assert DeformationProfile(1.0).riccati_residual(p) < 1e-7


class TestZeroMode:
    @pytest.mark.parametrize("kappa", [0.25, 1.0])
    def test_residuals(self, kappa):
        grid = np.linspace(0.3, 10.0, 7761)
        r1, r2 = DeformationProfile(kappa).zero_mode_residual(grid)
        assert r1 < 1e-5
        assert r2 < 1e-5

    def test_kappa_zero_degenerates(self):
        with pytest.raises(DegenerateInputError):
            DeformationProfile(0.0).zero_mode_residual(np.linspace(0.3, 10.0, 101))

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            DeformationProfile(1.0).zero_mode_residual(np.linspace(-1.0, 1.0, 101))
        with pytest.raises(DomainError):
            DeformationProfile(1.0).zero_mode_residual(np.geomspace(0.1, 1.0, 101))

    @pytest.mark.parametrize("grid", [np.full(101, 0.3), np.linspace(10.0, 0.3, 101)])
    def test_grid_spacing_must_be_positive(self, grid):
        with pytest.raises(DomainError, match="spacing"):
            DeformationProfile(1.0).zero_mode_residual(grid)


class TestLowerPartnerGroundState:
    @pytest.mark.parametrize("kappa", [0.125, 1.0])
    def test_deformed_candidate_not_normalizable(self, kappa):
        assert DeformationProfile(kappa).hminus_nonnormalizable_check() is True

    def test_undeformed_ground_state_survives(self):
        assert DeformationProfile(0.0).hminus_nonnormalizable_check() is False

    def test_pmax_precondition(self):
        with pytest.raises(DomainError):
            DeformationProfile(1.0).hminus_nonnormalizable_check(p_max=10.0)


class TestProfileExport:
    def test_csv_columns(self, tmp_path):
        prof = DeformationProfile(0.5)
        ps = np.linspace(0.01, 10.0, 50)
        path = tmp_path / "profile.csv"
        profile_to_csv(prof, ps, path)
        rows = path.read_text().splitlines()
        assert rows[0] == "p,w_kappa,phi0,U_kappa"
        assert len(rows) == 51
        vals = [float(v) for v in rows[1].split(",")]
        assert vals[0] == pytest.approx(0.01)
        assert vals[2] == pytest.approx(DeformationProfile(0.5).phi0(0.01), rel=1e-12)

    def test_residual_bundle(self):
        prof = DeformationProfile(1.0)
        d = prof.residuals(np.linspace(0.3, 10.0, 3881))
        assert d["zero_mode_first_order"] < 1e-5
        assert d["zero_mode_second_order"] < 2e-5
        assert d["robin"] < 1e-6
