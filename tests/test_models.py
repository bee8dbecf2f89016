import math

import numpy as np
import pytest

from branchedham.errors import (BranchMismatchError, DomainError,
                                SingularInputError)
from branchedham.models import (SUSY_C, BranchId, FamilyModel, GaussianModel,
                                Potential, family_hamiltonian, family_lagrangian,
                                family_momentum, family_velocity, gaussian_cusps,
                                gaussian_hamiltonian, gaussian_lagrangian,
                                gaussian_momentum, gaussian_velocity,
                                model_from_config, susy_energy, susy_model)


def bisect(f, a, b, iters=100):
    fa = f(a)
    assert fa * f(b) < 0
    for _ in range(iters):
        m = 0.5 * (a + b)
        if fa * f(m) <= 0:
            b = m
        else:
            a, fa = m, fa if f(m) != 0 else (m, 0)
            fa = f(a)
    return 0.5 * (a + b)


@pytest.fixture
def gm():
    return GaussianModel(m=1.0, C=1.0, potential=Potential("zero"))


@pytest.fixture
def fam():
    return susy_model()


class TestGaussianMomentum:
    def test_zero(self, gm):
        assert gaussian_momentum(gm, 0.0) == 0.0

    def test_extremes(self, gm):
        vc = math.sqrt(gm.C / gm.m)
        pc = math.sqrt(gm.m * gm.C / math.e)
        assert gaussian_momentum(gm, vc) == pytest.approx(pc, rel=1e-15)
        assert gaussian_momentum(gm, -vc) == pytest.approx(-pc, rel=1e-15)

    def test_direct_value(self, gm):
        assert gaussian_momentum(gm, 2.0) == pytest.approx(2.0 * math.exp(-2.0))

    def test_bounded(self, gm):
        for v in np.linspace(-30, 30, 301):
            assert abs(gaussian_momentum(gm, float(v))) <= gm.p_cusp + 1e-15


class TestGaussianVelocity:
    def test_middle_zero(self, gm):
        assert gaussian_velocity(gm, 0.0, BranchId.MIDDLE) == 0.0

    def test_branch_point(self, gm):
        vc = math.sqrt(gm.C / gm.m)
        for branch in (BranchId.MIDDLE, BranchId.PLUS):
            assert gaussian_velocity(gm, gm.p_cusp, branch) == \
                pytest.approx(vc, rel=1e-12)

    def test_roundtrip_all_branches(self, gm):
        for p in np.linspace(0.01, gm.p_cusp * 0.999, 40):
            p = float(p)
            for branch, sgn in ((BranchId.MIDDLE, 1), (BranchId.PLUS, 1),
                                (BranchId.MIDDLE, -1), (BranchId.MINUS, -1)):
                v = gaussian_velocity(gm, sgn * p, branch)
                assert gaussian_momentum(gm, v) == pytest.approx(sgn * p, abs=1e-10)

    def test_two_velocities_same_momentum(self, gm):
        # independent scalar root-find on p(v) = 0.3 in each monotonic window
        target = 0.3
        v_mid = bisect(lambda v: gaussian_momentum(gm, v) - target, 0.0, 1.0)
        v_out = bisect(lambda v: gaussian_momentum(gm, v) - target, 1.0, 30.0)
        assert v_mid != pytest.approx(v_out)
        assert gaussian_velocity(gm, target, BranchId.MIDDLE) == \
            pytest.approx(v_mid, abs=1e-9)
        assert gaussian_velocity(gm, target, BranchId.PLUS) == \
            pytest.approx(v_out, abs=1e-9)

    def test_errors(self, gm):
        with pytest.raises(DomainError):
            gaussian_velocity(gm, gm.p_cusp * 1.001, BranchId.MIDDLE)
        with pytest.raises(BranchMismatchError):
            gaussian_velocity(gm, -0.2, BranchId.PLUS)
        with pytest.raises(BranchMismatchError):
            gaussian_velocity(gm, 0.2, BranchId.MINUS)
        with pytest.raises(SingularInputError):
            gaussian_velocity(gm, 0.0, BranchId.PLUS)


class TestGaussianHamiltonian:
    def test_origin_middle(self, gm):
        assert gaussian_hamiltonian(gm, 0.0, 0.0, BranchId.MIDDLE) == 0.0

    def test_outer_cusp_limit(self, gm):
        # p v - L -> -C as v -> inf along the outer branches
        assert gaussian_hamiltonian(gm, 0.0, 0.0, BranchId.PLUS) == \
            pytest.approx(-gm.C, abs=1e-15)
        for v in (12.0, 20.0):
            p = gaussian_momentum(gm, v)
            h = p * v - gaussian_lagrangian(gm, 0.0, v)
            assert h == pytest.approx(-gm.C, abs=1e-10)

    def test_low_momentum_series(self, gm):
        # fit even polynomial on [-0.05, 0.05]; quartic 1/8, sextic 5/48
        ps = np.linspace(-0.05, 0.05, 101)
        hs = np.array([gaussian_hamiltonian(gm, 0.0, float(p), BranchId.MIDDLE)
                       for p in ps])
        scale = 0.05
        t = ps / scale
        basis = np.vstack([t ** 2, t ** 4, t ** 6, t ** 8]).T
        coef, *_ = np.linalg.lstsq(basis, hs, rcond=None)
        a2 = coef[0] / scale ** 2
        a4 = coef[1] / scale ** 4
        a6 = coef[2] / scale ** 6
        # truncating the basis at p^8 leaves a p^10 bias ~2e-6 on the sextic
        assert abs(a2 - 0.5) < 1e-6
        assert abs(a4 - 0.125) < 1e-5
        assert abs(a6 - 5.0 / 48.0) < 1e-5

    def test_legendre_consistency(self, gm):
        # H = p v - L with dL/dv = p at the inverted velocity, all branches
        h_fd = 1e-6
        for p in np.linspace(0.02, gm.p_cusp * 0.995, 25):
            p = float(p)
            for branch in (BranchId.MIDDLE, BranchId.PLUS):
                v = gaussian_velocity(gm, p, branch)
                dldv = (gaussian_lagrangian(gm, 0.0, v + h_fd)
                        - gaussian_lagrangian(gm, 0.0, v - h_fd)) / (2 * h_fd)
                assert dldv == pytest.approx(p, abs=1e-8)
                assert gaussian_hamiltonian(gm, 0.0, p, branch) == \
                    pytest.approx(p * v - gaussian_lagrangian(gm, 0.0, v), abs=1e-13)

    def test_double_valued(self, gm):
        # exactly two H values strictly inside (0, p_cusp), matching the
        # parametric curve (p(v), p v - L)
        for p in (0.1, 0.3, 0.55):
            h_mid = gaussian_hamiltonian(gm, 0.0, p, BranchId.MIDDLE)
            h_out = gaussian_hamiltonian(gm, 0.0, p, BranchId.PLUS)
            assert h_out < h_mid
            v_mid = bisect(lambda v: gaussian_momentum(gm, v) - p, 0.0, 1.0)
            v_out = bisect(lambda v: gaussian_momentum(gm, v) - p, 1.0, 40.0)
            assert h_mid == pytest.approx(
                p * v_mid - gaussian_lagrangian(gm, 0.0, v_mid), abs=1e-9)
            assert h_out == pytest.approx(
                p * v_out - gaussian_lagrangian(gm, 0.0, v_out), abs=1e-9)


class TestGaussianCusps:
    def test_values(self, gm):
        cusps = gaussian_cusps(gm, 0.0)
        pc = 1.0 / math.sqrt(math.e)
        assert cusps[0] == pytest.approx((-pc, 2.0 / math.sqrt(math.e) - 1.0))
        assert cusps[1] == pytest.approx((pc, 2.0 / math.sqrt(math.e) - 1.0))
        assert cusps[2] == pytest.approx((0.0, -1.0))

    def test_separatrix_energies(self):
        m = GaussianModel(1.0, 1.0, Potential("harmonic_shifted", c0=1.0, a=1.0))
        cusps = gaussian_cusps(m, 0.0)
        energies = sorted({h for _, h in cusps})
        assert len(energies) == 2
        assert energies[0] == pytest.approx(0.0, abs=1e-14)
        assert energies[1] == pytest.approx(2.0 / math.sqrt(math.e), abs=1e-14)

    def test_momentum_scaling(self):
        # cusp momenta scale as sqrt(m C)
        lam = 3.7
        base = GaussianModel(1.0, 1.0).p_cusp
        assert GaussianModel(lam, 1.0).p_cusp == pytest.approx(
            math.sqrt(lam) * base, rel=1e-14)

    def test_parametric_agreement(self, gm):
        # cusp (p, H) against p(v), p v - L at v = +-sqrt(C/m)
        vc = math.sqrt(gm.C / gm.m)
        p_par = gaussian_momentum(gm, vc)
        h_par = p_par * vc - gaussian_lagrangian(gm, 0.0, vc)
        cusps = gaussian_cusps(gm, 0.0)
        assert cusps[1][0] == pytest.approx(p_par, abs=1e-10)
        assert cusps[1][1] == pytest.approx(h_par, abs=1e-10)


class TestFamily:
    def test_momentum_at_zero_velocity(self, fam):
        assert family_momentum(fam, 0.0) == pytest.approx(0.25 ** (2.0 / 3.0))
        assert family_momentum(fam, 0.0) == pytest.approx(SUSY_C / 3.0)

    def test_momentum_symmetry(self, fam):
        assert family_momentum(fam, 2.0) == pytest.approx(
            family_momentum(fam, 0.0), rel=1e-15)

    def test_singular_velocity(self, fam):
        with pytest.raises(SingularInputError):
            family_momentum(fam, 1.0)

    def test_velocity_roundtrip(self, fam):
        for p in (0.2, 0.5, 1.0, 4.0):
            for branch in (BranchId.H_MINUS, BranchId.H_PLUS):
                v = family_velocity(fam, p, branch)
                assert family_momentum(fam, v) == pytest.approx(p, rel=1e-12)

    def test_velocity_values(self, fam):
        p0 = 0.25 ** (2.0 / 3.0)
        assert family_velocity(fam, p0, BranchId.H_PLUS) == pytest.approx(0.0, abs=1e-14)
        assert family_velocity(fam, p0, BranchId.H_MINUS) == pytest.approx(2.0)
        k2 = FamilyModel(k=2)
        assert family_velocity(k2, 1.0, BranchId.H_PLUS) == pytest.approx(0.75)
        assert family_velocity(k2, 1.0, BranchId.H_MINUS) == pytest.approx(1.25)
        for branch in (BranchId.H_PLUS, BranchId.H_MINUS):
            assert family_velocity(fam, 1e8, branch) == pytest.approx(1.0, abs=1e-11)

    def test_velocity_domain(self, fam):
        with pytest.raises(DomainError):
            family_velocity(fam, 0.0, BranchId.H_PLUS)
        with pytest.raises(DomainError):
            family_velocity(fam, -1.0, BranchId.H_MINUS)

    def test_hamiltonian_values(self, fam):
        assert family_hamiltonian(fam, 0.0, 1.0, BranchId.H_MINUS) == pytest.approx(0.5)
        assert family_hamiltonian(fam, 0.0, 1.0, BranchId.H_PLUS) == pytest.approx(1.5)
        # minimum of H_+ over p sits at the turning momentum and equals C
        p0 = SUSY_C / 3.0
        assert family_hamiltonian(fam, 0.0, p0, BranchId.H_PLUS) == \
            pytest.approx(SUSY_C, rel=1e-14)
        for dp in (-1e-4, 1e-4):
            assert family_hamiltonian(fam, 0.0, p0 + dp, BranchId.H_PLUS) > SUSY_C

    def test_branch_ordering_and_cusp_at_infinity(self, fam):
        prev_gap = math.inf
        for p in (0.3, 1.0, 10.0, 100.0, 1e4):
            gap = family_hamiltonian(fam, 0.0, p, BranchId.H_PLUS) \
                - family_hamiltonian(fam, 0.0, p, BranchId.H_MINUS)
            assert 0.0 < gap < prev_gap
            # subtracting two O(p) values leaves rounding ~eps*p on the gap
            assert gap == pytest.approx(2.0 / (4 * fam.k - 2) * p ** -0.5,
                                        abs=1e-11 * max(1.0, p))
            prev_gap = gap
        # both branches approach p + V at large momentum
        assert family_hamiltonian(fam, 0.0, 1e8, BranchId.H_MINUS) == \
            pytest.approx(1e8, rel=1e-10)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_lagrangian_legendre_identity(self, k):
        # H(x, p) = p v(p) - L(x, v(p)) on both branches
        m = FamilyModel(k=k)
        for x in (0.0, 0.7):
            for p in (0.05, 0.3, 1.0, 2.5, 6.0):
                for branch in (BranchId.H_MINUS, BranchId.H_PLUS):
                    v = family_velocity(m, p, branch)
                    assert p * v - family_lagrangian(m, x, v) == pytest.approx(
                        family_hamiltonian(m, x, p, branch), rel=1e-12, abs=0.0)

    def test_lagrangian_overflow_raises(self):
        # k = 25 at p = 0.05: |v - 1| ~ 3.8e32, and (v - 1)^49 overflows
        m = FamilyModel(k=25)
        for branch in (BranchId.H_MINUS, BranchId.H_PLUS):
            v = family_velocity(m, 0.05, branch)
            with pytest.raises(DomainError):
                family_lagrangian(m, 0.0, v)

    def test_derived_constant(self):
        assert FamilyModel(k=1).C == pytest.approx(3.0 / 4.0 ** (2.0 / 3.0))
        assert FamilyModel(k=1).C == pytest.approx(1.1906, abs=1e-4)
        for k in (1, 2, 3, 7):
            c = FamilyModel(k=k).C
            assert c > 0.0
            assert c == pytest.approx(
                (2 * k + 1) / (2 * k - 1) * 0.25 ** (2.0 / (2 * k + 1)))


class TestSusyEnergy:
    def test_minimum(self):
        assert susy_energy(0.0, 0.0) == pytest.approx(SUSY_C)
        assert susy_energy(0.0, 0.0) == pytest.approx(1.19, abs=5e-3)

    def test_barrier(self):
        with pytest.raises(SingularInputError):
            susy_energy(0.0, 1.0)
        assert susy_energy(0.0, 1.0 - 1e-9) > 1e5
        assert susy_energy(0.0, 1.0 + 1e-9) > 1e5

    def test_matches_hamiltonian_branches(self, fam):
        # Legendre-transform identity: E(x, v) equals H_+ below the barrier
        # and H_- above it, at p = p(v)
        for x in (0.0, 0.4):
            for v in np.linspace(-1.5, 0.9, 17):
                v = float(v)
                p = family_momentum(fam, v)
                assert susy_energy(x, v) == pytest.approx(
                    family_hamiltonian(fam, x, p, BranchId.H_PLUS), abs=1e-10)
            for v in np.linspace(1.05, 3.0, 17):
                v = float(v)
                p = family_momentum(fam, v)
                assert susy_energy(x, v) == pytest.approx(
                    family_hamiltonian(fam, x, p, BranchId.H_MINUS), abs=1e-10)

    def test_single_valued_vs_double_valued(self, fam):
        # E(x, .) is a function on each side of v=1, continuous across grids,
        # while H at fixed p takes two distinct values
        vs = np.linspace(-2.0, 0.95, 200)
        es = [susy_energy(0.0, float(v)) for v in vs]
        assert np.all(np.isfinite(es))
        assert max(abs(np.diff(es))) < 0.5  # no jumps on a fine grid
        for p in (0.3, 0.7, 2.0):
            hm = family_hamiltonian(fam, 0.0, p, BranchId.H_MINUS)
            hp = family_hamiltonian(fam, 0.0, p, BranchId.H_PLUS)
            assert hp > hm


class TestPotentialAndConfig:
    def test_potential_derivative_consistency(self):
        for pot in (Potential("zero"), Potential("square"),
                    Potential("harmonic_shifted", c0=0.7, a=1.3)):
            for x in (-1.2, 0.0, 0.8):
                fd = (pot(x + 1e-6) - pot(x - 1e-6)) / 2e-6
                assert pot.derivative(x) == pytest.approx(fd, abs=1e-8)

    def test_model_from_config(self):
        m = model_from_config({"kind": "gaussian", "m": 2.0, "C": 0.5,
                               "potential": {"kind": "zero"}})
        assert isinstance(m, GaussianModel) and m.m == 2.0
        f = model_from_config({"kind": "family", "k": 2,
                               "potential": {"kind": "square"}})
        assert isinstance(f, FamilyModel) and f.k == 2
        s = model_from_config({"kind": "susy"})
        assert s.k == 1 and s.potential.kind == "square"

    def test_config_rejects_unknown_fields(self):
        with pytest.raises(DomainError):
            model_from_config({"kind": "gaussian", "mass": 1.0})
        with pytest.raises(DomainError):
            model_from_config({"kind": "nope"})
        with pytest.raises(DomainError):
            model_from_config({"kind": "susy", "potential": {"kind": "zero"}})

    @pytest.mark.parametrize("cfg", [
        {"kind": "gaussian", "m": "abc"},
        {"kind": "gaussian", "C": float("nan")},
        {"kind": "gaussian", "m": True},
        {"kind": "gaussian", "C": 10 ** 400},
        {"kind": "gaussian", "potential": {"kind": "harmonic_shifted", "a": "x"}},
        {"kind": "gaussian", "potential": {"kind": "harmonic_shifted",
                                           "c0": float("inf")}},
        {"kind": "family", "k": 1.5},
        {"kind": "family", "k": True},
        {"kind": "family", "k": "2"},
        {"kind": "family", "k": 10 ** 9},
        {"kind": ["susy"]},
        {"kind": "family", "potential": {"kind": ["square"]}},
    ])
    def test_config_rejects_non_numbers(self, cfg):
        with pytest.raises(DomainError):
            model_from_config(cfg)

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            GaussianModel(m=-1.0)
        with pytest.raises(DomainError):
            FamilyModel(k=0)
        with pytest.raises(DomainError):
            Potential("cubic")
