import hashlib
import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from branchedham.deformation import shared_g_table
from branchedham.errors import ConvergenceError, DomainError
from branchedham.specfun import (ScaledGTable, WBranch, fd_derivative,
                                 lambert_w, quad, scaled_g)

INV_E = math.exp(-1.0)


def g_quadrature_oracle(p):
    """G(p) by bounded-integrand quadrature: G = p * int_0^1 e^{-(4/3)p^{3/2}(1-t^{3/2})} dt."""
    val, err = scipy_quad(lambda t: math.exp(-(4.0 / 3.0) * p ** 1.5 * (1.0 - t ** 1.5)),
                          0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=200)
    assert err < 1e-12
    return p * val


class TestLambertW:
    def test_principal_at_zero(self):
        assert lambert_w(WBranch.PRINCIPAL, 0.0) == 0.0

    def test_branch_point(self):
        assert lambert_w(WBranch.PRINCIPAL, -INV_E) == pytest.approx(-1.0, abs=1e-12)
        assert lambert_w(WBranch.LOWER, -INV_E) == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("x", [-2.0, -0.5, 0.3, 1.7])
    def test_roundtrip(self, x):
        arg = x * math.exp(x)
        branch = WBranch.LOWER if x < -1.0 else WBranch.PRINCIPAL
        assert abs(lambert_w(branch, arg) - x) < 1e-12

    def test_defining_identity_on_domain_sample(self):
        # log-spaced approach to both the branch point and the endpoints
        for d in np.geomspace(1e-12, 0.367, 40):
            for branch in (WBranch.PRINCIPAL, WBranch.LOWER):
                x = -INV_E + d if branch is WBranch.PRINCIPAL else -d
                w = lambert_w(branch, x)
                assert abs(w * math.exp(w) - x) < 1e-12
        for x in np.geomspace(1e-9, 1e9, 40):
            w = lambert_w(WBranch.PRINCIPAL, float(x))
            assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, x)

    def test_branch_ranges(self):
        for x in np.linspace(-INV_E, -1e-6, 25):
            assert lambert_w(WBranch.PRINCIPAL, float(x)) >= -1.0
            assert lambert_w(WBranch.LOWER, float(x)) <= -1.0

    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        for x in (-0.36, -0.2, -0.05, 0.5, 3.0):
            assert lambert_w(WBranch.PRINCIPAL, x) == pytest.approx(
                float(mp.lambertw(x, 0)), rel=1e-13)
        for x in (-0.36, -0.2, -0.01):
            assert lambert_w(WBranch.LOWER, x) == pytest.approx(
                float(mp.lambertw(x, -1)), rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            lambert_w(WBranch.PRINCIPAL, -INV_E - 1e-8)
        with pytest.raises(DomainError):
            lambert_w(WBranch.LOWER, 0.0)
        with pytest.raises(DomainError):
            lambert_w(WBranch.LOWER, 0.1)


class TestScaledG:
    def test_zero(self):
        assert scaled_g(0.0) == 0.0

    def test_against_quadrature_oracle(self):
        for p in (0.03, 0.25, 1.0, 5.0, 12.0):
            assert scaled_g(p) == pytest.approx(g_quadrature_oracle(p), rel=1e-10)

    def test_large_p_asymptote(self):
        # leading tail: G ~ 1/(2 sqrt p); quoted value 0.1004 is good to ~1%
        assert scaled_g(25.0) == pytest.approx(0.10040, rel=0.01)

    def test_subleading_asymptote(self):
        # G * 2 sqrt(p) = 1 + (1/4) p^{-3/2} + (1/4) p^{-3} + ...
        for p in (20.0, 25.0, 30.0):
            lhs = scaled_g(p) * 2.0 * math.sqrt(p) - 1.0
            assert abs(lhs - 0.25 * p ** -1.5) < 3.0 * p ** -3

    def test_defining_ode_by_finite_differences(self):
        for p in np.geomspace(0.3, 30.0, 100):
            p = float(p)
            dg = fd_derivative(scaled_g, p, order=1, h=1e-4)
            assert abs(dg - 1.0 + 2.0 * math.sqrt(p) * scaled_g(p)) < 1e-8

    def test_many_matches_scalar(self):
        ps = np.array([0.0, 0.01, 0.3, 2.0, 7.5, 30.0])
        vals = ScaledGTable(p_max=40.0)(ps)
        for p, v in zip(ps, vals):
            assert v == pytest.approx(scaled_g(float(p)), rel=1e-9, abs=1e-15)

    def test_table_accuracy_and_scalar_path(self):
        table = ScaledGTable(p_max=40.0)
        for p in (0.02, 0.5, 3.3333, 17.77, 39.5):
            assert table.scalar(p) == pytest.approx(scaled_g(p), rel=1e-8)
            assert table(p) == pytest.approx(table.scalar(p), rel=1e-14)
        arr = table(np.array([0.5, 3.3333]))
        assert arr[1] == pytest.approx(table.scalar(3.3333), rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            scaled_g(-0.1)
        with pytest.raises(DomainError):
            ScaledGTable(p_max=40.0)(41.0)


class TestScaledGTableFloats:
    """The scalar path works on Python floats, so RK45 loops that call it
    never carry numpy scalars; the vectorized path keeps its arrays."""

    @pytest.fixture(scope="class")
    def table(self):
        return shared_g_table()

    def test_scalar_returns_float(self, table):
        for p in (0.01, table._cut, 0.5, 17.77, table.p_max):
            assert type(table.scalar(p)) is float, p
        assert type(table.scalar(int(table.p_max))) is float

    def test_node_abscissa_is_index_times_step(self, table):
        # scalar places node i at i * h; linspace computes i * step and sets
        # the endpoint to p_max, so every node left of the last must agree
        for tab in (table, ScaledGTable(p_max=40.0), ScaledGTable(p_max=60.5)):
            ps = tab._ps.tolist()
            h = tab._h
            assert all(ps[i] == i * h for i in range(len(ps) - 1))

    def test_vector_equals_scalar_bits(self, table):
        # __call__ transcribes scalar elementwise: equal bits at every node,
        # across the series/table hand-over, at p_max and at random points
        rng = np.random.default_rng(20131)
        for tab in (table, ScaledGTable(p_max=40.0), ScaledGTable(p_max=60.5)):
            cut = tab._cut
            ps = np.concatenate([tab._ps, [cut, np.nextafter(cut, np.inf), tab.p_max],
                                 rng.uniform(0.0, tab.p_max, 250_000)])
            vector = tab(ps)
            scalar = np.array([tab.scalar(p) for p in ps.tolist()])
            assert vector.tobytes() == scalar.tobytes(), tab.p_max
            assert tab(3.3333) == tab.scalar(3.3333)

    def test_table_bits_pinned(self, table):
        # the G-table build samples dense output at float times; these are
        # the bits of the build that sampled at numpy scalars
        digest = hashlib.md5(table._g.tobytes() + table._dg.tobytes()).hexdigest()
        assert digest == "7b7f0837169bea3cb7aca4dba6293185"
        assert table._g_list == table._g.tolist()
        assert table._dg_list == table._dg.tolist()


class TestQuad:
    def test_unit(self):
        assert quad(lambda p: 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_ground_state_norm_integral(self):
        # int_0^inf e^{-4p^{3/2}/3} dp = Gamma(2/3) 6^{-1/3} ~ 0.745
        exact = math.gamma(2.0 / 3.0) * 6.0 ** (-1.0 / 3.0)
        val = quad(lambda p: math.exp(-4.0 * p ** 1.5 / 3.0), 0.0, math.inf)
        assert val == pytest.approx(exact, abs=1e-6)
        assert abs(val - 0.745) < 1e-3

    def test_normalized_ground_state(self):
        n0 = 6.0 ** (1.0 / 6.0) / math.sqrt(math.gamma(2.0 / 3.0))
        val = quad(lambda p: (n0 * math.exp(-2.0 * p ** 1.5 / 3.0)) ** 2,
                   0.0, math.inf)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_nonconvergence_budget(self):
        with pytest.raises(ConvergenceError):
            quad(lambda x: math.sin(1.0 / (x + 1e-12)), 0.0, 1.0,
                 tol=1e-13, max_panels=4)

    def test_domain(self):
        with pytest.raises(DomainError):
            quad(lambda x: x, 1.0, 0.0)
        assert quad(lambda x: x, 1.0, 1.0) == 0.0


class TestFdDerivative:
    def test_constant(self):
        assert fd_derivative(lambda p: 3.7, 0.3, order=1) == 0.0

    def test_quadratic_second_derivative(self):
        assert fd_derivative(lambda p: p * p, 3.0, order=2, h=1e-4) == \
            pytest.approx(2.0, abs=1e-6)

    def test_sqrt_first_derivative(self):
        assert fd_derivative(math.sqrt, 4.0, order=1, h=1e-4) == \
            pytest.approx(0.25, abs=1e-8)

    def test_bad_order(self):
        with pytest.raises(DomainError):
            fd_derivative(math.sqrt, 4.0, order=3)
