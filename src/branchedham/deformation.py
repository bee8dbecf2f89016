"""One-parameter isospectral deformation of the supersymmetric pair.

The general solution of the Riccati equation w^2 - w' = p - 1/(2 sqrt p)
adds an integration constant kappa to the particular solution w_0 = sqrt(p):

    w_kappa = sqrt(p) - kappa / (e^{-4p^{3/2}/3} + kappa G(p)),

written here in overflow-free "G-form": every expression carries the common
factor e^{-4p^{3/2}/3} through numerator and denominator, with
G(p) = e^{-4p^{3/2}/3} g(p) the scaled exponential integral from specfun.
(The raw g(p) overflows a double near p ~ 45.)

kappa > 0 yields a square-integrable zero mode

    phi0(p, kappa) = kappa e^{-2p^{3/2}/3} / (e^{-4p^{3/2}/3} + kappa G(p))

of the deformed Hamiltonian with potential U_kappa = w_kappa^2 + w_kappa',
satisfying Robin boundary data kappa phi0(0) + phi0'(0) = 0 and the exact
norm identity  int_0^inf phi0^2 dp = kappa.  The partner potential
w_kappa^2 - w_kappa' is independent of kappa, so the lower Hamiltonian does
not deform and its ground state stays unique.

kappa < 0 is rejected: 1 + kappa g(p) then vanishes at finite p.
"""

from __future__ import annotations

import csv
import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, DomainError
from .specfun import ScaledGTable, fd_derivative, quad

__all__ = ["DeformationProfile", "profile_to_csv", "shared_g_table"]

_G_TABLE_PMAX = 130.0


@lru_cache(maxsize=1)
def shared_g_table() -> ScaledGTable:
    """Process-wide immutable G sampler (read-only after construction)."""
    return ScaledGTable(p_max=_G_TABLE_PMAX)


class DeformationProfile:
    """w_kappa, phi0 and U_kappa of one kappa >= 0, with their diagnostics.

    shift0 = 2 kappa^2 is the regular part of U_kappa at p = 0+.  Carries the
    shared immutable G table; all sampling methods are pure and safe to call
    from multiple threads.
    """

    def __init__(self, kappa: float):
        if kappa < 0.0:
            raise DomainError(
                "kappa < 0 puts a pole of 1 + kappa*g(p) at finite p; rejected")
        self.kappa = float(kappa)
        self.shift0 = 2.0 * self.kappa * self.kappa
        self.g_table = shared_g_table()

    def _denom(self, p):
        # D = e^{-4 p^{3/2}/3} + kappa G(p); the scaled form of 1 + kappa g
        return np.exp(-4.0 * p ** 1.5 / 3.0) + self.kappa * self.g_table(p)

    def w(self, p):
        """w_kappa(p) = sqrt(p) - kappa / D(p) for p > 0; w_0 = sqrt(p) exactly."""
        p_arr = np.asarray(p, dtype=float)
        if np.any(p_arr <= 0.0):
            raise DomainError("w_kappa: p must be positive")
        if self.kappa == 0.0:
            out = np.sqrt(p_arr)
        else:
            out = np.sqrt(p_arr) - self.kappa / self._denom(p_arr)
        return float(out) if p_arr.ndim == 0 else out

    def phi0(self, p):
        """Zero mode phi0(p, kappa) = kappa e^{-2p^{3/2}/3} / D(p), kappa > 0.

        phi0(0) = kappa, phi0'(0) = -kappa^2, and phi0 ~ 2 sqrt(p) e^{-2p^{3/2}/3}
        for large p, hence square-integrable on the half-line.
        """
        if self.kappa == 0.0:
            raise DegenerateInputError("phi0 vanishes identically at kappa=0")
        p_arr = np.asarray(p, dtype=float)
        if np.any(p_arr < 0.0):
            raise DomainError("phi0: p must be >= 0")
        out = self.kappa * np.exp(-2.0 * p_arr ** 1.5 / 3.0) / self._denom(p_arr)
        return float(out) if p_arr.ndim == 0 else out

    def potential(self, p):
        """Potential of the deformed upper Hamiltonian, U_kappa = w_kappa^2 + w_kappa'.

        Evaluated analytically in G-form (using G' = 1 - 2 sqrt(p) G):

            U_kappa = p + 1/(2 sqrt p) - 4 kappa sqrt(p)/D + 2 kappa^2/D^2.

        kappa = 0 returns the undeformed p + 1/(2 sqrt p) exactly.
        """
        p_arr = np.asarray(p, dtype=float)
        if np.any(p_arr <= 0.0):
            raise DomainError("U_kappa: p must be positive")
        k = self.kappa
        out = p_arr + 0.5 / np.sqrt(p_arr)
        if k != 0.0:
            d = self._denom(p_arr)
            out = out - 4.0 * k * np.sqrt(p_arr) / d + 2.0 * k ** 2 / d ** 2
        return float(out) if p_arr.ndim == 0 else out

    def potential_scalar(self, p: float) -> float:
        """Pure-scalar U_kappa for tight integration loops."""
        k = self.kappa
        base = p + 0.5 / math.sqrt(p)
        if k == 0.0:
            return base
        d = math.exp(-4.0 * p ** 1.5 / 3.0) + k * self.g_table.scalar(p)
        return base - 4.0 * k * math.sqrt(p) / d + 2.0 * k * k / (d * d)

    def normalized_phi0(self, p):
        """phi0 scaled to unit L2 norm (exact norm: sqrt(kappa))."""
        return self.phi0(p) / math.sqrt(self.kappa)

    def riccati_residual(self, p: float) -> float:
        """|w_kappa^2 - w_kappa' - (p - 1/(2 sqrt p))| with w' by finite differences.

        The identity holds for every kappa; the residual is the noise of the
        central difference with step 1e-5 only.
        """
        if p - 1e-5 <= 0.0:
            raise DomainError("riccati_residual: need p > 1e-5")
        w = self.w(p)
        wp = fd_derivative(self.w, p)
        return abs(w * w - wp - (p - 0.5 / math.sqrt(p)))

    def zero_mode_residual(self, grid: Sequence[float]) -> tuple[float, float]:
        """Max grid residuals of the zero mode, first- and second-order form.

        first:  |phi0' - w_kappa phi0| / max|phi0|   (phi0' by central differences)
        second: |-phi0'' + U_kappa phi0| / max|phi0|
        Both derivatives use the grid spacing, which must be uniform and
        positive; the outermost two points per side are excluded from the max.
        kappa = 0 raises the degenerate-input error of phi0.
        """
        ps = np.asarray(grid, dtype=float)
        if ps.ndim != 1 or ps.size < 7:
            raise DomainError("zero_mode_residual: need a 1-d grid of >= 7 points")
        if np.any(ps <= 0.0):
            raise DomainError("zero_mode_residual: grid must lie in (0, p_max]")
        h = np.diff(ps)
        if not np.allclose(h, h[0], rtol=1e-8):
            raise DomainError("zero_mode_residual: grid must be uniform")
        hh = float(h[0])
        if not hh > 0.0:
            raise DomainError("zero_mode_residual: grid spacing must be positive")
        f = self.phi0(ps)
        w = self.w(ps)
        u = self.potential(ps)
        scale = float(np.max(np.abs(f)))
        df = (f[2:] - f[:-2]) / (2.0 * hh)
        r1 = np.abs(df - (w * f)[1:-1]) / scale
        d2f = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / hh ** 2
        r2 = np.abs(-d2f + (u * f)[1:-1]) / scale
        return float(np.max(r1[1:-1])), float(np.max(r2[1:-1]))

    def hminus_nonnormalizable_check(self, p_max: float = 30.0) -> bool:
        """True iff int_0^p w_kappa turns negative and keeps decreasing below p_max.

        That makes the candidate lower-Hamiltonian zero mode e^{-int w} blow up,
        i.e. the deformed construction leaves the lower ground state unique.
        kappa = 0 returns False (w_0 = sqrt p > 0, the integral grows).
        """
        if p_max < 20.0:
            raise DomainError("hminus_nonnormalizable_check: p_max must be >= 20")
        if self.kappa == 0.0:
            return False
        n = 121
        ps = np.linspace(0.0, p_max, n)
        cum = np.zeros(n)
        for i in range(1, n):
            cum[i] = cum[i - 1] + quad(self.w, float(ps[i - 1]), float(ps[i]), tol=1e-9)
        tail = cum[-(n // 4):]
        return bool(np.all(np.diff(tail) < 0.0) and np.all(tail < 0.0))

    def residuals(self, grid) -> dict:
        r1, r2 = self.zero_mode_residual(grid)
        return {"zero_mode_first_order": r1, "zero_mode_second_order": r2,
                "robin": abs(self.kappa * self.phi0(0.0) + self._phi0_deriv_at_zero())}

    def _phi0_deriv_at_zero(self) -> float:
        # One-sided stencil matched to the p^{1/2}-power expansion at 0:
        # phi0(p) = phi0(0) + phi0'(0) p + c p^{3/2} + ..., so plain one-sided
        # differences stall at O(sqrt(h)).  Three forward slopes at h, h/4, h/16
        # eliminate the sqrt(h) and h error terms exactly; the residual is
        # O(h^{3/2}).
        h = 1e-5
        f0 = self.phi0(0.0)
        d1 = (self.phi0(h) - f0) / h
        d2 = (self.phi0(h / 4.0) - f0) / (h / 4.0)
        d3 = (self.phi0(h / 16.0) - f0) / (h / 16.0)
        e1 = 2.0 * d2 - d1
        e2 = 2.0 * d3 - d2
        return (4.0 * e2 - e1) / 3.0


def profile_to_csv(prof: DeformationProfile, ps: Sequence[float], path) -> None:
    """CSV with columns p, w_kappa, phi0, U_kappa (phi0 blank at kappa=0)."""
    ps = np.asarray(ps, dtype=float)
    w = prof.w(ps)
    u = prof.potential(ps)
    f = prof.phi0(ps) if prof.kappa > 0.0 else None
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["p", "w_kappa", "phi0", "U_kappa"])
        for i, pv in enumerate(ps):
            wr.writerow([repr(float(pv)), repr(float(w[i])),
                         repr(float(f[i])) if f is not None else "",
                         repr(float(u[i]))])
