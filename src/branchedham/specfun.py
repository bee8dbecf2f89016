"""Special functions and numerical primitives used throughout the library.

* real Lambert W on both real branches (Halley iteration, own code so the
  branch bookkeeping of the velocity inversion stays explicit),
* the scaled exponential integral G(p) = e^{-4p^{3/2}/3} int_0^p e^{4s^{3/2}/3} ds,
  evaluated without ever forming the unscaled exponential (it overflows a
  double near p ~ 45), and a table of it built by one ODE sweep, whose
  scalar and array lookups share one formula and give equal bits,
* adaptive Gauss-Kronrod quadrature with a rational substitution for
  semi-infinite upper limits,
* central finite-difference stencils.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable

import numpy as np

from ._ode import SampleCollector, solve_rk45
from .errors import ConvergenceError, DomainError

__all__ = [
    "WBranch", "lambert_w", "scaled_g", "ScaledGTable",
    "quad", "fd_derivative",
]

_INV_E = math.exp(-1.0)


class WBranch(Enum):
    """Real branches of the Lambert W function."""

    PRINCIPAL = 0   # W0,  defined on [-1/e, inf), W0(x) >= -1
    LOWER = -1      # W-1, defined on [-1/e, 0),   W-1(x) <= -1


def lambert_w(branch: WBranch, x: float) -> float:
    """Real Lambert W: the solution w of w e^w = x on the requested branch.

    Halley iteration from a branch-appropriate initial guess: the Puiseux
    series at the branch point x = -1/e, the Taylor series near 0 for the
    principal branch, and log-based asymptotics elsewhere.

    Raises DomainError outside the branch domain.
    """
    if math.isnan(x):
        raise DomainError("lambert_w: x is NaN")
    if x < -_INV_E:
        if x > -_INV_E - 4e-17:  # branch point up to rounding of 1/e itself
            x = -_INV_E
        else:
            raise DomainError(f"lambert_w: x={x!r} below branch point -1/e")

    if branch is WBranch.PRINCIPAL:
        if x == 0.0:
            return 0.0
        w = _w0_guess(x)
    else:
        if x >= 0.0:
            raise DomainError(f"lambert_w: lower branch needs x in [-1/e, 0), got {x!r}")
        w = _wm1_guess(x)

    if w == -1.0:  # exact branch point; Halley would divide by zero
        return w
    for _ in range(60):
        ew = math.exp(w)
        r = w * ew - x
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * r / (2.0 * wp1)
        if denom == 0.0:
            break
        dw = r / denom
        w -= dw
        if abs(dw) <= 1e-14 * (abs(w) + 1e-14):
            break
    return w


def _w0_guess(x: float) -> float:
    if x < -0.32:
        return _branch_point_series(x, +1.0)
    if x < 1.0:
        # W0(x) = x - x^2 + (3/2)x^3 - (8/3)x^4 near 0
        return x * (1.0 + x * (-1.0 + x * (1.5 - x * 8.0 / 3.0)))
    lx = math.log(x)
    return lx - math.log(lx)


def _wm1_guess(x: float) -> float:
    if x > -0.25:
        # W-1(x) ~ ln(-x) - ln(-ln(-x)) as x -> 0-
        l1 = math.log(-x)
        l2 = math.log(-l1)
        return l1 - l2 + l2 / l1
    return _branch_point_series(x, -1.0)


def _branch_point_series(x: float, sgn: float) -> float:
    # w = -1 +/- rho - rho^2/3 +/- (11/72) rho^3 - ..., rho = sqrt(2(ex+1))
    rho2 = 2.0 * (math.e * x + 1.0)
    rho = sgn * math.sqrt(max(rho2, 0.0))
    return -1.0 + rho * (1.0 + rho * (-1.0 / 3.0 + rho * (11.0 / 72.0 - rho * 43.0 / 540.0)))


# ---------------------------------------------------------------------------
# scaled exponential integral G(p)
# ---------------------------------------------------------------------------

# Small-p series: G = p - (4/5)p^{5/2} + (2/5)p^4 - (8/55)p^{11/2} + (16/385)p^7
_G_SERIES_CUT = 0.05
# rtol of the G sweeps: 0.1 * 1e-10 is one ulp above 1e-11, and the table
# bits keep it
_G_RTOL = 0.1 * 1e-10
_NODES_PER_UNIT = 256  # ScaledGTable node density


def _g_series(p: float) -> float:
    q = p ** 1.5
    return p * (1.0 + q * (-4.0 / 5.0 + q * (2.0 / 5.0 + q * (-8.0 / 55.0 + q * 16.0 / 385.0))))


def _g_rhs(t: float, y: tuple) -> tuple:
    return (1.0 - 2.0 * math.sqrt(t) * y[0],)


def scaled_g(p: float) -> float:
    """G(p) = e^{-4p^{3/2}/3} * int_0^p e^{4s^{3/2}/3} ds for p >= 0.

    Computed as the solution of the linear ODE G' = 1 - 2 sqrt(p) G with
    G(0) = 0 (series start below p=0.05), so the overflowing exponential is
    never formed.  Relative accuracy ~1e-10.
    """
    if p < 0.0:
        raise DomainError(f"scaled_g: p={p!r} must be >= 0")
    if p <= _G_SERIES_CUT:
        return _g_series(p)
    res = solve_rk45(_g_rhs, _G_SERIES_CUT, [_g_series(_G_SERIES_CUT)], p,
                     rtol=_G_RTOL, atol=1e-16)
    return float(res.y[0])


class ScaledGTable:
    """Immutable cubic-Hermite table of G on [0, p_max]; thread-safe reads.

    The series fills the nodes up to its cutoff and one RK45 sweep of
    G' = 1 - 2 sqrt(p) G, read off its dense output, fills the rest; node
    derivatives come from the same ODE, so interpolation is O(h^4) accurate.
    `__call__` is `scalar` transcribed elementwise: both give equal bits.
    """

    def __init__(self, p_max: float = 60.0):
        if p_max <= 1.0:
            raise DomainError("ScaledGTable: p_max must exceed 1")
        n = int(p_max * _NODES_PER_UNIT) + 1
        self.p_max = float(p_max)
        self._h = self.p_max / (n - 1)
        self._ps = np.linspace(0.0, p_max, n)
        # the sweep ends at the last node and its dense segments tile
        # [cutoff, p_max], so the collector takes every node above the cutoff
        small = self._ps <= _G_SERIES_CUT
        coll = SampleCollector(self._ps[~small])
        solve_rk45(_g_rhs, _G_SERIES_CUT, [_g_series(_G_SERIES_CUT)], self.p_max,
                   rtol=_G_RTOL, atol=1e-16, on_dense=coll)
        self._g = np.array([_g_series(p) for p in self._ps[small].tolist()]
                           + [v[0] for v in coll.values])
        del coll  # its samples go before the float lists below are made
        self._dg = 1.0 - 2.0 * np.sqrt(self._ps) * self._g
        # float copies for `scalar`: indexing an array yields numpy scalars,
        # which would carry numpy call overhead into every caller's arithmetic
        self._g_list = self._g.tolist()
        self._dg_list = self._dg.tolist()
        self._i_last = n - 2
        # hand over from the series to the table exactly at a node, where the
        # Hermite interpolant is exact; a mid-interval seam would inject an
        # O(h^4) jump that difference quotients amplify
        self._cut = self._h * math.ceil(_G_SERIES_CUT / self._h)

    def scalar(self, p: float) -> float:
        """Pure-Python evaluation on floats; for stepper loops.

        Node i sits at i * h, which is exactly the linspace abscissa for every
        node left of the last one (the tests check this).
        """
        if p < 0.0 or p > self.p_max:
            raise DomainError(f"ScaledGTable: p={p!r} outside [0, {self.p_max}]")
        if p <= self._cut:
            return _g_series(p)
        h = self._h
        i = int(p / h)
        if i > self._i_last:
            i = self._i_last
        t = (p - i * h) / h
        t1 = 1.0 - t
        h00 = (1.0 + 2.0 * t) * t1 * t1
        h10 = t * t1 * t1
        h01 = t * t * (3.0 - 2.0 * t)
        h11 = t * t * (t - 1.0)
        g, dg = self._g_list, self._dg_list
        return (h00 * g[i] + h10 * h * dg[i]
                + h01 * g[i + 1] + h11 * h * dg[i + 1])

    def __call__(self, p):
        p_arr = np.asarray(p, dtype=float)
        if np.any(p_arr < 0.0) or np.any(p_arr > self.p_max):
            raise DomainError(f"ScaledGTable: p outside [0, {self.p_max}]")
        scalar = p_arr.ndim == 0
        p_arr = np.atleast_1d(p_arr)
        out = np.empty_like(p_arr)
        small = p_arr <= self._cut
        # the series on Python floats, as numpy's array power rounds differently
        out[small] = [_g_series(v) for v in p_arr[small].tolist()]
        h = self._h
        pb = p_arr[~small]
        i = np.minimum((pb / h).astype(int), self._i_last)
        t = (pb - i * h) / h
        t1 = 1.0 - t
        h00 = (1.0 + 2.0 * t) * t1 * t1
        h10 = t * t1 * t1
        h01 = t * t * (3.0 - 2.0 * t)
        h11 = t * t * (t - 1.0)
        out[~small] = (h00 * self._g[i] + h10 * h * self._dg[i]
                       + h01 * self._g[i + 1] + h11 * h * self._dg[i + 1])
        return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

# 7-point Gauss / 15-point Kronrod nodes and weights on [-1, 1]
_XGK = (
    0.991455371120813, 0.949107912342759, 0.864864423359769, 0.741531185599394,
    0.586087235467691, 0.405845151377397, 0.207784955007898, 0.0,
)
_WGK = (
    0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
    0.169004726639267, 0.190350578064785, 0.204432940075298, 0.209482141084728,
)
_WG = (0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469)


def _gk15(f, a: float, b: float) -> tuple[float, float]:
    c = 0.5 * (a + b)
    hh = 0.5 * (b - a)
    fc = f(c)
    res_g = _WG[3] * fc
    res_k = _WGK[7] * fc
    for j in range(7):
        fx1 = f(c - hh * _XGK[j])
        fx2 = f(c + hh * _XGK[j])
        res_k += _WGK[j] * (fx1 + fx2)
        if j % 2 == 1:  # Gauss nodes are the odd Kronrod nodes
            res_g += _WG[(j - 1) // 2] * (fx1 + fx2)
    err = abs(res_k - res_g) * abs(hh)
    return res_k * hh, (200.0 * err) ** 1.5 if err < 1.0 else err


def quad(f: Callable[[float], float], a: float, b: float, tol: float = 1e-10,
         max_panels: int = 2000) -> float:
    """Adaptive panel integration of f on (a, b); b may be math.inf.

    Meets an absolute-or-relative tolerance (whichever is larger); an
    infinite upper limit is mapped to (0, 1) by p = a + u/(1-u).  Raises
    ConvergenceError when the panel budget is exhausted.
    """
    if tol <= 0.0:
        raise DomainError("quad: tol must be positive")
    if math.isinf(b):
        g = lambda u: f(a + u / (1.0 - u)) / (1.0 - u) ** 2
        return quad(g, 0.0, 1.0 - 1e-14, tol=tol, max_panels=max_panels)
    if not (b > a):
        if b == a:
            return 0.0
        raise DomainError("quad: need b > a")

    # panels kept as (err, a, b, val); split the worst until the sum converges
    val, err = _gk15(f, a, b)
    panels = [(err, a, b, val)]
    while True:
        total = math.fsum(p[3] for p in panels)
        total_err = math.fsum(p[0] for p in panels)
        if total_err <= max(tol, tol * abs(total)):
            return total
        if len(panels) >= max_panels:
            raise ConvergenceError(
                f"quad: no convergence with {max_panels} panels (err~{total_err:.2e})")
        worst = max(range(len(panels)), key=lambda i: panels[i][0])
        _, pa, pb, _ = panels.pop(worst)
        mid = 0.5 * (pa + pb)
        v1, e1 = _gk15(f, pa, mid)
        v2, e2 = _gk15(f, mid, pb)
        panels.append((e1, pa, mid, v1))
        panels.append((e2, mid, pb, v2))


def fd_derivative(f: Callable[[float], float], p: float, order: int = 1,
                  h: float = 1e-5) -> float:
    """Central-difference derivative of order 1 or 2, O(h^2) accurate."""
    if h <= 0.0:
        raise DomainError("fd_derivative: h must be positive")
    if order == 1:
        return (f(p + h) - f(p - h)) / (2.0 * h)
    if order == 2:
        return (f(p + h) - 2.0 * f(p) + f(p - h)) / (h * h)
    raise DomainError(f"fd_derivative: order must be 1 or 2, got {order!r}")
