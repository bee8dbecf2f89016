"""Momentum-space Schrodinger solver on the half-line p >= 0.

Solves -psi'' + U(p) psi = E psi for the supersymmetric pair
U = p +- 1/(2 sqrt p) and for the deformed upper profile U_kappa, under
Dirichlet, Neumann or Robin data at p = 0.

Method: outward shooting.  The 1/sqrt(p) singularity degrades naive
integration from 0, so every solve starts at p0 = 1e-6 from a Frobenius
series in powers of p^{1/2},

    psi = a0 (1 +- (2/3) p^{3/2} + ...) + a2 (p +- (2/15) p^{5/2} + ...),

whose coefficients follow from matching psi'' = (U - E) psi order by order
(the exact ground state e^{-2p^{3/2}/3} reproduces the a0-series of the
lower profile).  The far boundary imposes psi(p_max) = 0 with
p_max = E + 25 by default; the linear tail makes the error beyond the
turning point Airy-exponentially small, and every eigenvalue solve verifies
this by re-solving with doubled p_max.

Each shot also counts the sign changes of psi on (0, p_max].  Since
psi(p0) > 0 for every boundary condition, that count is N(E), the number of
levels below E (Sturm oscillation theorem), and its parity is the sign of
the normalized far-boundary mismatch.  Spectra isolate levels by bisecting
the count over a fixed energy grid; bisection on the mismatch sign refines
each isolated level.  Eigenfunctions are then rebuilt from a matched
outward/inward pair so the classically forbidden tail is clean, resampled
to a uniform grid, and Simpson-normalized.

Solver objects are immutable after construction; independent solves can run
concurrently.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

# the Dormand-Prince 5(4) tableau; the first three stages keep their
# coefficients as literals, which compile to constants in the stepper loop
from ._ode import (_A41, _A42, _A43, _A51, _A52, _A53, _A54, _A61, _A62, _A63,
                   _A64, _A65, _A71, _A73, _A74, _A75, _A76, _B41, _B43, _B44,
                   _B45, _B46, _B47, _D1, _D3, _D4, _D5, _D6, _D7)
from .deformation import DeformationProfile
from .errors import (ConvergenceError, DomainError, NoSignChangeError,
                     ZeroEnergyError)

__all__ = [
    "BoundaryCondition", "PotentialProfile", "LadderOperator", "EigenSolution",
    "ShootResult", "shoot", "solve_eigenvalue", "spectrum", "apply_ladder",
    "boundary_term", "classify_boundary", "eigensolution_to_csv",
    "eigensolution_header", "spectrum_to_json",
]

_P_START = 1e-6          # Frobenius handoff point
_DEFAULT_MARGIN = 25.0   # p_max = E + margin
_RESCALE_LIMIT = 1e250
_MAX_GRID = 10 ** 6      # spectrum grid points; bounds the grid's memory


@dataclass(frozen=True)
class BoundaryCondition:
    """Boundary data at p = 0: psi(0)=0, psi'(0)=0, or kappa psi(0)+psi'(0)=0."""

    kind: str                 # "dirichlet" | "neumann" | "robin"
    kappa: float = 0.0

    def __post_init__(self):
        if self.kind not in ("dirichlet", "neumann", "robin"):
            raise DomainError(f"BoundaryCondition: unknown kind {self.kind!r}")

    @staticmethod
    def dirichlet() -> "BoundaryCondition":
        return BoundaryCondition("dirichlet")

    @staticmethod
    def neumann() -> "BoundaryCondition":
        return BoundaryCondition("neumann")

    @staticmethod
    def robin(kappa: float) -> "BoundaryCondition":
        return BoundaryCondition("robin", kappa)

    def init_values(self) -> tuple[float, float]:
        """(psi(0), psi'(0)) seeds; Robin(0) degenerates to Neumann."""
        if self.kind == "dirichlet":
            return 0.0, 1.0
        if self.kind == "neumann":
            return 1.0, 0.0
        return 1.0, -float(self.kappa)


class LadderOperator(Enum):
    A = "a"             # d/dp + sqrt(p)
    ADAGGER = "adagger"  # -d/dp + sqrt(p)


@dataclass(frozen=True)
class PotentialProfile:
    """Half-line potential U(p) with its p->0 structure made explicit.

    sign is the coefficient s in the singular part s/(2 sqrt p); shift0 is
    the regular part of U at p=0+ (nonzero only for the deformed profile,
    where it equals 2 kappa^2).  Both feed the Frobenius series start.
    """

    kind: str            # "susy_minus" | "susy_plus" | "deformed_plus"
    sign: float
    shift0: float = 0.0
    deformation: DeformationProfile | None = None

    @staticmethod
    def susy_minus() -> "PotentialProfile":
        return PotentialProfile("susy_minus", -1.0)

    @staticmethod
    def susy_plus() -> "PotentialProfile":
        return PotentialProfile("susy_plus", +1.0)

    @staticmethod
    def deformed_plus(kappa: float) -> "PotentialProfile":
        deformation = DeformationProfile(kappa)
        return PotentialProfile("deformed_plus", +1.0, shift0=deformation.shift0,
                                deformation=deformation)

    def u(self, p: float) -> float:
        return self.u_callable()(p)

    def u_callable(self) -> Callable[[float], float]:
        if self.kind == "susy_minus":
            return lambda p: p - 0.5 / math.sqrt(p)
        if self.kind == "susy_plus":
            return lambda p: p + 0.5 / math.sqrt(p)
        return self.deformation.potential_scalar


@dataclass
class ShootResult:
    mismatch: float           # psi(p_max) / max |psi| along the way
    n_rescale: int
    log_scale: float          # accumulated ln of the rescaling factors
    n_zeros: int              # sign changes of psi on (0, p_max]: N(E)


@dataclass
class EigenSolution:
    """Converged bound state on a uniform momentum grid."""

    E: float
    bc: BoundaryCondition
    grid: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray
    norm: float
    diagnostics: dict = field(default_factory=dict)


def _frobenius_init(profile: PotentialProfile, E: float,
                    bc: BoundaryCondition) -> tuple[float, float]:
    """Series values (psi, psi') at p0 = _P_START.

    Coefficients a_n of psi = sum a_n p^{n/2} obey
    a_{m+4} = [ (s/2) a_{m+1} + a_{m-2} - E_eff a_m ] * 4 / ((m+4)(m+2)),
    which folds in the linear p term and the constant part of the potential
    via E_eff = E - shift0.  Remaining smooth terms are O(sqrt p) and
    contribute O(p0^{5/2}) here: negligible at p0 = 1e-6.
    """
    s = profile.sign
    e_eff = E - profile.shift0
    p0, n_terms = _P_START, 15  # coefficients a_0 .. a_15
    a = [0.0] * (n_terms + 1)
    a[0], a[2] = bc.init_values()
    a[3] = (2.0 / 3.0) * s * a[0]
    for m in range(0, n_terms - 3):
        am2 = a[m - 2] if m >= 2 else 0.0
        a[m + 4] = (0.5 * s * a[m + 1] + am2 - e_eff * a[m]) * 4.0 \
            / ((m + 4) * (m + 2))
    sq = math.sqrt(p0)
    psi = 0.0
    dpsi = 0.0
    for n in range(n_terms, -1, -1):
        if a[n] == 0.0:
            continue
        pw = sq ** n
        psi += a[n] * pw
        dpsi += a[n] * (0.5 * n) * pw / p0
    return psi, dpsi


# 5th-minus-4th order weights for the error estimate
_E1 = _A71 - _B41
_E3 = _A73 - _B43
_E4 = _A74 - _B44
_E5 = _A75 - _B45
_E6 = _A76 - _B46
_E7 = -_B47


def _integrate_linear(u: Callable[[float], float], E: float, p_from: float,
                      p_to: float, y: float, dy: float, rtol: float,
                      grid: np.ndarray | None = None):
    """Adaptive RK45 for psi'' = (U - E) psi from p_from to p_to.

    Returns (psi, dpsi, runmax, n_rescale, log_scale, grid_psi, grid_dpsi,
    n_zeros), where n_zeros counts the sign changes of psi between accepted
    steps (rescaling divides by a positive number and keeps the sign).
    grid, when given, must be sorted in the direction of integration and lie
    inside [p_from, p_to]; values are filled from the quartic dense output,
    and psi is rescaled against overflow only when no grid is given.
    Scalar-pair state keeps this loop fast enough for eigenvalue bisection.
    """
    direction = 1.0 if p_to >= p_from else -1.0
    t = p_from
    runmax = abs(y)
    n_rescale = 0
    n_zeros = 0
    log_scale = 0.0
    g_psi = np.empty(len(grid)) if grid is not None else None
    g_dpsi = np.empty(len(grid)) if grid is not None else None
    gi = 0
    h = 1e-4
    span = abs(p_to - p_from)
    hmax = min(1.0, span)
    err_prev = 1.0

    f1y = dy
    f1d = (u(t) - E) * y

    while direction * (p_to - t) > 1e-300:
        h = min(h, abs(p_to - t), hmax)
        hs = direction * h

        y2 = y + hs * 0.2 * f1y
        d2 = dy + hs * 0.2 * f1d
        f2y, f2d = d2, (u(t + 0.2 * hs) - E) * y2

        y3 = y + hs * (0.075 * f1y + 0.225 * f2y)
        d3 = dy + hs * (0.075 * f1d + 0.225 * f2d)
        f3y, f3d = d3, (u(t + 0.3 * hs) - E) * y3

        y4 = y + hs * (_A41 * f1y + _A42 * f2y + _A43 * f3y)
        d4 = dy + hs * (_A41 * f1d + _A42 * f2d + _A43 * f3d)
        f4y, f4d = d4, (u(t + 0.8 * hs) - E) * y4

        y5 = y + hs * (_A51 * f1y + _A52 * f2y + _A53 * f3y + _A54 * f4y)
        d5 = dy + hs * (_A51 * f1d + _A52 * f2d + _A53 * f3d + _A54 * f4d)
        f5y, f5d = d5, (u(t + (8.0 / 9.0) * hs) - E) * y5

        y6 = y + hs * (_A61 * f1y + _A62 * f2y + _A63 * f3y + _A64 * f4y + _A65 * f5y)
        d6 = dy + hs * (_A61 * f1d + _A62 * f2d + _A63 * f3d + _A64 * f4d + _A65 * f5d)
        u_end = u(t + hs) - E
        f6y, f6d = d6, u_end * y6

        dy5y = hs * (_A71 * f1y + _A73 * f3y + _A74 * f4y + _A75 * f5y + _A76 * f6y)
        dy5d = hs * (_A71 * f1d + _A73 * f3d + _A74 * f4d + _A75 * f5d + _A76 * f6d)
        ynew = y + dy5y
        dnew = dy + dy5d
        f7y, f7d = dnew, u_end * ynew

        erry = hs * (_E1 * f1y + _E3 * f3y + _E4 * f4y + _E5 * f5y
                     + _E6 * f6y + _E7 * f7y)
        errd = hs * (_E1 * f1d + _E3 * f3d + _E4 * f4d + _E5 * f5d
                     + _E6 * f6d + _E7 * f7d)
        atol = 1e-12 * max(1.0, runmax)
        sy = atol + rtol * max(abs(y), abs(ynew))
        sd = atol + rtol * max(abs(dy), abs(dnew))
        err = math.sqrt(0.5 * ((erry / sy) ** 2 + (errd / sd) ** 2))

        if err > 1.0 and h > 1e-12:
            h *= max(0.2, 0.9 * err ** -0.2)
            continue

        t_new = t + hs
        if grid is not None and gi < len(grid):
            r3y = hs * f1y - dy5y
            r3d = hs * f1d - dy5d
            r4y = dy5y - hs * f7y - r3y
            r4d = dy5d - hs * f7d - r3d
            r5y = hs * (_D1 * f1y + _D3 * f3y + _D4 * f4y + _D5 * f5y
                        + _D6 * f6y + _D7 * f7y)
            r5d = hs * (_D1 * f1d + _D3 * f3d + _D4 * f4d + _D5 * f5d
                        + _D6 * f6d + _D7 * f7d)
            lo, hi = (t, t_new) if direction > 0 else (t_new, t)
            while gi < len(grid):
                q = grid[gi]
                if not (lo - 1e-12 <= q <= hi + 1e-12):
                    break
                th = (q - t) / hs
                th1 = 1.0 - th
                g_psi[gi] = y + th * (dy5y + th1 * (r3y + th * (r4y + th1 * r5y)))
                g_dpsi[gi] = dy + th * (dy5d + th1 * (r3d + th * (r4d + th1 * r5d)))
                gi += 1

        # (ynew < 0) != (y < 0), as compare-and-jumps, which are cheaper
        if ynew < 0.0:
            if not y < 0.0:
                n_zeros += 1
        elif y < 0.0:
            n_zeros += 1
        t, y, dy = t_new, ynew, dnew
        f1y, f1d = f7y, f7d
        ay = abs(y)
        if ay > runmax:
            runmax = ay
        if ay > _RESCALE_LIMIT and grid is None:
            y /= runmax
            dy /= runmax
            f1y /= runmax
            f1d /= runmax
            log_scale += math.log(runmax)
            n_rescale += 1
            runmax = abs(y)

        fac = 0.9 * err ** -0.2 * err_prev ** 0.08 if err > 0.0 else 5.0
        h *= min(5.0, max(0.2, fac))
        err_prev = max(err, 1e-10)

    return y, dy, runmax, n_rescale, log_scale, g_psi, g_dpsi, n_zeros


def shoot(profile: PotentialProfile, E: float, bc: BoundaryCondition,
          p_max: float | None = None, tol: float = 1e-9) -> ShootResult:
    """Outward shot from the Frobenius start; mismatch = psi(p_max)/max|psi|.

    Sign changes of the mismatch in E bracket eigenvalues, and n_zeros
    counts the levels below E.  The forbidden region grows like
    exp(+(2/3)(p_max - E)^{3/2}); an overflow guard renormalizes psi on the
    way and records the accumulated scale.
    """
    E = float(E)  # a numpy scalar here would slow every step of the loop
    p_max = E + _DEFAULT_MARGIN if p_max is None else float(p_max)
    if p_max <= E:
        raise DomainError(f"shoot: p_max={p_max!r} must exceed E={E!r}")
    if tol <= 0.0:
        raise DomainError("shoot: tol must be positive")
    y0, dy0 = _frobenius_init(profile, E, bc)
    y, dy, runmax, n_rescale, log_scale, _, _, n_zeros = \
        _integrate_linear(profile.u_callable(), E, _P_START, p_max, y0, dy0, tol)
    return ShootResult(y / runmax, n_rescale, log_scale, n_zeros)


def _bisect_eigenvalue(profile, bc, e_lo, e_hi, tol_e, p_max, tol):
    f_lo = shoot(profile, e_lo, bc, p_max, tol).mismatch
    f_hi = shoot(profile, e_hi, bc, p_max, tol).mismatch
    if f_lo == 0.0:
        return e_lo, 0.0
    if f_hi == 0.0:
        return e_hi, 0.0
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise NoSignChangeError(
            f"mismatch has equal signs at bracket ({e_lo!r}, {e_hi!r})")
    for _ in range(300):
        if e_hi - e_lo <= tol_e:
            break
        mid = 0.5 * (e_lo + e_hi)
        fm = shoot(profile, mid, bc, p_max, tol).mismatch
        if fm == 0.0:
            return mid, 0.0
        if (f_lo < 0.0) != (fm < 0.0):
            e_hi, f_hi = mid, fm
        else:
            e_lo, f_lo = mid, fm
    else:
        raise ConvergenceError("eigenvalue bisection exceeded its budget")
    return 0.5 * (e_lo + e_hi), e_hi - e_lo


def _turning_point(u, E, p_max) -> float:
    """Outer classical turning point: last upward crossing of U(p) = E."""
    ps = np.linspace(_P_START, p_max, 400)
    vals = np.array([u(float(q)) - E for q in ps])
    idx = None
    for i in range(len(ps) - 1):
        if vals[i] <= 0.0 < vals[i + 1]:
            idx = i
    if idx is None:
        return min(1.0, 0.25 * p_max)
    a, b = float(ps[idx]), float(ps[idx + 1])
    fa = vals[idx]
    for _ in range(80):
        m = 0.5 * (a + b)
        fm = u(m) - E
        if fm == 0.0:
            return m
        if (fa <= 0.0) == (fm <= 0.0):
            a, fa = m, fm
        else:
            b = m
    return 0.5 * (a + b)


def solve_eigenvalue(profile: PotentialProfile, bc: BoundaryCondition,
                     bracket: tuple[float, float], tol_E: float = 1e-7,
                     p_max: float | None = None, tol: float = 1e-9,
                     check_doubling: bool = True,
                     grid_size: int = 4001) -> EigenSolution:
    """Bisect the far-boundary mismatch to an eigenvalue; build the state.

    The eigenfunction is assembled from an outward solve up to the outer
    turning point and an inward solve from p_max (so the forbidden tail is
    not contaminated by the growing solution), matched there, resampled to a
    uniform grid of `grid_size` points, Simpson-normalized, and sign-fixed
    to be positive at its largest interior maximum.
    """
    e_lo, e_hi = float(bracket[0]), float(bracket[1])
    if not e_hi > e_lo:
        raise DomainError("solve_eigenvalue: need bracket[1] > bracket[0]")
    p_max = e_hi + _DEFAULT_MARGIN if p_max is None else float(p_max)
    e_star, width = _bisect_eigenvalue(profile, bc, e_lo, e_hi, tol_E, p_max, tol)
    mismatch = shoot(profile, e_star, bc, p_max, tol).mismatch

    doubling_shift = math.nan
    if check_doubling:
        wide = max(50.0 * tol_E, 1e-5)
        try:
            e2, _ = _bisect_eigenvalue(profile, bc, e_star - wide,
                                       e_star + wide, tol_E, 2.0 * p_max, tol)
        except NoSignChangeError:
            e2, _ = _bisect_eigenvalue(profile, bc, e_lo, e_hi, tol_E,
                                       2.0 * p_max, tol)
        doubling_shift = abs(e2 - e_star)

    u = profile.u_callable()
    grid = np.linspace(_P_START, p_max, grid_size)
    p_match = _turning_point(u, e_star, p_max)
    # snap the match point to a grid node so both halves share it
    j = int(np.searchsorted(grid, p_match))
    j = min(max(j, 2), grid_size - 3)
    p_match = float(grid[j])

    y0, dy0 = _frobenius_init(profile, e_star, bc)
    out = _integrate_linear(u, e_star, _P_START, p_match, y0, dy0, tol,
                            grid=grid[:j + 1])
    y_out, dy_out = out[0], out[1]
    psi_left, dpsi_left = out[5], out[6]

    dw = math.sqrt(max(u(p_max) - e_star, 1e-12))
    inn = _integrate_linear(u, e_star, p_max, p_match, 1.0, -dw, tol,
                            grid=grid[::-1][: grid_size - j])
    y_in, dy_in = inn[0], inn[1]
    psi_right = inn[5][::-1]
    dpsi_right = inn[6][::-1]

    if y_in == 0.0:
        raise ConvergenceError("inward solution vanished at the match point")
    scale = y_out / y_in
    match_defect = abs(dy_in * scale - dy_out) / max(abs(dy_out), 1.0)

    psi = np.concatenate([psi_left[:-1], psi_right * scale])
    dpsi = np.concatenate([dpsi_left[:-1], dpsi_right * scale])

    nrm = math.sqrt(_simpson(psi * psi, grid))
    psi /= nrm
    dpsi /= nrm
    if psi[int(np.argmax(np.abs(psi)))] < 0.0:
        psi = -psi
        dpsi = -dpsi
    norm_check = _simpson(psi * psi, grid)

    return EigenSolution(
        E=e_star, bc=bc, grid=grid, psi=psi, dpsi=dpsi, norm=norm_check,
        diagnostics={
            "mismatch_at_pmax": mismatch,
            "pmax_doubling_shift": doubling_shift,
            "bisection_width": width,
            "match_defect": match_defect,
            "p_match": p_match,
            "p_max": p_max,
        })


def _simpson(f: np.ndarray, x: np.ndarray) -> float:
    n = len(x)
    h = (x[-1] - x[0]) / (n - 1)
    if n % 2 == 1:
        s = f[0] + f[-1] + 4.0 * np.sum(f[1:-1:2]) + 2.0 * np.sum(f[2:-2:2])
        return float(s * h / 3.0)
    s = f[0] + f[-2] + 4.0 * np.sum(f[1:-2:2]) + 2.0 * np.sum(f[2:-3:2])
    return float(s * h / 3.0 + 0.5 * h * (f[-2] + f[-1]))


def spectrum(profile: PotentialProfile, bc: BoundaryCondition, E_max: float,
             tol_E: float = 1e-7, scan_step: float = 0.05,
             p_max: float | None = None, tol: float = 1e-9) -> list[EigenSolution]:
    """All eigenvalues below E_max; ascending, no duplicates, complete.

    Levels are isolated on the energy grid -2 scan_step, -scan_step, ...,
    E_max by bisecting the shot zero count N(E) over grid indices, so cells
    that hold no level are never shot.  A cell holding one level is solved
    with that cell as the bracket; a cell holding several is split by
    bisecting N(E) in energy until each piece holds one.  The number of
    levels returned equals N(E_max) - N(-2 scan_step), or ConvergenceError
    is raised.  The grid starts slightly below zero, which is safe because
    both spectra are non-negative under Dirichlet or Neumann data.
    """
    if not math.isfinite(E_max):
        raise DomainError("spectrum: E_max must be finite")
    if not scan_step > 0.0:
        raise DomainError("spectrum: scan_step must be positive")
    if E_max < 0.0:
        return []
    if E_max / scan_step + 2.0 > _MAX_GRID:
        raise DomainError(f"spectrum: E_max={E_max!r} needs more than {_MAX_GRID} "
                          f"grid points at scan_step={scan_step!r}")
    if p_max is None:
        p_max = E_max + _DEFAULT_MARGIN
    grid = [-2.0 * scan_step]
    while grid[-1] < E_max:
        grid.append(min(grid[-1] + scan_step, E_max))
    counts: dict[int, int] = {}

    def count(i: int) -> int:
        if i not in counts:
            counts[i] = shoot(profile, grid[i], bc, p_max, tol).n_zeros
        return counts[i]

    found: list[EigenSolution] = []

    def split(e_lo: float, n_lo: int, e_hi: float, n_hi: int) -> None:
        # (e_lo, e_hi] holds n_hi - n_lo >= 1 levels
        if n_hi - n_lo == 1:
            sol = solve_eigenvalue(profile, bc, (e_lo, e_hi), tol_E,
                                   p_max=p_max, tol=tol, check_doubling=False)
            if not found or abs(sol.E - found[-1].E) > tol_E:
                found.append(sol)
            return
        if e_hi - e_lo <= tol_E:
            raise ConvergenceError(
                f"spectrum: {n_hi - n_lo} levels within tol_E of {e_lo!r}")
        mid = 0.5 * (e_lo + e_hi)
        n_mid = shoot(profile, mid, bc, p_max, tol).n_zeros
        if not n_lo <= n_mid <= n_hi:
            raise ConvergenceError(f"spectrum: zero count not monotone at {mid!r}")
        if n_mid > n_lo:
            split(e_lo, n_lo, mid, n_mid)
        if n_hi > n_mid:
            split(mid, n_mid, e_hi, n_hi)

    def isolate(i: int, j: int) -> None:
        n_i, n_j = count(i), count(j)
        if n_j < n_i:
            raise ConvergenceError(
                f"spectrum: zero count not monotone on [{grid[i]!r}, {grid[j]!r}]")
        if n_i == n_j:
            return
        if j - i == 1:
            split(grid[i], n_i, grid[j], n_j)
            return
        m = (i + j) // 2
        isolate(i, m)
        isolate(m, j)

    last = len(grid) - 1
    isolate(0, last)
    if len(found) != count(last) - count(0):
        raise ConvergenceError(
            f"spectrum: found {len(found)} levels below {E_max!r}, zero count "
            f"says {count(last) - count(0)}")
    return found


def apply_ladder(op: LadderOperator, sol: EigenSolution,
                 normalize: bool = True) -> np.ndarray:
    """a psi = psi' + sqrt(p) psi (A) or -psi' + sqrt(p) psi (ADAGGER).

    Uses the stored derivative samples (no re-differencing).  With
    normalize=True the result is divided by sqrt(E), which maps degenerate
    partner states onto each other with equal norms; that is ill-defined on
    a zero mode and raises ZeroEnergyError.
    """
    root = np.sqrt(sol.grid)
    if op is LadderOperator.A:
        out = sol.dpsi + root * sol.psi
    elif op is LadderOperator.ADAGGER:
        out = -sol.dpsi + root * sol.psi
    else:
        raise DomainError(f"apply_ladder: unknown operator {op!r}")
    if normalize:
        if sol.E <= 1e-10:
            raise ZeroEnergyError("cannot normalize a ladder image by 1/sqrt(E) at E=0")
        out = out / math.sqrt(sol.E)
    return out


def boundary_term(chi: EigenSolution, psi: EigenSolution) -> float:
    """psi (d/dp)chi - chi (d/dp)psi at p = 0, from the first grid samples.

    Vanishes when both states are Dirichlet or both Neumann; a nonzero value
    for a mixed pair is exactly the obstruction that forces the
    Dirichlet (+) Neumann superselection split.  The library never builds
    mixed-sector superposition objects.
    """
    if len(chi.grid) != len(psi.grid) or abs(chi.grid[0] - psi.grid[0]) > 1e-12:
        raise DomainError("boundary_term: incompatible grids")
    return float(psi.psi[0] * chi.dpsi[0] - chi.psi[0] * psi.dpsi[0])


def classify_boundary(values: np.ndarray) -> str:
    """'dirichlet' when the first sample is below 1e-3 max|values|."""
    scale = float(np.max(np.abs(values)))
    if scale == 0.0:
        raise DomainError("classify_boundary: zero function")
    return "dirichlet" if abs(float(values[0])) < 1e-3 * scale else "neumann"


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def eigensolution_header(sol: EigenSolution) -> dict:
    return {
        "E": sol.E,
        "bc": {"kind": sol.bc.kind, "kappa": sol.bc.kappa},
        "p_min": float(sol.grid[0]),
        "p_max": float(sol.grid[-1]),
        "n_grid": int(len(sol.grid)),
        "norm": sol.norm,
        "diagnostics": {k: (None if isinstance(v, float) and math.isnan(v) else v)
                        for k, v in sol.diagnostics.items()},
    }


def eigensolution_to_csv(sol: EigenSolution, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["p", "psi", "dpsi"])
        for p, f, df in zip(sol.grid, sol.psi, sol.dpsi):
            w.writerow([repr(float(p)), repr(float(f)), repr(float(df))])


def spectrum_to_json(sols: list[EigenSolution], path) -> None:
    with open(path, "w") as fh:
        json.dump([eigensolution_header(s) for s in sols], fh, indent=1,
                  allow_nan=False)
        fh.write("\n")
