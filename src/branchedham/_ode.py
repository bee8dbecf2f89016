"""Embedded Dormand-Prince 5(4) integrator with dense output and event location.

Internal plumbing shared by the trajectory integrators and the scaled
exponential-integral ODE.  State is a tuple of Python floats, which keeps the
per-stage arithmetic free of numpy call overhead; tolerances follow
the usual mixed absolute/relative convention.  Events are located on the
quartic dense-output interpolant by bisection, which keeps switch points
accurate to ~1e-13 in time.

The right-hand side may be mildly non-Lipschitz at an event surface (branch
cusps behave like sqrt(p_c - |p|)); the controller is therefore allowed to
force-accept a step once the step size hits a hard floor, counting such
steps instead of aborting.  Genuine stalls still raise StepFailureError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import StepFailureError

# Dormand-Prince 5(4) tableau
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_A71, _A73, _A74, _A75, _A76 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# embedded 4th-order weights
_B41, _B43, _B44, _B45, _B46, _B47 = (
    5179 / 57600, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
# dense-output coefficients (Hairer's dopri5 rcont5)
_D1 = -12715105075 / 11282082432
_D3 = 87487479700 / 32700410799
_D4 = -10690763975 / 1880347072
_D5 = 701980252875 / 199316789632
_D6 = -1453857185 / 822651844
_D7 = 69997945 / 29380423


@dataclass
class Event:
    """Terminal event: root of ``g(t, y)`` crossed in the given direction.

    direction: +1 fires on negative-to-positive crossings, -1 on the
    opposite.
    """

    g: Callable[[float, tuple], float]
    direction: int


class DenseSegment:
    """Quartic interpolant valid on [t0, t1] (h is the underlying step)."""

    __slots__ = ("t0", "t1", "h", "_r1", "_r2", "_r3", "_r4", "_r5")

    def __init__(self, t0, t1, h, r1, r2, r3, r4, r5):
        self.t0, self.t1, self.h = t0, t1, h
        self._r1, self._r2, self._r3, self._r4, self._r5 = r1, r2, r3, r4, r5

    def __call__(self, t: float) -> tuple:
        th = (t - self.t0) / self.h
        th1 = 1.0 - th
        return tuple([a + th * (b + th1 * (c + th * (d + th1 * e)))
                      for a, b, c, d, e in zip(self._r1, self._r2, self._r3,
                                               self._r4, self._r5)])

    def trimmed(self, t_end: float) -> "DenseSegment":
        return DenseSegment(self.t0, t_end, self.h,
                            self._r1, self._r2, self._r3, self._r4, self._r5)


@dataclass
class OdeResult:
    status: str  # "reached" | "event"
    t: float
    y: np.ndarray
    event_index: int | None = None
    n_steps: int = 0
    n_forced: int = 0


def solve_rk45(
    f: Callable[[float, tuple], Sequence[float]],
    t0: float,
    y0: Sequence[float],
    t1: float,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    events: Sequence[Event] = (),
    on_dense: Callable[[DenseSegment], None] | None = None,
    first_step: float | None = None,
) -> OdeResult:
    """Integrate y' = f(t, y) from t0 to t1 (t1 may be below t0).

    f receives the state as a tuple and may return any sequence of floats
    (a tuple is fastest).  Stops at t1 or at the first event root, whichever
    comes first.  When ``on_dense`` is given it is called once per accepted
    step (trimmed to the event time on the final step) so callers can sample
    the solution at arbitrary times without constraining the step sequence.
    """
    y = tuple(map(float, y0))
    n = len(y)
    t = t0
    direction = 1.0 if t1 >= t0 else -1.0
    span = abs(t1 - t0)
    if span == 0.0:
        return OdeResult("reached", t0, np.array(y))
    h = min(first_step if first_step is not None else 1e-3 * span + 1e-12, span)
    h_floor = 1e-13 * max(1.0, abs(t0), abs(t1))

    k1 = f(t, y)
    g_prev = [ev.g(t, y) for ev in events]
    err_prev = 1.0
    n_steps = n_forced = 0
    n_reject_run = 0

    while direction * (t1 - t) > 0.0:
        h = min(h, abs(t1 - t), span)
        if h < h_floor:
            h = h_floor
        hs = direction * h

        k2 = f(t + _C2 * hs, tuple([
            yi + hs * (_A21 * a) for yi, a in zip(y, k1)]))
        k3 = f(t + _C3 * hs, tuple([
            yi + hs * (_A31 * a + _A32 * b) for yi, a, b in zip(y, k1, k2)]))
        k4 = f(t + _C4 * hs, tuple([
            yi + hs * (_A41 * a + _A42 * b + _A43 * c)
            for yi, a, b, c in zip(y, k1, k2, k3)]))
        k5 = f(t + _C5 * hs, tuple([
            yi + hs * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
            for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]))
        k6 = f(t + hs, tuple([
            yi + hs * (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
            for yi, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)]))
        dy5 = tuple([hs * (_A71 * a + _A73 * c + _A74 * d + _A75 * e + _A76 * g)
                     for a, c, d, e, g in zip(k1, k3, k4, k5, k6)])
        y5 = tuple([yi + d for yi, d in zip(y, dy5)])
        k7 = f(t + hs, y5)

        # RMS of (y5 - y4)/scale; the max keeps NaN like np.maximum does
        acc = 0.0
        for yi, y5i, a, c, d, e, g, q in zip(y, y5, k1, k3, k4, k5, k6, k7):
            y4i = yi + hs * (_B41 * a + _B43 * c + _B44 * d + _B45 * e
                             + _B46 * g + _B47 * q)
            ya, yb = abs(yi), abs(y5i)
            z = (y5i - y4i) / (atol + rtol * (ya if ya >= yb or ya != ya else yb))
            acc += z * z
        err = math.sqrt(acc / n)

        forced = False
        if not err <= 1.0:  # NaN too: a stage overflowed
            if h <= h_floor * 1.0001 or n_reject_run > 40:
                forced = True  # cusp-grade singularity: accept; events cut the step
            else:
                n_reject_run += 1
                h *= max(0.2, 0.9 * err ** -0.2)
                continue
        n_reject_run = 0
        n_steps += 1
        if forced:
            n_forced += 1
            if n_forced > 1000:
                raise StepFailureError(
                    f"step size pinned at floor near t={t!r} ({n_forced} forced steps)")

        t_new = t + hs
        r3 = tuple([hs * a - d for a, d in zip(k1, dy5)])
        r4 = tuple([d - hs * q - c for d, q, c in zip(dy5, k7, r3)])
        r5 = tuple([hs * (_D1 * a + _D3 * c + _D4 * d + _D5 * e + _D6 * g + _D7 * q)
                    for a, c, d, e, g, q in zip(k1, k3, k4, k5, k6, k7)])
        seg = DenseSegment(t, t_new, hs, y, dy5, r3, r4, r5)

        hit_index = None
        t_hit = None
        for i, ev in enumerate(events):
            g_new = ev.g(t_new, y5)
            g_old = g_prev[i]
            if ev.direction > 0:
                crossed = g_old < 0.0 <= g_new
            else:
                crossed = g_old > 0.0 >= g_new
            if crossed:
                tr = _locate_root(lambda tt: ev.g(tt, seg(tt)), t, t_new, g_old, g_new)
                if t_hit is None or direction * (tr - t_hit) < 0.0:
                    t_hit, hit_index = tr, i
            g_prev[i] = g_new

        if hit_index is not None:
            y_hit = seg(t_hit)
            if on_dense is not None:
                on_dense(seg.trimmed(t_hit))
            return OdeResult("event", t_hit, np.array(y_hit), hit_index,
                             n_steps, n_forced)

        if on_dense is not None:
            on_dense(seg)

        t, y, k1 = t_new, y5, k7
        # PI step-size controller
        fac = 0.9 * err ** -0.2 * err_prev ** 0.08 if err > 0.0 else 5.0
        h *= min(5.0, max(0.2, fac))
        err_prev = max(err, 1e-10)

    return OdeResult("reached", t, np.array(y), None, n_steps, n_forced)


def _locate_root(g, ta, tb, ga, gb) -> float:
    """Bisection for the event time on the dense interpolant (ga != 0)."""
    if gb == 0.0:
        return tb
    for _ in range(80):
        tm = 0.5 * (ta + tb)
        if tm == ta or tm == tb:
            break
        gm = g(tm)
        if gm == 0.0:
            return tm
        if (ga < 0.0) != (gm < 0.0):
            tb, gb = tm, gm
        else:
            ta, ga = tm, gm
    return tb


class SampleCollector:
    """Collects dense-output samples (state tuples) at prescribed, sorted times.

    The times are held as Python floats, so the interpolant evaluates on
    floats and the samples are tuples of floats.
    """

    def __init__(self, times: Sequence[float]):
        self.times: list[float] = np.asarray(times, dtype=float).tolist()
        self.values: list[tuple] = []
        self.taken: list[float] = []
        self._idx = 0

    def __call__(self, seg: DenseSegment) -> None:
        lo, hi = sorted((seg.t0, seg.t1))
        while self._idx < len(self.times):
            tq = self.times[self._idx]
            if tq < lo - 1e-15:
                self._idx += 1
                continue
            if tq > hi + 1e-15:
                break
            self.values.append(seg(min(max(tq, lo), hi)))
            self.taken.append(tq)
            self._idx += 1
