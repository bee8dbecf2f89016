"""Classical trajectories, orbit classification and energy contours.

Per-branch Hamiltonian flow is integrated in (x, p), where the equations
xdot = v(p, branch), pdot = -V'(x) stay regular up to the branch cusps; the
cusps themselves become located events.

Gaussian switch rules (V confining):

* |p| = p_c = sqrt(mC/e): the flow runs INTO this cusp from every adjacent
  branch (it is a fold of the velocity map), so the only continuation that
  keeps x and H continuous is a momentum reflection p -> -p combined with a
  branch-family swap (Middle <-> the outer branch matching the reflected
  sign).  |v| is preserved while v changes sign: the particle bounces.
* p = 0 on the outer branches: Minus <-> Plus relabel; v passes through the
  point at infinity (the (x, v) surface is a cylinder) while H -> V - C
  continuously.

The family models have their cusp at p = infinity, which no finite-energy
trajectory reaches, so they carry no switch events; H_MINUS trajectories
escape in finite time instead and are terminated at a configurable bound.

The SUSY Euler-Lagrange flow in (x, v) is provided separately; v = 1 initial
data reproduces x(t) = x(0) + t exactly.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from ._ode import Event, SampleCollector, solve_rk45
from .errors import (BelowThresholdError, ConvergenceError, DomainError,
                     NoOrbitError)
from .models import (SUSY_C, BranchId, FamilyModel, GaussianModel,
                     family_hamiltonian, family_momentum, family_velocity,
                     gaussian_hamiltonian, gaussian_velocity, susy_energy,
                     susy_model)

__all__ = [
    "PhaseState", "SwitchEvent", "Termination", "Trajectory", "OrbitClass",
    "Region", "GridSpec", "make_state", "integrate_branch_flow",
    "integrate_lagrangian_flow",
    "classify_orbit", "turning_points", "energy_contour",
    "trajectory_to_csv", "trajectory_to_json", "contours_to_csv",
]

_ZERO_RESTART = 1e-16  # |p| used to restart an outer branch after a p=0 crossing
_ESCAPE_BOUND = 1e6    # |x| or |v| beyond which a trajectory has escaped
_MAX_SWITCHES = 10000  # branch switches a trajectory may make before t_max


class Termination(Enum):
    TIME_LIMIT = "time_limit"
    ESCAPE_TO_INFINITY = "escape_to_infinity"


class OrbitClass(Enum):
    BOUNDED_CLOSED = "bounded_closed"
    UNBOUNDED_ESCAPE = "unbounded_escape"
    SPECIAL_UNIFORM = "special_uniform"
    SEPARATRIX_CANDIDATE = "separatrix_candidate"


class Region(Enum):
    """Initial region for SUSY orbit classification."""

    V_BELOW_1 = "v_below_1"
    V_ABOVE_1 = "v_above_1"


@dataclass(frozen=True)
class PhaseState:
    """One trajectory sample; v is the branch-consistent velocity."""

    t: float
    x: float
    p: float
    branch: BranchId
    v: float


@dataclass(frozen=True)
class SwitchEvent:
    """Branch switch record, with both-sides diagnostics for checking."""

    t: float
    p_at_switch: float
    from_branch: BranchId
    to_branch: BranchId
    x: float
    v_before: float     # +/- inf at a p=0 outer-outer switch
    v_after: float
    h_before: float
    h_after: float


@dataclass
class Trajectory:
    samples: list[PhaseState]
    events: list[SwitchEvent]
    termination: Termination
    t_escape: float | None = None   # lower bound when termination is escape
    energy_drift: float = 0.0       # max |H(t) - H(0)| over the samples
    orbit_class: OrbitClass | None = None  # set where the init determines it


def _velocity(model, p: float, branch: BranchId) -> float:
    if isinstance(model, GaussianModel):
        return gaussian_velocity(model, p, branch)
    return family_velocity(model, p, branch)


def _hamiltonian(model, x: float, p: float, branch: BranchId) -> float:
    if isinstance(model, GaussianModel):
        return gaussian_hamiltonian(model, x, p, branch)
    return family_hamiltonian(model, x, p, branch)


def make_state(model, t: float, x: float, p: float, branch: BranchId) -> PhaseState:
    """PhaseState with the derived velocity filled in."""
    return PhaseState(t, x, p, branch, _velocity(model, p, branch))


def _gaussian_velocity_clamped(model: GaussianModel, p: float, branch: BranchId) -> float:
    # Trial RK stages may peek past the cusp; clamp to the domain boundary
    # there (v is constant +-v_cusp beyond it, which is what the fold limit
    # gives).  Event location keeps accepted states inside the domain.
    pc = model.p_cusp
    if branch is BranchId.MIDDLE:
        pp = min(max(p, -pc), pc)
        return gaussian_velocity(model, pp, branch)
    if branch is BranchId.PLUS:
        pp = min(max(p, _ZERO_RESTART), pc)
        return gaussian_velocity(model, pp, branch)
    pp = min(max(p, -pc), -_ZERO_RESTART)
    return gaussian_velocity(model, pp, branch)


def integrate_branch_flow(model, init: PhaseState, t_max: float,
                          tol: float = 1e-9, n_samples: int = 2000,
                          escape_bound: float = _ESCAPE_BOUND) -> Trajectory:
    """Integrate xdot = v(p, branch), pdot = -V'(x) with branch switching.

    The conserved H drifts by at most ~10*tol per unit time away from
    switch events; each located switch keeps H continuous to event-location
    accuracy.  Escape (|x| or |v| beyond escape_bound) terminates family
    trajectories with the reached time as a lower bound on the escape time.
    More than _MAX_SWITCHES branch switches raise ConvergenceError.
    """
    if isinstance(model, GaussianModel):
        if not init.branch.is_gaussian:
            raise DomainError("gaussian model needs a gaussian branch")
    else:
        if init.branch.is_gaussian:
            raise DomainError("family model needs H_MINUS or H_PLUS")
        if init.p <= 0.0:
            raise DomainError("family model needs p > 0")

    sample_times = np.linspace(init.t, init.t + t_max, n_samples)
    branch = init.branch
    t, x, p = init.t, init.x, init.p
    t_end = init.t + t_max
    h0 = _hamiltonian(model, x, p, branch)
    events_out: list[SwitchEvent] = []
    samples: list[PhaseState] = []
    termination = Termination.TIME_LIMIT
    t_escape = None

    # |v| = escape_bound corresponds to a momentum floor on family branches
    p_floor = (4.0 * escape_bound) ** (-2.0 / 3.0) if isinstance(model, FamilyModel) \
        else 0.0

    if isinstance(model, GaussianModel):
        vfun = _gaussian_velocity_clamped
    else:
        def vfun(md, pp, br):
            # stages can overshoot p -> 0+ during the finite-time blowup; the
            # escape event at p_floor ends the flow before a state gets there
            return family_velocity(md, max(pp, 0.5 * p_floor), br)

    collector = SampleCollector(sample_times)

    def g_x_escape(tt, y):
        return abs(y[0]) - escape_bound

    def g_p_floor(tt, y):
        return y[1] - p_floor

    while t < t_end:
        cur_branch = branch

        def rhs(tt, y):
            return (vfun(model, y[1], cur_branch),
                    -model.potential.derivative(y[0]))

        switch_events = _branch_events(model, cur_branch)
        escape_events = [Event(g_x_escape, +1)]
        if isinstance(model, FamilyModel):
            escape_events.append(Event(g_p_floor, -1))
        # the local controller under-resolves the sqrt-kinked cusp regions;
        # an internal safety factor keeps the advertised drift <= 10*tol per
        # unit time with margin
        res = solve_rk45(rhs, t, [x, p], t_end, rtol=tol / 20.0, atol=1e-14,
                         events=switch_events + escape_events,
                         on_dense=collector)
        t = res.t
        x, p = float(res.y[0]), float(res.y[1])
        if res.status == "reached":
            break
        if res.event_index >= len(switch_events):
            termination = Termination.ESCAPE_TO_INFINITY
            t_escape = t
            break

        # a branch event fired: work out the transition
        if len(events_out) == _MAX_SWITCHES:
            raise ConvergenceError(
                f"integrate_branch_flow: more than {_MAX_SWITCHES} branch "
                f"switches, the next at t={t!r} before the end time {t_end!r}")
        pc = model.p_cusp
        if abs(abs(p) - pc) < 1e-9:
            # cusp bounce: reflect p, swap branch family; H and |v| continuous
            p_snap = math.copysign(pc, p)
            v_before = _velocity(model, p_snap, cur_branch)
            h_before = _hamiltonian(model, x, p_snap, cur_branch)
            p_new = -p_snap
            if cur_branch is BranchId.MIDDLE:
                new_branch = BranchId.PLUS if p_new > 0.0 else BranchId.MINUS
            else:
                new_branch = BranchId.MIDDLE
            v_after = _velocity(model, p_new, new_branch)
            h_after = _hamiltonian(model, x, p_new, new_branch)
            events_out.append(SwitchEvent(t, p_snap, cur_branch, new_branch,
                                          x, v_before, v_after, h_before, h_after))
            p, branch = p_new, new_branch
        else:
            # p=0 crossing of the outer branches: v wraps through infinity
            h_before = _hamiltonian(model, x, 0.0, cur_branch)
            if cur_branch is BranchId.PLUS:
                new_branch, p_new = BranchId.MINUS, -_ZERO_RESTART
                v_b, v_a = math.inf, -math.inf
            else:
                new_branch, p_new = BranchId.PLUS, _ZERO_RESTART
                v_b, v_a = -math.inf, math.inf
            h_after = _hamiltonian(model, x, p_new, new_branch)
            events_out.append(SwitchEvent(t, 0.0, cur_branch, new_branch,
                                          x, v_b, v_a, h_before, h_after))
            p, branch = p_new, new_branch

    # assemble samples; branch labels follow the segment that produced them
    drift = 0.0
    ev_iter = iter(events_out)
    next_ev = next(ev_iter, None)
    seg_branch = init.branch
    for tq, yv in zip(collector.taken, collector.values):
        while next_ev is not None and tq >= next_ev.t:
            seg_branch = next_ev.to_branch
            next_ev = next(ev_iter, None)
        xq, pq = float(yv[0]), float(yv[1])
        if isinstance(model, GaussianModel):
            # samples right at a located event can poke past the domain by
            # the interpolation tolerance; snap them back in
            pq = math.copysign(min(abs(pq), model.p_cusp), pq)
            if seg_branch is BranchId.PLUS:
                pq = max(pq, _ZERO_RESTART)
            elif seg_branch is BranchId.MINUS:
                pq = min(pq, -_ZERO_RESTART)
        try:
            st = make_state(model, tq, xq, pq, seg_branch)
            drift = max(drift, abs(_hamiltonian(model, xq, pq, seg_branch) - h0))
        except DomainError:
            st = PhaseState(tq, xq, pq, seg_branch, float("nan"))
        samples.append(st)

    orbit_class = None
    if isinstance(model, FamilyModel):
        orbit_class = OrbitClass.UNBOUNDED_ESCAPE \
            if init.branch is BranchId.H_MINUS else OrbitClass.BOUNDED_CLOSED
    return Trajectory(samples, events_out, termination, t_escape, drift,
                      orbit_class)


def _branch_events(model, branch: BranchId) -> list[Event]:
    if isinstance(model, FamilyModel):
        return []
    pc = model.p_cusp

    def g_top(tt, y):
        return y[1] - pc

    def g_bot(tt, y):
        return y[1] + pc

    def g_zero(tt, y):
        return y[1]

    if branch is BranchId.MIDDLE:
        return [Event(g_top, +1), Event(g_bot, -1)]
    if branch is BranchId.PLUS:
        return [Event(g_top, +1), Event(g_zero, -1)]
    return [Event(g_bot, -1), Event(g_zero, +1)]


# ---------------------------------------------------------------------------
# SUSY Euler-Lagrange flow in (x, v)
# ---------------------------------------------------------------------------

def integrate_lagrangian_flow(init_xv: tuple[float, float], t_max: float,
                              tol: float = 1e-9, n_samples: int = 2000) -> Trajectory:
    """Integrate xdot = v, vdot = (9/C) x ((v-1)^5)^{1/3} for the SUSY model.

    v(0) = 1 stays exactly 1 (the special uniform solution); v > 1 blows up
    in finite time and terminates as escape; v < 1 oscillates.  Samples carry
    p = p(v) and the H branch matching the side of the barrier.
    """
    x0, v0 = float(init_xv[0]), float(init_xv[1])
    model = susy_model()
    coef = 9.0 / SUSY_C

    def rhs(tt, y):
        dv = y[1] - 1.0
        try:
            return (y[1], coef * y[0] * math.copysign(abs(dv) ** (5.0 / 3.0), dv))
        except OverflowError:  # a trial stage far beyond the escape bound
            return (y[1], math.copysign(math.inf, y[0] * dv))

    escape = {"hit": False, "t": None}
    collector = SampleCollector(np.linspace(0.0, t_max, n_samples))

    def on_dense(seg):
        collector(seg)
        yv = seg(seg.t1)
        if abs(yv[0]) > _ESCAPE_BOUND or abs(yv[1]) > _ESCAPE_BOUND:
            escape["hit"] = True
            escape["t"] = seg.t1

    def g_escape(tt, y):
        return max(abs(y[0]), abs(y[1])) - _ESCAPE_BOUND

    res = solve_rk45(rhs, 0.0, [x0, v0], t_max, rtol=tol, atol=1e-12,
                     events=[Event(g_escape, +1)], on_dense=on_dense)

    samples = []
    for tq, yv in zip(collector.taken, collector.values):
        xq, vq = float(yv[0]), float(yv[1])
        if vq == 1.0:
            samples.append(PhaseState(tq, xq, math.inf, BranchId.H_MINUS, vq))
        else:
            branch = BranchId.H_MINUS if vq > 1.0 else BranchId.H_PLUS
            samples.append(PhaseState(tq, xq, family_momentum(model, vq), branch, vq))

    if res.status == "event" or escape["hit"]:
        term = Termination.ESCAPE_TO_INFINITY
        t_esc = res.t if res.status == "event" else escape["t"]
    else:
        term = Termination.TIME_LIMIT
        t_esc = None

    drift = 0.0
    if v0 != 1.0:
        e0 = susy_energy(x0, v0)
        for st in samples:
            if st.v != 1.0:
                drift = max(drift, abs(susy_energy(st.x, st.v) - e0))
    if v0 == 1.0:
        orbit_class = OrbitClass.SPECIAL_UNIFORM
    elif v0 > 1.0:
        orbit_class = OrbitClass.UNBOUNDED_ESCAPE
    else:
        orbit_class = OrbitClass.BOUNDED_CLOSED
    return Trajectory(samples, [], term, t_esc, drift, orbit_class)


# ---------------------------------------------------------------------------
# classification and geometry
# ---------------------------------------------------------------------------

def classify_orbit(model, E: float, region) -> OrbitClass:
    """Orbit class from energy and initial region alone.

    SUSY model: (E < C, v<1) has no orbit at all (NoOrbitError); (E >= C,
    v<1) is bounded and closed; any energy with v>1 escapes.  v=1 exactly is
    the special uniform solution.  Gaussian model with a confining potential:
    everything is bounded; the energy equal to the x=0 outer-cusp level is
    flagged as the separatrix.
    """
    if isinstance(model, FamilyModel):
        if region is Region.V_ABOVE_1:
            return OrbitClass.UNBOUNDED_ESCAPE
        if region is not Region.V_BELOW_1:
            raise DomainError(f"classify_orbit: bad region {region!r}")
        if E < SUSY_C:
            raise NoOrbitError(
                f"no v<1 orbit below the critical energy C={SUSY_C:.6f} (E={E!r})")
        return OrbitClass.BOUNDED_CLOSED

    if not isinstance(region, BranchId) or not region.is_gaussian:
        raise DomainError("gaussian classification needs a gaussian BranchId region")
    e_sep = model.potential(0.0) - model.C + 2.0 * model.C / math.sqrt(math.e)
    if abs(E - e_sep) <= 1e-9:
        return OrbitClass.SEPARATRIX_CANDIDATE
    floor = model.potential(0.0) if region is BranchId.MIDDLE \
        else model.potential(0.0) - model.C
    if E < floor:
        raise NoOrbitError(f"no {region.value}-branch orbit below E={floor!r}")
    return OrbitClass.BOUNDED_CLOSED


def turning_points(E: float) -> tuple[tuple[float, float], float]:
    """Turning points of bounded SUSY orbits: x = +-sqrt(E - C), p = C/3.

    The momentum does not vanish there; v does.  Raises below the bounded
    threshold E = C.
    """
    if E < SUSY_C:
        raise BelowThresholdError(
            f"bounded orbits need E >= C = {SUSY_C:.6f}, got {E!r}")
    xt = math.sqrt(E - SUSY_C)
    return (-xt, xt), SUSY_C / 3.0


@dataclass(frozen=True)
class GridSpec:
    x_min: float = -2.0
    x_max: float = 2.0
    p_min: float = -1.0
    p_max: float = 1.0
    nx: int = 401
    np_: int = 401


def energy_contour(model, E: float, branch: BranchId,
                   grid: GridSpec | None = None) -> list[np.ndarray]:
    """Polylines of the level set H(x, p, branch) = E on the grid.

    Returns a list of (n, 2) arrays of (x, p) vertices; empty when the level
    set does not intersect the grid.  Points outside the branch domain are
    masked, so family contours stop at p -> 0+ and gaussian ones at the
    momentum bound.

    H separates as kin(p) + V(x): the potential row V(xs) is evaluated once
    per grid as an array, and each column adds the scalar kinetic value
    kin(p_j) = H(0, p_j) - V(0).  Elementwise evaluation does the same
    floating-point operations as a scalar call per grid point, so the
    vertices are bit-identical to the pointwise construction.
    """
    if grid is None:
        if isinstance(model, GaussianModel):
            pc = model.p_cusp
            grid = GridSpec(-2.5, 2.5, -1.05 * pc, 1.05 * pc, 501, 501)
        else:
            grid = GridSpec(-2.5, 2.5, 1e-3, 4.0, 501, 501)
    xs = np.linspace(grid.x_min, grid.x_max, grid.nx)
    ps = np.linspace(grid.p_min, grid.p_max, grid.np_)
    vx = model.potential(xs)
    h = np.full((grid.nx, grid.np_), np.nan)
    for j, pv in enumerate(ps):
        try:
            kin = _hamiltonian(model, 0.0, float(pv), branch) \
                - model.potential(0.0)
        except DomainError:
            continue
        h[:, j] = kin + vx
    return _marching_squares(xs, ps, h, E)


def _marching_squares(xs, ps, h, level) -> list[np.ndarray]:
    """Linear-interpolation marching squares; chains segments to polylines.

    Crossing cells are preselected with numpy so the Python loop only visits
    O(contour length) cells.
    """
    finite = np.isfinite(h)
    above = np.where(finite, h > level, False)
    c00, c10 = above[:-1, :-1], above[1:, :-1]
    c11, c01 = above[1:, 1:], above[:-1, 1:]
    valid = finite[:-1, :-1] & finite[1:, :-1] & finite[1:, 1:] & finite[:-1, 1:]
    mixed = valid & ~((c00 & c10 & c11 & c01)
                      | (~c00 & ~c10 & ~c11 & ~c01))
    cells = np.argwhere(mixed)

    segments = []
    # edge crossing cache so shared edges produce bit-identical points
    cross_v: dict[tuple[int, int], tuple[float, float]] = {}
    cross_h: dict[tuple[int, int], tuple[float, float]] = {}

    def on_vert(i, j):  # edge between (i,j) and (i,j+1), constant x
        key = (i, j)
        if key not in cross_v:
            f0, f1 = h[i, j] - level, h[i, j + 1] - level
            t = f0 / (f0 - f1)
            cross_v[key] = (xs[i], ps[j] + t * (ps[j + 1] - ps[j]))
        return cross_v[key]

    def on_horz(i, j):  # edge between (i,j) and (i+1,j), constant p
        key = (i, j)
        if key not in cross_h:
            f0, f1 = h[i, j] - level, h[i + 1, j] - level
            t = f0 / (f0 - f1)
            cross_h[key] = (xs[i] + t * (xs[i + 1] - xs[i]), ps[j])
        return cross_h[key]

    for i, j in cells:
        i, j = int(i), int(j)
        b00, b10 = bool(above[i, j]), bool(above[i + 1, j])
        b11, b01 = bool(above[i + 1, j + 1]), bool(above[i, j + 1])
        pts = []
        if b00 != b10:
            pts.append(on_horz(i, j))
        if b10 != b11:
            pts.append(on_vert(i + 1, j))
        if b01 != b11:
            pts.append(on_horz(i, j + 1))
        if b00 != b01:
            pts.append(on_vert(i, j))
        if len(pts) == 2:
            segments.append((pts[0], pts[1]))
        elif len(pts) == 4:  # saddle: pair by order
            segments.append((pts[0], pts[1]))
            segments.append((pts[2], pts[3]))

    return _chain_segments(segments)


def _chain_segments(segments) -> list[np.ndarray]:
    adj: dict[tuple[float, float], list[int]] = {}
    for idx, (a, b) in enumerate(segments):
        adj.setdefault(a, []).append(idx)
        adj.setdefault(b, []).append(idx)
    used = [False] * len(segments)
    lines = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        a, b = segments[start]
        chain = [a, b]
        for head in (1, 0):
            pt = chain[-1] if head else chain[0]
            while True:
                nxt = None
                for idx in adj.get(pt, ()):
                    if not used[idx]:
                        nxt = idx
                        break
                if nxt is None:
                    break
                used[nxt] = True
                sa, sb = segments[nxt]
                pt = sb if sa == pt else sa
                if head:
                    chain.append(pt)
                else:
                    chain.insert(0, pt)
        lines.append(np.array(chain))
    return lines


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def trajectory_to_csv(traj: Trajectory, model, path) -> None:
    """CSV with columns t, x, p, v, branch, H."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "x", "p", "v", "branch", "H"])
        for st in traj.samples:
            try:
                hval = _hamiltonian(model, st.x, st.p, st.branch) \
                    if math.isfinite(st.p) else math.inf
            except DomainError:
                hval = math.nan
            w.writerow([repr(st.t), repr(st.x), repr(st.p), repr(st.v),
                        st.branch.value, repr(hval)])


def trajectory_to_json(traj: Trajectory, model, path) -> None:
    data = {
        "termination": traj.termination.value,
        "t_escape": traj.t_escape,
        "energy_drift": traj.energy_drift,
        "orbit_class": traj.orbit_class.value if traj.orbit_class else None,
        "events": [{
            "t": ev.t, "p_at_switch": ev.p_at_switch, "x": ev.x,
            "from_branch": ev.from_branch.value, "to_branch": ev.to_branch.value,
            "v_before": _json_num(ev.v_before), "v_after": _json_num(ev.v_after),
            "h_before": ev.h_before, "h_after": ev.h_after,
        } for ev in traj.events],
        "samples": [[st.t, st.x, _json_num(st.p), _json_num(st.v),
                     st.branch.value] for st in traj.samples],
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, allow_nan=False)
        fh.write("\n")


def _json_num(x: float):
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return x


def contours_to_csv(lines: Sequence[np.ndarray], path) -> None:
    """CSV with columns polyline_index, x, p."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["polyline", "x", "p"])
        for k, line in enumerate(lines):
            for xv, pv in line:
                w.writerow([k, repr(float(xv)), repr(float(pv))])
