"""Output checks for benchmark ops.

Every check returns a list of failure reasons; an empty list means the op
passed.  Nothing is filtered: an op whose output fails any check counts as
failed in ``fail_frac`` and is listed with its config and reason.

Tolerances are stated next to the check that uses them.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from oracle import ORACLE_TOL

# Documented in classical.integrate_branch_flow: H drifts by at most ~10*tol
# per unit time; tier-1 asserts drift <= 10*tol*t_max.  Applied to both
# flows over the requested horizon t_max.  (Not over the time to escape:
# the SUSY energy grows like v^{1/3} toward escape, so an escaping orbit's
# absolute drift reflects the size of E, not the length of the run.)
DRIFT_PER_TOL_TIME = 10.0
# Switch events keep H continuous to event-location accuracy; the tier-1
# suite asserts 1e-6.
SWITCH_H_JUMP = 1e-6
# Zero-mode diagnostics of `deform` are central differences on the program's
# fixed 3881-point grid; their truncation error grows toward both ends of
# kappa in (0, 2] (3.2e-5 at kappa = 2, 6.2e-5 at kappa = 1e-6).  The Robin
# identity uses an O(h^{3/2}) one-sided stencil; tier-1 asserts 1e-6.
ZERO_MODE_RESIDUAL = 1e-4
ROBIN_RESIDUAL = 1e-6
# Rounding slack on top of the linear-interpolation bound for contours.
CONTOUR_SLACK = 1e-9
# classical.energy_contour's default grid for family/SUSY models.
FAMILY_GRID = (-2.5, 2.5, 1e-3, 4.0, 501, 501)


def strict_json(path: Path):
    """json.load that rejects NaN / Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-strict JSON token {token}")
    return json.loads(path.read_text(), parse_constant=reject)


def check_common(out_dir: Path, returncode: int, stderr_tail: str) -> list[str]:
    """Exit code 0, every manifest file present, every JSON file strict."""
    if returncode != 0:
        return [f"exit code {returncode}: {stderr_tail}"]
    report_path = out_dir / "run_report.json"
    if not report_path.is_file():
        return ["run_report.json missing"]
    reasons = []
    try:
        report = strict_json(report_path)
    except ValueError as exc:
        return [f"run_report.json: {exc}"]
    for name in report.get("files", []):
        if not (out_dir / name).is_file():
            reasons.append(f"manifest file missing: {name}")
    for path in sorted(out_dir.glob("*.json")):
        if path.name == "run_report.json":
            continue
        try:
            strict_json(path)
        except ValueError as exc:
            reasons.append(f"{path.name}: {exc}")
    return reasons


def guarded(check, *args) -> list[str]:
    """Run a check; a malformed output that makes it raise fails the op."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{check.__name__}: {type(exc).__name__}: {exc}"]


# ---------------------------------------------------------------------------
# portrait
# ---------------------------------------------------------------------------

def check_portrait(op, out_dir: Path) -> list[str]:
    cfg = op.config
    reasons = []
    contours = sorted(out_dir.glob("contour_E*.csv"))
    if len(contours) != len(set(cfg["energies"])):
        reasons.append(f"{len(contours)} contour files for "
                       f"{len(cfg['energies'])} energies")
    tol = cfg["tol"]
    for k, tr in enumerate(cfg["trajectories"]):
        data = strict_json(out_dir / f"trajectory_{k}.json")
        bound = DRIFT_PER_TOL_TIME * tol * tr["t_max"]
        if not data["energy_drift"] <= bound:
            reasons.append(f"trajectory_{k}: energy drift {data['energy_drift']:.3e}"
                           f" > 10*tol*t_max = {bound:.3e}")
        if "x_v" in tr:
            want = ("escape_to_infinity", "unbounded_escape") if tr["x_v"][1] > 1.0 \
                else ("time_limit", "bounded_closed")
            got = (data["termination"], data["orbit_class"])
            if got != want:
                reasons.append(f"trajectory_{k}: {got} for v0={tr['x_v'][1]}, "
                               f"expected {want}")
        else:
            reasons += _check_bounces(k, data)
    if cfg["model"]["kind"] == "susy":
        for path in contours:
            energy = _energy_of(path, cfg["energies"])
            reasons += _check_susy_contour(path, energy)
    return reasons


def _check_bounces(k: int, data: dict) -> list[str]:
    # the generator starts the middle-branch orbit above the separatrix
    reasons = []
    cusp = [ev for ev in data["events"] if ev["p_at_switch"] != 0.0]
    if not cusp:
        reasons.append(f"trajectory_{k}: no cusp bounce above the separatrix")
    jump = max((abs(ev["h_after"] - ev["h_before"]) for ev in data["events"]),
               default=0.0)
    if not jump <= SWITCH_H_JUMP:
        reasons.append(f"trajectory_{k}: H jumps by {jump:.3e} at a switch")
    return reasons


def _energy_of(path: Path, energies) -> float:
    for e in energies:
        if path.name == f"contour_E{_slug(e)}.csv":
            return float(e)
    raise ValueError(f"{path.name} matches no configured energy")


def _slug(v) -> str:
    # the CLI's file-name convention for numbers
    return f"{float(v):g}".replace("-", "m").replace(".", "p")


def _check_susy_contour(path: Path, energy: float) -> list[str]:
    """Vertices satisfy H+- = p +- p^{-1/2}/2 + x^2 = E on one branch.

    A vertex is the linear interpolation of H along one grid edge, so its
    exact H misses E by at most h^2/8 * max|d2H| on that edge: h_x^2/4 along
    x (d2H/dx2 = 2), and h_p^2/8 * (3/8) p_j^{-5/2} along p (largest at the
    edge's lower end p_j).
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if not rows:
        return []
    xy = np.array([[float(r[1]), float(r[2])] for r in rows])
    x, p = xy[:, 0], xy[:, 1]
    x0, x1, p0, p1, nx, n_p = FAMILY_GRID
    xs, ps = np.linspace(x0, x1, nx), np.linspace(p0, p1, n_p)
    hx, hp = xs[1] - xs[0], ps[1] - ps[0]
    on_x = np.isin(x, xs)           # vertex on a constant-x edge: p interpolated
    on_p = np.isin(p, ps)           # vertex on a constant-p edge: x interpolated
    if not np.all(on_x | on_p) or np.any(p <= 0.0):
        return [f"{path.name}: vertices off the contour grid"]
    j = np.clip(np.searchsorted(ps, p, side="right") - 1, 0, n_p - 2)
    bound_p = hp * hp / 8.0 * 0.375 * ps[j] ** -2.5
    bound = np.where(on_p, hx * hx / 4.0, bound_p) + CONTOUR_SLACK
    term = 0.5 / np.sqrt(p)
    miss = np.minimum(np.abs(p - term + x * x - energy),
                      np.abs(p + term + x * x - energy))
    bad = miss > bound
    if np.any(bad):
        i = int(np.argmax(np.where(bad, miss / bound, 0.0)))
        return [f"{path.name}: {int(bad.sum())} vertices off H=E, worst "
                f"(x={float(x[i])!r}, p={float(p[i])!r}) misses by {miss[i]:.3e} > {bound[i]:.3e}"]
    return []


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def scan_levels(out_dir: Path) -> list[float]:
    return [float(s["E"]) for s in strict_json(out_dir / "spectrum.json")]


def check_scan(op, out_dir: Path, oracle: dict) -> list[str]:
    """Levels match the numpy oracle; H-(N) starts with the exact E = 0.

    Oracle levels within ORACLE_TOL of e_max may or may not be reported.
    """
    cfg = op.config
    e_max, tol_e = cfg["e_max"], cfg["tol_e"]
    got = scan_levels(out_dir)
    ref = oracle[(cfg["profile"], cfg["bc"])]
    must = ref[ref < e_max - ORACLE_TOL]
    may = ref[ref < e_max + ORACLE_TOL]
    reasons = []
    if any(b <= a for a, b in zip(got, got[1:])):
        reasons.append(f"levels not ascending: {got}")
    if not len(must) <= len(got) <= len(may):
        reasons.append(f"{len(got)} levels below e_max={e_max}, oracle has "
                       f"{len(must)}: {got} vs {must.tolist()}")
    else:
        worst = max((abs(a - b) for a, b in zip(got, may)), default=0.0)
        if worst > ORACLE_TOL:
            reasons.append(f"levels off the oracle by {worst:.3e} > {ORACLE_TOL}: "
                           f"{got} vs {may.tolist()}")
    if (cfg["profile"], cfg["bc"]) == ("susy_minus", "neumann"):
        if not got or abs(got[0]) > tol_e:
            reasons.append(f"H- Neumann ground level {got[:1]} is not E=0 "
                           f"within tol_e={tol_e}")
    return reasons


# ---------------------------------------------------------------------------
# deform
# ---------------------------------------------------------------------------

def check_deform(op, out_dir: Path) -> list[str]:
    cfg = op.config
    reasons = []
    if cfg["command"] == "quantum":
        levels = scan_levels(out_dir)
        if len(levels) != 1 or abs(levels[0]) > cfg["tol_e"]:
            reasons.append(f"deformed Robin level {levels} is not the exact zero "
                           f"mode E=0 within tol_e={cfg['tol_e']}")
        return reasons
    diag = strict_json(out_dir / "deform_diagnostics.json")
    for kappa in cfg["kappas"]:
        d = diag.get(str(kappa))
        if d is None:
            reasons.append(f"no diagnostics for kappa={kappa}")
            continue
        for key in ("zero_mode_first_order", "zero_mode_second_order"):
            if not d[key] <= ZERO_MODE_RESIDUAL:
                reasons.append(f"kappa={kappa}: {key} {d[key]:.3e} > "
                               f"{ZERO_MODE_RESIDUAL}")
        if not d["robin"] <= ROBIN_RESIDUAL:
            reasons.append(f"kappa={kappa}: robin {d['robin']:.3e} > {ROBIN_RESIDUAL}")
    n = cfg["p_grid"]["n"]
    for path in sorted(out_dir.glob("deform_kappa_*.csv")):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        if len(rows) != n or not all(math.isfinite(float(r[1])) for r in rows):
            reasons.append(f"{path.name}: {len(rows)} rows for p_grid.n={n} "
                           "or non-finite w_kappa")
    return reasons
