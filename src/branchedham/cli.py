"""Command-line entry point.

    branchedham <command> [--config cfg.json] [--out DIR]
                [--format csv,json,svg] [--tol X]

Commands and what they emit (all datasets CSV/JSON, figures SVG):

* branches   gaussian kinetic-energy ("fedora") curve, the closed three-cusp
             H(p) curve; for family models the H_+/- kinetic branches.
* classical  energy contours in (x, p) for a list of energies, plus optional
             integrated trajectories.
* quantum    eigenvalues/eigenfunctions of a profile under a boundary
             condition: one bracket or a full scan below e_max.
* deform     w_kappa, phi0 and U_kappa tables for a list of kappas, with
             residual diagnostics.

Flags override config fields.  Exit codes: 0 success, 2 config validation
error, 1 computation error.  A run_report.json manifest lists every file
produced.  Outputs are deterministic for a fixed config (floats are written
with shortest round-trip repr), and every JSON file is strict JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import classical, deformation, models, quantum
from .errors import BranchedHamError, ValidationError
from .svg import PlotStyle, Series, render_svg

__all__ = ["main", "run", "validate_config", "DEFAULT_CONFIGS"]

_FORMATS = ("csv", "json", "svg")
# deform kappas: phi0'(0) = -kappa^2, and the Robin check's h = 1e-5 stencil
# reads 2e-3 at kappa = 100 and 22 at kappa = 1000
_KAPPA_MAX = 100.0
_GRID_N_MAX = 10 ** 6

_COMMON_KEYS = {"command", "model", "output"}
_KEYS_BY_COMMAND = {
    "branches": _COMMON_KEYS | {"n_points"},
    "classical": _COMMON_KEYS | {"energies", "grid", "trajectories", "tol",
                                 "t_max", "n_samples"},
    "quantum": _COMMON_KEYS | {"profile", "kappa", "bc", "bracket", "e_max",
                               "tol_e", "tol", "p_max"},
    "deform": _COMMON_KEYS | {"kappas", "p_grid"},
}

DEFAULT_CONFIGS = {
    "branches": {"model": {"kind": "gaussian", "m": 1.0, "C": 1.0,
                           "potential": {"kind": "zero"}}, "n_points": 801},
    "classical": {"model": {"kind": "susy"},
                  "energies": [-0.5, 0.0, 0.5, 1.0, 1.2, 1.4],
                  "tol": 1e-9, "t_max": 20.0, "n_samples": 2000},
    "quantum": {"model": {"kind": "susy"}, "profile": "susy_minus",
                "bc": "neumann", "bracket": [-0.5, 0.5],
                "tol_e": 1e-7, "tol": 1e-9},
    "deform": {"model": {"kind": "susy"}, "kappas": [1.0, 0.5, 0.25, 0.125],
               "p_grid": {"max": 10.0, "n": 1001}},
}


def validate_config(cfg: dict) -> dict:
    """Full validation with field-path error messages; returns the config.

    Classical start states are built, and checked, by `run` before it writes
    anything, so each is built once.
    """
    if not isinstance(cfg, dict):
        raise ValidationError("config: must be a JSON object")
    command = cfg.get("command")
    if command not in _KEYS_BY_COMMAND:
        raise ValidationError(f"config.command: unknown command {command!r}")
    extra = set(cfg) - _KEYS_BY_COMMAND[command]
    if extra:
        raise ValidationError(f"config: unknown fields {sorted(extra)}")

    out = cfg.get("output", {})
    if not isinstance(out, dict) or set(out) - {"directory", "formats"}:
        raise ValidationError("config.output: expects {directory, formats}")
    formats = out.get("formats", [])
    if not isinstance(formats, list):
        raise ValidationError(f"config.output.formats: must be a list of "
                              f"format names, got {formats!r}")
    for k, f in enumerate(formats):
        if f not in _FORMATS:
            raise ValidationError(f"config.output.formats[{k}]: unknown format {f!r}")

    try:
        model = models.model_from_config(cfg.get("model", {"kind": "susy"}))
    except BranchedHamError as exc:
        raise ValidationError(f"config.model: {exc}") from exc

    if command == "classical":
        _validate_classical(cfg, model)
    if command == "quantum":
        _validate_quantum(cfg)
    if command == "deform":
        _validate_deform(cfg)
    return cfg


def _validate_classical(cfg: dict, model) -> None:
    energies = cfg.get("energies", [])
    if not isinstance(energies, list):
        raise ValidationError("config.energies: must be a list of numbers")
    for k, e in enumerate(energies):
        _require_finite(e, f"config.energies[{k}]")
    for key in ("tol", "t_max"):
        if key in cfg:
            _require_positive(cfg[key], f"config.{key}")
    _require_count(cfg.get("n_samples", 2000), "config.n_samples")
    trajectories = cfg.get("trajectories", [])
    if not isinstance(trajectories, list):
        raise ValidationError("config.trajectories: must be a list")
    branches = sorted(b.value for b in _branches_for(model))
    for k, tr in enumerate(trajectories):
        path = f"config.trajectories[{k}]"
        allowed = {"x", "p", "branch", "t_max", "x_v"}
        if not isinstance(tr, dict) or set(tr) - allowed:
            raise ValidationError(f"{path}: bad fields")
        if "t_max" in tr:
            _require_positive(tr["t_max"], f"{path}.t_max")
        if "x_v" in tr:
            xv = tr["x_v"]
            if not isinstance(xv, list) or len(xv) != 2:
                raise ValidationError(f"{path}.x_v: must be a pair [x, v]")
            if model != models.susy_model():
                raise ValidationError(f"{path}.x_v: the (x, v) flow exists only "
                                      f"for the susy model")
            for i, v in enumerate(xv):
                _require_finite(v, f"{path}.x_v[{i}]")
            continue
        for key in ("x", "p"):
            if key not in tr:
                raise ValidationError(f"{path}.{key}: required unless x_v is given")
            _require_finite(tr[key], f"{path}.{key}")
        if tr.get("branch") not in branches:
            raise ValidationError(f"{path}.branch: must be one of {branches} for "
                                  f"this model, got {tr.get('branch')!r}")


def _validate_quantum(cfg: dict) -> None:
    if cfg.get("profile", "susy_minus") not in ("susy_minus", "susy_plus",
                                                "deformed_plus"):
        raise ValidationError("config.profile: unknown profile")
    if cfg.get("bc", "neumann") not in ("dirichlet", "neumann", "robin"):
        raise ValidationError("config.bc: unknown boundary condition")
    if "bracket" not in cfg and "e_max" not in cfg:
        raise ValidationError("config: quantum needs 'bracket' or 'e_max'")
    for key in ("tol", "tol_e"):
        if key in cfg:
            _require_positive(cfg[key], f"config.{key}")
    if "kappa" in cfg:
        _require_finite(cfg["kappa"], "config.kappa")
        if cfg["kappa"] < 0:
            raise ValidationError(f"config.kappa: must be >= 0, got {cfg['kappa']!r}")
    if "e_max" in cfg:
        _require_finite(cfg["e_max"], "config.e_max")
    if "bracket" in cfg:
        bracket = cfg["bracket"]
        if not isinstance(bracket, list) or len(bracket) != 2:
            raise ValidationError("config.bracket: must be a pair [lo, hi]")
        for i, v in enumerate(bracket):
            _require_finite(v, f"config.bracket[{i}]")
        if not bracket[0] < bracket[1]:
            raise ValidationError(f"config.bracket: needs lo < hi, got {bracket!r}")
        e_top, top_path = bracket[1], "config.bracket[1]"
    else:
        e_top, top_path = cfg["e_max"], "config.e_max"
    # the solver shoots at energies up to e_top, which needs p_max > E
    if cfg.get("p_max") is not None:
        _require_positive(cfg["p_max"], "config.p_max")
        if not cfg["p_max"] > e_top:
            raise ValidationError(f"config.p_max: must exceed {top_path}={e_top!r}, "
                                  f"got {cfg['p_max']!r}")
    if cfg.get("profile") == "deformed_plus":
        # U_kappa reads the G table; a bracket solve re-solves at 2 p_max to
        # check the p_max doubling, a scan shoots to p_max
        if cfg.get("p_max") is not None:
            p_max, p_max_path = cfg["p_max"], "config.p_max"
        else:
            p_max, p_max_path = e_top + quantum._DEFAULT_MARGIN, top_path
        reach = 2.0 * p_max if "bracket" in cfg else p_max
        if reach > deformation._G_TABLE_PMAX:
            raise ValidationError(
                f"{p_max_path}: deformed_plus would shoot to p={reach!r} with "
                f"p_max={p_max!r}, beyond the G table's {deformation._G_TABLE_PMAX}")


def _validate_deform(cfg: dict) -> None:
    kappas = cfg.get("kappas", [])
    if not isinstance(kappas, list) or not kappas:
        raise ValidationError("config.kappas: must be a non-empty list of numbers")
    for k, kap in enumerate(kappas):
        _require_finite(kap, f"config.kappas[{k}]")
        if not 0 <= kap <= _KAPPA_MAX:
            raise ValidationError(f"config.kappas[{k}]: must be in "
                                  f"[0, {_KAPPA_MAX:g}], got {kap!r}")
    grid = cfg.get("p_grid", {})
    if not isinstance(grid, dict) or set(grid) - {"max", "n"}:
        raise ValidationError(f"config.p_grid: must be an object with only "
                              f"'max' and 'n', got {grid!r}")
    if "n" in grid:
        _require_count(grid["n"], "config.p_grid.n", _GRID_N_MAX)
    if "max" in grid:
        _require_positive(grid["max"], "config.p_grid.max")
        if grid["max"] > deformation._G_TABLE_PMAX:
            raise ValidationError(f"config.p_grid.max: must be <= the G table's "
                                  f"{deformation._G_TABLE_PMAX}, got {grid['max']!r}")


def _require_finite(v, path: str) -> None:
    try:
        ok = isinstance(v, (int, float)) and not isinstance(v, bool) \
            and math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        ok = False
    if not ok:
        raise ValidationError(f"{path}: must be a finite number, got {v!r}")


def _require_positive(v, path: str) -> None:
    _require_finite(v, path)
    if v <= 0:
        raise ValidationError(f"{path}: must be > 0, got {v!r}")


def _require_count(v, path: str, cap: int | None = None) -> None:
    if not isinstance(v, int) or isinstance(v, bool) or v < 1 \
            or (cap is not None and v > cap):
        bound = f" no larger than {cap}" if cap is not None else ""
        raise ValidationError(
            f"{path}: must be a positive integer{bound}, got {v!r}")


def _start_states(cfg: dict, model) -> list:
    """The start state of each classical trajectory (None for an x_v one)."""
    states = []
    for k, tr in enumerate(cfg.get("trajectories", [])):
        if "x_v" in tr:
            states.append(None)
            continue
        try:
            states.append(classical.make_state(model, 0.0, float(tr["x"]),
                                               float(tr["p"]),
                                               models.BranchId(tr["branch"])))
        except BranchedHamError as exc:
            raise ValidationError(
                f"config.trajectories[{k}]: bad start state: {exc}") from exc
    return states


def run(cfg: dict, out_dir: str | Path, formats: tuple[str, ...] = ("csv", "json")) -> dict:
    """Execute a validated config; returns the run report (also written).

    A classical start state that does not exist raises ValidationError
    before any file is written.
    """
    t0 = time.perf_counter()
    command = cfg["command"]
    model = models.model_from_config(cfg.get("model", {"kind": "susy"}))
    starts = _start_states(cfg, model) if command == "classical" else []
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest: list[str] = []
    diagnostics: dict = {}

    if command == "branches":
        _run_branches(cfg, model, out, formats, manifest)
    elif command == "classical":
        _run_classical(cfg, model, starts, out, formats, manifest, diagnostics)
    elif command == "quantum":
        _run_quantum(cfg, out, formats, manifest, diagnostics)
    elif command == "deform":
        _run_deform(cfg, out, formats, manifest, diagnostics)

    report = {
        "command": command,
        "config": cfg,
        "files": sorted(manifest + ["run_report.json"]),
        "wall_time_s": round(time.perf_counter() - t0, 3),
        "diagnostics": diagnostics,
    }
    with open(out / "run_report.json", "w") as fh:
        json.dump(report, fh, indent=1, allow_nan=False)
        fh.write("\n")
    return report


def _write(path: Path, text: str, manifest: list[str]) -> None:
    path.write_text(text)
    manifest.append(path.name)


def _run_branches(cfg, model, out, formats, manifest):
    n = int(cfg.get("n_points", 801))
    rows_k = []
    rows_h = []
    if isinstance(model, models.GaussianModel):
        vc = model.v_cusp
        zs = np.linspace(-4.0 * vc, 4.0 * vc, n)
        for z in zs:
            kin = models.gaussian_lagrangian(model, 0.0, float(z)) \
                + model.potential(0.0)
            rows_k.append((float(z), kin / model.C))
        pc = model.p_cusp
        ps = np.linspace(-pc, pc, n)
        for branch in (models.BranchId.MINUS, models.BranchId.MIDDLE,
                       models.BranchId.PLUS):
            for p in ps:
                pv = float(p)
                if branch is models.BranchId.MINUS and pv > 0.0:
                    continue
                if branch is models.BranchId.PLUS and pv < 0.0:
                    continue
                h = models.gaussian_hamiltonian(model, 0.0, pv, branch)
                rows_h.append((branch.value, pv, h))
    else:
        ps = np.linspace(0.05, 6.0, n)
        for branch in (models.BranchId.H_MINUS, models.BranchId.H_PLUS):
            for p in ps:
                h = models.family_hamiltonian(model, 0.0, float(p), branch) \
                    - model.potential(0.0)
                rows_h.append((branch.value, float(p), h))

    if "csv" in formats:
        if rows_k:
            text = "z,kinetic_over_C\n" + "".join(
                f"{v!r},{k!r}\n" for v, k in rows_k)
            _write(out / "kinetic_curve.csv", text, manifest)
        text = "branch,p,H\n" + "".join(
            f"{b},{p!r},{h!r}\n" for b, p, h in rows_h)
        _write(out / "hamiltonian_branches.csv", text, manifest)
    if "svg" in formats:
        series = []
        for b in dict.fromkeys(r[0] for r in rows_h):
            pts = [(p, h) for bb, p, h in rows_h if bb == b]
            series.append(Series(b, pts))
        _write(out / "hamiltonian_branches.svg",
               render_svg(series, PlotStyle(title="Hamiltonian branches",
                                            x_label="p", y_label="H")),
               manifest)
        if rows_k:
            _write(out / "kinetic_curve.svg",
                   render_svg([Series("kinetic", rows_k)],
                              PlotStyle(title="Kinetic energy",
                                        x_label="v sqrt(m/C)", y_label="(L+V)/C")),
                   manifest)
    if "json" in formats:
        data = {"hamiltonian_branches": [
            {"branch": b, "p": p, "H": h} for b, p, h in rows_h]}
        if rows_k:
            data["kinetic_curve"] = [{"z": z, "kin": k} for z, k in rows_k]
        _write(out / "branches.json",
               json.dumps(data, indent=1, allow_nan=False) + "\n", manifest)


def _branches_for(model):
    if isinstance(model, models.GaussianModel):
        return (models.BranchId.MINUS, models.BranchId.MIDDLE, models.BranchId.PLUS)
    return (models.BranchId.H_MINUS, models.BranchId.H_PLUS)


def _run_classical(cfg, model, starts, out, formats, manifest, diagnostics):
    energies = cfg.get("energies", [])
    all_series = []
    for e in energies:
        lines_all = []
        for branch in _branches_for(model):
            lines = classical.energy_contour(model, float(e), branch)
            lines_all.extend((branch, ln) for ln in lines)
        name = f"contour_E{_slug(e)}"
        if "csv" in formats:
            classical.contours_to_csv([ln for _, ln in lines_all],
                                      out / f"{name}.csv")
            manifest.append(f"{name}.csv")
        for branch, ln in lines_all:
            all_series.append(Series(f"E={e:g} {branch.value}",
                                     [(float(a), float(b)) for a, b in ln]))
    if "svg" in formats and all_series:
        _write(out / "phase_portrait.svg",
               render_svg(all_series, PlotStyle(title="Constant-energy curves",
                                                x_label="x", y_label="p",
                                                legend=len(all_series) <= 12)),
               manifest)

    drifts = {}
    for k, tr in enumerate(cfg.get("trajectories", [])):
        t_max = float(tr.get("t_max", cfg.get("t_max", 20.0)))
        tol = float(cfg.get("tol", 1e-9))
        if "x_v" in tr:
            traj = classical.integrate_lagrangian_flow(
                tuple(tr["x_v"]), t_max, tol,
                n_samples=int(cfg.get("n_samples", 2000)))
        else:
            traj = classical.integrate_branch_flow(
                model, starts[k], t_max, tol,
                n_samples=int(cfg.get("n_samples", 2000)))
        name = f"trajectory_{k}"
        if "csv" in formats:
            classical.trajectory_to_csv(traj, model, out / f"{name}.csv")
            manifest.append(f"{name}.csv")
        if "json" in formats:
            classical.trajectory_to_json(traj, model, out / f"{name}.json")
            manifest.append(f"{name}.json")
        drifts[name] = traj.energy_drift
    if drifts:
        diagnostics["energy_drift"] = drifts


def _run_quantum(cfg, out, formats, manifest, diagnostics):
    kind = cfg.get("profile", "susy_minus")
    kappa = float(cfg.get("kappa", 0.0))
    if kind == "susy_minus":
        profile = quantum.PotentialProfile.susy_minus()
    elif kind == "susy_plus":
        profile = quantum.PotentialProfile.susy_plus()
    else:
        profile = quantum.PotentialProfile.deformed_plus(kappa)
    bc_kind = cfg.get("bc", "neumann")
    bc = quantum.BoundaryCondition(bc_kind,
                                   kappa if bc_kind == "robin" else 0.0)
    tol_e = float(cfg.get("tol_e", 1e-7))
    tol = float(cfg.get("tol", 1e-9))
    p_max = cfg.get("p_max")
    p_max = float(p_max) if p_max is not None else None

    if "bracket" in cfg:
        sols = [quantum.solve_eigenvalue(profile, bc, tuple(cfg["bracket"]),
                                         tol_e, p_max=p_max, tol=tol)]
    else:
        sols = quantum.spectrum(profile, bc, float(cfg["e_max"]), tol_e,
                                p_max=p_max, tol=tol)

    if "json" in formats:
        quantum.spectrum_to_json(sols, out / "spectrum.json")
        manifest.append("spectrum.json")
    for k, sol in enumerate(sols):
        if "csv" in formats:
            quantum.eigensolution_to_csv(sol, out / f"state_{k}.csv")
            manifest.append(f"state_{k}.csv")
    if "svg" in formats and sols:
        series = [Series(f"E={s.E:.6f}",
                         list(zip(s.grid.tolist(), s.psi.tolist())))
                  for s in sols]
        _write(out / "wavefunctions.svg",
               render_svg(series, PlotStyle(title=f"{kind} / {bc_kind}",
                                            x_label="p", y_label="psi")),
               manifest)
    diagnostics["eigenvalues"] = [s.E for s in sols]


def _run_deform(cfg, out, formats, manifest, diagnostics):
    kappas = cfg.get("kappas", [1.0, 0.5, 0.25, 0.125])
    gridspec = cfg.get("p_grid", {})
    p_hi = float(gridspec.get("max", 10.0))
    n = int(gridspec.get("n", 1001))
    ps = np.linspace(p_hi / n, p_hi, n)
    resid_grid = np.linspace(0.3, min(p_hi, 10.0), 3881)
    per_kappa = {}
    series_phi = []
    series_w = []
    for kap in kappas:
        prof = deformation.DeformationProfile(float(kap))
        name = f"deform_kappa_{_slug(kap)}"
        if "csv" in formats:
            deformation.profile_to_csv(prof, ps, out / f"{name}.csv")
            manifest.append(f"{name}.csv")
        if kap > 0.0:
            per_kappa[str(kap)] = prof.residuals(resid_grid)
            series_phi.append(Series(f"kappa={kap:g}",
                                     list(zip(ps.tolist(), prof.phi0(ps).tolist()))))
        series_w.append(Series(f"kappa={kap:g}",
                               list(zip(ps.tolist(), prof.w(ps).tolist()))))
    if "svg" in formats:
        if series_phi:
            _write(out / "phi0.svg",
                   render_svg(series_phi, PlotStyle(title="Deformed zero modes",
                                                    x_label="p", y_label="phi0")),
                   manifest)
        _write(out / "w_kappa.svg",
               render_svg(series_w, PlotStyle(title="Superpotentials",
                                              x_label="p", y_label="w_kappa")),
               manifest)
    if "json" in formats:
        _write(out / "deform_diagnostics.json",
               json.dumps(per_kappa, indent=1, allow_nan=False) + "\n", manifest)
    diagnostics.update(per_kappa)


def _slug(v) -> str:
    return f"{float(v):g}".replace("-", "m").replace(".", "p")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="branchedham",
        description="Branched-Hamiltonian models: classical flows, "
                    "half-line spectra, isospectral deformations.")
    ap.add_argument("command", choices=sorted(_KEYS_BY_COMMAND))
    ap.add_argument("--config", help="JSON run configuration")
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--format", default=None,
                    help="comma-separated subset of csv,json,svg")
    ap.add_argument("--tol", type=float, default=None,
                    help="override the command's main tolerance")
    ns = ap.parse_args(argv)

    try:
        if ns.config:
            with open(ns.config) as fh:
                cfg = json.load(fh)
        else:
            cfg = dict(DEFAULT_CONFIGS[ns.command])
            cfg["command"] = ns.command
        if "command" not in cfg:
            cfg["command"] = ns.command
        if cfg.get("command") != ns.command:
            raise ValidationError(
                f"config.command={cfg.get('command')!r} does not match "
                f"the command line ({ns.command})")
        if ns.tol is not None:
            if ns.command == "classical":
                cfg["tol"] = ns.tol
            elif ns.command == "quantum":
                cfg["tol_e"] = ns.tol
            # table commands (branches, deform) have no tolerance knob
        cfg = validate_config(cfg)
        out_cfg = cfg.get("output", {})
        out_dir = ns.out if ns.out != "out" or "directory" not in out_cfg \
            else out_cfg["directory"]
        formats = tuple(ns.format.split(",")) if ns.format else \
            tuple(out_cfg.get("formats", ("csv", "json")))
        for f in formats:
            if f not in _FORMATS:
                raise ValidationError(f"--format: unknown format {f!r}")
    except (ValidationError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run(cfg, out_dir, formats)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BranchedHamError as exc:
        print(f"computation error [{cfg['command']}]: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"files": report["files"],
                      "wall_time_s": report["wall_time_s"]}, indent=1,
                     allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
