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
import reprlib
import sys
import time
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import classical, deformation, models, quantum
from .errors import BranchedHamError, ValidationError
from .svg import PlotStyle, Series, render_svg

__all__ = ["main", "run", "validate_config", "DEFAULT_CONFIGS", "FIELDS"]

_COMMANDS = ("branches", "classical", "deform", "quantum")
_FORMATS = ("csv", "json", "svg")
# caps that bound a run's work before it starts; README "Config schema" has
# the timings behind them
_N_POINTS_MAX = 10 ** 5
_N_SAMPLES_MAX = 10 ** 5
_T_MAX_MAX = 1000.0
_LIST_MAX = 100         # energies, trajectories, kappas
# a SUSY scan took 3.4 s at e_max 10 (7 levels), 29.5 s at 30 (35 levels)
# and 155 s at 60 (99 levels); a bracket is held to the same energies
_E_MAX_MAX = 60.0
# psi's inward solve from p_max grows like exp((2/3)(p_max - E)^{3/2}), which
# overflows once p_max - E passes ~104 (p_max 105 gave a NaN norm at E = 0)
_P_MAX_MAX = 100.0
# deform kappas: phi0'(0) = -kappa^2, and the Robin check's h = 1e-5 stencil
# reads 2e-3 at kappa = 100 and 22 at kappa = 1000
_KAPPA_MAX = 100.0
_GRID_N_MAX = 10 ** 6
# a flow started at or beyond the escape bound never crosses it: x_v [1e9, 0.5],
# [0, 1e6] and [1e6, 1.5] overflowed
_X_V_MAX = math.nextafter(classical._ESCAPE_BOUND, 0.0)


# One row per config field: its path ("[]" is each list item), commands,
# kind, inclusive bounds (of a number or a list's length), choices, whether it
# is required, default and the flag that overrides it.  Kinds: "num" (finite,
# non-bool), "pos" (num > 0), "int" (non-bool), "str", "list", "obj" and
# "model" (models.model_from_config checks it); a trailing "?" admits null.
Field = namedtuple("Field", "path commands kind lo hi choices required default flag",
                   defaults=(-math.inf, math.inf, (), False, None, None))
_C, _Q, _D = ("classical",), ("quantum",), ("deform",)
FIELDS = (
    Field("command", _COMMANDS, "str", choices=_COMMANDS, required=True),
    Field("model", _COMMANDS, "model", default={"kind": "susy"}),
    Field("output", _COMMANDS, "obj", default={}),
    Field("output.directory", _COMMANDS, "str"),
    Field("output.formats", _COMMANDS, "list", 0, len(_FORMATS), default=["csv", "json"]),
    Field("output.formats[]", _COMMANDS, "str", choices=_FORMATS),
    Field("n_points", ("branches",), "int", 1, _N_POINTS_MAX, default=801),
    Field("energies", _C, "list", 0, _LIST_MAX, default=[]),
    Field("energies[]", _C, "num"),
    Field("trajectories", _C, "list", 0, _LIST_MAX, default=[]),
    Field("trajectories[]", _C, "obj"),
    Field("trajectories[].x", _C, "num"),
    Field("trajectories[].p", _C, "num"),
    Field("trajectories[].branch", _C, "str"),  # the model's branches
    Field("trajectories[].x_v", _C, "list", 2, 2),
    Field("trajectories[].x_v[]", _C, "num", -_X_V_MAX, _X_V_MAX),
    Field("trajectories[].t_max", _C, "pos", hi=_T_MAX_MAX),  # else t_max
    Field("tol", _C, "pos", default=1e-9, flag="--tol"),
    Field("t_max", _C, "pos", hi=_T_MAX_MAX, default=20.0),
    Field("n_samples", _C, "int", 1, _N_SAMPLES_MAX, default=2000),
    Field("profile", _Q, "str", choices=("susy_minus", "susy_plus",
                                         "deformed_plus"), default="susy_minus"),
    Field("kappa", _Q, "num", lo=0.0, default=0.0),
    Field("bc", _Q, "str", choices=("dirichlet", "neumann", "robin"), default="neumann"),
    Field("bracket", _Q, "list", 2, 2),
    Field("bracket[]", _Q, "num", -_E_MAX_MAX, _E_MAX_MAX),
    Field("e_max", _Q, "num", hi=_E_MAX_MAX),
    # the p_max-doubling check re-bisects E* -/+ 50 tol_e: tol_e 1e9 shot at
    # E = -5e10 and took 246 s
    Field("tol_e", _Q, "pos", hi=1.0, default=1e-7, flag="--tol"),
    Field("tol", _Q, "pos", default=1e-9),
    Field("p_max", _Q, "pos?", hi=_P_MAX_MAX),  # defaults to E + 25
    Field("kappas", _D, "list", 1, _LIST_MAX, required=True),
    Field("kappas[]", _D, "num", 0.0, _KAPPA_MAX),
    Field("p_grid", _D, "obj", default={}),
    Field("p_grid.max", _D, "pos", hi=deformation._G_TABLE_PMAX, default=10.0),
    Field("p_grid.n", _D, "int", 1, _GRID_N_MAX, default=1001),
)
_ROWS = {(command, f.path): f for f in FIELDS for command in f.commands}
_ROOT = Field("", _COMMANDS, "obj")


def _defaults(command: str, *paths: str) -> dict:
    return {p.rpartition(".")[2]: _ROWS[command, p].default for p in paths}


# the runs without --config: their inputs and the table defaults they echo
DEFAULT_CONFIGS = {
    "branches": {"model": {"kind": "gaussian", "m": 1.0, "C": 1.0,
                           "potential": {"kind": "zero"}},
                 **_defaults("branches", "n_points")},
    "classical": {**_defaults("classical", "model"),
                  "energies": [-0.5, 0.0, 0.5, 1.0, 1.2, 1.4],
                  **_defaults("classical", "tol", "t_max", "n_samples")},
    "quantum": {**_defaults("quantum", "model", "profile", "bc"),
                "bracket": [-0.5, 0.5], **_defaults("quantum", "tol_e", "tol")},
    "deform": {**_defaults("deform", "model"), "kappas": [1.0, 0.5, 0.25, 0.125],
               "p_grid": _defaults("deform", "p_grid.max", "p_grid.n")},
}


def _value(cfg: dict, path: str):
    """The field at `path` of a validated config, or its default."""
    row = _ROWS[cfg["command"], path]
    *parents, key = path.split(".")
    for part in parents:
        cfg = cfg.get(part, {})
    return cfg.get(key, row.default)


def validate_config(cfg: dict) -> dict:
    """Check a config against FIELDS and the rules between fields; return it.

    Errors name the field path.  Classical start states are built, and
    checked, by `run` before it writes anything, so each is built once.
    """
    if not isinstance(cfg, dict):
        raise ValidationError("config: must be a JSON object")
    command = cfg.get("command")
    if command not in _COMMANDS:
        raise ValidationError(f"config.command: unknown command {command!r}")
    _check(_ROOT, cfg, "config", command)
    for f in FIELDS:
        if f.required and command in f.commands and f.path not in cfg:
            raise ValidationError(f"config.{f.path}: required")
    if command in ("classical", "deform"):
        _check_file_names(cfg, "energies" if command == "classical" else "kappas")
    if command == "classical":
        _check_trajectories(cfg)
    if command == "quantum":
        _check_energy_range(cfg)
    return cfg


def _check(row: Field, value, where: str, command: str) -> None:
    kind = row.kind.rstrip("?")
    if value is None and kind != row.kind:
        return
    if kind == "model":
        try:
            models.model_from_config(value)
        except BranchedHamError as exc:
            raise ValidationError(f"{where}: {exc}") from exc
    elif kind == "obj":
        if not isinstance(value, dict):
            raise ValidationError(f"{where}: must be an object, got {value!r}")
        # list items ("[]") and nested paths (".") are no keys of their own
        rows = {key: _ROWS.get((command, f"{row.path}.{key}".lstrip(".")))
                if str(key).isidentifier() else None for key in value}
        unknown = sorted(str(key) for key, r in rows.items() if r is None)
        if unknown:
            raise ValidationError(f"{where}: unknown fields {unknown}")
        for key, item in value.items():
            _check(rows[key], item, f"{where}.{key}", command)
    elif kind == "list":
        if not isinstance(value, list) or not row.lo <= len(value) <= row.hi:
            raise ValidationError(f"{where}: must be a list of {row.lo} to {row.hi} "
                                  f"items, got {reprlib.repr(value)}")
        for k, item in enumerate(value):
            _check(_ROWS[command, row.path + "[]"], item, f"{where}[{k}]", command)
    elif kind == "str":
        if not isinstance(value, str) or row.choices and value not in row.choices:
            want = f"one of {list(row.choices)}" if row.choices else "a string"
            raise ValidationError(f"{where}: must be {want}, got {value!r}")
    else:
        ok = isinstance(value, int) and not isinstance(value, bool) if kind == "int" \
            else models.is_finite_number(value) and (kind == "num" or value > 0)
        if not ok or not row.lo <= value <= row.hi:
            noun = "an integer" if kind == "int" else "a finite number"
            lo = "(0" if kind == "pos" else f"[{row.lo}"
            raise ValidationError(f"{where}: must be {noun} in {lo}, {row.hi}], "
                                  f"got {value!r}")


def _check_file_names(cfg: dict, key: str) -> None:
    """No two items of `key` write the same file: names keep 6 significant digits."""
    taken = {}
    for k, v in enumerate(_value(cfg, key)):
        first = taken.setdefault(_slug(v), k)
        if first != k:
            raise ValidationError(f"config.{key}[{k}]: {v!r} takes the file name "
                                  f"of {key}[{first}]")


def _check_trajectories(cfg: dict) -> None:
    """Each trajectory has x_v (susy model only) or x, p and a model branch."""
    model = models.model_from_config(_value(cfg, "model"))
    branches = sorted(b.value for b in _branches_for(model))
    for k, tr in enumerate(_value(cfg, "trajectories")):
        path = f"config.trajectories[{k}]"
        if "x_v" in tr:
            if model != models.susy_model():
                raise ValidationError(f"{path}.x_v: the (x, v) flow exists only "
                                      f"for the susy model")
            continue
        for key in ("x", "p"):
            if key not in tr:
                raise ValidationError(f"{path}.{key}: required unless x_v is given")
        if tr.get("branch") not in branches:
            raise ValidationError(f"{path}.branch: must be one of {branches} for "
                                  f"this model, got {tr.get('branch')!r}")


def _check_energy_range(cfg: dict) -> None:
    """bracket (lo < hi) or e_max; p_max above it; deformed_plus in the G table."""
    if "bracket" in cfg:
        lo, hi = cfg["bracket"]
        if not lo < hi:
            raise ValidationError(f"config.bracket: needs lo < hi, got {[lo, hi]!r}")
        e_top, top_path = hi, "config.bracket[1]"
    elif "e_max" in cfg:
        e_top, top_path = cfg["e_max"], "config.e_max"
    else:
        raise ValidationError("config: quantum needs 'bracket' or 'e_max'")
    # the solver shoots at energies up to e_top, which needs p_max > E
    p_max = cfg.get("p_max")
    if p_max is not None and not p_max > e_top:
        raise ValidationError(f"config.p_max: must exceed {top_path}={e_top!r}, "
                              f"got {p_max!r}")
    if _value(cfg, "profile") == "deformed_plus" and "bracket" in cfg:
        # U_kappa reads the G table, and a bracket solve re-solves at 2 p_max
        # to check the p_max doubling (a scan shoots to p_max <= _P_MAX_MAX)
        p_max_path = "config.p_max" if p_max is not None else top_path
        p_max = p_max if p_max is not None else e_top + quantum._DEFAULT_MARGIN
        if 2.0 * p_max > deformation._G_TABLE_PMAX:
            raise ValidationError(
                f"{p_max_path}: deformed_plus would shoot to p={2.0 * p_max!r} with "
                f"p_max={p_max!r}, beyond the G table's {deformation._G_TABLE_PMAX}")


def _start_states(cfg: dict, model) -> list:
    """The start state of each classical trajectory (None for an x_v one)."""
    states = []
    for k, tr in enumerate(_value(cfg, "trajectories")):
        try:
            states.append(None if "x_v" in tr else classical.make_state(
                model, 0.0, float(tr["x"]), float(tr["p"]),
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
    model = models.model_from_config(_value(cfg, "model"))
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
    n = _value(cfg, "n_points")
    rows_k = []
    rows_h = []
    if isinstance(model, models.GaussianModel):
        vc = model.v_cusp
        zs = np.linspace(-4.0 * vc, 4.0 * vc, n)
        for z in zs:
            kin = models.gaussian_lagrangian(model, 0.0, float(z)) \
                + model.potential(0.0)
            rows_k.append((float(z), kin / model.C))
        ps = np.linspace(-model.p_cusp, model.p_cusp, n).tolist()
    else:
        ps = np.linspace(0.05, 6.0, n).tolist()
    for branch in _branches_for(model):
        for p in ps:
            if branch is models.BranchId.MINUS and p > 0.0 \
                    or branch is models.BranchId.PLUS and p < 0.0:
                continue
            h = classical._hamiltonian(model, 0.0, p, branch)
            if not branch.is_gaussian:  # family rows leave V(0) out
                h -= model.potential(0.0)
            rows_h.append((branch.value, p, h))

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
    all_series = []
    for e in _value(cfg, "energies"):
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
    tol = float(_value(cfg, "tol"))
    n_samples = _value(cfg, "n_samples")
    for k, tr in enumerate(_value(cfg, "trajectories")):
        t_max = float(tr.get("t_max", _value(cfg, "t_max")))
        if "x_v" in tr:
            traj = classical.integrate_lagrangian_flow(
                tuple(tr["x_v"]), t_max, tol, n_samples=n_samples)
        else:
            traj = classical.integrate_branch_flow(
                model, starts[k], t_max, tol, n_samples=n_samples)
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
    kind = _value(cfg, "profile")
    kappa = float(_value(cfg, "kappa"))
    if kind == "susy_minus":
        profile = quantum.PotentialProfile.susy_minus()
    elif kind == "susy_plus":
        profile = quantum.PotentialProfile.susy_plus()
    else:
        profile = quantum.PotentialProfile.deformed_plus(kappa)
    bc_kind = _value(cfg, "bc")
    bc = quantum.BoundaryCondition(bc_kind,
                                   kappa if bc_kind == "robin" else 0.0)
    tol_e = float(_value(cfg, "tol_e"))
    tol = float(_value(cfg, "tol"))
    p_max = _value(cfg, "p_max")
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
    p_hi = float(_value(cfg, "p_grid.max"))
    n = _value(cfg, "p_grid.n")
    ps = np.linspace(p_hi / n, p_hi, n)
    # one residual window for every p_grid: the profile samples do not enter it
    resid_grid = np.linspace(0.3, 10.0, 3881)
    per_kappa = {}
    series_phi = []
    series_w = []
    for kap in cfg["kappas"]:
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
    ap.add_argument("command", choices=_COMMANDS)
    ap.add_argument("--config", help="JSON run configuration")
    ap.add_argument("--out", help="output directory (default: the config's "
                                  "output.directory, else out)")
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
        if not isinstance(cfg, dict):
            raise ValidationError("config: must be a JSON object")
        cfg.setdefault("command", ns.command)
        if cfg["command"] != ns.command:
            raise ValidationError(
                f"config.command={cfg['command']!r} does not match "
                f"the command line ({ns.command})")
        for f in FIELDS:
            if ns.tol is not None and f.flag == "--tol" \
                    and ns.command in f.commands:
                cfg[f.path] = ns.tol
        cfg = validate_config(cfg)
        out_dir = ns.out or _value(cfg, "output.directory") or "out"
        formats = tuple(ns.format.split(",") if ns.format
                        else _value(cfg, "output.formats"))
        for f in formats:
            _check(_ROWS[ns.command, "output.formats[]"], f, "--format", ns.command)
    # a ValueError here is a config file that is not JSON or not UTF-8
    except (ValidationError, OSError, ValueError) as exc:
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
