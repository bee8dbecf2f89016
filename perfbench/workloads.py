"""Seeded config generators for the three benchmark workloads.

Each generator turns a seed into an endless, deterministic sequence of
``Op`` records; the benchmark writes each op's config to a file and runs
``branchedham <command> --config <file>`` on it, so the program only ever
sees generated config files.

Cost-driving parameters are not i.i.d. uniforms: the number of energies
follows a golden-ratio (Kronecker) sequence with a seeded offset and e_max
is drawn by stratified sampling, so every run covers their range evenly and
its median op time depends little on the seed or on where it stops.  The
remaining parameters are plain seeded uniforms.

Seeds 1-99 are for tuning the benchmark; ``HELD_OUT_SEED`` is kept for
confirming a performance claim on inputs not looked at while the change
was written.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

HELD_OUT_SEED = 1311_6147

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_ALL_FORMATS = ["csv", "json", "svg"]


@dataclass
class Op:
    """One generated CLI invocation."""

    index: int
    kind: str                  # generator-specific label, e.g. "gaussian"
    config: dict

    @property
    def id(self) -> str:
        return f"{self.index:03d}-{self.kind}"

    @property
    def command(self) -> str:
        return self.config["command"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[int], Iterator[Op]]
    pattern: int               # ops per generator pattern; runs stop only
                               # between patterns, and a traced run is one
    exercises: tuple[str, ...]  # per-layer metrics that must be nonzero
    bypasses: tuple[str, ...]   # per-layer metrics predicted to be zero


def _kronecker(offset: float, k: int) -> float:
    return (offset + k * _GOLDEN) % 1.0


def _r(v: float) -> float:
    # short decimals keep the configs readable; still seed-determined
    return round(v, 6)


# ---------------------------------------------------------------------------
# portrait
# ---------------------------------------------------------------------------

PORTRAIT_WHY = ("classical phase portraits: energy_contour (millions of Potential "
                "calls) takes most of the CLI time, then the cusp-switching ODE "
                "flow and lambert_w; no G table, no eigen-solver")


def portrait(seed: int) -> Iterator[Op]:
    """Alternating gaussian / SUSY ``classical`` configs, all three formats.

    gaussian: V = c0 + a x^2 with c0 in [0.5, 1.5], a in [0.5, 2]; 4-6
    energies, one of them the separatrix c0 - C + 2C/sqrt(e); one
    middle-branch trajectory started at p = 0 with E - c0 in [0.35, 0.8],
    above the separatrix offset 2/sqrt(e) - 1 ~ 0.213, so it bounces at the
    cusps.

    SUSY: energies in [-0.5, 2]; one bounded x_v trajectory (v < 1) and one
    escaping one (v > 1).  SUSY contours are two branches per energy against
    the gaussian's three, so SUSY ops get 6-9 energies: that keeps the two
    kinds' op times overlapping and the median op time away from a gap
    between two clusters.
    """
    rng = random.Random(seed)
    off_g, off_s = rng.random(), rng.random()
    k = 0
    while True:
        yield _gaussian_portrait(rng, 2 * k, 4 + int(3 * _kronecker(off_g, k)))
        yield _susy_portrait(rng, 2 * k + 1, 6 + int(4 * _kronecker(off_s, k)))
        k += 1


def _gaussian_portrait(rng: random.Random, index: int, n_energies: int) -> Op:
    c0 = _r(rng.uniform(0.5, 1.5))
    a = _r(rng.uniform(0.5, 2.0))
    e_sep = c0 - 1.0 + 2.0 / math.sqrt(math.e)
    energies = [_r(rng.uniform(c0 - 0.9, c0 + 1.0)) for _ in range(n_energies - 1)]
    energies.insert(rng.randrange(n_energies), e_sep)
    e_traj = rng.uniform(0.35, 0.8)
    x0 = math.sqrt(e_traj / a)
    t_max = _r(rng.uniform(12.0, 20.0))
    cfg = {
        "command": "classical",
        "model": {"kind": "gaussian", "m": 1.0, "C": 1.0,
                  "potential": {"kind": "harmonic_shifted", "c0": c0, "a": a}},
        "energies": energies,
        "trajectories": [{"x": x0, "p": 0.0, "branch": "middle", "t_max": t_max}],
        "tol": 1e-9,
        "output": {"formats": _ALL_FORMATS},
    }
    return Op(index, "gaussian", cfg)


def _susy_portrait(rng: random.Random, index: int, n_energies: int) -> Op:
    energies = sorted(_r(rng.uniform(-0.5, 2.0)) for _ in range(n_energies))
    bounded = [_r(rng.uniform(-1.0, 1.0)), _r(rng.uniform(-0.5, 0.8))]
    escape = [_r(rng.uniform(-1.0, 1.0)), _r(rng.uniform(1.2, 2.0))]
    cfg = {
        "command": "classical",
        "model": {"kind": "susy"},
        "energies": energies,
        "trajectories": [{"x_v": bounded, "t_max": 10.0},
                         {"x_v": escape, "t_max": 10.0}],
        "tol": 1e-9,
        "output": {"formats": _ALL_FORMATS},
    }
    return Op(index, "susy", cfg)


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

SCAN_WHY = ("SUSY spectra below e_max: nearly all CLI time is quantum.shoot in "
            "the fixed-step scan plus bisection; writes only JSON and never "
            "builds the G table")

# partner pairs: H-(D) = H+(N) and H-(N) = {0} + H+(D)
SCAN_PAIRS = ((("susy_minus", "dirichlet"), ("susy_plus", "neumann")),
              (("susy_minus", "neumann"), ("susy_plus", "dirichlet")))
SCAN_COMBOS = tuple(c for pair in SCAN_PAIRS for c in pair)
SCAN_TOL_E = 1e-7
SCAN_STRATA = 4


def scan(seed: int) -> Iterator[Op]:
    """``quantum`` spectrum configs over the four combos, e_max in [2, 7].

    Op cost grows with e_max in steps (one more bisection per level below
    it), and the median op time of a run is set by the ops nearest the
    middle of the range.  So a pattern holds all four combos, the two of
    one partner pair at 4.5 - d and the other two at the antithetic
    4.5 + d, and d is drawn by stratified sampling: each cycle of
    SCAN_STRATA patterns visits every stratum of [0, 2.5] once, in seeded
    order, at a seeded point in the middle half of the stratum.  Every run
    then holds about the same spread of e_max around the middle.
    """
    rng = random.Random(seed)
    index = 0
    while True:
        strata = list(range(SCAN_STRATA))
        rng.shuffle(strata)
        for s in strata:
            d = 2.5 * (s + 0.25 + 0.5 * rng.random()) / SCAN_STRATA
            sides = [4.5 - d, 4.5 + d]
            rng.shuffle(sides)
            for pair, e_max in zip(SCAN_PAIRS, sides):
                pair = list(pair)
                rng.shuffle(pair)
                for profile, bc in pair:
                    cfg = {
                        "command": "quantum",
                        "model": {"kind": "susy"},
                        "profile": profile,
                        "bc": bc,
                        "e_max": _r(e_max),
                        "tol_e": SCAN_TOL_E,
                        "output": {"formats": ["json"]},
                    }
                    yield Op(index, f"{profile}-{bc}", cfg)
                    index += 1


# ---------------------------------------------------------------------------
# deform
# ---------------------------------------------------------------------------

DEFORM_WHY = ("kappa-deformed Robin zero modes and profile tables: every op "
              "builds the G table by ODE (~30% of CLI time), deformed shots "
              "call its scalar lookup per RHS evaluation, CSV/SVG writers run")

DEFORM_P_GRID_N = (501, 1001, 2001)


def deform(seed: int) -> Iterator[Op]:
    """Repeating (quantum, quantum, deform) pattern, all three formats.

    quantum: deformed_plus with Robin data, kappa in [0.1, 2], bracket
    [-0.5, 0.5] around the exact zero mode E = 0.
    deform: 1-4 kappas in (0, 2], p_grid.n in {501, 1001, 2001}.

    A quantum op takes about three times as long as a deform op.  With a
    1:1 mix the median op time would fall in the gap between the two
    clusters and jump with the parity of the op count; two quantum ops per
    deform op keep the median inside the quantum cluster, which contains
    both the G-table build and the deformed shots.
    """
    rng = random.Random(seed)
    k = 0
    while True:
        for j in range(2):
            kappa = _r(rng.uniform(0.1, 2.0))
            cfg = {
                "command": "quantum",
                "model": {"kind": "susy"},
                "profile": "deformed_plus",
                "kappa": kappa,
                "bc": "robin",
                "bracket": [-0.5, 0.5],
                "tol_e": 1e-7,
                "output": {"formats": _ALL_FORMATS},
            }
            yield Op(3 * k + j, "robin", cfg)
        kappas = [_r(2.0 * (1.0 - rng.random())) for _ in range(rng.randint(1, 4))]
        cfg = {
            "command": "deform",
            "model": {"kind": "susy"},
            "kappas": kappas,
            "p_grid": {"max": 10.0, "n": rng.choice(DEFORM_P_GRID_N)},
            "output": {"formats": _ALL_FORMATS},
        }
        yield Op(3 * k + 2, "profiles", cfg)
        k += 1


# Which layers each workload exercises and which it must not touch.  The
# traced run fails its correctness check when a prediction does not hold,
# which catches a wrapper installed on the wrong binding.
WORKLOADS = {
    "portrait": Workload(
        "portrait", PORTRAIT_WHY, portrait, pattern=2,
        exercises=("specfun.lambert_w.calls", "models.potential.calls",
                   "models.hamiltonian.calls", "models.velocity.calls",
                   "ode.solve_rk45.calls", "ode.steps_accepted", "ode.rhs_evals",
                   "classical.energy_contour.calls", "classical.contour_vertices",
                   "classical.switch_events", "classical.integrate_branch_flow.s",
                   "classical.integrate_lagrangian_flow.s", "svg.render_svg.calls",
                   "io.write.s", "io.files"),
        bypasses=("specfun.g_table_build.calls", "specfun.g_table_scalar.calls",
                  "specfun.g_table_vector.points", "quantum.shoot.calls",
                  "quantum.potential_evals", "quantum.solve_eigenvalue.calls",
                  "deformation.shared_g_table.calls",
                  "deformation.potential_scalar.calls")),
    "scan": Workload(
        "scan", SCAN_WHY, scan, pattern=4,
        exercises=("quantum.shoot.calls", "quantum.potential_evals",
                   "quantum.solve_eigenvalue.calls", "quantum.eigenvalues",
                   "quantum.spectrum.s", "io.write.s", "io.files"),
        bypasses=("specfun.g_table_build.calls", "specfun.g_table_scalar.calls",
                  "specfun.lambert_w.calls", "models.potential.calls",
                  "models.velocity.calls", "ode.solve_rk45.calls", "ode.rhs_evals",
                  "classical.energy_contour.calls", "classical.contour_vertices",
                  "deformation.shared_g_table.calls",
                  "deformation.potential_scalar.calls", "svg.render_svg.calls")),
    "deform": Workload(
        "deform", DEFORM_WHY, deform, pattern=3,
        exercises=("specfun.g_table_build.calls", "specfun.g_table_scalar.calls",
                   "specfun.g_table_vector.points", "ode.solve_rk45.calls",
                   "ode.steps_accepted", "ode.rhs_evals", "quantum.shoot.calls",
                   "quantum.potential_evals", "quantum.eigenvalues",
                   "deformation.shared_g_table.calls",
                   "deformation.potential_scalar.calls", "deformation.sample.s",
                   "deformation.residuals.s", "svg.render_svg.calls", "io.write.s",
                   "io.files"),
        bypasses=("specfun.lambert_w.calls", "models.potential.calls",
                  "models.velocity.calls", "classical.energy_contour.calls",
                  "classical.contour_vertices", "classical.switch_events")),
}
