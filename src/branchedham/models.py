"""The three model families as pure functions of phase-space coordinates.

* gaussian model: L = C(1 - exp(-m v^2 / 2C)) - V(x).  Momentum is confined
  to [-sqrt(mC/e), +sqrt(mC/e)] and the velocity inversion needs both real
  Lambert W branches, giving three Hamiltonian branches (Minus, Middle, Plus)
  that meet in three cusps.
* odd-root family: L = C (v-1)^{(2k-1)/(2k+1)} - V(x) with the real odd-root
  convention, giving the double-valued pair H_-/H_+ on p > 0.
* SUSY model: the k=1 member with V(x) = x^2, whose single-valued classical
  energy function E(x, v) complements the double-valued H branches.

All operations are pure and thread-safe.  The model functions are scalar;
``Potential`` and its derivative also evaluate elementwise on numpy arrays,
with the same floating-point operations as the scalar call.  Singular inputs
(p=0 on an outer-family branch, v=1 of the odd-root family) raise typed
errors so integrators must decide explicitly what to do there.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum

from .errors import BranchMismatchError, DomainError, SingularInputError
from .specfun import WBranch, lambert_w

__all__ = [
    "Potential", "BranchId", "GaussianModel", "FamilyModel", "susy_model",
    "gaussian_momentum", "gaussian_velocity", "gaussian_lagrangian",
    "gaussian_hamiltonian", "gaussian_cusps",
    "family_momentum", "family_velocity", "family_lagrangian",
    "family_hamiltonian", "susy_energy", "SUSY_C", "model_from_config",
    "is_finite_number",
]


class BranchId(Enum):
    """Which Hamiltonian branch governs the motion.

    Gaussian model: MINUS/MIDDLE/PLUS for v in (-inf, -sqrt(C/m)],
    [-sqrt(C/m), sqrt(C/m)], [sqrt(C/m), inf); the outer branches are valid
    for p <= 0 / p >= 0 respectively, the middle one on the whole momentum
    interval.  Family models: H_MINUS (v > 1) and H_PLUS (v < 1), p > 0 only.
    """

    MINUS = "minus"
    MIDDLE = "middle"
    PLUS = "plus"
    H_MINUS = "h_minus"
    H_PLUS = "h_plus"

    @property
    def is_gaussian(self) -> bool:
        return self in (BranchId.MINUS, BranchId.MIDDLE, BranchId.PLUS)


@dataclass(frozen=True)
class Potential:
    """V(x): zero, shifted harmonic c0 + a x^2, or the plain square x^2.

    x may be a float or a numpy array; "zero" returns the scalar 0.0, which
    broadcasts against an array.
    """

    kind: str = "zero"          # "zero" | "harmonic_shifted" | "square"
    c0: float = 0.0
    a: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "harmonic_shifted", "square"):
            raise DomainError(f"Potential: unknown kind {self.kind!r}")

    def __call__(self, x: float) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "square":
            return x * x
        return self.c0 + self.a * x * x

    def derivative(self, x: float) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "square":
            return 2.0 * x
        return 2.0 * self.a * x


@dataclass(frozen=True)
class GaussianModel:
    """Gaussian-Lagrangian model with mass m and energy scale C."""

    m: float = 1.0
    C: float = 1.0
    potential: Potential = field(default_factory=Potential)

    def __post_init__(self):
        if self.m <= 0.0 or self.C <= 0.0:
            raise DomainError("GaussianModel: m and C must be positive")

    @property
    def p_cusp(self) -> float:
        """Largest attainable |p|: the momentum of the outer cusps."""
        return math.sqrt(self.m * self.C / math.e)

    @property
    def v_cusp(self) -> float:
        """|v| at the outer cusps, where p(v) is extremal."""
        return math.sqrt(self.C / self.m)


# L carries (v - 1)^{2k-1}, which overflows a double at the trajectories'
# escape bound |v| = 1e6 once k > 26 (k = 10^9 overflowed H at p = 0.05)
_K_MAX = 25


@dataclass(frozen=True)
class FamilyModel:
    """Odd-root family member; C is fixed by k."""

    k: int = 1
    potential: Potential = field(default_factory=lambda: Potential("square"))

    def __post_init__(self):
        if not isinstance(self.k, int) or isinstance(self.k, bool) \
                or not 1 <= self.k <= _K_MAX:
            raise DomainError(f"FamilyModel: k must be an integer in [1, {_K_MAX}], "
                              f"got {self.k!r}")

    @property
    def C(self) -> float:
        k = self.k
        return (2 * k + 1) / (2 * k - 1) * 0.25 ** (2.0 / (2 * k + 1))


SUSY_C = 3.0 * 4.0 ** (-2.0 / 3.0)  # C for k=1, the bounded-orbit threshold


def susy_model() -> FamilyModel:
    """The supersymmetric member: k=1 with V(x) = x^2."""
    return FamilyModel(k=1, potential=Potential("square"))


# ---------------------------------------------------------------------------
# gaussian model
# ---------------------------------------------------------------------------

def gaussian_momentum(model: GaussianModel, v: float) -> float:
    """p(v) = dL/dv = m v exp(-m v^2 / 2C); bounded by +/- sqrt(mC/e)."""
    return model.m * v * math.exp(-model.m * v * v / (2.0 * model.C))


def gaussian_lagrangian(model: GaussianModel, x: float, v: float) -> float:
    return model.C * (1.0 - math.exp(-model.m * v * v / (2.0 * model.C))) \
        - model.potential(x)


_BRANCH_ARG = math.exp(-1.0)


def _w_argument(model: GaussianModel, p: float) -> float:
    a = -(p * p) / (model.m * model.C)
    if a < -_BRANCH_ARG:
        if a < -_BRANCH_ARG * (1.0 + 1e-12):
            raise DomainError(
                f"gaussian: |p|={abs(p)!r} exceeds the momentum bound sqrt(mC/e)")
        a = -_BRANCH_ARG
    return a


def gaussian_velocity(model: GaussianModel, p: float, branch: BranchId) -> float:
    """Branch-wise inversion of p(v) via the real Lambert W branches.

    Middle uses the principal branch with sign(v) = sign(p); the outer
    branches use the lower branch with fixed sign.  Raises on |p| beyond the
    bound, on a sign/branch mismatch, and at the p=0 singularity of the
    outer branches (v -> +/- infinity there).
    """
    a = _w_argument(model, p)
    if branch is BranchId.MIDDLE:
        w = lambert_w(WBranch.PRINCIPAL, a)
        v = math.sqrt(max(-model.C / model.m * w, 0.0))
        return v if p >= 0.0 else -v
    if branch is BranchId.PLUS:
        if p < 0.0:
            raise BranchMismatchError("gaussian: PLUS branch needs p >= 0")
        sign = 1.0
    elif branch is BranchId.MINUS:
        if p > 0.0:
            raise BranchMismatchError("gaussian: MINUS branch needs p <= 0")
        sign = -1.0
    else:
        raise BranchMismatchError(f"gaussian: not a gaussian branch: {branch}")
    if p == 0.0:
        raise SingularInputError("gaussian: outer branches diverge at p=0")
    w = lambert_w(WBranch.LOWER, a)
    return sign * math.sqrt(-model.C / model.m * w)


def gaussian_hamiltonian(model: GaussianModel, x: float, p: float,
                         branch: BranchId) -> float:
    """H = p v(p) - L(x, v(p)) on the requested branch.

    At p=0 the outer branches return the cusp limit V(x) - C (v diverges but
    p v - L stays finite).  On the middle branch near p=0,
    H - V = p^2/2m + p^4/8Cm^2 + 5p^6/48m^3C^2 + O(p^8).
    """
    if p == 0.0 and branch in (BranchId.MINUS, BranchId.PLUS):
        return model.potential(x) - model.C
    v = gaussian_velocity(model, p, branch)
    return p * v - gaussian_lagrangian(model, x, v)


def gaussian_cusps(model: GaussianModel, x: float) -> list[tuple[float, float]]:
    """The three cusp points (p, H) where Hamiltonian branches meet.

    Two outer cusps at p = +/- sqrt(mC/e) with H = V(x) - C + 2C/sqrt(e),
    and the meeting point of the outer branches at (0, V(x) - C).
    """
    pc = model.p_cusp
    v_x = model.potential(x)
    h_outer = v_x - model.C + 2.0 * model.C / math.sqrt(math.e)
    return [(-pc, h_outer), (pc, h_outer), (0.0, v_x - model.C)]


# ---------------------------------------------------------------------------
# odd-root family
# ---------------------------------------------------------------------------

def _power(base: float, exponent: float) -> float:
    """base ** exponent; DomainError where that overflows a double."""
    try:
        return base ** exponent
    except OverflowError:
        raise DomainError(f"family: {base!r} ** {exponent!r} overflows") from None


def _real_odd_root(y: float, n: int) -> float:
    """Real n-th root (n odd) with the sign of y."""
    return math.copysign(abs(y) ** (1.0 / n), y)


def family_momentum(model: FamilyModel, v: float) -> float:
    """p(v) = (1/4)^{2/(2k+1)} / ((v-1)^2)^{1/(2k+1)} > 0; singular at v=1."""
    if v == 1.0:
        raise SingularInputError("family: p(v) diverges at v=1")
    k = model.k
    return 0.25 ** (2.0 / (2 * k + 1)) / ((v - 1.0) ** 2) ** (1.0 / (2 * k + 1))


def family_velocity(model: FamilyModel, p: float, branch: BranchId) -> float:
    """v_-(p) = 1 + (1/4) p^{-(2k+1)/2} > 1 on H_MINUS; v_+ < 1 on H_PLUS."""
    if p <= 0.0:
        raise DomainError(f"family: p={p!r} must be positive")
    k = model.k
    step = 0.25 * _power(p, -(2 * k + 1) / 2.0)
    if branch is BranchId.H_MINUS:
        return 1.0 + step
    if branch is BranchId.H_PLUS:
        return 1.0 - step
    raise BranchMismatchError(f"family: not a family branch: {branch}")


def family_lagrangian(model: FamilyModel, x: float, v: float) -> float:
    k = model.k
    return model.C * _real_odd_root(_power(v - 1.0, 2 * k - 1), 2 * k + 1) \
        - model.potential(x)


def family_hamiltonian(model: FamilyModel, x: float, p: float,
                       branch: BranchId) -> float:
    """H_+- = p +- (1/(4k-2)) p^{-(2k-1)/2} + V(x); H_+ > H_- for all p."""
    if p <= 0.0:
        raise DomainError(f"family: p={p!r} must be positive")
    k = model.k
    term = _power(p, -(2 * k - 1) / 2.0) / (4 * k - 2)
    if branch is BranchId.H_MINUS:
        return p - term + model.potential(x)
    if branch is BranchId.H_PLUS:
        return p + term + model.potential(x)
    raise BranchMismatchError(f"family: not a family branch: {branch}")


def susy_energy(x: float, v: float) -> float:
    """Single-valued conserved energy of the k=1, V=x^2 model.

    E(x, v) = x^2 + (C/3) (3 - 2v) / ((v-1)^2)^{1/3}; blows up at the v=1
    barrier (SingularInputError) and agrees with the Legendre-transform value
    of H_+ for v < 1 and H_- for v > 1.
    """
    if v == 1.0:
        raise SingularInputError("susy_energy: infinite barrier at v=1")
    return x * x + (SUSY_C / 3.0) * (3.0 - 2.0 * v) / ((v - 1.0) ** 2) ** (1.0 / 3.0)


# ---------------------------------------------------------------------------
# construction from a JSON-style mapping (schema documented in the cli module)
# ---------------------------------------------------------------------------

def model_from_config(cfg: dict) -> GaussianModel | FamilyModel:
    """Build a model from a plain mapping, e.g. parsed JSON.

    {"kind": "gaussian", "m": 1.0, "C": 1.0, "potential": {...}}
    {"kind": "family", "k": 2, "potential": {...}}
    {"kind": "susy"}
    potential: {"kind": "zero"} | {"kind": "square"}
             | {"kind": "harmonic_shifted", "c0": 1.0, "a": 1.0}
    """
    kind = _kind(cfg, "model", None, {"gaussian": {"m", "C", "potential"},
                                      "family": {"k", "potential"}, "susy": set()})
    if kind == "susy":
        return susy_model()
    pot = _potential_from_config(cfg.get("potential", {"kind": "zero"}))
    if kind == "gaussian":
        return GaussianModel(m=_number(cfg, "m", 1.0), C=_number(cfg, "C", 1.0),
                             potential=pot)
    return FamilyModel(k=cfg.get("k", 1), potential=pot)


def _potential_from_config(cfg: dict) -> Potential:
    kind = _kind(cfg, "potential", "zero", {"zero": set(), "square": set(),
                                            "harmonic_shifted": {"c0", "a"}})
    if kind == "harmonic_shifted":
        return Potential("harmonic_shifted", c0=_number(cfg, "c0", 0.0),
                         a=_number(cfg, "a", 0.0))
    return Potential(kind)


def _kind(cfg: dict, what: str, default: str | None, fields: dict) -> str:
    """cfg's "kind", a key of `fields`, which lists the other keys it takes."""
    if not isinstance(cfg, dict):
        raise DomainError(f"{what} config must be a mapping")
    kind = cfg.get("kind", default)
    if not isinstance(kind, str) or kind not in fields:
        raise DomainError(f"{what} config: unknown kind {kind!r}")
    extra = set(cfg) - fields[kind] - {"kind"}
    if extra:
        raise DomainError(f"{what} config: unknown fields {sorted(extra)}")
    return kind


def is_finite_number(v) -> bool:
    """True for an int or float, not a bool, within the float range."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and abs(v) <= sys.float_info.max


def _number(cfg: dict, key: str, default: float) -> float:
    v = cfg.get(key, default)
    if not is_finite_number(v):
        raise DomainError(f"model config: {key} must be a finite number, got {v!r}")
    return float(v)
