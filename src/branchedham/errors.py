"""Exception types raised by the library.

Every numerical routine raises a typed error instead of returning NaN or
infinity, so callers (in particular the trajectory integrators and the CLI)
can make explicit decisions at singular points.
"""


class BranchedHamError(Exception):
    """Base class for all library errors."""


class DomainError(BranchedHamError, ValueError):
    """Input outside the mathematical domain of an operation."""


class SingularInputError(DomainError):
    """Input sits exactly on a singularity (e.g. v=1 of the odd-root family)."""


class DegenerateInputError(DomainError):
    """Input for which the requested object degenerates to zero/nothing."""


class BranchMismatchError(DomainError):
    """Momentum and branch label are inconsistent."""


class ConvergenceError(BranchedHamError, RuntimeError):
    """An iteration or subdivision budget was exhausted."""


class StepFailureError(ConvergenceError):
    """Adaptive ODE controller could not meet the tolerance."""


class NoSignChangeError(BranchedHamError, ValueError):
    """Eigenvalue bracket does not bracket a sign change of the mismatch."""


class ZeroEnergyError(BranchedHamError, ValueError):
    """Operation requires E > 0 (e.g. 1/sqrt(E) ladder normalization)."""


class NoOrbitError(BranchedHamError, ValueError):
    """No classical orbit exists for the requested energy/region."""


class BelowThresholdError(NoOrbitError):
    """Energy below the threshold for bounded motion."""


class ValidationError(BranchedHamError, ValueError):
    """Run configuration failed validation; message carries the field path."""


class EmptyDatasetError(BranchedHamError, ValueError):
    """Nothing to render/export."""
