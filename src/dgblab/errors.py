"""Exception types shared across the package."""


class DgbError(Exception):
    """Base class for all package-specific failures."""


class ProfileError(DgbError):
    """Invalid or degenerate damping profile."""


class MultiplicityBoundError(DgbError):
    """An eigenvalue class exceeded the multiplicity bound of 5."""


class DegenerateGramianError(DgbError):
    """Mode set contains repeated eigenvalues; group classes first."""


class IllPosedHorizonError(DgbError):
    """Exponential Gramian too ill-conditioned for a biorthogonal family."""


class UncontrollableTruncationError(DgbError):
    """Controllability Gramian numerically singular on the truncated system."""


class ObservabilityFailureError(DgbError):
    """Observability Gramian lost positivity."""


class BlowUpError(DgbError):
    """Time integration diverged."""

    def __init__(self, message, last_valid_time=None):
        super().__init__(message)
        self.last_valid_time = last_valid_time


class ConfigError(DgbError):
    """Run configuration failed validation."""
