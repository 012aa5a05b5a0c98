"""Exception types raised across the toolkit."""


class GompkitError(Exception):
    """Base class for all gompkit errors."""


class DimensionMismatch(GompkitError, ValueError):
    """Vector or matrix dimensions do not agree."""


class RankDeficient(GompkitError):
    """A column submatrix is numerically rank-deficient.

    Raised from inside a pursuit, ``partial_trace`` carries the
    RecoveryTrace of the iterations completed before the failing refit.
    """

    partial_trace = None


class Singular(GompkitError):
    """A square matrix is numerically singular."""


class InsufficientCandidates(GompkitError, ValueError):
    """Fewer selectable indices remain than requested."""


class InvalidParams(GompkitError, ValueError):
    """Algorithm parameters are inconsistent with the problem size."""


class BudgetExceeded(GompkitError):
    """Support enumeration would exceed the configured budget."""


class DimensionError(GompkitError, ValueError):
    """Requested order exceeds the matrix dimensions."""


class NonPositiveDiagonal(GompkitError, ValueError):
    """Diagonal scaling entries must be strictly positive."""


class OrderMismatch(GompkitError, ValueError):
    """An isometry-constant estimate does not cover the required order."""


class ConditionViolated(GompkitError, ValueError):
    """A threshold formula is undefined for the given constant."""


class EmptySupport(GompkitError, ValueError):
    """The signal has no nonzero entries."""


class NotNoiseFree(GompkitError, ValueError):
    """A noise-free check was invoked on a noisy instance."""
