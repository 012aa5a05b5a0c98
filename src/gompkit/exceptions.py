"""Exception types raised across the toolkit.

Bad input raises the built-in ValueError (TypeError for a non-integral
count or index or data that is not integers or floats, IndexError for an
index outside 1..n). The types here are the refusals a caller handles on
their own: a numerically rank-deficient matrix, and an enumeration past
its budget.
"""


class GompkitError(Exception):
    """Base class for the numerical refusals and the enumeration budget."""


class RankDeficient(GompkitError):
    """A matrix is numerically rank-deficient: a column submatrix in a
    refit, or a square matrix handed to ``orthogonal_factor``.

    Raised from inside a pursuit, ``partial_trace`` carries the
    RecoveryTrace of the iterations completed before the failing refit.
    """

    partial_trace = None


class BudgetExceeded(GompkitError):
    """Support enumeration would exceed the configured budget."""
