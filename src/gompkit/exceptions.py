"""Exception types raised across the toolkit.

Bad input raises the built-in ValueError (IndexError for an out-of-range
1-based index). The types here are the refusals a caller handles on
their own: a numerically rank-deficient or singular matrix, and an
enumeration past its budget.
"""


class GompkitError(Exception):
    """Base class for the numerical refusals and the enumeration budget."""


class RankDeficient(GompkitError):
    """A column submatrix is numerically rank-deficient.

    Raised from inside a pursuit, ``partial_trace`` carries the
    RecoveryTrace of the iterations completed before the failing refit.
    """

    partial_trace = None


class Singular(GompkitError):
    """A square matrix is numerically singular."""


class BudgetExceeded(GompkitError):
    """Support enumeration would exceed the configured budget."""
