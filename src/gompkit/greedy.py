"""Generalized orthogonal matching pursuit with full per-iteration tracing.

Each iteration picks the ``n_select`` columns most correlated with the
current residual, enlarges the support, refits by least squares, and
updates the residual. With ``n_select = 1`` this is plain OMP.

Indices on the public surface are 1-based. Selection excludes indices that
are already in the support: their correlations are exactly zero in exact
arithmetic, so exclusion only rules out re-picks under floating-point
ties and keeps the support growing by exactly ``n_select`` per iteration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionMismatch,
    InsufficientCandidates,
    InvalidParams,
    TraceIncomplete,
)
from .linops import MatrixLike, as_sensing_matrix, least_squares


class Termination(enum.Enum):
    """Why a run stopped."""

    MAX_ITERATIONS = "max_iterations"
    RESIDUAL_BELOW_EPSILON = "residual_below_epsilon"


@dataclass(frozen=True)
class GompParams:
    """Run parameters.

    Parameters
    ----------
    sparsity : int
        Sparsity level K; also the iteration cap.
    n_select : int
        Indices added per iteration (N). Must satisfy
        n_select <= (m - 1) / sparsity for the sensing matrix in use;
        checked when the matrix is known.
    epsilon : float
        Absolute residual 2-norm stopping threshold (not relative to ||y||).
    """

    sparsity: int
    n_select: int
    epsilon: float

    def __post_init__(self):
        if self.sparsity < 1:
            raise InvalidParams(f"sparsity must be >= 1, got {self.sparsity}")
        if self.n_select < 1:
            raise InvalidParams(f"n_select must be >= 1, got {self.n_select}")
        if not (self.epsilon >= 0.0):
            raise InvalidParams(f"epsilon must be >= 0, got {self.epsilon}")


@dataclass(frozen=True)
class IterationRecord:
    """State captured at the end of one iteration.

    ``correlations`` holds the magnitudes |A^T r| of the residual
    correlations that drove this iteration's selection (residual from the
    *previous* iteration), indexed by column position 0..n-1 for column
    indices 1..n.
    """

    selected: tuple[int, ...]
    support_after: frozenset[int]
    residual_norm: float
    correlations: np.ndarray | None = None


@dataclass(frozen=True)
class RecoveryTrace:
    """Full record of a run: per-iteration state plus the final estimate."""

    iterations: list[IterationRecord]
    final_estimate: np.ndarray
    final_support: frozenset[int]
    termination: Termination

    @property
    def iterations_used(self) -> int:
        return len(self.iterations)

    @property
    def final_residual_norm(self) -> float:
        if not self.iterations:
            return float("nan")
        return self.iterations[-1].residual_norm


def select_top_n(
    correlations: np.ndarray, n_select: int, excluded: frozenset[int] | set[int] = frozenset()
) -> list[int]:
    """Pick the ``n_select`` indices of largest magnitude, skipping ``excluded``.

    Ties are broken toward the smaller index so that runs are deterministic
    and reproducible across implementations. Returns 1-based indices in
    selection (descending-magnitude) order.
    """
    c = np.asarray(correlations, dtype=float)
    n = c.size
    excluded0 = {int(i) - 1 for i in excluded}
    for i in excluded0:
        if i < 0 or i >= n:
            raise IndexError(f"excluded index {i + 1} outside 1..{n}")
    available = n - len(excluded0)
    if n_select > available:
        raise InsufficientCandidates(
            f"need {n_select} candidates, only {available} remain"
        )
    candidates = np.array([i for i in range(n) if i not in excluded0], dtype=int)
    # stable order: primary |c| descending, secondary index ascending
    order = np.lexsort((candidates, -np.abs(c[candidates])))
    return [int(candidates[i]) + 1 for i in order[:n_select]]


def gomp_run(a: MatrixLike, y: np.ndarray, params: GompParams) -> RecoveryTrace:
    """Run the pursuit on observation ``y``.

    Starting from an empty support and residual r = y, each iteration
    selects ``n_select`` fresh indices by largest |A^T r|, refits y on the
    enlarged support by least squares, and recomputes the residual. Stops
    after ``sparsity`` iterations or once ||r|| <= epsilon. The estimate is
    the last least-squares fit placed on the final support, zero elsewhere.
    """
    mat = as_sensing_matrix(a)
    y = np.asarray(y, dtype=float)
    if y.shape != (mat.m,):
        raise DimensionMismatch(f"observation has shape {y.shape}, expected ({mat.m},)")
    if not np.all(np.isfinite(y)):
        raise ValueError("observation entries must be finite")
    k_max, n_sel = params.sparsity, params.n_select
    # The guarantee theory wants n_select <= (m - 1)/sparsity so the
    # order-NK+1 constant exists; the algorithm itself only needs the full
    # support to stay fittable (<= m) and selectable (<= n).
    if n_sel * k_max > mat.m:
        raise InvalidParams(
            f"n_select * sparsity = {n_sel * k_max} exceeds the row count {mat.m}"
        )
    if n_sel * k_max > mat.n:
        raise InvalidParams(
            f"n_select * sparsity = {n_sel * k_max} exceeds the {mat.n} available columns"
        )

    support: list[int] = []  # 1-based, insertion order
    residual = y.copy()
    coef = np.empty(0)
    records: list[IterationRecord] = []

    k = 0
    while k < k_max and float(np.linalg.norm(residual)) > params.epsilon:
        k += 1
        correlations = mat.entries.T @ residual
        picked = select_top_n(correlations, n_sel, excluded=frozenset(support))
        support.extend(picked)
        coef = least_squares(mat, support, y)
        sorted_support = sorted(support)
        fitted = mat.entries[:, np.asarray(sorted_support) - 1] @ coef
        residual = y - fitted
        records.append(
            IterationRecord(
                selected=tuple(picked),
                support_after=frozenset(support),
                residual_norm=float(np.linalg.norm(residual)),
                correlations=np.abs(correlations),
            )
        )

    final_norm = float(np.linalg.norm(residual))
    termination = (
        Termination.RESIDUAL_BELOW_EPSILON
        if final_norm <= params.epsilon
        else Termination.MAX_ITERATIONS
    )
    estimate = np.zeros(mat.n)
    if support:
        estimate[np.asarray(sorted(support)) - 1] = coef
    return RecoveryTrace(
        iterations=records,
        final_estimate=estimate,
        final_support=frozenset(support),
        termination=termination,
    )


def correlations_or_raise(record: IterationRecord) -> np.ndarray:
    """Return a record's correlation magnitudes, or raise TraceIncomplete."""
    if record.correlations is None:
        raise TraceIncomplete("iteration record carries no correlation vector")
    return np.asarray(record.correlations, dtype=float)
