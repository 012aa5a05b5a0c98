"""Generalized orthogonal matching pursuit with full per-iteration tracing.

Each iteration picks the ``n_select`` columns most correlated with the
current residual, enlarges the support, refits by least squares, and
updates the residual. With ``n_select = 1`` this is plain OMP.

Indices on the public surface are 1-based. Selection excludes indices that
are already in the support: their correlations are exactly zero in exact
arithmetic, so exclusion only rules out re-picks under floating-point
ties and keeps the support growing by exactly ``n_select`` per iteration.

``gomp_run`` is the traced reference. ``gomp_stacked`` runs many
same-shape problems as one stacked computation without traces and gives
the same bits per problem. Both select through ``_top_n`` and refit
through linops' SVD solve, which holds the rank test.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionMismatch,
    InsufficientCandidates,
    InvalidParams,
    RankDeficient,
)
from .linops import MatrixLike, _solve_submatrix, as_sensing_matrix, least_squares, row_dot


class Termination(enum.Enum):
    """Why a run stopped."""

    MAX_ITERATIONS = "max_iterations"
    RESIDUAL_BELOW_EPSILON = "residual_below_epsilon"
    RANK_DEFICIENT = "rank_deficient"  # only on RankDeficient.partial_trace


@dataclass(frozen=True)
class GompParams:
    """Run parameters.

    Parameters
    ----------
    sparsity : int
        Sparsity level K; also the iteration cap.
    n_select : int
        Indices added per iteration (N). A run checks only that the full
        support fits the matrix, N * sparsity <= m and <= n; the guarantees
        also want N <= (m - 1) / sparsity, which is not checked.
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
    indices 1..n; anything but a 1-d float array raises ValueError.
    """

    selected: tuple[int, ...]
    residual_norm: float
    correlations: np.ndarray

    def __post_init__(self):
        corr = np.asarray(self.correlations)
        if corr.ndim != 1 or corr.dtype.kind != "f":
            raise ValueError(
                f"correlations must be a 1-d float array, got {corr.dtype} {corr.shape}"
            )
        object.__setattr__(self, "correlations", corr)


@dataclass(frozen=True)
class RecoveryTrace:
    """Full record of a run: per-iteration state plus the final estimate.
    ``final_support`` is the union of the iterations' selections."""

    iterations: list[IterationRecord]
    final_estimate: np.ndarray
    termination: Termination

    @property
    def final_support(self) -> frozenset[int]:
        return frozenset(i for record in self.iterations for i in record.selected)

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
    selection (descending-magnitude) order; NaN correlations raise ValueError.
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
    if math.isnan(c @ c):  # iff an entry is NaN, which would sort after the excluded
        raise ValueError("correlations must not be NaN")
    picks = _top_n(c, n_select, np.fromiter(excluded0, np.intp, len(excluded0)))
    return [i + 1 for i in picks.tolist()]


def _top_n(correlations: np.ndarray, n_select: int, excluded: np.ndarray) -> np.ndarray:
    """Zero-based positions of the ``n_select`` largest |c| on the last axis,
    largest first and the smaller position winning ties, by a stable sort on
    -|c| with ``excluded`` (an index array or a boolean mask) pushed to +inf."""
    key = -np.abs(correlations)
    key[excluded] = np.inf
    return np.argsort(key, axis=-1, kind="stable")[..., :n_select]


def _check_fits(params: GompParams, m: int, n: int) -> None:
    # The full support must stay fittable (<= m) and selectable (<= n).
    size = params.n_select * params.sparsity
    if size > m:
        raise InvalidParams(f"n_select * sparsity = {size} exceeds the row count {m}")
    if size > n:
        raise InvalidParams(f"n_select * sparsity = {size} exceeds the {n} available columns")


def _placed(n: int, support: list[int], coef: np.ndarray) -> np.ndarray:
    """Coefficients of the fit on ``support`` (1-based) placed in a length-n vector."""
    estimate = np.zeros(n)
    if support:
        estimate[np.asarray(sorted(support)) - 1] = coef
    return estimate


def gomp_run(a: MatrixLike, y: np.ndarray, params: GompParams) -> RecoveryTrace:
    """Run the pursuit on observation ``y``.

    Starting from an empty support and residual r = y, each iteration
    selects ``n_select`` fresh indices by largest |A^T r|, refits y on the
    enlarged support by least squares, and recomputes the residual. Stops
    after ``sparsity`` iterations or once ||r|| <= epsilon. The estimate is
    the last least-squares fit placed on the final support, zero elsewhere.

    A refit on a rank-deficient support raises RankDeficient naming the
    iteration; its ``partial_trace`` holds the iterations completed before
    it, terminated as RANK_DEFICIENT.
    """
    mat = as_sensing_matrix(a)
    y = np.asarray(y, dtype=float)
    if y.shape != (mat.m,):
        raise DimensionMismatch(f"observation has shape {y.shape}, expected ({mat.m},)")
    if not np.all(np.isfinite(y)):
        raise ValueError("observation entries must be finite")
    _check_fits(params, mat.m, mat.n)
    k_max, n_sel = params.sparsity, params.n_select

    support: list[int] = []  # 1-based, insertion order
    residual = y.copy()
    coef = np.empty(0)
    records: list[IterationRecord] = []

    k = 0
    while k < k_max and float(np.linalg.norm(residual)) > params.epsilon:
        k += 1
        correlations = mat.entries.T @ residual
        picked = select_top_n(correlations, n_sel, excluded=frozenset(support))
        try:
            new_coef = least_squares(mat, support + picked, y)
        except RankDeficient as exc:
            err = RankDeficient(f"iteration {k}: {exc}")
            err.partial_trace = RecoveryTrace(
                records, _placed(mat.n, support, coef), Termination.RANK_DEFICIENT
            )
            raise err from exc
        support.extend(picked)
        coef = new_coef
        sorted_support = sorted(support)
        fitted = mat.entries[:, np.asarray(sorted_support) - 1] @ coef
        residual = y - fitted
        records.append(
            IterationRecord(tuple(picked), float(np.linalg.norm(residual)), np.abs(correlations))
        )

    final_norm = float(np.linalg.norm(residual))
    termination = (
        Termination.RESIDUAL_BELOW_EPSILON
        if final_norm <= params.epsilon
        else Termination.MAX_ITERATIONS
    )
    return RecoveryTrace(records, _placed(mat.n, support, coef), termination)


@dataclass(frozen=True, eq=False)
class StackedRun:
    """Final state of every row of a :func:`gomp_stacked` run."""

    supports: np.ndarray  # (T, n) bool, True on the final support
    estimates: np.ndarray  # (T, n), the last fit placed on the final support
    iterations: np.ndarray  # (T,) iterations used
    residual_norms: np.ndarray  # (T,) final ||r||; ||y|| when no iteration ran


def gomp_stacked(
    entries: np.ndarray, y: np.ndarray, eps: np.ndarray, sparsity: int, n_select: int
) -> StackedRun:
    """Run the pursuit on a stack of problems of one shape, without traces.

    Row t of the result has the same bits as ``gomp_run(entries[t], y[t],
    GompParams(sparsity, n_select, eps[t]))``: final support, estimate,
    iteration count and final residual norm. Each product is formed with
    the memory layout the scalar run gives its operands, so BLAS sums in
    the same order. A row freezes once its residual norm is <= its
    epsilon. A rank-deficient refit in any row raises RankDeficient for
    the whole stack, with ``gomp_run``'s message for the first such row.
    """
    entries = np.asarray(entries, dtype=float)
    y = np.asarray(y, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if entries.ndim != 3 or y.shape != entries.shape[:2] or eps.shape != entries.shape[:1]:
        raise DimensionMismatch(
            f"expected entries (T, m, n), y (T, m) and eps (T,), "
            f"got {entries.shape}, {y.shape} and {eps.shape}"
        )
    if not np.all(np.isfinite(entries)):
        raise ValueError("matrix entries must be finite")
    if not np.all(np.isfinite(y)):
        raise ValueError("observation entries must be finite")
    if not np.all(eps >= 0.0):
        raise InvalidParams("epsilon must be >= 0")
    rows, m, n = entries.shape
    _check_fits(GompParams(sparsity, n_select, 0.0), m, n)

    chosen = np.zeros((rows, n), dtype=bool)
    estimates = np.zeros((rows, n))
    iterations = np.zeros(rows, dtype=int)
    residual = y.copy()
    norms = np.sqrt(row_dot(residual, residual))
    # A^T of a C-ordered slice is F-ordered, as mat.entries.T in gomp_run
    a_t = entries.transpose(0, 2, 1)
    for k in range(1, sparsity + 1):
        live = np.flatnonzero(norms > eps)
        if live.size == 0:
            break
        # Frozen rows are correlated too: cheaper than copying the live slices.
        corr = (a_t @ residual[:, :, None])[live, :, 0]
        chosen[live[:, None], _top_n(corr, n_select, chosen[live])] = True
        cols = np.nonzero(chosen[live])[1].reshape(live.size, k * n_select)
        # Rows of A^T gathered C-ordered, so each A_S view is F-ordered
        # like the scalar entries[:, cols].
        sub = a_t[live[:, None], cols].transpose(0, 2, 1)
        y_live = y[live]
        try:
            coef = _solve_submatrix(sub, y_live)
        except RankDeficient as exc:
            raise RankDeficient(f"iteration {k}: {exc}") from exc
        r_live = y_live - (sub @ coef[:, :, None])[:, :, 0]
        del sub  # free the (T, m, s) stack before the next gather
        residual[live] = r_live
        norms[live] = np.sqrt(row_dot(r_live, r_live))
        iterations[live] = k
        estimates[live[:, None], cols] = coef
    return StackedRun(chosen, estimates, iterations, norms)

