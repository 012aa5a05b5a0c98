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
the same bits per problem.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionMismatch,
    InsufficientCandidates,
    InvalidParams,
    RankDeficient,
    TraceIncomplete,
)
from .linops import RANK_RTOL, MatrixLike, as_sensing_matrix, least_squares, row_dot


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


def _check_fits(params: GompParams, m: int, n: int) -> None:
    # The guarantee theory wants n_select <= (m - 1)/sparsity so the
    # order-NK+1 constant exists; the algorithm itself only needs the full
    # support to stay fittable (<= m) and selectable (<= n).
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
                iterations=records,
                final_estimate=_placed(mat.n, support, coef),
                final_support=frozenset(support),
                termination=Termination.RANK_DEFICIENT,
            )
            raise err from exc
        support.extend(picked)
        coef = new_coef
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
    return RecoveryTrace(
        iterations=records,
        final_estimate=_placed(mat.n, support, coef),
        final_support=frozenset(support),
        termination=termination,
    )


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
    the whole stack.
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
        # Stable sort on -|c| with the support pushed last: the smallest
        # index wins ties, as in select_top_n.
        key = -np.abs(corr)
        key[chosen[live]] = np.inf
        picks = np.argsort(key, axis=1, kind="stable")[:, :n_select]
        chosen[live[:, None], picks] = True
        cols = np.nonzero(chosen[live])[1].reshape(live.size, k * n_select)
        # Rows of A^T gathered C-ordered, so each A_S view is F-ordered
        # like the scalar entries[:, cols].
        sub = a_t[live[:, None], cols].transpose(0, 2, 1)
        y_live = y[live, :, None]
        # linops.least_squares on every slice: SVD solve, same rank check
        u, s, vt = np.linalg.svd(sub, full_matrices=False)
        if ((s[:, 0] <= 0.0) | (s[:, -1] < RANK_RTOL * s[:, 0])).any():
            raise RankDeficient(f"iteration {k}: a support submatrix is numerically rank-deficient")
        coef = vt.transpose(0, 2, 1) @ ((u.transpose(0, 2, 1) @ y_live) / s[:, :, None])
        r_live = (y_live - sub @ coef)[:, :, 0]
        del sub, u, vt  # free the (T, m, s) stacks before the next gather
        residual[live] = r_live
        norms[live] = np.sqrt(row_dot(r_live, r_live))
        iterations[live] = k
        estimates[live[:, None], cols] = coef[:, :, 0]
    return StackedRun(chosen, estimates, iterations, norms)


def correlations_or_raise(record: IterationRecord) -> np.ndarray:
    """Return a record's correlation magnitudes, or raise TraceIncomplete."""
    if record.correlations is None:
        raise TraceIncomplete("iteration record carries no correlation vector")
    return np.asarray(record.correlations, dtype=float)
