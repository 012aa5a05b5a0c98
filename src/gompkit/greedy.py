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
the same bits per problem. Both rank with ``_top_n`` the magnitudes that
``_magnitudes`` checked, take the fit and its residual from linops'
``_refit``, which holds the certified normal-equation solve, its SVD
fallback and the rank test, and norm with
``_norm``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import RankDeficient
from .linops import (
    MatrixLike,
    _count,
    _index_set,
    _norm,
    _real,
    _refit,
    _to_cols,
    as_sensing_matrix,
    as_vector,
)


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
        object.__setattr__(self, "sparsity", _count("sparsity", self.sparsity))
        object.__setattr__(self, "n_select", _count("n_select", self.n_select))
        epsilon = float(_real("epsilon", self.epsilon, ndim=0))
        if epsilon < 0.0:
            raise ValueError(f"epsilon must be >= 0, got {epsilon}")
        object.__setattr__(self, "epsilon", epsilon)


@dataclass(frozen=True)
class IterationRecord:
    """State captured at the end of one iteration.

    ``correlations`` holds the magnitudes |A^T r| of the residual
    correlations that drove this iteration's selection (residual from the
    *previous* iteration), indexed by column position 0..n-1 for column
    indices 1..n. Anything but a 1-d float array of finite, nonnegative
    entries raises ValueError, as do repeated picks and a NaN or negative
    ``residual_norm``; a pick outside 1..n, IndexError.
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
        if not (corr.min(initial=0.0) >= 0.0 and corr.max(initial=0.0) < math.inf):
            raise ValueError("correlations must be finite and nonnegative")
        if len(_index_set(self.selected, corr.size)) < len(self.selected):
            raise ValueError(f"picks must be distinct, got {self.selected}")
        if not self.residual_norm >= 0.0:  # NaN fails the comparison too
            raise ValueError(f"residual_norm must be >= 0, got {self.residual_norm}")
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

    Ties go to the smaller index, so runs are reproducible across
    implementations. Returns 1-based indices, largest first. NaN correlations
    raise ValueError; an ``excluded`` entry outside 1..n raises IndexError.
    """
    n_select = _count("n_select", n_select)
    c = np.abs(np.asarray(correlations, dtype=float))
    cols = _to_cols(excluded, c.size)
    available = c.size - cols.size
    if n_select > available:
        raise ValueError(f"need {n_select} candidates, only {available} remain")
    if math.isnan(c.max(initial=0.0)):  # iff an entry is NaN, which would sort after the excluded
        raise ValueError("correlations must not be NaN")
    return (_top_n(c, n_select, cols) + 1).tolist()


def _top_n(magnitudes: np.ndarray, n_select: int, excluded: np.ndarray) -> np.ndarray:
    """Zero-based positions of the ``n_select`` largest of the nonnegative
    ``magnitudes`` (in both pursuits, what ``_magnitudes`` checked) on the
    last axis, largest first and the smaller position winning ties, by a
    stable sort on their negation with ``excluded`` (an index array or a
    boolean mask) pushed to +inf. The input is never written."""
    key = -magnitudes
    key[excluded] = np.inf
    return np.argsort(key, axis=-1, kind="stable")[..., :n_select]


def _check_fits(params: GompParams, m: int, n: int) -> None:
    # The full support must stay fittable (<= m) and selectable (<= n).
    size = params.n_select * params.sparsity
    if size > m:
        raise ValueError(f"n_select * sparsity = {size} exceeds the row count {m}")
    if size > n:
        raise ValueError(f"n_select * sparsity = {size} exceeds the {n} available columns")


def _magnitudes(correlations: np.ndarray) -> np.ndarray:
    """|A^T r|; NaN or inf, which only an overflowing product gives for
    finite A and r, raises ValueError in place of a plausible pick."""
    magnitudes = np.abs(correlations)
    if not magnitudes.max() < math.inf:  # NaN fails the comparison too
        raise ValueError("correlations must be finite: A^T r overflows")
    return magnitudes


@np.errstate(over="ignore", invalid="ignore")  # _magnitudes refuses an overflowed A^T r
def gomp_run(a: MatrixLike, y: np.ndarray, params: GompParams) -> RecoveryTrace:
    """Run the pursuit on observation ``y``.

    Starting from an empty support and residual r = y, each iteration
    selects ``n_select`` fresh indices by largest |A^T r|, refits y on the
    enlarged support by least squares, and recomputes the residual. Stops
    after ``sparsity`` iterations or once ||r|| <= epsilon. The estimate is
    the last least-squares fit placed on the final support, zero elsewhere.

    A refit on a rank-deficient support raises RankDeficient naming the
    iteration; its ``partial_trace`` holds the iterations completed before
    it, terminated as RANK_DEFICIENT. Entries so large that A^T r
    overflows raise ValueError.
    """
    mat = as_sensing_matrix(a)
    y = as_vector(y, mat.m, "observation")
    _check_fits(params, mat.m, mat.n)
    chosen = np.zeros(mat.n, dtype=bool)
    estimate = np.zeros(mat.n)
    records: list[IterationRecord] = []
    residual, norm = y, _norm(y)
    while len(records) < params.sparsity and norm > params.epsilon:
        correlations = mat.entries.T @ residual
        magnitudes = _magnitudes(correlations)
        picks = _top_n(magnitudes, params.n_select, chosen)
        chosen[picks] = True
        cols = np.flatnonzero(chosen)
        try:
            coef, residual = _refit(mat.entries[:, cols], y)
        except RankDeficient as exc:
            err = RankDeficient(f"iteration {len(records) + 1}: {exc}")
            err.partial_trace = RecoveryTrace(records, estimate, Termination.RANK_DEFICIENT)
            raise err from exc
        estimate[cols] = coef
        norm = _norm(residual)
        records.append(IterationRecord(tuple((picks + 1).tolist()), norm, magnitudes))
    termination = (
        Termination.RESIDUAL_BELOW_EPSILON
        if norm <= params.epsilon
        else Termination.MAX_ITERATIONS
    )
    return RecoveryTrace(records, estimate, termination)


@dataclass(frozen=True, eq=False)
class StackedRun:
    """Final state of every row of a :func:`gomp_stacked` run."""

    supports: np.ndarray  # (T, n) bool, True on the final support
    estimates: np.ndarray  # (T, n), the last fit placed on the final support
    iterations: np.ndarray  # (T,) iterations used
    residual_norms: np.ndarray  # (T,) final ||r||; NaN when no iteration ran, as in gomp_run


@np.errstate(over="ignore", invalid="ignore")  # as in gomp_run
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
    the whole stack, with ``gomp_run``'s message for the first such row;
    a live row whose A^T r overflows raises ``gomp_run``'s ValueError.
    """
    entries, y, eps = _real("matrix", entries), _real("observation", y), _real("epsilon", eps)
    if entries.ndim != 3 or y.shape != entries.shape[:2] or eps.shape != entries.shape[:1]:
        raise ValueError(
            f"expected entries (T, m, n), y (T, m) and eps (T,), "
            f"got {entries.shape}, {y.shape} and {eps.shape}"
        )
    if eps.min(initial=0.0) < 0.0:
        raise ValueError("epsilon must be >= 0")
    rows, m, n = entries.shape
    _check_fits(GompParams(sparsity, n_select, 0.0), m, n)

    chosen = np.zeros((rows, n), dtype=bool)
    estimates = np.zeros((rows, n))
    iterations = np.zeros(rows, dtype=int)
    residual = y.copy()
    norms = _norm(residual)
    # A^T of a C-ordered slice is F-ordered, as mat.entries.T in gomp_run
    a_t = entries.transpose(0, 2, 1)
    for k in range(1, sparsity + 1):
        live = np.flatnonzero(norms > eps)
        if live.size == 0:
            break
        # Frozen rows are correlated too: cheaper than copying the live slices.
        magnitudes = _magnitudes((a_t @ residual[:, :, None])[live, :, 0])
        chosen[live[:, None], _top_n(magnitudes, n_select, chosen[live])] = True
        cols = np.nonzero(chosen[live])[1].reshape(live.size, k * n_select)
        # Rows of A^T gathered C-ordered, so each A_S view is F-ordered
        # like the scalar entries[:, cols].
        sub = a_t[live[:, None], cols].transpose(0, 2, 1)
        try:
            coef, r_live = _refit(sub, y[live])
        except RankDeficient as exc:
            raise RankDeficient(f"iteration {k}: {exc}") from exc
        del sub  # free the (T, m, s) stack before the next gather
        residual[live] = r_live
        norms[live] = _norm(r_live)
        iterations[live] = k
        estimates[live[:, None], cols] = coef
    return StackedRun(chosen, estimates, iterations, np.where(iterations > 0, norms, np.nan))
