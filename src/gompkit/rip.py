"""Restricted-isometry constants and recovery-condition thresholds.

The constant of order k measures how far every k-column submatrix is from
an isometry: the smallest delta with
(1 - delta) ||x||^2 <= ||A x||^2 <= (1 + delta) ||x||^2 for all k-sparse x.
Exact values come from enumerating supports (deliberately desk-scale, with
a hard budget); the diagonal-times-orthogonal construction used by the
experiment harness admits a closed-form bound instead.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .exceptions import BudgetExceeded
from .linops import MatrixLike, as_sensing_matrix

ENUMERATION_BUDGET = 1_000_000
# Supports per enumeration chunk: the first chunk has _FIRST_CHUNK and
# seeds the running worst deviation unscreened; later ones double up to
# _MAX_CHUNK, which spreads the screen's fixed cost of about a hundred numpy
# calls per chunk over thousands of supports.
_FIRST_CHUNK = 64
_MAX_CHUNK = 4_096
# Margin of the screen, times k^3 max(1, max|G|) at order k: a few hundred
# times the worst-case backward error of the order-k LDL^T pivots (about
# 8 k^3 eps max(1, max|G|)) and of eigvalsh. The trace bound carries its own
# rounding allowance and needs none of this margin.
_SCREEN_RTOL = 1e-12


class RicKind(enum.Enum):
    """How an isometry constant was obtained."""

    EXACT_ENUMERATION = "exact_enumeration"
    ANALYTIC_DU = "analytic_du"
    UPPER_BOUND_SPECTRAL = "upper_bound_spectral"


@dataclass(frozen=True)
class RicEstimate:
    """An isometry constant of a given order, tagged with its provenance.

    ANALYTIC_DU and UPPER_BOUND_SPECTRAL values are valid for every order
    up to ``order``; EXACT_ENUMERATION values are exact at ``order`` only.
    """

    order: int
    value: float
    kind: RicKind


class Condition(enum.Enum):
    """Named sufficient-condition thresholds on the order-NK+1 constant
    (order NK for the ones that predate the +1 refinements)."""

    SHARP = "sharp"  # 1/sqrt(K/N + 1); sharp for N = 1
    WANG2012 = "wang2012"  # 1/(sqrt(K/N) + 3)
    LIU2012 = "liu2012"  # 1/((2 + sqrt(2)) sqrt(K/N))
    SATPATHI2013A = "satpathi2013a"  # 1/(sqrt(K/N) + 2)
    SATPATHI2013B = "satpathi2013b"  # 1/(sqrt(K/N) + 1)
    SHEN2014 = "shen2014"  # 1/(sqrt(K/N) + 1.27)


def _support_table(n: int, k: int) -> np.ndarray:
    """Every k-subset of range(n), one row each, in the lexicographic order
    of ``itertools.combinations``; dtype ``np.min_scalar_type(n)``.

    Built one column at a time: a row ending in v has the children
    v + 1 .. n - k + level in the next column, so repeating each row once
    per child keeps the order.
    """
    dtype = np.min_scalar_type(n)
    table = np.arange(n - k + 1, dtype=dtype)[:, None]
    for level in range(1, k):
        last = table[:, -1].astype(np.intp)
        counts = (n - k + level) - last
        starts = np.cumsum(counts) - counts
        column = np.arange(int(counts.sum())) - np.repeat(starts - last - 1, counts)
        table = np.column_stack((np.repeat(table, counts, axis=0), column.astype(dtype)))
    return table


def _read_only_support_table(n: int, k: int) -> np.ndarray:
    table = _support_table(n, k)
    table.flags.writeable = False
    return table


_small_support_tables = functools.lru_cache(maxsize=128)(_read_only_support_table)
_large_support_tables = functools.lru_cache(maxsize=2)(_read_only_support_table)


def _cached_support_table(n: int, k: int) -> np.ndarray:
    """Read-only ``_support_table(n, k)``, kept between calls.

    A table of at most _MAX_CHUNK rows costs more to build than the
    ``eigvalsh`` on its first chunk; an LRU cache keeps 128 of them, which
    hold at most 128 x 4,096 x k bytes, 6.8 MB with k <= 13 columns. A
    larger table costs milliseconds to build; an LRU cache keeps the two
    used last, enough for a caller that alternates two large (n, k). Each
    is the table its enumeration needs anyway, C(n, k) rows of k entries of
    ``np.min_scalar_type(n)``: within the default budget and n <= 255 at
    most k MB, so the two hold at most 16 MB at orders up to 8.
    """
    cache = _small_support_tables if math.comb(n, k) <= _MAX_CHUNK else _large_support_tables
    return cache(n, k)


@functools.lru_cache(maxsize=128)
def _layout(k: int) -> tuple[np.ndarray, ...]:
    """Read-only lower-triangle layout of order k, built once per order:
    ``np.tril_indices(k)`` (entry (i, j), i >= j, of a k x k matrix is pair
    i(i+1)/2 + j), then the trace weights (1 on the diagonal, 0 elsewhere)
    and the squared-Frobenius weights (1 on the diagonal, 2 elsewhere)."""
    rows, columns = np.tril_indices(k)
    trace = (rows == columns).astype(float)
    layout = (rows, columns, trace, 2.0 - trace)
    for array in layout:
        array.flags.writeable = False
    return layout


def _trace_bound(lower: np.ndarray, low: float, high: float) -> tuple[np.ndarray, np.ndarray]:
    """Stage 1 of the screen: which sides of a batch the trace bound leaves
    open, as boolean masks (low_open, high_open).

    ``lower`` is laid out as for ``_inside_band``. For a symmetric k x k
    matrix G with m = tr(G)/k and s^2 = ||G||_F^2/k - m^2 (the variance of
    its eigenvalues), every eigenvalue lies in
    [m - s sqrt(k-1), m + s sqrt(k-1)] (Wolkowicz & Styan, Linear Algebra
    Appl. 29, 1980). A side with gap = m - low (low side) or high - m (high
    side) is certified when gap > 0 and (k-1) s^2 < gap^2; the test compares
    squares and never takes a root of the cancelled difference s^2.

    Rounding, with u = 2^-53, P = k(k+1)/2, gamma_j = j u/(1 - j u) and
    q = ||G||_F^2/k (so m^2 <= q). The trace is a sum of k entries (its 0/1
    weights are exact) and ||G||_F^2 of P squares with exact weights 1 and
    2, so in any summation order the computed m is within gamma_{k+1} sqrt(q)
    of m and the computed q within gamma_{P+1} q of q. Through the remaining
    operations, the computed (k-1) s^2 is within (k-1) gamma_{P+2k+8} q of
    the true one, and whenever the computed gap is positive the true gap^2
    is at least the computed one minus gamma_{k+3} (gap^2 + q). The
    allowance 8(k^3 + 8) u (q + gap^2) is more than twice the sum of both
    errors at every k, so a side that passes has (k-1) s^2 < gap^2 exactly.
    It also has gap > 0: a positive computed gap whose true gap is not
    positive is at most gamma_{k+2} sqrt(q), and its square is far below
    the allowance. The absolute term
    2^-1022 covers underflow (each product or quotient adds at most 2^-1075,
    and a support takes fewer than 300 of them). So every true eigenvalue of
    a certified side's matrix lies strictly inside (low, high). Sums that
    overflow to inf or NaN fail every comparison and leave the side open;
    only gap^2 may overflow without doing so, and then it exceeds any
    finite (k-1) s^2 plus its allowance.
    """
    k = math.isqrt(2 * lower.shape[0])
    *_, trace, squares = _layout(k)
    allowance = 8.0 * (k**3 + 8) * 2.0**-53
    with np.errstate(over="ignore", invalid="ignore"):
        mean = (trace @ lower) / k
        mean_square = (squares @ (lower * lower)) / k
        base = (k - 1) * (mean_square - mean * mean) + allowance * mean_square + 2.0**-1022
        sides = []
        for gap in (mean - low, high - mean):
            sides.append(~((gap > 0.0) & (base < (1.0 - allowance) * (gap * gap))))
    return sides[0], sides[1]


def _inside_band(lower: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Stage 2 of the screen: which symmetric matrices of a batch
    certifiably have every eigenvalue strictly above their own shift.

    ``lower`` holds the lower triangles batch-last, shape (k(k+1)/2, B):
    entry (i, j), i >= j, of matrix b is lower[i(i+1)/2 + j, b], the
    ``np.tril_indices`` order. Entry b of the result is True when
    G_b - shift[b]*I has all-positive pivots under an LDL^T factorization
    without pivoting; the high side of a band (low, high) is this test on
    -G_b with shift -high. A run with positive pivots is a computed
    Cholesky factorization, which is backward stable: the pivots are exact
    for a symmetric matrix within O(k^2 eps) * ||shifted matrix|| of it.
    Columns never mix, so a column's decision does not depend on the batch
    it runs in.
    """
    k = math.isqrt(2 * lower.shape[0])
    ok = np.ones(lower.shape[1], dtype=bool)
    unit = [[None] * k for _ in range(k)]  # unit[i][j]: entry (i, j) of the unit-lower L
    pivots = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(k):
            scaled = [unit[j][p] * pivots[p] for p in range(j)]  # (L D)[j, p]
            pivot = lower[j * (j + 1) // 2 + j] - shift
            for p in range(j):
                pivot -= scaled[p] * unit[j][p]
            ok &= pivot > 0.0
            pivots.append(pivot)
            for i in range(j + 1, k):
                entry = lower[i * (i + 1) // 2 + j]
                for p in range(j):
                    entry = entry - unit[i][p] * scaled[p]
                unit[i][j] = entry / pivot
    return ok


def _screen(lower: np.ndarray, cols: np.ndarray, low: float, high: float) -> np.ndarray:
    """The columns of ``cols`` (one support each, laid out as ``lower``)
    whose matrices the screen cannot place inside (low, high).

    Stage 1, ``_trace_bound``, settles each side of most matrices; stage 2,
    ``_inside_band``, runs LDL^T once on the sides stage 1 left open, as one
    stack [G_low | -G_high] with shifts low and -high. A support whose two
    sides both fail comes back twice, which cannot change a maximum.
    """
    low_open, high_open = _trace_bound(lower, low, high)
    lows, highs = np.flatnonzero(low_open), np.flatnonzero(high_open)
    sides = np.concatenate((lower.take(lows, axis=1), -lower.take(highs, axis=1)), axis=1)
    inside = _inside_band(sides, np.repeat((low, -high), (lows.size, highs.size)))
    return cols.take(np.concatenate((lows, highs))[~inside], axis=1)


def _running_ric(a: MatrixLike, order: int, budget: int = ENUMERATION_BUDGET) -> Iterator[float]:
    """The enumeration behind ``exact_ric``, one running value per chunk.

    The order and budget checks run now, with ``exact_ric``'s exceptions,
    and so does the Gram matrix, refused when it overflows; the returned
    generator builds nothing else until it is first advanced. It
    yields the running worst deviation w after each chunk: the constant over
    every support enumerated so far, bit for bit what ``eigvalsh`` on all of
    them would give, floored at 0.0. So the values never decrease, and the
    last one is ``exact_ric``'s value.
    """
    mat = as_sensing_matrix(a)
    if order < 1 or order > mat.n:
        raise ValueError(f"order must lie in 1..{mat.n}, got {order}")
    total = math.comb(mat.n, order)
    if total > budget:
        raise BudgetExceeded(
            f"C({mat.n}, {order}) = {total} supports exceeds budget {budget}"
        )
    return _enumerate(_gram(mat.entries), order, total)


def _gram(entries: np.ndarray) -> np.ndarray:
    """A^T A; entries so large that it overflows raise ValueError."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN
        gram = entries.T @ entries
    if not np.isfinite(gram).all():
        raise ValueError("A^T A is not finite: the matrix entries are too large to square")
    return gram


def _enumerate(gram: np.ndarray, order: int, total: int) -> Iterator[float]:
    tau = _SCREEN_RTOL * order**3 * max(1.0, float(np.max(np.abs(gram))))
    n = gram.shape[0]
    flat = gram.ravel()
    table = _cached_support_table(n, order)
    worst = 0.0
    start, size = 0, _FIRST_CHUNK
    while start < total:
        cols = np.ascontiguousarray(table[start:start + size].T, dtype=np.intp)
        start += size
        if worst > tau:  # the band is empty while w <= tau, as on the first chunk
            rows, columns, _, _ = _layout(order)
            lower = flat.take((cols * n)[rows] + cols[columns])
            cols = _screen(lower, cols, 1.0 - worst + tau, 1.0 + worst - tau)
        if cols.shape[1]:
            sets = cols.T
            eigs = np.linalg.eigvalsh(flat.take(sets[:, :, None] * n + sets[:, None, :]))
            worst = max(worst, float(np.max(eigs) - 1.0), float(1.0 - np.min(eigs)))
        yield worst
        size = min(2 * size, _MAX_CHUNK)


def exact_ric(a: MatrixLike, order: int, *, budget: int = ENUMERATION_BUDGET) -> RicEstimate:
    """Exact isometry constant of ``order`` by support enumeration.

    Every support S of the given size contributes the eigenvalue extremes
    of A_S^T A_S; the constant is the worst deviation from 1 over all of
    them. Enumeration is refused (BudgetExceeded) when the number of
    supports would pass ``budget`` -- this is an oracle, never a silent
    approximation -- and ValueError when A^T A overflows.

    The value equals that of running ``eigvalsh`` on every support, bit for
    bit; most supports never reach it. Supports go in chunks in
    lexicographic order. The first chunk goes to ``eigvalsh`` and sets the
    running worst deviation w. In every later chunk, a support is skipped
    when the screen places every eigenvalue of G_S = A_S^T A_S inside the
    band (1 - w + tau, 1 + w - tau), tau = 1e-12 k^3 max(1, max|G|). The
    screen has two stages, both run on each chunk as it comes. Stage 1, the
    trace bound of ``_trace_bound``, settles each side of the band from
    tr(G_S) and ||G_S||_F^2 alone, with a rounding allowance under which a
    certified side has every true eigenvalue strictly inside the band.
    Stage 2, the LDL^T definiteness test of ``_inside_band``, runs once per
    chunk on the sides stage 1 left open. The LDL^T backward error
    (O(k^3 eps max(1, max|G|)), since ||G_S|| and w are at most
    k max|G| + 1) is far below tau/2. Either way, every true eigenvalue of
    a skipped G_S lies inside (1 - w + tau/2, 1 + w - tau/2). ``eigvalsh``
    is backward stable too and would compute each eigenvalue within tau/2
    of the truth, so the skipped support's computed deviation is below w
    and cannot change the maximum. The supports of the sides LDL^T cannot
    certify go to ``eigvalsh``, whose result for a matrix does not depend
    on the batch it runs in. The screen reads only the k(k+1)/2
    lower-triangle entries of each G_S, taken from the flattened Gram
    matrix; the full G_S is gathered only for the supports that reach
    ``eigvalsh``. Support tables are kept between calls (see
    ``_cached_support_table``).
    """
    *_, value = _running_ric(a, order, budget)
    return RicEstimate(order=order, value=value, kind=RicKind.EXACT_ENUMERATION)


def du_ric_bound(d: np.ndarray) -> RicEstimate:
    """Isometry constant of A = diag(d) @ U for orthogonal U, any order.

    ||diag(d) U x||^2 lies in [min d^2, max d^2] * ||x||^2 for every x, so
    max(1 - min_i d_i^2, max_i d_i^2 - 1) bounds the constant of every
    order up to n, with equality at order n. Note the squares: the bound
    lives on d^2 even though the construction samples d itself.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim != 1 or d.size < 1:
        raise ValueError("expected a nonempty 1-d vector of diagonal entries")
    if not np.isfinite(d).all():
        raise ValueError("diagonal entries must be finite")
    if np.any(d <= 0.0):
        raise ValueError("diagonal entries must be strictly positive")
    sq = d * d
    value = max(float(1.0 - sq.min()), float(sq.max() - 1.0))
    return RicEstimate(order=d.size, value=value, kind=RicKind.ANALYTIC_DU)


def spectral_ric_bound(a: MatrixLike) -> RicEstimate:
    """Cheap upper bound valid at every order: || A^T A - I ||_2.

    Eigenvalues of any principal submatrix of A^T A interlace those of the
    full Gram matrix, so the full-spectrum deviation from 1 dominates the
    constant of every order. A^T A that overflows raises ValueError.
    """
    mat = as_sensing_matrix(a)
    eigs = np.linalg.eigvalsh(_gram(mat.entries))
    value = max(float(eigs[-1] - 1.0), float(1.0 - eigs[0]))
    return RicEstimate(order=mat.n, value=max(value, 0.0), kind=RicKind.UPPER_BOUND_SPECTRAL)


def condition_threshold(sparsity: int, n_select: int, which: Condition | str = Condition.SHARP) -> float:
    """Threshold on the isometry constant for a named sufficient condition.

    ``sparsity`` is K, ``n_select`` is N; all formulas depend on the ratio
    K/N only.
    """
    if sparsity < 1 or n_select < 1:
        raise ValueError("sparsity and n_select must be >= 1")
    which = Condition(which)
    ratio = sparsity / n_select
    root = math.sqrt(ratio)
    if which is Condition.SHARP:
        return 1.0 / math.sqrt(ratio + 1.0)
    if which is Condition.WANG2012:
        return 1.0 / (root + 3.0)
    if which is Condition.LIU2012:
        return 1.0 / ((2.0 + math.sqrt(2.0)) * root)
    if which is Condition.SATPATHI2013A:
        return 1.0 / (root + 2.0)
    if which is Condition.SATPATHI2013B:
        return 1.0 / (root + 1.0)
    if which is Condition.SHEN2014:
        return 1.0 / (root + 1.27)


def check_recovery_condition(delta: RicEstimate, sparsity: int, n_select: int) -> bool:
    """True when ``delta`` certifies recovery: value < 1/sqrt(K/N + 1).

    The estimate must cover order N*K + 1. Exact-enumeration estimates are
    exact at their own order only, so a lower-order one cannot certify;
    the analytic and spectral bounds hold at every order (constants of
    orders past n coincide with the order-n constant) and always apply.
    """
    required = n_select * sparsity + 1
    if delta.kind is RicKind.EXACT_ENUMERATION and delta.order < required:
        raise ValueError(f"estimate of order {delta.order} cannot certify order {required}")
    return delta.value < condition_threshold(sparsity, n_select, Condition.SHARP)
