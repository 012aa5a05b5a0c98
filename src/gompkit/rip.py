"""Restricted-isometry constants and recovery-condition thresholds.

The constant of order k measures how far every k-column submatrix is from
an isometry: the smallest delta with
(1 - delta) ||x||^2 <= ||A x||^2 <= (1 + delta) ||x||^2 for all k-sparse x.
Exact values come from enumerating supports (deliberately desk-scale, with
a hard budget), screened by eigenvalue bounds carried down each support's
prefixes and rounded outward at every level (``_bordered``); the
diagonal-times-orthogonal construction used by the experiment harness
admits a closed-form bound instead.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .exceptions import BudgetExceeded
from .linops import MatrixLike, _count, _real, as_sensing_matrix

ENUMERATION_BUDGET = 1_000_000
# Supports per enumeration chunk: the first chunk has _FIRST_CHUNK and
# seeds the running worst deviation unscreened; later ones double up to
# _MAX_CHUNK, which spreads the screen's fixed cost of about a hundred numpy
# calls per chunk over thousands of supports.
_FIRST_CHUNK = 64
_MAX_CHUNK = 4_096
# Margin of the screen and the column floor (see _screen_tolerance).
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
    An ANALYTIC_DU value is the constant of the ideal product diag(d) U; the
    stored matrix's exact order-n constant can exceed it at rounding level
    (by at most 4.3e-15 relative, on 549 of 1,400 noisy grid instances).
    ``value`` is a finite float >= 0; ``kind`` may be given as its string.
    """

    order: int
    value: float
    kind: RicKind

    def __post_init__(self):
        object.__setattr__(self, "order", _count("order", self.order))
        value = float(_real("value", self.value, ndim=0))
        if value < 0.0:
            raise ValueError(f"value must be >= 0, got {value}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "kind", RicKind(self.kind))


class Condition(enum.Enum):
    """Named sufficient-condition thresholds on the order-NK+1 constant
    (order NK for the ones predating the +1 refinements), in ``_THRESHOLDS``."""

    SHARP = "sharp"
    WANG2012 = "wang2012"
    LIU2012 = "liu2012"
    SATPATHI2013A = "satpathi2013a"
    SATPATHI2013B = "satpathi2013b"
    SHEN2014 = "shen2014"


_THRESHOLDS = {  # each threshold as a function of the ratio K/N
    Condition.SHARP: lambda ratio: 1.0 / math.sqrt(ratio + 1.0),  # sharp for N = 1
    Condition.WANG2012: lambda ratio: 1.0 / (math.sqrt(ratio) + 3.0),
    Condition.LIU2012: lambda ratio: 1.0 / ((2.0 + math.sqrt(2.0)) * math.sqrt(ratio)),
    Condition.SATPATHI2013A: lambda ratio: 1.0 / (math.sqrt(ratio) + 2.0),
    Condition.SATPATHI2013B: lambda ratio: 1.0 / (math.sqrt(ratio) + 1.0),
    Condition.SHEN2014: lambda ratio: 1.0 / (math.sqrt(ratio) + 1.27),
}


def _plan(n: int, k: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Every k-subset of range(n), one row each, in the lexicographic order
    of ``itertools.combinations``, with the levels that stage 1 of the
    screen carries its bounds down: (table, prefix) of levels 1 .. k,
    read-only, the table at level k.

    Level l's table holds every l-subset of range(n - k + l) (the
    l-prefixes of the level-k rows) in the same order, in dtype
    ``np.min_scalar_type(n)``; level 0 is the empty row. A row of level
    l - 1 ending in v has the children v + 1 .. n - k + l - 1, so repeating
    each row once per child keeps the order, and prefix[r], in the smallest
    unsigned dtype that holds it, is the row that row r extends.
    """
    table, last, levels = np.zeros((1, 0), dtype=np.min_scalar_type(n)), np.array([-1]), []
    for level in range(1, k + 1):
        counts = (n - k + level - 1) - last
        starts = np.cumsum(counts) - counts
        column = np.arange(int(counts.sum())) - np.repeat(starts - last - 1, counts)
        prefix = np.repeat(np.arange(len(table), dtype=np.min_scalar_type(len(table) - 1)), counts)
        table, last = np.column_stack((table[prefix], column.astype(table.dtype))), column
        levels.append((table, prefix))
        table.flags.writeable = prefix.flags.writeable = False
    return tuple(levels)


_small_plans = functools.lru_cache(maxsize=128)(_plan)
_large_plans = functools.lru_cache(maxsize=2)(_plan)


def _cached_plan(n: int, k: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """``_plan(n, k)``, kept between calls. A plan of at most _MAX_CHUNK
    rows costs more to build than the ``eigvalsh`` on its first chunk; an
    LRU cache keeps 128 of them. A larger plan costs milliseconds to build;
    an LRU cache keeps the two used last, enough for a caller that
    alternates two large (n, k). A plan holds k bytes and a 2- or 4-byte
    prefix index a support, and less for its levels: 1.8 MB at C(25, 6).
    """
    cache = _small_plans if math.comb(n, k) <= _MAX_CHUNK else _large_plans
    return cache(n, k)


@functools.lru_cache(maxsize=128)
def _layout(k: int) -> tuple[np.ndarray, ...]:
    """Read-only ``np.tril_indices(k)``, built once per order: entry (i, j),
    i >= j, of a k x k matrix is pair i(i+1)/2 + j of its lower triangle."""
    layout = np.tril_indices(k)
    for array in layout:
        array.flags.writeable = False
    return layout


def _bordered(flat: np.ndarray, quad: np.ndarray, pairs: np.ndarray, up: np.ndarray,
              bounds: np.ndarray) -> np.ndarray:
    """Stage 1 of the screen, one level: the rows lo' <= lambda_min(G_S) and
    hi' >= lambda_max(G_S) for each S = P + {v}, P the row up[s] of the
    level before, from its rows lo <= lambda_min(G_P), hi >= lambda_max(G_P).

    ``flat`` is G = A^T A flattened, ``quad`` is 4 G*G and ``pairs`` (l, B)
    holds the flat indices of G_iv, i in P, then of c = G_vv: cols n + v
    for supports ``cols`` (l, B) in intp and their last entries v. At
    level 1 the bound is c. Otherwise, with b^2 = sum_i G_iv^2, G_S lies
    between [[lo I, g], [g^T, c]] and [[hi I, g], [g^T, c]], whose extreme
    eigenvalues are those of [[p, b], [b, c]]:
    (p + c -+ sqrt((p - c)^2 + 4 b^2)) / 2 at p = lo and hi (Weyl; Horn &
    Johnson, Matrix Analysis, 4.3). Both increase with p.

    Rounding, with u = 2^-53, gamma_j = j u/(1 - j u) and eta = 2^-1075:
    with t = p + c and r the root as computed, t + r is within
    1.01 gamma_{l+4} (|t| + r) + 2.2 sqrt(l eta) of its exact value. The
    sum of l - 1 squares is within gamma_{l-1} of 4 b^2 in any order, the
    squares that underflow add at most 4 l eta, and the square root turns
    an absolute error E into at most sqrt(E). The outward term
    (l + 8) 2^-52 (|t| + r) + l 2^-535 is more than twice that, and covers
    the roundings of forming and adding it and of halving, so lo' and hi'
    hold for the true eigenvalues. A sum that overflows leaves inf, -inf or
    NaN, and a NaN bound certifies nothing.
    """
    c = flat.take(pairs[-1])
    if len(pairs) == 1:
        return np.stack((c, c))
    level = len(pairs)
    with np.errstate(over="ignore", invalid="ignore"):
        t = bounds.take(up, axis=1)  # p = lo and hi, side by side
        d = t - c
        r = np.sqrt(d * d + quad.take(pairs[:-1]).sum(axis=0))
        t += c
        r += (level + 8) * 2.0**-52 * (np.abs(t) + r) + level * 2.0**-535
        r[0] *= -1.0
        t += r
        t *= 0.5
    return t


def _level_bounds(flat: np.ndarray, levels: tuple) -> tuple[np.ndarray, np.ndarray]:
    """4 G*G for ``flat`` = A^T A flattened, and ``_bordered``'s bounds on
    the rows of the last of ``levels`` (``_plan``), carried down from level
    1 in chunks of at most _MAX_CHUNK rows to keep the temporaries small."""
    n = math.isqrt(flat.size)
    with np.errstate(over="ignore"):
        quad = 4.0 * flat * flat
    bounds = np.zeros((2, 1))  # the empty row of level 0, never read
    for table, prefix in levels:
        level = np.empty((2, prefix.size))
        for start in range(0, prefix.size, _MAX_CHUNK):
            rows = slice(start, start + _MAX_CHUNK)
            cols = np.ascontiguousarray(table[rows].T, dtype=np.intp)
            level[:, rows] = _bordered(flat, quad, cols * n + cols[-1], prefix[rows], bounds)
        bounds = level
    return quad, bounds


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


def _screen(flat: np.ndarray, cols: np.ndarray, lo: np.ndarray, hi: np.ndarray,
            low: float, high: float) -> np.ndarray:
    """The columns of ``cols`` (one support each, (k, B) intp) whose Gram
    submatrices, from ``flat`` = A^T A flattened, the screen cannot place
    inside (low, high). Stage 1 certifies a low side where its bound
    lo > low and a high side where hi < high (``_bordered``); stage 2,
    ``_inside_band``, runs LDL^T once on the open sides' lower triangles, as
    one stack [G_low | -G_high] with shifts low and -high. A support whose
    two sides both fail comes back twice, which cannot change a maximum.
    """
    lows, highs = np.flatnonzero(~(lo > low)), np.flatnonzero(~(hi < high))
    sides = cols.take(np.concatenate((lows, highs)), axis=1)
    rows, columns = _layout(len(cols))
    lower = flat.take((sides * math.isqrt(flat.size))[rows] + sides[columns])
    lower[:, lows.size:] *= -1.0
    inside = _inside_band(lower, np.repeat((low, -high), (lows.size, highs.size)))
    return sides[:, ~inside]


def _lower_bounds(a: MatrixLike, order: int, budget: int = ENUMERATION_BUDGET) -> Iterator[float]:
    """Lower bounds on ``exact_ric``'s value, ending at it.

    The order and budget checks run now, with ``exact_ric``'s exceptions,
    and so does G = A^T A, refused when it overflows; the generator
    computes nothing else until advanced. It yields 0.0, then the column
    floor max(0, max_i |G_ii - 1| - tau) (``_screen_tolerance``), then the
    running worst deviation after each chunk: the constant over every
    support enumerated so far, bit for bit, floored at 0.0 and ending at
    ``exact_ric``'s value. The floor is no larger: a support S with column i has
    lambda_min(G_S) <= G_ii <= lambda_max(G_S) (Cauchy interlacing), so its
    computed deviation is at least |G_ii - 1| - tau/2, and
    tau/2 > 1e-13 max(1, max|G|) covers both subtractions' rounding.
    """
    mat = as_sensing_matrix(a)
    if order < 1 or order > mat.n:
        raise ValueError(f"order must lie in 1..{mat.n}, got {order}")
    budget = _count("budget", budget)
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
    if np.count_nonzero(np.isfinite(gram)) < gram.size:
        raise ValueError("A^T A is not finite: the matrix entries are too large to square")
    return gram


def _screen_tolerance(gram: np.ndarray, order: int) -> float:
    """tau = _SCREEN_RTOL k^3 max(1, max|G|) at order k, for G = ``_gram(A)``:
    a few hundred times the worst-case backward error of the order-k LDL^T
    pivots (about 8 k^3 eps max(1, max|G|)) and of ``eigvalsh``, so both
    place every eigenvalue of a principal submatrix G_S within tau/2 of the
    truth. The screen skips a support whose true eigenvalues lie inside
    (1 - w + tau/2, 1 + w - tau/2). Stage 1's bound carries its own
    rounding allowance and needs none of tau.
    """
    return _SCREEN_RTOL * order**3 * max(1.0, float(np.max(np.abs(gram))))


def _enumerate(gram: np.ndarray, order: int, total: int) -> Iterator[float]:
    yield 0.0
    tau = _screen_tolerance(gram, order)
    yield max(0.0, float(np.max(np.abs(gram.diagonal() - 1.0))) - tau)
    n = gram.shape[0]
    flat = gram.ravel()
    *levels, (table, up) = _cached_plan(n, order)
    worst, prefix = 0.0, None
    start, size = 0, _FIRST_CHUNK
    while start < total:
        rows = slice(start, start + size)
        cols = np.ascontiguousarray(table[rows].T, dtype=np.intp)
        if worst > tau:  # the band is empty while w <= tau, as on the first chunk
            if prefix is None:  # 4 G*G and level k - 1's bounds, at the first screened chunk
                quad, prefix = _level_bounds(flat, levels)
            lo, hi = _bordered(flat, quad, cols * n + cols[-1], up[rows].astype(np.intp), prefix)
            cols = _screen(flat, cols, lo, hi, 1.0 - worst + tau, 1.0 + worst - tau)
        if cols.shape[1]:
            sets = cols.T
            eigs = np.linalg.eigvalsh(flat.take(sets[:, :, None] * n + sets[:, None, :]))
            worst = max(worst, float(np.max(eigs) - 1.0), float(1.0 - np.min(eigs)))
        yield worst
        start += size
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
    band (1 - w + tau, 1 + w - tau), tau = 1e-12 k^3 max(1, max|G|), in two
    stages run on each chunk as it comes. Stage 1, ``_bordered``, settles
    each side from bounds on the extremes of G_S that border its prefix's
    bounds with one row and column (k - 1 entries of G*G; the prefixes'
    bounds are built once, at the first screened chunk). Each level rounds
    its bounds outward, so a certified side has every true eigenvalue
    strictly inside the band. Stage 2, the LDL^T test of ``_inside_band``,
    runs on the sides left open, gathering only their k(k+1)/2
    lower-triangle entries; its backward error (O(k^3 eps max(1, max|G|)),
    since ||G_S|| and w are at most k max|G| + 1) is far below tau/2.
    Either way, every true eigenvalue of a skipped G_S lies inside
    (1 - w + tau/2, 1 + w - tau/2). ``eigvalsh`` is backward stable too and
    would compute each within tau/2 of the truth, so the skipped support's
    deviation is below w and cannot change the maximum. The supports LDL^T
    cannot certify go to ``eigvalsh``, whose result for a matrix does not
    depend on the batch it runs in. Plans (``_cached_plan``) are kept
    between calls.
    """
    *_, value = _lower_bounds(a, order, budget)
    return RicEstimate(order=order, value=value, kind=RicKind.EXACT_ENUMERATION)


def du_ric_bound(d: np.ndarray) -> RicEstimate:
    """Isometry constant of A = diag(d) @ U for orthogonal U, any order.

    ||diag(d) U x||^2 lies in [min d^2, max d^2] * ||x||^2 for every x, so
    max(1 - min_i d_i^2, max_i d_i^2 - 1) bounds the constant of every
    order up to n, with equality at order n. Note the squares: the bound
    lives on d^2 even though the construction samples d itself.
    """
    d = _real("diagonal", d)
    if d.ndim != 1 or d.size < 1:
        raise ValueError("expected a nonempty 1-d vector of diagonal entries")
    if np.any(d <= 0.0):
        raise ValueError("diagonal entries must be strictly positive")
    return RicEstimate(order=d.size, value=float(_du_delta(d)), kind=RicKind.ANALYTIC_DU)


def _du_delta(d: np.ndarray) -> np.ndarray:
    """max(1 - min d^2, max d^2 - 1) over the last axis of d: the constant
    of ``du_ric_bound``, for one diagonal or a stack of them, unchecked.
    Taken as max |d_i^2 - 1|, with the same bits: a rounded 1 - x is the
    negated rounded x - 1, and monotone in x."""
    return np.abs(d * d - 1.0).max(axis=-1)


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
    K/N only (see ``_THRESHOLDS``).
    """
    ratio = _count("sparsity", sparsity) / _count("n_select", n_select)
    return _THRESHOLDS[Condition(which)](ratio)


def check_recovery_condition(delta: RicEstimate, sparsity: int, n_select: int) -> bool:
    """True when ``delta`` certifies recovery: value < 1/sqrt(K/N + 1).

    The estimate must cover order N*K + 1. Exact-enumeration estimates are
    exact at their own order only, so a lower-order one cannot certify;
    the analytic and spectral bounds hold at every order (constants of
    orders past n coincide with the order-n constant) and always apply.
    """
    required = _count("n_select", n_select) * _count("sparsity", sparsity) + 1
    if delta.kind is RicKind.EXACT_ENUMERATION and delta.order < required:
        raise ValueError(f"estimate of order {delta.order} cannot certify order {required}")
    return delta.value < condition_threshold(sparsity, n_select, Condition.SHARP)
