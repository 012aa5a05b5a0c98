"""Signal and noise figures of merit.

SNR compares the observed signal energy to the noise energy; MAR measures
how far the smallest nonzero entry sits below the average one. Both feed
the sufficient SNR threshold for support recovery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linops import MatrixLike, _count, _norm, _normal, _real, as_sensing_matrix, as_vector, row_dot
from .rip import Condition, condition_threshold


@dataclass(frozen=True, eq=False)
class SparseSignal:
    """A length-n vector; ``support`` is the 1-based positions of its
    nonzeros (-0.0 counts as zero)."""

    values: np.ndarray
    support: frozenset[int] = field(init=False)

    def __post_init__(self):
        vals = _real("signal", self.values, ndim=1)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "support", frozenset((vals.nonzero()[0] + 1).tolist()))

    @property
    def n(self) -> int:
        return self.values.size


def snr(a: MatrixLike, x: SparseSignal, v: np.ndarray) -> float:
    """Signal-to-noise ratio ||A x||^2 / ||v||^2, taken as (||A x|| / ||v||)^2
    with ``linops._norm``, so it stays right when either energy leaves the
    double range; +inf for zero noise. Non-finite noise raises ValueError."""
    mat = as_sensing_matrix(a)
    if x.n != mat.n:
        raise ValueError(f"signal length {x.n} != matrix columns {mat.n}")
    v = as_vector(v, mat.m, "noise")
    with np.errstate(over="ignore"):  # _norm rescales an overflowing energy
        noise, signal = _norm(v), _norm(mat.entries @ x.values)
    if noise == 0.0:
        return math.inf
    ratio = signal / noise
    return ratio * ratio


def mar(x: SparseSignal, sparsity: int) -> float:
    """Minimum-to-average ratio: K * min_{i in support} x_i^2 / ||x||^2.

    Equals 1 exactly when all K nonzeros share one magnitude; always in
    (0, 1] when the support has exactly ``sparsity`` entries, except that
    a MAR below the smallest double reads 0.0 (which ``snr_threshold``
    refuses). A ``sparsity`` below the support size raises ValueError.
    """
    if not x.support:
        raise ValueError("MAR is undefined for an all-zero signal")
    with np.errstate(over="ignore"):  # _row_mar rescales an overflowing energy
        return float(_row_mar(x.values[None], _count("sparsity", sparsity, len(x.support)))[0])


def _row_mar(values: np.ndarray, sparsity: int, smallest: np.ndarray | None = None) -> np.ndarray:
    """``mar`` of each row of a (T, n) stack, each row with a nonzero:
    K min x_i^2 over the nonzeros, over ||x||^2, with the bits of the 1-d
    products; ``smallest``, when given, is each row's min x_i^2 over its
    nonzeros. The ratio is scale-free, so when some row's energy is below
    the normal range, or so large that K times it overflows, that row is
    first divided by its max |x_i|. The min runs over the nonzeros of the
    row as given, so an entry that the division sends to 0 gives a MAR
    of 0.0. An overflowing energy warns, as in numpy, unless ignored;
    ``mar`` ignores it."""
    given, energy = values, row_dot(values, values)
    # finite values square to no NaN, so every energy is normal when the least and largest are
    listed = energy.tolist()
    if listed and not (_normal(min(listed), sparsity) and _normal(max(listed), sparsity)):
        odd = [not _normal(e, sparsity) for e in listed]
        values = values.copy()
        values[odd] /= np.abs(values[odd]).max(axis=1)[:, None]
        energy[odd] = row_dot(values[odd], values[odd])
        smallest = None
    if smallest is None:
        smallest = np.minimum.reduce(np.where(given != 0.0, values * values, math.inf), axis=1)
    return sparsity * smallest / energy


def snr_threshold(
    sparsity: int, n_select: int, delta: float | np.ndarray, mar_value: float | np.ndarray
) -> float | np.ndarray:
    """Sufficient threshold on sqrt(SNR) for full support identification:

        sqrt(2 K) (1 + delta) / ((1 - sqrt(K/N + 1) delta) sqrt(MAR)).

    Defined only while delta < 1/sqrt(K/N + 1); the support size is taken
    at its worst case K. Note this bounds sqrt(SNR), not SNR. ``delta`` and
    ``mar_value`` may be arrays, taken elementwise, each checked by
    ``linops._real``; a value out of range anywhere raises ValueError.
    """
    deltas, mars = _real("delta", delta), _real("MAR", mar_value)  # finite: no NaN to compare
    if np.count_nonzero(deltas < 0.0):
        raise ValueError(f"delta must be >= 0, got {delta}")
    if np.count_nonzero(mars <= 0.0):
        raise ValueError(f"MAR must be positive and finite, got {mar_value}")
    limit = condition_threshold(sparsity, n_select, Condition.SHARP)
    if np.count_nonzero(deltas >= limit):
        raise ValueError(f"delta = {delta} >= 1/sqrt(K/N + 1) = {limit}; threshold undefined")
    ratio_root = math.sqrt(sparsity / n_select + 1.0)
    return (
        math.sqrt(2.0 * sparsity)
        * (1.0 + deltas)
        / ((1.0 - ratio_root * deltas) * np.sqrt(mars))
    )
