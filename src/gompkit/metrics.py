"""Signal and noise figures of merit.

SNR compares the observed signal energy to the noise energy; MAR measures
how far the smallest nonzero entry sits below the average one. Both feed
the sufficient SNR threshold for support recovery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConditionViolated, DimensionMismatch, EmptySupport
from .linops import MatrixLike, as_sensing_matrix
from .rip import Condition, condition_threshold


@dataclass(frozen=True, eq=False)
class SparseSignal:
    """A length-n vector that is nonzero exactly on ``support`` (1-based)."""

    values: np.ndarray
    support: frozenset[int]

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise DimensionMismatch("signal must be a 1-d vector")
        sup = frozenset(int(i) for i in self.support)
        if sup and (min(sup) < 1 or max(sup) > vals.size):
            raise IndexError(f"support indices must lie in 1..{vals.size}")
        on_support = np.count_nonzero(vals[np.fromiter(sup, np.intp, len(sup)) - 1])
        if np.count_nonzero(vals) > on_support:
            raise ValueError("signal has nonzeros outside its declared support")
        if on_support < len(sup):
            raise ValueError("declared support contains a zero entry")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "support", sup)

    @classmethod
    def from_dense(cls, values: np.ndarray) -> "SparseSignal":
        vals = np.asarray(values, dtype=float)
        support = frozenset(int(i) + 1 for i in np.flatnonzero(vals))
        return cls(values=vals, support=support)

    @property
    def n(self) -> int:
        return self.values.size


def snr(a: MatrixLike, x: SparseSignal, v: np.ndarray) -> float:
    """Signal-to-noise ratio ||A x||^2 / ||v||^2; +inf for zero noise."""
    mat = as_sensing_matrix(a)
    v = np.asarray(v, dtype=float)
    if x.n != mat.n:
        raise DimensionMismatch(f"signal length {x.n} != matrix columns {mat.n}")
    if v.shape != (mat.m,):
        raise DimensionMismatch(f"noise has shape {v.shape}, expected ({mat.m},)")
    noise_energy = float(v @ v)
    if noise_energy == 0.0:
        return math.inf
    signal = mat.entries @ x.values
    return float(signal @ signal) / noise_energy


def mar(x: SparseSignal, sparsity: int) -> float:
    """Minimum-to-average ratio: K * min_{i in support} x_i^2 / ||x||^2.

    Equals 1 exactly when all K nonzeros share one magnitude; always in
    (0, 1] when the support has exactly ``sparsity`` entries.
    """
    if not x.support:
        raise EmptySupport("MAR is undefined for an all-zero signal")
    if sparsity < len(x.support):
        raise ValueError(
            f"sparsity {sparsity} is below the support size {len(x.support)}"
        )
    nonzero = x.values[np.array(sorted(x.support)) - 1]
    smallest = float(np.min(nonzero * nonzero))
    energy = float(x.values @ x.values)
    return sparsity * smallest / energy


def snr_threshold(sparsity: int, n_select: int, delta: float, mar_value: float) -> float:
    """Sufficient threshold on sqrt(SNR) for full support identification:

        sqrt(2 K) (1 + delta) / ((1 - sqrt(K/N + 1) delta) sqrt(MAR)).

    Defined only while delta < 1/sqrt(K/N + 1); the support size is taken
    at its worst case K. Note this bounds sqrt(SNR), not SNR.
    """
    if delta < 0.0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if not (0.0 < mar_value):
        raise ValueError(f"MAR must be positive, got {mar_value}")
    limit = condition_threshold(sparsity, n_select, Condition.SHARP)
    if delta >= limit:
        raise ConditionViolated(
            f"delta = {delta} >= 1/sqrt(K/N + 1) = {limit}; threshold undefined"
        )
    ratio_root = math.sqrt(sparsity / n_select + 1.0)
    return (
        math.sqrt(2.0 * sparsity)
        * (1.0 + delta)
        / ((1.0 - ratio_root * delta) * math.sqrt(mar_value))
    )
