"""Signal and noise figures of merit.

SNR compares the observed signal energy to the noise energy; MAR measures
how far the smallest nonzero entry sits below the average one. Both feed
the sufficient SNR threshold for support recovery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linops import MatrixLike, as_sensing_matrix, as_vector
from .rip import Condition, condition_threshold


@dataclass(frozen=True, eq=False)
class SparseSignal:
    """A length-n vector; ``support`` is the 1-based positions of its
    nonzeros (-0.0 counts as zero)."""

    values: np.ndarray
    support: frozenset[int] = field(init=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValueError("signal must be a 1-d vector")
        if not np.isfinite(vals).all():
            raise ValueError("signal values must be finite")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "support", frozenset((np.flatnonzero(vals) + 1).tolist()))

    @property
    def n(self) -> int:
        return self.values.size


def snr(a: MatrixLike, x: SparseSignal, v: np.ndarray) -> float:
    """Signal-to-noise ratio ||A x||^2 / ||v||^2; +inf for zero noise.
    Non-finite noise raises ValueError."""
    mat = as_sensing_matrix(a)
    if x.n != mat.n:
        raise ValueError(f"signal length {x.n} != matrix columns {mat.n}")
    v = as_vector(v, mat.m, "noise")
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
        raise ValueError("MAR is undefined for an all-zero signal")
    if sparsity < len(x.support):
        raise ValueError(
            f"sparsity {sparsity} is below the support size {len(x.support)}"
        )
    nonzero = x.values[x.values != 0.0]
    smallest = float(np.min(nonzero * nonzero))
    energy = float(x.values @ x.values)
    return sparsity * smallest / energy


def snr_threshold(
    sparsity: int, n_select: int, delta: float | np.ndarray, mar_value: float | np.ndarray
) -> float | np.ndarray:
    """Sufficient threshold on sqrt(SNR) for full support identification:

        sqrt(2 K) (1 + delta) / ((1 - sqrt(K/N + 1) delta) sqrt(MAR)).

    Defined only while delta < 1/sqrt(K/N + 1); the support size is taken
    at its worst case K. Note this bounds sqrt(SNR), not SNR. ``delta`` and
    ``mar_value`` may be arrays, taken elementwise; a value out of range
    anywhere raises ValueError.
    """
    if not np.all(delta >= 0.0):
        raise ValueError(f"delta must be >= 0, got {delta}")
    if not np.all((0.0 < mar_value) & (mar_value < math.inf)):
        raise ValueError(f"MAR must be positive and finite, got {mar_value}")
    limit = condition_threshold(sparsity, n_select, Condition.SHARP)
    if np.any(delta >= limit):
        raise ValueError(f"delta = {delta} >= 1/sqrt(K/N + 1) = {limit}; threshold undefined")
    ratio_root = math.sqrt(sparsity / n_select + 1.0)
    return (
        math.sqrt(2.0 * sparsity)
        * (1.0 + delta)
        / ((1.0 - ratio_root * delta) * np.sqrt(mar_value))
    )
