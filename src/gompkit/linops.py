"""Dense linear-algebra primitives: submatrix least squares, complement
projection, and orthogonal-factor extraction.

Index sets on the public surface are 1-based (columns are numbered 1..n,
like the math they implement); the conversion to zero-based storage is
internal. Input has one rule per kind: ``_count``, ``_index_set`` and
``_real``, which refuses complex, string and bool data rather than
convert it. ``_refit`` is the one submatrix solve and residual, for both
pursuits, ``least_squares`` and ``project_complement``. It solves the
normal equations G coef = A_S^T y, G = A_S^T A_S, only on a slice whose G
a Cholesky factorization certifies well conditioned (cond(G) < 1e4, see
``_certified``): their forward error is about cond(G) u (Higham, Accuracy
and Stability of Numerical Algorithms, ch. 20), at most about 1e-12. On
the paper's matrices, delta < 1 gives cond(G) <= (1 + delta)/(1 - delta),
below 17 on the whole recovery grid, so the pursuits take this route.
Any other slice is solved through an SVD, whose rank test refuses a
numerically rank-deficient one. The refit and the orthogonal factor also
take stacks of same-shape matrices, giving each slice the bits of the 2-d
call, and both refuse by one rank test.

A generated D*U matrix (``du_entries``) takes its factor straight from
QR, with no rank test: Householder QR returns a factor orthogonal to
working precision for any finite source, singular or not, so a drawn
source is never refused.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np
# The gufuncs np.linalg.cholesky and np.linalg.solve call, with their bits.
# A slice they cannot factor comes back NaN, flagged invalid, where the
# wrappers raise for the whole stack; calling them directly also skips the
# wrappers' checks, most of a small refit's time.
from numpy.linalg import _umath_linalg

from .exceptions import RankDeficient

# Smallest/largest singular value ratio below which a submatrix is treated
# as rank-deficient. Matches the double-precision noise floor at the dense
# desk-scale sizes (<= 1e3) this package targets.
RANK_RTOL = 1e-10
# A refit solves the normal equations when Cholesky shows
# lambda_min(G_S) > _CERTIFY_RTOL tr(G_S) >= _CERTIFY_RTOL lambda_max(G_S)
# (see ``_certified``), so sigma_min/sigma_max > 1e-2 and cond(G_S) < 1e4.
_CERTIFY_RTOL = 1e-4
_TINY = float(np.finfo(float).tiny)  # the smallest normal double; smaller ones lose bits


@dataclass(frozen=True, eq=False)
class SensingMatrix:
    """An m-by-n real sensing matrix.

    Parameters
    ----------
    entries : ndarray, shape (m, n)
        Dense real matrix; all entries must be finite. Stored C-contiguous,
        so products formed from it have the same bits whatever the input's
        memory layout.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = _real("matrix", self.entries, ndim=2)
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"matrix must be at least 1x1, got {arr.shape}")
        object.__setattr__(self, "entries", arr)

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]


MatrixLike = Union[SensingMatrix, np.ndarray]


def as_sensing_matrix(a: MatrixLike) -> SensingMatrix:
    """Coerce a raw array to :class:`SensingMatrix` (validated), pass one through."""
    if isinstance(a, SensingMatrix):
        return a
    return SensingMatrix(a)


def as_vector(v: np.ndarray, m: int, name: str) -> np.ndarray:
    """``v`` as a float vector of shape (m,), checked by ``_real``; a wrong
    shape raises ValueError, with a message that starts with ``name``."""
    v = _real(name, v)
    if v.shape != (m,):
        raise ValueError(f"{name} has shape {v.shape}, expected ({m},)")
    return v


def _real(name: str, value, ndim: int | None = None) -> np.ndarray:
    """``value`` as a C-ordered float64 array of finite entries: TypeError unless
    numpy reads it as integers or floats (bool, complex, string and object data
    are refused uncast), ValueError for another ``ndim`` or a non-finite entry."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        raise TypeError(f"{name} entries must be integers or floats, got {arr.dtype}")
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d {name}, got ndim={arr.ndim}")
    arr = np.asarray(arr, dtype=float, order="C")
    # math.isfinite on a 0-d value: numpy's reduction costs about 1.5 us more
    if not (np.isfinite(arr).all() if arr.ndim else math.isfinite(arr)):
        raise ValueError(f"{name} entries must be finite")
    return arr


def _integer(value: int) -> int:
    """``operator.index(value)``, which also refuses a Python bool, as it does numpy's."""
    if isinstance(value, bool):
        raise TypeError("'bool' object cannot be interpreted as an integer")
    return operator.index(value)


def _count(name: str, value: int, low: int = 1) -> int:
    """``value`` as an int >= ``low``: TypeError if it is not integral, else ValueError."""
    count = _integer(value)
    if count < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return count


def _index_set(indices: Iterable[int], n: int) -> frozenset[int]:
    """1-based indices as a frozenset (TypeError if not integral, IndexError outside 1..n)."""
    index_set = frozenset(map(_integer, indices))
    if index_set and not (1 <= min(index_set) and max(index_set) <= n):
        raise IndexError(f"indices must lie in 1..{n}, got {min(index_set)}..{max(index_set)}")
    return index_set


def _to_cols(index_set: Iterable[int], n: int) -> np.ndarray:
    """1-based index set -> sorted zero-based column array (``_index_set``'s refusals)."""
    return np.asarray(sorted(_index_set(index_set, n)), dtype=int) - 1


def _rank_deficient(s: np.ndarray) -> np.ndarray:
    """Per slice of descending singular values: s_max <= 0 or s_min < RANK_RTOL s_max.
    Reduced with ``any(mask.flat)``, cheap on a one-slice scalar, or
    ``mask.any()`` on a stack."""
    s_max, s_min = s[..., 0][()], s[..., -1][()]  # one slice: scalars, not slow 0-d arrays
    return (s_max <= 0.0) | (s_min < RANK_RTOL * s_max)


def _certified(gram: np.ndarray) -> np.ndarray:
    """Per slice of G = A_S^T A_S: whether Cholesky factors G - c tr(G) I,
    c = _CERTIFY_RTOL, with c tr(G) a finite normal double. Below _TINY the
    entries of G have lost bits to underflow; an infinite trace means G
    overflowed, and OpenBLAS's Cholesky passes the NaN that leaves. A slice
    the Cholesky gufunc cannot factor comes back NaN, so one call tests
    every slice, each with the bits of its own 2-d call."""
    shift = _CERTIFY_RTOL * gram.trace(axis1=-2, axis2=-1)
    shifted = gram - np.eye(gram.shape[-1]) * shift[..., None, None]
    factor = _umath_linalg.cholesky_lo(shifted, signature="d->d")
    return (_TINY <= shift) & (shift < math.inf) & ~np.isnan(factor[..., -1, -1])


def _svd_coef(a_s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients for a stack (T, m, s), (T, m) via SVD.
    Raises RankDeficient, with the ratio of the first slice that fails
    ``_rank_deficient``."""
    u, s, vt = np.linalg.svd(a_s, full_matrices=False)
    failing = _rank_deficient(s)
    if failing.any():
        s_max, s_min = s[failing][0, [0, -1]].tolist()
        raise RankDeficient(
            f"submatrix is numerically rank-deficient "
            f"(sigma_min/sigma_max = {0.0 if s_max <= 0 else s_min / s_max:.3e})"
        )
    return (vt.swapaxes(-1, -2) @ ((u.swapaxes(-1, -2) @ y[..., None]) / s[..., None]))[..., 0]


def _refit(a_s: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least squares on an explicit submatrix: the coefficients and the
    residual y - A_S coef.

    Takes (m, s) and (m,), or stacks (..., m, s) and (..., m) whose slices
    get the bits of the 2-d call. A slice that ``_certified`` passes solves
    the normal equations G coef = A_S^T y; any other slice takes the SVD
    solve, which raises RankDeficient with the ratio of the first slice
    that fails ``_rank_deficient``.
    """
    a_t = a_s.swapaxes(-1, -2)
    # an overflowing G is not certified, and an uncertified slice's
    # solve, NaN if G is singular, is replaced by the SVD solve
    with np.errstate(over="ignore", invalid="ignore"):
        gram = a_t @ a_s
        certified = _certified(gram)
        coef = _umath_linalg.solve(gram, a_t @ y[..., None], signature="dd->d")[..., 0]
    if not certified.all():  # a 2-d call's 0-d mask indexes like a stack of one
        coef[~certified] = _svd_coef(a_s[~certified], y[~certified])
    return coef, y - (a_s @ coef[..., None])[..., 0]


def least_squares(a: MatrixLike, index_set: Iterable[int], y: np.ndarray) -> np.ndarray:
    """Solve min_x ||y - A_S x||_2 on the columns named by ``index_set``.

    Parameters
    ----------
    a : SensingMatrix or ndarray
    index_set : iterable of int
        Nonempty set of 1-based column indices. Coefficients are returned
        in ascending index order.
    y : ndarray, shape (m,)

    Returns
    -------
    ndarray, shape (len(index_set),)
        The least-squares coefficients; the residual y - A_S x is
        orthogonal to every selected column up to roundoff.
    """
    mat = as_sensing_matrix(a)
    y = as_vector(y, mat.m, "observation")
    cols = _to_cols(index_set, mat.n)
    if cols.size == 0:
        raise ValueError("index set must be nonempty")
    if cols.size > mat.m:
        raise ValueError(f"cannot fit {cols.size} columns with only {mat.m} rows")
    return _refit(mat.entries[:, cols], y)[0]


def project_complement(a: MatrixLike, index_set: Iterable[int], u: np.ndarray) -> np.ndarray:
    """Project ``u`` onto the orthogonal complement of span(A_S).

    With an empty index set this is the identity. The result is orthogonal
    to every selected column, and the operator is idempotent and symmetric.
    """
    mat = as_sensing_matrix(a)
    u = as_vector(u, mat.m, "vector")
    cols = _to_cols(index_set, mat.n)
    if cols.size == 0:
        return u.copy()
    return _refit(mat.entries[:, cols], u)[1]


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[t] @ b[t]`` for each row of two (T, m) stacks, with the bits of
    the 1-d product: one BLAS dot per row. ``einsum`` and a norm along
    axis 1 sum in other orders and can differ in the last bit."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _normal(square: float, scale: float = 1.0) -> bool:
    """Whether a square sum keeps its bits: at least _TINY, and finite once
    multiplied by ``scale``; False for NaN."""
    return _TINY <= square and scale * square < math.inf


def _norm(x: np.ndarray) -> float | np.ndarray:
    """The 2-norm over the last axis: a float for a vector, one per row of a
    (T, m) stack. It is sqrt(``row_dot``), and for a vector sqrt(x.dot(x)),
    the one BLAS dot that ``np.linalg.norm`` also takes. A nonzero finite
    row whose square sum overflows or is below _TINY gets s sqrt(sum (x/s)^2),
    s = max|x|; no other row changes. An overflowing square sum warns, as in
    numpy, unless ignored; its callers in greedy and verify ignore it."""
    if x.ndim == 1:
        squares = float(x.dot(x))
        return math.sqrt(squares) if _normal(squares) else float(_norm(x[None])[0])
    squares = row_dot(x, x)
    norms = np.sqrt(squares)
    # min and max may pass over a NaN row, whose norm stays NaN either way
    listed = squares.tolist()
    if listed and not (_normal(min(listed)) and _normal(max(listed))):
        normal = (_TINY <= squares) & (squares < math.inf)  # _normal on every row
        peaks = np.abs(x).max(axis=1)
        odd = ~normal & (0.0 < peaks) & (peaks < math.inf)
        scaled = x[odd] / peaks[odd, None]
        norms[odd] = peaks[odd] * np.sqrt(row_dot(scaled, scaled))
    return norms


def _signed_q(m: np.ndarray) -> np.ndarray:
    """The orthogonal factor of QR on a square matrix or a stack of them,
    with the signs that make R's diagonal nonnegative, so the factor is a
    deterministic function of ``m``."""
    q, r = np.linalg.qr(m)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return q * signs[..., None, :]


def orthogonal_factor(m: np.ndarray) -> np.ndarray:
    """Orthogonal factor of a nonsingular square matrix, via QR.

    Accepts one matrix or a stack of shape (..., n, n); a stack is
    factored slice by slice with the same bits as one 2-d call per slice,
    and is refused whole when any slice is singular. Non-finite entries
    raise ValueError, and bool, complex or string ones TypeError. The
    triangular factor's diagonal is forced nonnegative so the result is a
    deterministic function of the input (needed for seeded reproducibility). A slice is singular, and raises
    RankDeficient, when its computed singular values have s_max <= 0 or
    s_min < RANK_RTOL s_max.
    """
    m = _real("matrix", m)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1] or m.shape[-1] == 0:
        raise ValueError(f"expected nonempty square matrices, got shape {m.shape}")
    if any(_rank_deficient(np.linalg.svd(m, compute_uv=False)).flat):
        raise RankDeficient("matrix is numerically singular; no orthogonal factor")
    return _signed_q(m)


def _du_interval(ratio: float) -> tuple[float, float]:
    """The interval [sqrt(1 - b), sqrt(1 + b)], b = 0.99 / sqrt(ratio + 1),
    that a D*U matrix's d is uniform on; ``ratio`` is K/N."""
    bound = 0.99 / math.sqrt(ratio + 1.0)
    return math.sqrt(1.0 - bound), math.sqrt(1.0 + bound)


def du_entries(d: np.ndarray, source: np.ndarray) -> np.ndarray:
    """diag(d) times the orthogonal factor of a drawn ``source``; also on
    stacks (d of shape (..., n), source of shape (..., n, n)). The factor
    has the bits of ``orthogonal_factor``, without its checks: a drawn
    source is finite, and QR's factor is orthogonal for any source."""
    return d[..., :, None] * _signed_q(source)
