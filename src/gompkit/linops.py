"""Dense linear-algebra primitives: submatrix least squares, complement
projection, and orthogonal-factor extraction.

Index sets on the public surface are 1-based (columns are numbered 1..n,
like the math they implement); the conversion to zero-based storage is
internal. Solves go through an orthogonal factorization (SVD), never the
explicit normal equations, because the submatrices this toolkit meets are
only isometry-good, not perfectly conditioned. The submatrix solve and
the orthogonal factor also take stacks of same-shape matrices, giving
each slice the bits of the 2-d call, and both refuse by one rank test.

The orthogonal factor refuses a source whose computed singular values
have s_min < RANK_RTOL s_max, but on all but the smallest inputs it runs
that SVD only when a Cholesky certificate cannot clear the stack. A
successful Cholesky factorization of M^T M - 4 (n + 1) eps tr(M^T M) I,
on M scaled by a power of two, proves sigma_min / sigma_max >= 3e-8
despite every rounding error, so the SVD would pass M. The certificate
decides nothing else; the argument is in ``orthogonal_factor``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .exceptions import RankDeficient, Singular

# Smallest/largest singular value ratio below which a submatrix is treated
# as rank-deficient. Matches the double-precision noise floor at the dense
# desk-scale sizes (<= 1e3) this package targets.
RANK_RTOL = 1e-10
# The orthogonal factor's certificate shifts M^T M by this times (n + 1)
# tr(M^T M) at order n: four times the combined backward error of forming
# M^T M, its trace and its Cholesky factor (about (n + 1) eps tr(M^T M)).
_CERTIFICATE_SHIFT = 4 * np.finfo(float).eps
# Stacks of fewer entries go straight to the SVD guard: on them the
# certificate's dozen small numpy calls cost more than the SVD it saves
# (the two cost the same at about 100 entries, single matrices and stacks).
_CERTIFICATE_MIN_ENTRIES = 128
_TINY = np.finfo(float).tiny  # the smallest normal double; smaller ones lose bits


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
        arr = np.asarray(self.entries, dtype=float, order="C")
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-d matrix, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"matrix must be at least 1x1, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
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
    return SensingMatrix(np.asarray(a, dtype=float))


def as_vector(v: np.ndarray, m: int, name: str) -> np.ndarray:
    """``v`` as a float vector of shape (m,); a wrong shape or a non-finite
    entry raises ValueError, with a message that starts with ``name``."""
    v = np.asarray(v, dtype=float)
    if v.shape != (m,):
        raise ValueError(f"{name} has shape {v.shape}, expected ({m},)")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} entries must be finite")
    return v


def _to_cols(index_set: Iterable[int], n: int) -> np.ndarray:
    """1-based index set -> sorted zero-based column array."""
    cols = sorted({int(i) for i in index_set})
    if not cols:
        return np.empty(0, dtype=int)
    if cols[0] < 1 or cols[-1] > n:
        raise IndexError(f"indices must lie in 1..{n}, got {cols[0]}..{cols[-1]}")
    return np.asarray(cols, dtype=int) - 1


def _rank_deficient(s: np.ndarray) -> np.ndarray:
    """Per slice of descending singular values: s_max <= 0 or s_min < RANK_RTOL s_max.
    Callers reduce it with ``any(mask.flat)``, cheap on a one-slice scalar."""
    s_max, s_min = s[..., 0][()], s[..., -1][()]  # one slice: scalars, not slow 0-d arrays
    return (s_max <= 0.0) | (s_min < RANK_RTOL * s_max)


def _solve_submatrix(a_s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Minimum-norm least squares on an explicit submatrix via SVD.

    Takes (m, s) and (m,), or stacks (..., m, s) and (..., m) whose slices
    get the bits of the 2-d call. Raises RankDeficient, with the ratio of
    the first slice that fails ``_rank_deficient``.
    """
    u, s, vt = np.linalg.svd(a_s, full_matrices=False)
    failing = _rank_deficient(s)
    if any(failing.flat):
        # a one-slice (scalar) mask indexes like a stack of one
        s_max, s_min = s[failing][0, [0, -1]].tolist()
        raise RankDeficient(
            f"submatrix is numerically rank-deficient "
            f"(sigma_min/sigma_max = {0.0 if s_max <= 0 else s_min / s_max:.3e})"
        )
    return (vt.swapaxes(-1, -2) @ ((u.swapaxes(-1, -2) @ y[..., None]) / s[..., None]))[..., 0]


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
    return _solve_submatrix(mat.entries[:, cols], y)


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
    a_s = mat.entries[:, cols]
    coef = _solve_submatrix(a_s, u)
    return u - a_s @ coef


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[t] @ b[t]`` for each row of two (T, m) stacks, with the bits of
    the 1-d product: one BLAS dot per row. ``einsum`` and a norm along
    axis 1 sum in other orders and can differ in the last bit."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _norm(x: np.ndarray) -> float | np.ndarray:
    """The 2-norm over the last axis: a float for a vector, one per row of a
    (T, m) stack. It is sqrt(``row_dot``), and for a vector sqrt(x.dot(x)),
    the one BLAS dot that ``np.linalg.norm`` also takes. A nonzero finite
    row whose square sum overflows or is below _TINY gets s sqrt(sum (x/s)^2),
    s = max|x|; no other row changes. An overflowing square sum warns, as in
    numpy, unless ignored; its callers in greedy and verify ignore it."""
    if x.ndim == 1:
        squares = float(x.dot(x))
        return math.sqrt(squares) if _TINY <= squares < math.inf else float(_norm(x[None])[0])
    squares = row_dot(x, x)
    norms = np.sqrt(squares)
    if not all(_TINY <= square < math.inf for square in squares.tolist()):
        peaks = np.abs(x).max(axis=1)
        odd = ~((squares >= _TINY) & (squares < math.inf)) & (0.0 < peaks) & (peaks < math.inf)
        scaled = x[odd] / peaks[odd, None]
        norms[odd] = peaks[odd] * np.sqrt(row_dot(scaled, scaled))
    return norms


def _certified_nonsingular(m: np.ndarray) -> bool:
    """Whether one Cholesky factorization certifies that every slice of the
    finite stack ``m`` passes the SVD guard of ``orthogonal_factor``
    (argument there)."""
    n = m.shape[-1]
    peak = np.abs(m).max(axis=(-2, -1))
    scaled = np.ldexp(m, -np.frexp(peak)[1][..., None, None])
    gram = np.swapaxes(scaled, -1, -2) @ scaled
    diagonal = gram.reshape(*gram.shape[:-2], n * n)[..., :: n + 1]
    diagonal -= (_CERTIFICATE_SHIFT * (n + 1)) * diagonal.sum(axis=-1)[..., None]
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def orthogonal_factor(m: np.ndarray) -> np.ndarray:
    """Orthogonal factor of a nonsingular square matrix, via QR.

    Accepts one matrix or a stack of shape (..., n, n); a stack is
    factored slice by slice with the same bits as one 2-d call per slice,
    and is refused whole when any slice is singular. Non-finite entries
    raise ValueError. The triangular factor's diagonal is forced
    nonnegative so the result is a deterministic function of the input
    (needed for seeded reproducibility).

    A slice is singular when its computed singular values have
    s_max <= 0 or s_min < RANK_RTOL s_max. On stacks of at least
    _CERTIFICATE_MIN_ENTRIES entries that SVD runs only when a Cholesky
    certificate cannot clear the stack. Each slice M is scaled by the
    power of two that puts its largest |entry| in [1/2, 1), so that
    ||M||_F^2 >= 1/4, no entry of G = M^T M exceeds n, and the scaling
    changes no singular-value ratio (it is exact, except that entries
    pushed below 2^-1022 move by at most 2^-1075). One Cholesky
    factorization then runs on G - c tr(G) I for the whole stack, with
    c = 4 (n + 1) eps. If it succeeds, the errors of forming G
    (gamma_n ||M||_F^2 in norm), of subtracting the shift (eps/2 max G_ii)
    and of the Cholesky factor (gamma_{n+1} tr G; Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, Thm 10.3) add up to about
    (n + 1) eps ||M||_F^2, a quarter of the shift, and the rounded trace
    and shift are within gamma_{n+1} of their exact values. So the exact
    sigma_min^2 >= 2 (n + 1) eps ||M||_F^2 >= 2 (n + 1) eps sigma_max^2,
    and sigma_min / sigma_max >= sqrt(4 eps) = 3e-8, 300 times RANK_RTOL.
    Gradual underflow adds absolute errors below n^2 2^-1074, nothing
    against ||M||_F^2 >= 1/4. The SVD is backward stable and would compute
    each singular value within p(n) eps sigma_max of the truth, for a
    modest p(n), so it would pass the slice. If the Cholesky fails on any
    slice, the SVD decides for the whole stack. The QR and the sign fix
    are the same calls either way, so the factor's bits and the set of
    inputs refused as Singular are those of the SVD guard alone.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1] or m.shape[-1] == 0:
        raise ValueError(f"expected nonempty square matrices, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    if m.size < _CERTIFICATE_MIN_ENTRIES or not _certified_nonsingular(m):
        if any(_rank_deficient(np.linalg.svd(m, compute_uv=False)).flat):
            raise Singular("matrix is numerically singular; no orthogonal factor")
    q, r = np.linalg.qr(m)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return q * signs[..., None, :]


def draw_du(rng: np.random.Generator, n: int, ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """Draw d and the source of U for a D*U matrix; ``ratio`` is K/N.

    d is uniform on [sqrt(1 - b), sqrt(1 + b)] with b = 0.99 / sqrt(ratio + 1),
    drawn before U's n-by-n standard-normal source (part of the seeded contract).
    """
    bound = 0.99 / math.sqrt(ratio + 1.0)
    d = rng.uniform(math.sqrt(1.0 - bound), math.sqrt(1.0 + bound), size=n)
    return d, rng.standard_normal((n, n))


def du_entries(d: np.ndarray, source: np.ndarray) -> np.ndarray:
    """diag(d) times the orthogonal factor of ``source``; also on stacks
    (d of shape (..., n), source of shape (..., n, n))."""
    return d[..., :, None] * orthogonal_factor(source)
