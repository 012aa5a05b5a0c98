import itertools
import math
import re
import warnings

import numpy as np
import pytest

from gompkit import (
    RankDeficient,
    SensingMatrix,
    least_squares,
    orthogonal_factor,
    project_complement,
    run_trials,
)
from gompkit import linops
from gompkit.linops import RANK_RTOL, _certified, _norm, _refit, _signed_q, du_entries, row_dot


def normal_equations_oracle(a_s, y):
    """Independent least-squares oracle: form A^T A x = A^T y and solve it
    by Gaussian elimination with partial pivoting, no library solver."""
    gram = a_s.T @ a_s
    rhs = a_s.T @ y
    k = gram.shape[0]
    aug = np.hstack([gram, rhs[:, None]]).astype(float)
    for col in range(k):
        pivot = col + int(np.argmax(np.abs(aug[col:, col])))
        aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] = aug[col] / aug[col, col]
        for row in range(k):
            if row != col:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, k]


class TestLeastSquares:
    def test_identity_subset(self):
        a = np.eye(3)
        x = least_squares(a, {1, 3}, np.array([5.0, 7.0, -2.0]))
        assert np.array_equal(x, [5.0, -2.0])

    def test_single_unit_column(self):
        a = np.ones((3, 1)) / np.sqrt(3.0)
        x = least_squares(a, {1}, np.ones(3))
        assert x.shape == (1,)
        assert abs(x[0] - np.sqrt(3.0)) < 1e-14

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            a = rng.standard_normal((6, 3))
            y = rng.standard_normal(6)
            got = least_squares(a, {1, 2, 3}, y)
            want = normal_equations_oracle(a, y)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_residual_orthogonal_to_selected_columns(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.standard_normal((8, 5))
            y = rng.standard_normal(8)
            subset = sorted(rng.permutation(5)[:3] + 1)
            coef = least_squares(a, subset, y)
            a_s = a[:, np.array(subset) - 1]
            resid = y - a_s @ coef
            assert np.max(np.abs(a_s.T @ resid)) <= 1e-8 * np.linalg.norm(y)

    def test_rank_deficient_rejected(self):
        a = np.column_stack([np.ones(4), np.ones(4)])
        with pytest.raises(RankDeficient):
            least_squares(a, {1, 2}, np.arange(4.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"^observation has shape \(4,\), expected \(3,\)$"):
            least_squares(np.eye(3), {1}, np.ones(4))

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            least_squares(np.eye(3), set(), np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_observation_rejected(self, bad):
        # once returned [nan] for a NaN entry outside the fitted column
        with pytest.raises(ValueError, match="^observation entries must be finite$"):
            least_squares(np.eye(3), [1], np.array([bad, 0.0, 0.0]))


def svd_solve(a_s, y):
    """The SVD solve every refit took before the normal-equation route,
    with the 1-d residual the scalar pursuit and ``project_complement``
    formed before ``_refit`` did: the bits of the fallback, and the
    reference the certified route's accuracy is measured against."""
    u, s, vt = np.linalg.svd(a_s, full_matrices=False)
    coef = vt.T @ ((u.T @ y) / s)
    return coef, y - a_s @ coef


def same_bits(got, want):
    return all(g.tobytes() == w.tobytes() for g, w in zip(got, want, strict=True))


class TestStackedSolve:
    @pytest.mark.parametrize("shape", [(5, 7, 3), (2, 3, 6, 6), (4, 33, 17), (1, 4, 1)])
    def test_slices_match_the_2d_call_bits(self, shape):
        rng = np.random.default_rng(list(shape))
        a = rng.standard_normal(shape)
        y = rng.standard_normal(shape[:-1])
        coef, residual = _refit(a, y)
        assert coef.shape == shape[:-2] + shape[-1:]
        assert residual.shape == shape[:-1]
        for index in np.ndindex(*shape[:-2]):
            want = _refit(a[index].copy(), y[index].copy())
            assert same_bits(_refit(a[index], y[index]), want)
            assert same_bits((coef[index], residual[index]), want)

    def test_gathered_views_match_the_scalar_gather(self):
        # the F-ordered A_S views gomp_stacked gathers from the rows of A^T
        rng = np.random.default_rng(3)
        entries = rng.standard_normal((6, 13, 13))
        y = rng.standard_normal((6, 13))
        cols = np.sort(np.argsort(rng.standard_normal((6, 13)), axis=1)[:, :8], axis=1)
        sub = entries.transpose(0, 2, 1)[np.arange(6)[:, None], cols].transpose(0, 2, 1)
        assert sub[0].flags.f_contiguous
        coef, residual = _refit(sub, y)
        for t in range(6):
            want = _refit(entries[t][:, cols[t]], y[t])
            assert same_bits((coef[t], residual[t]), want)

    def test_names_the_first_failing_slice(self):
        good = np.eye(4, 2)
        duplicate = np.column_stack([np.ones(4), np.ones(4)])
        scaled = np.column_stack([np.ones(4), 1e-12 * np.arange(4.0)])
        y = np.arange(4.0)
        for bad in (duplicate, scaled, np.zeros((4, 2))):
            with pytest.raises(RankDeficient) as flat:
                _refit(bad, y)[0]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(RankDeficient) as stacked:
                    _refit(np.stack([good, bad, duplicate]), np.stack([y, y, y]))[0]
            assert str(stacked.value) == str(flat.value)
        assert "0.000e+00" in str(flat.value)  # the zero slice: no 0/0


def tall_with_spread(m, s, ratio, seed):
    """An m-by-s matrix U diag(sigma) V^T, sigma geometric from 1 down to ``ratio``."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((m, s)))[0]
    v = np.linalg.qr(rng.standard_normal((s, s)))[0]
    return (u * np.geomspace(1.0, ratio, s)) @ v.T


def svd_refusal(a_s):
    """The SVD rank rule written out apart from ``_refit``: its
    RankDeficient message for ``a_s``, or None when the rule passes it."""
    s = np.linalg.svd(a_s, compute_uv=False)
    if s[0] > 0.0 and s[-1] >= RANK_RTOL * s[0]:
        return None
    ratio = 0.0 if s[0] <= 0.0 else s[-1] / s[0]
    return f"submatrix is numerically rank-deficient (sigma_min/sigma_max = {ratio:.3e})"


def identity_stack_certified(gram):
    """``_certified`` written with an identity stack: Cholesky of
    G - c tr(G) I, c = 1e-4, with c tr(G) a finite normal double."""
    shift = 1e-4 * gram.trace(axis1=-2, axis2=-1)
    factor = linops._umath_linalg.cholesky_lo(gram - np.eye(gram.shape[-1]) * shift[..., None, None],
                                              signature="d->d")
    return (np.finfo(float).tiny <= shift) & (shift < math.inf) & ~np.isnan(factor[..., -1, -1])


def is_certified(a_s):
    with np.errstate(over="ignore", invalid="ignore"):  # as _refit forms G
        return bool(_certified(a_s.T @ a_s))


class TestRefitRoutes:
    """A slice that the Cholesky certificate passes solves the normal
    equations; any other takes the SVD solve and its rank rule."""

    def test_mixed_stack_slices_keep_their_2d_bits_and_refusal(self):
        rng = np.random.default_rng(9)
        good = np.stack([
            tall_with_spread(20, 5, 0.5, 1),  # certified
            tall_with_spread(20, 5, 1e-3, 2),  # cond(G) = 1e6: the SVD
            rng.standard_normal((20, 5)),  # certified
            tall_with_spread(20, 5, 1e-7, 3),  # the SVD, far above its refusal line
        ])
        y = rng.standard_normal((4, 20))
        assert [is_certified(a) for a in good] == [True, False, True, False]
        coef, residual = _refit(good, y)
        for t in range(4):
            assert same_bits((coef[t], residual[t]), _refit(good[t], y[t]))
        for t in (1, 3):
            assert same_bits((coef[t], residual[t]), svd_solve(good[t], y[t]))
        deficient = good[2].copy()
        deficient[:, 4] = deficient[:, 1]
        assert svd_refusal(deficient) is not None
        with pytest.raises(RankDeficient) as flat:
            _refit(deficient, y[2])
        assert str(flat.value) == svd_refusal(deficient)
        mixed = np.stack([good[0], good[1], deficient, good[3], good[2]])
        with pytest.raises(RankDeficient) as stacked:
            _refit(mixed, y[[0, 1, 2, 3, 2]])
        assert str(stacked.value) == str(flat.value)

    @pytest.mark.parametrize("ratio", [5e-11, 1e-10 * (1 - 1e-6), 1e-10 * (1 + 1e-6), 2e-10])
    def test_the_refusal_line_is_the_svd_rule(self, ratio):
        rng = np.random.default_rng(12)
        a = tall_with_spread(12, 6, ratio, 13)
        y = rng.standard_normal(12)
        assert not is_certified(a)
        refusal = svd_refusal(a)
        if ratio < 1e-10 * (1 - 1e-7) or ratio > 1e-10 * (1 + 1e-7):
            assert (refusal is None) == (ratio > 1e-10)
        stack, ys = np.stack([tall_with_spread(12, 6, 0.5, 14), a]), np.stack([y, y])
        if refusal is None:
            assert same_bits(_refit(a, y), svd_solve(a, y))
            assert same_bits([part[1] for part in _refit(stack, ys)], svd_solve(a, y))
        else:
            for call in (lambda: _refit(a, y), lambda: _refit(stack, ys)):
                with pytest.raises(RankDeficient) as raised:
                    call()
                assert str(raised.value) == refusal

    @pytest.mark.parametrize("scale", [1e-160, 1e200])
    def test_grams_out_of_range_take_the_svd(self, scale):
        # G underflows to subnormals or overflows: the SVD solve of A_S
        # itself, with no warning from the rejected G
        a = scale * tall_with_spread(8, 3, 0.5, 15)
        y = scale * np.random.default_rng(16).standard_normal(8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not is_certified(a)
            assert same_bits(_refit(a, y), svd_solve(a, y))
            assert same_bits([part[0] for part in _refit(np.stack([a, a]), np.stack([y, y]))],
                             svd_solve(a, y))

    def test_certified_coefficients_are_within_cond_u_of_the_svd(self):
        # the normal equations' forward error is about cond(G) u (Higham,
        # Accuracy and Stability of Numerical Algorithms, ch. 20); the
        # largest ratio to cond(G) u (||x|| + ||y|| / sigma_max) seen on
        # these draws is about 10, and the test allows 32
        rng = np.random.default_rng(41)
        unit = np.finfo(float).eps / 2
        for _ in range(500):
            m = int(rng.integers(1, 40))
            s = int(rng.integers(1, m + 1))
            a = tall_with_spread(m, s, 10.0 ** -rng.uniform(0.0, 1.5), int(rng.integers(1 << 30)))
            y = rng.standard_normal(m)
            assert is_certified(a)
            want = svd_solve(a, y)[0]
            sigma = np.linalg.svd(a, compute_uv=False)
            cond = (sigma[0] / sigma[-1]) ** 2
            bound = 32 * cond * unit * (np.linalg.norm(want) + np.linalg.norm(y) / sigma[0])
            assert np.linalg.norm(_refit(a, y)[0] - want) <= bound

    def test_the_gufuncs_keep_np_linalgs_bits_and_mark_failures_nan(self):
        # _refit calls the gufuncs behind np.linalg.cholesky and solve
        # directly; a numpy whose gufuncs changed would fail here first
        rng = np.random.default_rng(17)
        a = rng.standard_normal((3, 9, 4))
        gram = a.swapaxes(-1, -2) @ a
        rhs = rng.standard_normal((3, 4, 1))
        cholesky = linops._umath_linalg.cholesky_lo(gram, signature="d->d")
        solve = linops._umath_linalg.solve(gram, rhs, signature="dd->d")
        assert cholesky.tobytes() == np.linalg.cholesky(gram).tobytes()
        assert solve.tobytes() == np.linalg.solve(gram, rhs).tobytes()
        gram[1] = np.outer([1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0])  # singular
        with np.errstate(invalid="ignore"):
            cholesky = linops._umath_linalg.cholesky_lo(gram, signature="d->d")
            solve = linops._umath_linalg.solve(gram, rhs, signature="dd->d")
        assert [np.isnan(c).all() for c in cholesky] == [False, True, False]
        assert [np.isnan(x).all() for x in solve] == [False, True, False]

    def test_certified_is_the_identity_stack_form(self):
        # _certified subtracts the shift from a copy's diagonal; the mask is
        # that of G - c tr(G) I built with an identity, slice by slice and
        # on the stack, where the traces are inf, NaN and subnormal too
        rng = np.random.default_rng(18)
        a = rng.standard_normal((10, 9, 4))
        grams = a.swapaxes(-1, -2) @ a
        grams[1, 2, 2] = np.inf
        grams[2, 0, 0] = np.nan
        grams[3] *= 1e-306  # the shift is subnormal
        grams[4] *= 1e-280  # small, but every entry normal
        grams[5] = np.outer([1.0, 2.0, 0.0, 1.0], [1.0, 2.0, 0.0, 1.0])  # singular
        grams[6] = -grams[6]  # negative definite, a negative trace
        # lambda_min on either side of 1e-4 tr(G): t > 3e-4 / (1 - 1e-4) = 3.00030003e-4
        grams[8], grams[9] = np.diag([1.0, 1.0, 1.0, 3.0004e-4]), np.diag([1.0, 1.0, 1.0, 3.0002e-4])
        with np.errstate(over="ignore", invalid="ignore"):
            want = identity_stack_certified(grams)
            assert want.tolist() == [True, False, False, False, True, False, False, True, True, False]
            assert _certified(grams).tolist() == want.tolist()
            assert [bool(_certified(g)) for g in grams] == want.tolist()

    def test_a_subnormal_shift_is_not_certified_and_takes_the_svd(self, monkeypatch):
        # G = [[1e-305]] is normal, but 1e-4 tr(G) is not: not certified
        for gram in (np.array([[1e-305]]), np.array([[2.0**-1012]])):
            assert not _certified(gram) and not identity_stack_certified(gram)
        # and the refit whose G is [[2^-1012]] is solved by the SVD
        calls, svd_coef = [], linops._svd_coef
        monkeypatch.setattr(linops, "_svd_coef", lambda a_s, y: calls.append(a_s) or svd_coef(a_s, y))
        a = np.array([[2.0**-506]])
        assert same_bits(_refit(a, np.ones(1)), svd_solve(a, np.ones(1)))
        assert len(calls) == 1

    def test_every_grid_refit_is_certified(self, monkeypatch):
        # on D*U instances cond(G_S) <= (1 + delta) / (1 - delta) < 17, so a
        # grid slice that fell back to the SVD would mean the certificate slipped
        outcomes, certified = [], linops._certified

        def recording(gram):
            passed = certified(gram)
            outcomes.extend(np.ravel(passed).tolist())
            return passed

        monkeypatch.setattr(linops, "_certified", recording)
        for noisy in (False, True):
            cells = run_trials(range(2, 9), range(1, 5), 16, noisy, 31)
            assert all(r.error is None for cell in cells for r in cell.reports)
        assert len(outcomes) > 2000 and all(outcomes)


class TestProjectComplement:
    def test_empty_set_is_identity(self):
        u = np.array([1.0, -2.0, 0.5])
        out = project_complement(np.eye(3), set(), u)
        assert np.array_equal(out, u)
        assert out is not u

    def test_coordinate_projector(self):
        out = project_complement(np.eye(3), {1, 2}, np.array([3.0, 4.0, 5.0]))
        assert np.allclose(out, [0.0, 0.0, 5.0], atol=1e-15)

    def test_orthonormal_columns_explicit_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            q = np.linalg.qr(rng.standard_normal((7, 3)))[0]
            u = rng.standard_normal(7)
            got = project_complement(q, {1, 2, 3}, u)
            want = u - q @ (q.T @ u)  # explicit inverse is the identity here
            assert np.linalg.norm(got - want) <= 1e-12

    def test_idempotent_and_symmetric(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((9, 6))
        subset = {2, 5, 6}
        for _ in range(20):
            u = rng.standard_normal(9)
            w = rng.standard_normal(9)
            pu = project_complement(a, subset, u)
            pw = project_complement(a, subset, w)
            assert np.linalg.norm(project_complement(a, subset, pu) - pu) <= 1e-10
            assert abs(pu @ w - u @ pw) <= 1e-10

    def test_never_expands(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((9, 6))
        for _ in range(20):
            u = rng.standard_normal(9)
            assert np.linalg.norm(project_complement(a, {1, 4}, u)) <= np.linalg.norm(u) + 1e-14

    @pytest.mark.parametrize("index_set", [set(), {1}])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vector_rejected(self, bad, index_set):
        # once returned NaNs for an infinite entry
        with pytest.raises(ValueError, match="^vector entries must be finite$"):
            project_complement(np.eye(3), index_set, np.array([bad, 0.0, 0.0]))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"^vector has shape \(2,\), expected \(3,\)$"):
            project_complement(np.eye(3), {1}, np.ones(2))


class TestOrthogonalFactor:
    def test_identity(self):
        assert np.allclose(orthogonal_factor(np.eye(4)), np.eye(4), atol=1e-14)

    def test_positive_diagonal_convention(self):
        # sign fixed so diag(2, 3) maps to +I, not a sign flip
        assert np.allclose(orthogonal_factor(np.diag([2.0, 3.0])), np.eye(2), atol=1e-14)
        assert np.allclose(orthogonal_factor(np.diag([-2.0, 3.0])), np.diag([-1.0, 1.0]), atol=1e-14)

    def test_random_is_orthogonal_and_spans(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = rng.standard_normal((5, 5))
            q = orthogonal_factor(m)
            assert np.max(np.abs(q.T @ q - np.eye(5))) <= 1e-10
            # same column space: m has no component outside span(q)
            assert np.max(np.abs(m - q @ (q.T @ m))) <= 1e-10

    def test_singular_rejected(self):
        with pytest.raises(RankDeficient):
            orthogonal_factor(np.ones((3, 3)))

    @pytest.mark.parametrize("shape", [(7, 5, 5), (2, 3, 33, 33)])
    def test_stack_matches_per_slice_bits(self, shape):
        m = np.random.default_rng(11).standard_normal(shape)
        stacked = orthogonal_factor(m)
        assert stacked.shape == shape
        for index in np.ndindex(*shape[:-2]):
            assert stacked[index].tobytes() == orthogonal_factor(m[index]).tobytes()

    def test_stack_with_one_singular_slice_rejected(self):
        m = np.random.default_rng(12).standard_normal((4, 3, 3))
        m[2] = np.ones((3, 3))
        with pytest.raises(RankDeficient):
            orthogonal_factor(m)

    @pytest.mark.parametrize("shape", [(4,), (3, 4), (2, 3, 4), (0, 0)])
    def test_non_square_or_empty_rejected(self, shape):
        message = f"expected nonempty square matrices, got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            orthogonal_factor(np.ones(shape))

    @pytest.mark.parametrize("m,error,message", [
        (np.ones((3, 3)), RankDeficient, "matrix is numerically singular; no orthogonal factor"),
        (1e308 * np.random.default_rng(5).standard_normal((6, 6)), RankDeficient,
         "matrix is numerically singular; no orthogonal factor"),  # the SVD overflows
        (np.array([[1.0, 0.0], [0.0, np.nan]]), ValueError, "matrix entries must be finite"),
        (np.eye(2) + 0j, TypeError, "matrix entries must be integers or floats, got complex128"),
        (np.eye(2, dtype=bool), TypeError, "matrix entries must be integers or floats, got bool"),
        (np.ones((2, 0, 0)), ValueError, "expected nonempty square matrices, got shape (2, 0, 0)"),
    ], ids=["singular", "overflowing", "nan", "complex", "bool", "empty_stack"])
    def test_each_refusal_keeps_its_exception(self, m, error, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and nothing warns, nor raises LinAlgError
            with pytest.raises(error) as raised:
                orthogonal_factor(m)
        assert type(raised.value) is error and str(raised.value) == message


def svd_guard_raises(m):
    """The singularity guard by itself, written out apart from
    ``orthogonal_factor``: the reference for which inputs are refused as
    RankDeficient."""
    s = np.linalg.svd(m, compute_uv=False)
    return bool(((s[..., 0] <= 0.0) | (s[..., -1] < RANK_RTOL * s[..., 0])).any())


def guard_factor(m):
    """``orthogonal_factor`` decided by ``svd_guard_raises``; None stands
    for a RankDeficient refusal."""
    if svd_guard_raises(m):
        return None
    return qr_signed_q(m)


def with_spread(n, ratio, seed):
    """U diag(sigma) V^T with sigma geometric from 1 down to ``ratio``."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    v = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return (u * np.geomspace(1.0, ratio, n)) @ v.T


def mixed_stack():
    """Well-conditioned Gaussian slices and one slice at cond ~ 1e8, which
    the SVD guard passes."""
    m = np.random.default_rng(21).standard_normal((6, 8, 8))
    m[3] = with_spread(8, 1e-8, 22)
    return m


def random_stacks():
    """150 seeded stacks: random orders, batch sizes, power-of-two scales
    and condition numbers from 1 to 1e12."""
    rng = np.random.default_rng(36)
    for _ in range(150):
        n, batch = int(rng.integers(1, 17)), int(rng.integers(1, 5))
        m = np.stack([with_spread(n, 10.0 ** -rng.uniform(0, 12), int(rng.integers(1 << 30)))
                      for _ in range(batch)])
        yield m * 2.0 ** rng.integers(-900, 900, size=(batch, 1, 1))


GUARD_CASES = {
    **{f"spread_{name}": lambda r=r: with_spread(12, r, 31) for name, r in (
        ("1e-10_low", 1e-10 * (1 - 1e-6)), ("1e-10_high", 1e-10 * (1 + 1e-6)),
        ("1e-9", 1e-9), ("1e-8", 1e-8), ("1e-4", 1e-4))},
    "small_spread_1e-4": lambda: with_spread(6, 1e-4, 31),
    "scale_2^600": lambda: 2.0**600 * np.random.default_rng(32).standard_normal((12, 12)),
    "scale_2^-600": lambda: 2.0**-600 * np.random.default_rng(32).standard_normal((12, 12)),
    "ones_1e-160": lambda: 1e-160 * np.ones((3, 3)),
    "ones_stack_1e-160": lambda: 1e-160 * np.ones((16, 3, 3)),
    "gaussian_1e-310": lambda: 1e-310 * np.random.default_rng(33).standard_normal((12, 12)),
    "zero": lambda: np.zeros((12, 12)),
    "empty_stack": lambda: np.zeros((0, 3, 3)),
    "stack_2x3x33": lambda: np.random.default_rng(34).standard_normal((2, 3, 33, 33)),
    "mixed_stack": mixed_stack,
}
REFUSED = {"spread_1e-10_low", "ones_1e-160", "ones_stack_1e-160", "zero"}


class TestSingularityGuard:
    @pytest.mark.parametrize("case", GUARD_CASES)
    def test_agrees_with_svd_guard(self, case):
        m = GUARD_CASES[case]()
        want = guard_factor(m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if want is None:
                with pytest.raises(RankDeficient):
                    orthogonal_factor(m)
            else:
                assert orthogonal_factor(m).tobytes() == want.tobytes()

    def test_expected_refusals(self):
        # the cases straddle the guard: the SVD refuses below 1e-10 and the
        # rank-one and zero matrices, and passes everything else
        assert {case for case, build in GUARD_CASES.items() if guard_factor(build()) is None} == REFUSED

    def test_random_stacks_agree(self):
        decisions = set()
        for m in random_stacks():
            want = guard_factor(m)
            decisions.add(want is None)
            if want is None:
                with pytest.raises(RankDeficient):
                    orthogonal_factor(m)
            else:
                assert orthogonal_factor(m).tobytes() == want.tobytes()
        assert decisions == {True, False}

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("shape", [(3, 3), (4, 3, 3)])
    def test_non_finite_rejected(self, bad, shape):
        m = np.random.default_rng(37).standard_normal(shape)
        m.reshape(-1, 3, 3)[-1, 1, 2] = bad
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            orthogonal_factor(m)


def qr_signed_q(m):
    """``np.linalg.qr``'s factor with R's diagonal made nonnegative, a zero
    counted as positive: the reference for ``_signed_q``."""
    q, r = np.linalg.qr(m)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return q * signs[..., None, :]


def zero_column():
    """A Gaussian matrix with a zero column: R has a 0.0 on its diagonal."""
    m = np.random.default_rng(23).standard_normal((5, 5))
    m[:, 2] = 0.0
    return m


class TestSignedQ:
    """``_signed_q`` calls the LAPACK gufuncs behind ``np.linalg.qr``
    directly; a numpy whose QR changed would fail here first."""

    @pytest.mark.parametrize("build", [zero_column, lambda: np.asfortranarray(zero_column())]
                             + list(GUARD_CASES.values()),
                             ids=["zero_column", "zero_column_fortran"] + list(GUARD_CASES))
    def test_has_the_bits_of_np_linalg_qr(self, build):
        m = build()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _signed_q(m).tobytes() == qr_signed_q(m).tobytes()

    def test_a_zero_on_rs_diagonal_keeps_its_column(self):
        m = zero_column()
        assert np.linalg.qr(m)[1][2, 2] == 0.0
        q = _signed_q(m)
        assert q[:, 2].tobytes() == np.linalg.qr(m)[0][:, 2].tobytes()
        assert np.abs(q.T @ q - np.eye(5)).max() <= 1e-14

    def test_random_stacks_have_the_bits_of_np_linalg_qr(self):
        for m in random_stacks():
            assert _signed_q(m).tobytes() == qr_signed_q(m).tobytes()
            assert _signed_q(m[0]).tobytes() == qr_signed_q(m[0]).tobytes()


def diagonal_for(m, seed):
    """A seeded d in [0.5, 1.5) for each row of each slice of ``m``."""
    return np.random.default_rng(seed).uniform(0.5, 1.5, m.shape[:-1])


class TestDuEntries:
    """``du_entries`` takes the factor straight from QR: the bits of
    ``orthogonal_factor`` wherever the guard passes, and an orthogonal
    factor wherever it refuses."""

    @pytest.mark.parametrize("case", sorted(GUARD_CASES.keys() - REFUSED))
    def test_has_the_bits_of_orthogonal_factor(self, case):
        m = GUARD_CASES[case]()
        d = diagonal_for(m, 38)
        assert du_entries(d, m).tobytes() == (d[..., :, None] * orthogonal_factor(m)).tobytes()

    def test_random_stacks_have_the_bits_of_orthogonal_factor(self):
        passed = 0
        for seed, m in enumerate(random_stacks()):
            if svd_guard_raises(m):
                continue
            d = diagonal_for(m, seed)
            assert du_entries(d, m).tobytes() == (d[..., :, None] * orthogonal_factor(m)).tobytes()
            passed += 1
        assert passed > 50

    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_refused_sources_get_an_orthogonal_factor(self, case):
        m = GUARD_CASES[case]()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = du_entries(np.ones(m.shape[:-1]), m)
        assert np.abs(q.swapaxes(-1, -2) @ q - np.eye(m.shape[-1])).max() <= 1e-14


class TestSensingMatrix:
    def test_shape_properties(self):
        mat = SensingMatrix(np.ones((2, 5)))
        assert (mat.m, mat.n) == (2, 5)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SensingMatrix(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="^expected a 2-d matrix, got ndim=1$"):
            SensingMatrix(np.ones(3))
        with pytest.raises(ValueError, match=r"^matrix must be at least 1x1, got \(0, 2\)$"):
            SensingMatrix(np.ones((0, 2)))

    def test_out_of_range_indices(self):
        with pytest.raises(IndexError):
            least_squares(np.eye(3), {0, 1}, np.ones(3))
        with pytest.raises(IndexError):
            least_squares(np.eye(3), {4}, np.ones(3))


def seeded_rows(seed, count):
    """Rows of lengths 1-39 scaled by 10^[-5, 5], each on its own."""
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(int(rng.integers(1, 40))) * 10.0 ** rng.uniform(-5, 5) for _ in range(count)]


class TestNorm:
    def test_vector_has_the_bits_of_numpy_norm_and_row_dot(self):
        for x in seeded_rows(61, 2000):
            got = _norm(x)
            assert type(got) is float
            assert got == float(np.linalg.norm(x)) == float(np.sqrt(row_dot(x[None], x[None])[0]))

    def test_stack_has_the_bits_of_each_row(self):
        rng = np.random.default_rng(67)
        for m in range(1, 40):
            stack = rng.standard_normal((50, m)) * 10.0 ** rng.uniform(-5, 5, (50, 1))
            got = _norm(stack)
            assert got.shape == (50,)
            assert got.tolist() == [_norm(row) for row in stack] == np.sqrt(row_dot(stack, stack)).tolist()

    @pytest.mark.parametrize("scale", [1e155, 1e200, 1e-155, 1e-170, 1e-310])
    def test_out_of_range_square_sums_are_rescaled(self, scale):
        # the square sum overflows, is subnormal or underflows; math.hypot is the oracle
        row = np.array([3.0, 0.0, 4.0]) * scale
        with np.errstate(over="ignore"):  # as the pursuits call it; nothing else may warn
            got, alone = _norm(np.stack([row, -row, np.ones(3)])), _norm(row)
        want = math.hypot(*row)
        assert abs(alone - want) <= 4e-16 * want
        assert got.tolist() == [alone, alone, _norm(np.ones(3))]

    def test_zero_and_non_finite_rows_keep_their_values(self):
        stack = np.array([[0.0, 0.0], [math.inf, 1.0], [math.nan, 1.0], [1e308, 1e308]])
        with np.errstate(over="ignore"):
            got, alone = _norm(stack), [_norm(row) for row in stack]
        assert got[:2].tolist() == alone[:2] == [0.0, math.inf]
        assert math.isnan(got[2]) and math.isnan(alone[2])
        assert got[3] == alone[3] == 1e308 * math.sqrt(2.0)
        with np.errstate(over="ignore"):  # a NaN first leaves the overflowing row rescaled
            got = _norm(stack[[2, 3, 0]])
        assert math.isnan(got[0]) and got[1:].tolist() == [1e308 * math.sqrt(2.0), 0.0]

    @pytest.mark.parametrize("order", list(itertools.permutations(range(4))))
    def test_a_nan_row_hides_no_other_row(self, order):
        # min and max over the square sums may pass over the NaN, in any position
        rows = np.array([[1.0, 1.0], [math.nan, 1.0], [3e-170, 4e-170], [3e160, 4e160]])[list(order)]
        with np.errstate(over="ignore"):
            got, alone = _norm(rows), [_norm(row) for row in rows]
        assert np.array_equal(got, alone, equal_nan=True)

    def test_empty_stack_has_no_norms(self):
        assert _norm(np.empty((0, 3))).shape == (0,)
