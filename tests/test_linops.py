import re
import warnings

import numpy as np
import pytest

from gompkit import (
    RankDeficient,
    SensingMatrix,
    Singular,
    least_squares,
    orthogonal_factor,
    project_complement,
)
from gompkit.linops import RANK_RTOL, _solve_submatrix


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


def unstacked_solve(a_s, y):
    """The 2-d solve as written before it took stacks: the reference for
    the bits of every slice."""
    u, s, vt = np.linalg.svd(a_s, full_matrices=False)
    return vt.T @ ((u.T @ y) / s)


class TestStackedSolve:
    @pytest.mark.parametrize("shape", [(5, 7, 3), (2, 3, 6, 6), (4, 33, 17), (1, 4, 1)])
    def test_slices_match_the_2d_call_bits(self, shape):
        rng = np.random.default_rng(list(shape))
        a = rng.standard_normal(shape)
        y = rng.standard_normal(shape[:-1])
        got = _solve_submatrix(a, y)
        assert got.shape == shape[:-2] + shape[-1:]
        for index in np.ndindex(*shape[:-2]):
            want = unstacked_solve(a[index], y[index])
            assert _solve_submatrix(a[index], y[index]).tobytes() == want.tobytes()
            assert got[index].tobytes() == want.tobytes()

    def test_gathered_views_match_the_scalar_gather(self):
        # the F-ordered A_S views gomp_stacked gathers from the rows of A^T
        rng = np.random.default_rng(3)
        entries = rng.standard_normal((6, 13, 13))
        y = rng.standard_normal((6, 13))
        cols = np.sort(np.argsort(rng.standard_normal((6, 13)), axis=1)[:, :8], axis=1)
        sub = entries.transpose(0, 2, 1)[np.arange(6)[:, None], cols].transpose(0, 2, 1)
        assert sub[0].flags.f_contiguous
        got = _solve_submatrix(sub, y)
        for t in range(6):
            assert got[t].tobytes() == unstacked_solve(entries[t][:, cols[t]], y[t]).tobytes()

    def test_names_the_first_failing_slice(self):
        good = np.eye(4, 2)
        duplicate = np.column_stack([np.ones(4), np.ones(4)])
        scaled = np.column_stack([np.ones(4), 1e-12 * np.arange(4.0)])
        y = np.arange(4.0)
        for bad in (duplicate, scaled, np.zeros((4, 2))):
            with pytest.raises(RankDeficient) as flat:
                _solve_submatrix(bad, y)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(RankDeficient) as stacked:
                    _solve_submatrix(np.stack([good, bad, duplicate]), np.stack([y, y, y]))
            assert str(stacked.value) == str(flat.value)
        assert "0.000e+00" in str(flat.value)  # the zero slice: no 0/0


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
        with pytest.raises(Singular):
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
        with pytest.raises(Singular):
            orthogonal_factor(m)

    @pytest.mark.parametrize("shape", [(4,), (3, 4), (2, 3, 4), (0, 0)])
    def test_non_square_or_empty_rejected(self, shape):
        message = f"expected nonempty square matrices, got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            orthogonal_factor(np.ones(shape))


def svd_guard_raises(m):
    """The singularity guard by itself, as ``orthogonal_factor`` ran it on
    every input before the Cholesky certificate: the reference for which
    inputs are refused as Singular."""
    s = np.linalg.svd(m, compute_uv=False)
    return bool(((s[..., 0] <= 0.0) | (s[..., -1] < RANK_RTOL * s[..., 0])).any())


def unscreened_factor(m):
    """``orthogonal_factor`` decided by ``svd_guard_raises`` alone; None
    stands for a Singular refusal."""
    if svd_guard_raises(m):
        return None
    q, r = np.linalg.qr(m)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return q * signs[..., None, :]


def spy_svd(monkeypatch):
    """Count the calls of ``np.linalg.svd``; ``orthogonal_factor`` calls it
    only for its guard."""
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    return calls


def with_spread(n, ratio, seed):
    """U diag(sigma) V^T with sigma geometric from 1 down to ``ratio``."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    v = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return (u * np.geomspace(1.0, ratio, n)) @ v.T


def mixed_stack():
    """Well-conditioned Gaussian slices and one slice at cond ~ 1e8, which
    the certificate cannot clear but the SVD guard passes."""
    m = np.random.default_rng(21).standard_normal((6, 8, 8))
    m[3] = with_spread(8, 1e-8, 22)
    return m


# case: (input, guard SVDs run). Inputs of at least 128 entries meet the
# certificate first; smaller ones go straight to the SVD guard.
GUARD_CASES = {
    **{f"spread_{name}": (lambda r=r: with_spread(12, r, 31), 1) for name, r in (
        ("1e-10_low", 1e-10 * (1 - 1e-6)), ("1e-10_high", 1e-10 * (1 + 1e-6)),
        ("1e-9", 1e-9), ("1e-8", 1e-8))},
    "spread_1e-4": (lambda: with_spread(12, 1e-4, 31), 0),
    "small_spread_1e-4": (lambda: with_spread(6, 1e-4, 31), 1),
    "scale_2^600": (lambda: 2.0**600 * np.random.default_rng(32).standard_normal((12, 12)), 0),
    "scale_2^-600": (lambda: 2.0**-600 * np.random.default_rng(32).standard_normal((12, 12)), 0),
    "ones_1e-160": (lambda: 1e-160 * np.ones((3, 3)), 1),
    "ones_stack_1e-160": (lambda: 1e-160 * np.ones((16, 3, 3)), 1),
    "gaussian_1e-310": (lambda: 1e-310 * np.random.default_rng(33).standard_normal((12, 12)), 0),
    "zero": (lambda: np.zeros((12, 12)), 1),
    "empty_stack": (lambda: np.zeros((0, 3, 3)), 1),
    "stack_2x3x33": (lambda: np.random.default_rng(34).standard_normal((2, 3, 33, 33)), 0),
    "mixed_stack": (mixed_stack, 1),
}


class TestSingularityGuard:
    @pytest.mark.parametrize("case", GUARD_CASES)
    def test_agrees_with_svd_guard(self, case, monkeypatch):
        build, guard_svds = GUARD_CASES[case]
        m = build()
        want = unscreened_factor(m)
        calls = spy_svd(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if want is None:
                with pytest.raises(Singular):
                    orthogonal_factor(m)
            else:
                assert orthogonal_factor(m).tobytes() == want.tobytes()
        assert len(calls) == guard_svds

    def test_expected_refusals(self):
        # the cases straddle the guard: the SVD refuses below 1e-10 and the
        # rank-one and zero matrices, and passes everything else
        refused = {case for case, (build, _) in GUARD_CASES.items()
                   if unscreened_factor(build()) is None}
        assert refused == {"spread_1e-10_low", "ones_1e-160", "ones_stack_1e-160", "zero"}

    def test_gaussian_stack_needs_no_svd(self, monkeypatch):
        m = np.random.default_rng(35).standard_normal((128, 33, 33))
        want = unscreened_factor(m)
        calls = spy_svd(monkeypatch)
        assert orthogonal_factor(m).tobytes() == want.tobytes()
        assert calls == []

    def test_random_stacks_agree(self):
        # random orders, batch sizes, power-of-two scales and condition
        # numbers from 1 to 1e12, on both sides of the 128-entry gate
        rng = np.random.default_rng(36)
        decisions = set()
        for _ in range(150):
            n, batch = int(rng.integers(1, 17)), int(rng.integers(1, 5))
            m = np.stack([with_spread(n, 10.0 ** -rng.uniform(0, 12), int(rng.integers(1 << 30)))
                          for _ in range(batch)])
            m *= 2.0 ** rng.integers(-900, 900, size=(batch, 1, 1))
            want = unscreened_factor(m)
            decisions.add(want is None)
            if want is None:
                with pytest.raises(Singular):
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
