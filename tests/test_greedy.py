from itertools import combinations

import numpy as np
import pytest

from gompkit import (
    GompParams,
    InsufficientCandidates,
    InvalidParams,
    Termination,
    gen_instance,
    gomp_run,
    select_top_n,
)


class TestSelectTopN:
    def test_magnitude_order(self):
        assert select_top_n(np.array([0.1, -0.9, 0.5]), 2) == [2, 3]

    def test_tie_breaks_to_lowest_index(self):
        assert select_top_n(np.array([0.5, 0.5, 0.5]), 1) == [1]
        assert select_top_n(np.array([0.5, 0.5, 0.5]), 2) == [1, 2]

    def test_exclusion(self):
        assert select_top_n(np.array([0.9, 0.0, 0.2]), 2, excluded={1}) == [3, 2]

    def test_insufficient_candidates(self):
        with pytest.raises(InsufficientCandidates):
            select_top_n(np.array([1.0, 2.0]), 2, excluded={1})


class TestGompParams:
    @pytest.mark.parametrize("bad", [dict(sparsity=0, n_select=1, epsilon=0.0),
                                     dict(sparsity=1, n_select=0, epsilon=0.0),
                                     dict(sparsity=1, n_select=1, epsilon=-1.0)])
    def test_rejects_invalid(self, bad):
        with pytest.raises(InvalidParams):
            GompParams(**bad)

    def test_run_rejects_oversized_support(self):
        a = np.eye(4)
        with pytest.raises(InvalidParams):
            gomp_run(a, np.ones(4), GompParams(sparsity=3, n_select=2, epsilon=0.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_run_rejects_nonfinite_observation(self, bad):
        y = np.array([1.0, 0.0, bad, 2.0])
        with pytest.raises(ValueError, match="finite"):
            gomp_run(np.eye(4), y, GompParams(sparsity=2, n_select=1, epsilon=1e-12))


class TestIdentitySensing:
    def test_one_per_iteration(self):
        a = np.eye(4)
        x = np.array([0.0, 3.0, 0.0, -2.0])
        trace = gomp_run(a, a @ x, GompParams(sparsity=2, n_select=1, epsilon=1e-12))
        assert trace.iterations[0].selected == (2,)
        assert trace.final_support == {2, 4}
        assert np.array_equal(trace.final_estimate, x)

    def test_one_shot_multi_selection(self):
        a = np.eye(4)
        x = np.array([0.0, 3.0, 0.0, -2.0])
        trace = gomp_run(a, a @ x, GompParams(sparsity=2, n_select=2, epsilon=1e-12))
        assert len(trace.iterations) == 1
        assert trace.final_support == {2, 4}
        assert trace.termination is Termination.RESIDUAL_BELOW_EPSILON

    def test_zero_observation_stops_immediately(self):
        trace = gomp_run(np.eye(4), np.zeros(4), GompParams(sparsity=2, n_select=1, epsilon=1e-12))
        assert trace.iterations == []
        assert trace.final_support == frozenset()
        assert np.array_equal(trace.final_estimate, np.zeros(4))
        assert trace.termination is Termination.RESIDUAL_BELOW_EPSILON


def exhaustive_zero_residual_supports(a, y, max_size, tol):
    """Oracle: least squares over every support of size <= max_size, returning
    those whose residual vanishes."""
    n = a.shape[1]
    found = []
    for size in range(1, max_size + 1):
        for cols in combinations(range(n), size):
            coef, *_ = np.linalg.lstsq(a[:, list(cols)], y, rcond=None)
            if np.linalg.norm(y - a[:, list(cols)] @ coef) <= tol:
                found.append(frozenset(c + 1 for c in cols))
    return found


def test_recovery_agrees_with_exhaustive_support_oracle():
    inst = gen_instance(3, 2, noisy=False, seed=2024)
    trace = gomp_run(
        inst.matrix, inst.observation, GompParams(sparsity=3, n_select=2, epsilon=inst.epsilon)
    )
    assert trace.iterations_used <= 3
    x = inst.signal.values
    assert np.max(np.abs(trace.final_estimate - x)) <= 1e-8 * np.max(np.abs(x))

    tol = 1e-9 * np.linalg.norm(inst.observation)
    zero_supports = exhaustive_zero_residual_supports(
        inst.matrix.entries, inst.observation, max_size=6, tol=tol
    )
    # every perfectly-fitting support contains the true one, and the found
    # support is among them
    assert all(inst.signal.support <= s for s in zero_supports)
    assert trace.final_support in zero_supports


@pytest.fixture(scope="module")
def traces():
    out = []
    for seed in range(12):
        k, nsel = 2 + seed % 4, 1 + seed % 3
        inst = gen_instance(k, nsel, noisy=seed % 2 == 1, seed=300 + seed)
        params = GompParams(sparsity=k, n_select=nsel, epsilon=inst.epsilon)
        out.append((inst, gomp_run(inst.matrix, inst.observation, params)))
    return out


class TestRunInvariants:
    def test_support_grows_by_n_select(self, traces):
        for inst, trace in traces:
            for i, rec in enumerate(trace.iterations, start=1):
                assert len(rec.selected) == inst.n_select
                assert len(rec.support_after) == i * inst.n_select

    def test_selected_indices_are_fresh(self, traces):
        for _, trace in traces:
            seen = set()
            for rec in trace.iterations:
                assert not (set(rec.selected) & seen)
                seen |= set(rec.selected)
                assert rec.support_after == frozenset(seen)

    def test_residual_monotone(self, traces):
        for inst, trace in traces:
            norms = [np.linalg.norm(inst.observation)]
            norms += [rec.residual_norm for rec in trace.iterations]
            for prev, cur in zip(norms, norms[1:]):
                assert cur <= prev + 1e-12 * norms[0]

    def test_residual_orthogonal_on_support(self, traces):
        for inst, trace in traces:
            a = inst.matrix.entries
            y = inst.observation
            for rec in trace.iterations:
                cols = np.array(sorted(rec.support_after)) - 1
                coef, *_ = np.linalg.lstsq(a[:, cols], y, rcond=None)
                resid = y - a[:, cols] @ coef
                assert np.max(np.abs(a[:, cols].T @ resid)) <= 1e-8 * np.linalg.norm(y)

    def test_residual_norms_recomputable(self, traces):
        for inst, trace in traces:
            a = inst.matrix.entries
            y = inst.observation
            for rec in trace.iterations:
                cols = np.array(sorted(rec.support_after)) - 1
                coef, *_ = np.linalg.lstsq(a[:, cols], y, rcond=None)
                recomputed = np.linalg.norm(y - a[:, cols] @ coef)
                assert abs(recomputed - rec.residual_norm) <= 1e-10 * max(1.0, rec.residual_norm)

    def test_estimate_zero_off_support(self, traces):
        for _, trace in traces:
            mask = np.ones(trace.final_estimate.size, dtype=bool)
            if trace.final_support:
                mask[np.array(sorted(trace.final_support)) - 1] = False
            assert np.all(trace.final_estimate[mask] == 0.0)

    def test_correlations_recorded(self, traces):
        for inst, trace in traces:
            a = inst.matrix.entries
            y = inst.observation
            resid = y.copy()
            for rec in trace.iterations:
                assert rec.correlations is not None
                assert np.allclose(rec.correlations, np.abs(a.T @ resid), atol=1e-12)
                cols = np.array(sorted(rec.support_after)) - 1
                coef, *_ = np.linalg.lstsq(a[:, cols], y, rcond=None)
                resid = y - a[:, cols] @ coef


def textbook_omp_selections(a, y, sparsity, epsilon):
    """Independent OMP: argmax correlation (first-index tie rule), then a
    normal-equations refit. Returns the selection sequence."""
    support = []
    residual = y.copy()
    while len(support) < sparsity and np.linalg.norm(residual) > epsilon:
        j = int(np.argmax(np.abs(a.T @ residual)))
        support.append(j)
        cols = a[:, support]
        coef = np.linalg.solve(cols.T @ cols, cols.T @ y)
        residual = y - cols @ coef
    return [j + 1 for j in support]


def test_n1_matches_textbook_omp():
    rng = np.random.default_rng(99)
    for trial in range(60):
        if trial % 2 == 0:
            inst = gen_instance(2 + trial % 5, 1, noisy=trial % 4 == 2, seed=5000 + trial)
            a, y, eps, k = inst.matrix.entries, inst.observation, inst.epsilon, inst.sparsity
        else:
            a = rng.standard_normal((12, 24))
            a /= np.linalg.norm(a, axis=0)
            x = np.zeros(24)
            x[rng.permutation(24)[:4]] = rng.standard_normal(4)
            y = a @ x
            eps, k = 1e-10 * np.linalg.norm(y), 4
        trace = gomp_run(a, y, GompParams(sparsity=k, n_select=1, epsilon=eps))
        ours = [rec.selected[0] for rec in trace.iterations]
        assert ours == textbook_omp_selections(a, y, k, eps)
