import math
from itertools import combinations

import numpy as np
import pytest

from gompkit import (
    GompParams,
    RankDeficient,
    Termination,
    gen_instance,
    gomp_run,
    select_top_n,
)
from gompkit.greedy import gomp_stacked


class TestSelectTopN:
    def test_magnitude_order(self):
        assert select_top_n(np.array([0.1, -0.9, 0.5]), 2) == [2, 3]

    def test_tie_breaks_to_lowest_index(self):
        assert select_top_n(np.array([0.5, 0.5, 0.5]), 1) == [1]
        assert select_top_n(np.array([0.5, 0.5, 0.5]), 2) == [1, 2]

    def test_exclusion(self):
        assert select_top_n(np.array([0.9, 0.0, 0.2]), 2, excluded={1}) == [3, 2]

    def test_insufficient_candidates(self):
        with pytest.raises(ValueError, match="^need 2 candidates, only 1 remain$"):
            select_top_n(np.array([1.0, 2.0]), 2, excluded={1})

    def test_matches_lexsort_reference(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            n = int(rng.integers(1, 40))
            c = np.round(rng.standard_normal(n), int(rng.integers(0, 3)))  # ties
            excluded = set((rng.permutation(n)[: int(rng.integers(0, n))] + 1).tolist())
            n_select = int(rng.integers(1, n - len(excluded) + 1))
            assert select_top_n(c, n_select, excluded) == lexsort_top_n(c, n_select, excluded)

    @pytest.mark.parametrize("n_select", [0, -1])
    def test_n_select_below_one_rejected(self, n_select):
        # once -1 picked n - 1 indices and 0 picked none
        with pytest.raises(ValueError, match=f"^n_select must be >= 1, got {n_select}$"):
            select_top_n(np.array([0.3, 0.1, 0.2]), n_select)
        with pytest.raises(ValueError, match=f"^n_select must be >= 1, got {n_select}$"):
            select_top_n(np.array([np.nan]), n_select, excluded={5})  # before any other check

    def test_nan_rejected(self):
        # a NaN would sort after the excluded entries and let one be picked
        with pytest.raises(ValueError, match="NaN"):
            select_top_n(np.array([np.nan, 0.5, np.nan, 0.2]), 3, excluded={2})


def lexsort_top_n(c, n_select, excluded):
    """The top-N rule as a lexsort over the candidates: |c| descending,
    then index ascending."""
    candidates = np.array([i for i in range(c.size) if i + 1 not in excluded], dtype=int)
    order = np.lexsort((candidates, -np.abs(c[candidates])))
    return [int(candidates[i]) + 1 for i in order[:n_select]]


class TestGompParams:
    @pytest.mark.parametrize("bad,message", [
        pytest.param(dict(sparsity=0, n_select=1, epsilon=0.0), "sparsity must be >= 1, got 0",
                     id="bad0"),
        pytest.param(dict(sparsity=1, n_select=0, epsilon=0.0), "n_select must be >= 1, got 0",
                     id="bad1"),
        pytest.param(dict(sparsity=1, n_select=1, epsilon=-1.0), "epsilon must be >= 0, got -1.0",
                     id="bad2"),
    ])
    def test_rejects_invalid(self, bad, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            GompParams(**bad)

    def test_run_rejects_oversized_support(self):
        a = np.eye(4)
        with pytest.raises(ValueError, match=r"^n_select \* sparsity = 6 exceeds the row count 4$"):
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


def supports_after(trace):
    """The support after each iteration: the union of the picks so far."""
    support = frozenset()
    for rec in trace.iterations:
        support |= set(rec.selected)
        yield rec, support


class TestRunInvariants:
    def test_support_grows_by_n_select(self, traces):
        for inst, trace in traces:
            for i, (rec, support) in enumerate(supports_after(trace), start=1):
                assert len(rec.selected) == inst.n_select
                assert len(support) == i * inst.n_select

    def test_selected_indices_are_fresh(self, traces):
        for _, trace in traces:
            seen = set()
            for rec in trace.iterations:
                assert not (set(rec.selected) & seen)
                seen |= set(rec.selected)
            assert trace.final_support == seen

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
            for rec, support in supports_after(trace):
                cols = np.array(sorted(support)) - 1
                coef, *_ = np.linalg.lstsq(a[:, cols], y, rcond=None)
                resid = y - a[:, cols] @ coef
                assert np.max(np.abs(a[:, cols].T @ resid)) <= 1e-8 * np.linalg.norm(y)

    def test_residual_norms_recomputable(self, traces):
        for inst, trace in traces:
            a = inst.matrix.entries
            y = inst.observation
            for rec, support in supports_after(trace):
                cols = np.array(sorted(support)) - 1
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
            for rec, support in supports_after(trace):
                assert np.allclose(rec.correlations, np.abs(a.T @ resid), atol=1e-12)
                cols = np.array(sorted(support)) - 1
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


def stacked_problems(k, nsel, noisy, seeds):
    insts = [gen_instance(k, nsel, noisy=noisy, seed=s) for s in seeds]
    return (
        np.stack([inst.matrix.entries for inst in insts]),
        np.stack([inst.observation for inst in insts]),
        np.array([inst.epsilon for inst in insts]),
    )


def assert_stacked_matches_scalar(entries, y, eps, k, nsel):
    """Every row of gomp_stacked equals gomp_run bit for bit; returns the traces."""
    run = gomp_stacked(entries, y, eps, k, nsel)
    traces = []
    for t in range(len(y)):
        trace = gomp_run(entries[t], y[t], GompParams(sparsity=k, n_select=nsel, epsilon=eps[t]))
        support = frozenset(int(i) + 1 for i in np.flatnonzero(run.supports[t]))
        assert support == trace.final_support
        assert run.estimates[t].tobytes() == trace.final_estimate.tobytes()
        assert run.iterations[t] == trace.iterations_used
        # NaN when no iteration ran, in both
        assert np.array_equal(run.residual_norms[t], trace.final_residual_norm, equal_nan=True)
        traces.append(trace)
    return run, traces


class TestStackedKernel:
    @pytest.mark.parametrize("k,nsel,noisy", [(2, 1, False), (2, 1, True), (3, 2, True),
                                              (5, 3, False), (8, 4, True), (8, 4, False)])
    def test_rows_match_gomp_run_bits(self, k, nsel, noisy):
        assert_stacked_matches_scalar(*stacked_problems(k, nsel, noisy, range(600, 616)), k, nsel)

    def test_wide_gaussian_rows_match_gomp_run_bits(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((10, 12, 24))
        x = np.zeros((10, 24))
        for t in range(10):
            x[t, rng.permutation(24)[:4]] = rng.standard_normal(4)
        y = (a @ x[:, :, None])[:, :, 0]
        run, _ = assert_stacked_matches_scalar(a, y, np.full(10, 1e-3), 4, 2)
        assert len(set(run.iterations.tolist())) > 1  # rows freeze at different iterations

    def test_ties_break_to_smallest_index(self):
        entries = np.stack([np.eye(20), np.eye(20)[:, ::-1]])
        run, traces = assert_stacked_matches_scalar(entries, np.ones((2, 20)), np.zeros(2), 2, 3)
        assert [sorted(trace.iterations[0].selected) for trace in traces] == [[1, 2, 3]] * 2

    def test_zero_observation_row_runs_no_iteration(self):
        entries, y, eps = stacked_problems(3, 2, True, range(3))
        y[1] = 0.0
        run, _ = assert_stacked_matches_scalar(entries, y, eps, 3, 2)
        assert run.iterations[1] == 0 and not run.supports[1].any()
        assert math.isnan(run.residual_norms[1])
        # ||y|| = 0.1 <= epsilon = 0.5 with y != 0
        run, _ = assert_stacked_matches_scalar(np.eye(3)[None], np.array([[0.1, 0.0, 0.0]]),
                                               np.array([0.5]), 1, 1)
        assert run.iterations[0] == 0 and math.isnan(run.residual_norms[0])

    def test_rank_deficient_refit_raises(self):
        a, y = duplicate_column_problem()
        with pytest.raises(RankDeficient):
            gomp_stacked(np.stack([np.eye(4, 5), a]), np.stack([y, y]), np.full(2, 1e-12), 2, 2)

    def test_rank_deficient_message_matches_gomp_run(self):
        a, y = duplicate_column_problem()
        with pytest.raises(RankDeficient) as scalar:
            gomp_run(a, y, GompParams(sparsity=2, n_select=2, epsilon=1e-12))
        with pytest.raises(RankDeficient) as stacked:
            gomp_stacked(a[None], y[None], np.full(1, 1e-12), 2, 2)
        assert str(stacked.value) == str(scalar.value)
        assert str(scalar.value).startswith("iteration 2: ")

    def test_rejects_bad_input(self):
        entries, y, eps = stacked_problems(2, 1, True, range(2))
        with pytest.raises(ValueError, match=r"^n_select \* sparsity = 6 exceeds the row count 3$"):
            gomp_stacked(entries, y, eps, 3, 2)
        with pytest.raises(ValueError, match="finite"):
            gomp_stacked(entries, np.where(y > 0, np.nan, y), eps, 2, 1)
        with pytest.raises(ValueError):
            gomp_stacked(entries, y[:, :-1], eps, 2, 1)


def duplicate_column_problem():
    """Column 5 repeats column 1; with N = 2 the second iteration picks both."""
    a = np.hstack([np.eye(4), np.eye(4)[:, :1]])
    return a, np.array([1.0, 5.0, 4.0, 0.0])


def test_rank_deficient_refit_keeps_partial_trace():
    a, y = duplicate_column_problem()
    with pytest.raises(RankDeficient, match="iteration 2") as info:
        gomp_run(a, y, GompParams(sparsity=2, n_select=2, epsilon=1e-12))
    partial = info.value.partial_trace
    assert [rec.selected for rec in partial.iterations] == [(2, 3)]
    assert partial.final_support == {2, 3}
    assert np.array_equal(partial.final_estimate, [0.0, 5.0, 4.0, 0.0, 0.0])
    assert partial.termination is Termination.RANK_DEFICIENT


@pytest.fixture(scope="module")
def metamorphic_cases():
    """(K, N, entries, y, eps) stacks of seeded noisy and noise-free instances."""
    cases = []
    for k, nsel, noisy in [(3, 1, True), (4, 2, False), (6, 3, True), (8, 4, False)]:
        cases.append((k, nsel, *stacked_problems(k, nsel, noisy, range(900, 906))))
    return cases


def selection_sets(trace):
    return [frozenset(rec.selected) for rec in trace.iterations]


class TestMetamorphic:
    def test_column_permutation_permutes_selections(self, metamorphic_cases):
        rng = np.random.default_rng(41)
        for k, nsel, entries, y, eps in metamorphic_cases:
            perm = rng.permutation(entries.shape[2])  # column j of the new matrix is perm[j]
            run, traces = assert_stacked_matches_scalar(entries, y, eps, k, nsel)
            run_p, traces_p = assert_stacked_matches_scalar(entries[:, :, perm], y, eps, k, nsel)
            assert np.array_equal(run_p.supports, run.supports[:, perm])
            assert np.array_equal(run_p.iterations, run.iterations)
            for trace, trace_p in zip(traces, traces_p):
                mapped = [frozenset(int(perm[j - 1]) + 1 for j in sel)
                          for sel in selection_sets(trace_p)]
                assert mapped == selection_sets(trace)

    def test_scaling_y_and_epsilon_keeps_selections(self, metamorphic_cases):
        for k, nsel, entries, y, eps in metamorphic_cases:
            run, traces = assert_stacked_matches_scalar(entries, y, eps, k, nsel)
            run_s, traces_s = assert_stacked_matches_scalar(entries, 2.0 * y, 2.0 * eps, k, nsel)
            assert np.array_equal(run_s.supports, run.supports)
            assert np.array_equal(run_s.iterations, run.iterations)
            assert np.array_equal(run_s.estimates, 2.0 * run.estimates)  # powers of 2 scale exactly
            for trace, trace_s in zip(traces, traces_s):
                assert [r.selected for r in trace_s.iterations] == [r.selected for r in trace.iterations]

    def test_orthogonal_rotation_keeps_selections(self, metamorphic_cases):
        for k, nsel, entries, y, eps in metamorphic_cases:
            m = entries.shape[1]
            q, _ = np.linalg.qr(np.random.default_rng([m, 5]).standard_normal((m, m)))
            run, traces = assert_stacked_matches_scalar(entries, y, eps, k, nsel)
            run_q, traces_q = assert_stacked_matches_scalar(q @ entries, y @ q.T, eps, k, nsel)
            assert np.array_equal(run_q.supports, run.supports)
            assert np.array_equal(run_q.iterations, run.iterations)
            for trace, trace_q in zip(traces, traces_q):
                assert selection_sets(trace_q) == selection_sets(trace)
