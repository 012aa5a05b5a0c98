"""Differential tests of the traced pursuit and the selection verifier.

``reference_gomp_run`` and ``reference_selection_condition`` keep the
earlier, plainer forms of ``gomp_run`` and ``verify_selection_condition``:
a 1-based support list, ``select_top_n`` and ``least_squares`` on every
iteration, and the rivals picked by ``select_top_n``. Both sides take
residual norms with ``linops._norm``, whose bits ``tests/test_linops.py``
pins to ``np.linalg.norm`` wherever the square sum is a normal double.
The library versions run on one boolean mask and must agree with the
references on generated instances and on seeded fuzz families
(integer, duplicate-column, 1e+-150-scaled, tie-heavy and rank-deficient
matrices): picks, correlations, residual norms, estimates and
termination bit for bit, and the same exception type, message and
partial trace.
"""

import math

import numpy as np
import pytest

from gompkit import (
    GompParams,
    RankDeficient,
    RecoveryTrace,
    SparseSignal,
    Termination,
    gen_instance,
    gomp_run,
    least_squares,
    select_top_n,
    verify_selection_condition,
)
from gompkit import greedy, verify
from gompkit.greedy import IterationRecord, gomp_stacked
from gompkit.linops import _norm, as_sensing_matrix, as_vector


def reference_gomp_run(a, y, params):
    """The traced pursuit on a support list: ``select_top_n`` excluding the
    support, ``least_squares`` on the sorted support, then the residual
    from a second gather of A_S and two residual norms per iteration."""
    mat = as_sensing_matrix(a)
    y = as_vector(y, mat.m, "observation")
    greedy._check_fits(params, mat.m, mat.n)

    def placed(support, coef):
        estimate = np.zeros(mat.n)
        if support:
            estimate[np.asarray(sorted(support)) - 1] = coef
        return estimate

    support, residual, coef, records = [], y.copy(), np.empty(0), []
    k = 0
    while k < params.sparsity and _norm(residual) > params.epsilon:
        k += 1
        correlations = mat.entries.T @ residual
        picked = select_top_n(correlations, params.n_select, excluded=frozenset(support))
        try:
            new_coef = least_squares(mat, support + picked, y)
        except RankDeficient as exc:
            err = RankDeficient(f"iteration {k}: {exc}")
            err.partial_trace = RecoveryTrace(records, placed(support, coef), Termination.RANK_DEFICIENT)
            raise err from exc
        support.extend(picked)
        coef = new_coef
        fitted = mat.entries[:, np.asarray(sorted(support)) - 1] @ coef
        residual = y - fitted
        records.append(
            IterationRecord(tuple(picked), _norm(residual), np.abs(correlations))
        )
    final_norm = _norm(residual)
    termination = (
        Termination.RESIDUAL_BELOW_EPSILON if final_norm <= params.epsilon else Termination.MAX_ITERATIONS
    )
    return RecoveryTrace(records, placed(support, coef), termination)


def reference_selection_condition(x, trace, n_select):
    """The selection-condition loop with the rivals of ``select_top_n``,
    after the same trace check."""
    verify._check_trace(trace, x.n)
    omega = x.support
    on = np.asarray(sorted(omega)) - 1
    prior = set()
    for record in trace.iterations:
        if omega <= prior:
            break
        corr = record.correlations
        best_on = float(np.max(corr[on]))
        rivals = select_top_n(corr, n_select, excluded=omega)
        rival_mean = float(np.mean(corr[np.asarray(rivals) - 1]))
        if not best_on > rival_mean:
            return False
        prior.update(record.selected)
    return True


def outcome(call):
    """("ok", result) or (exception type, message, partial trace or None)."""
    try:
        return "ok", call()
    except (ValueError, IndexError, RankDeficient) as exc:
        return type(exc), str(exc), getattr(exc, "partial_trace", None)


def trace_key(trace):
    """Everything a trace records, as bytes and plain values."""
    if trace is None:
        return None
    records = [
        (rec.selected, np.float64(rec.residual_norm).tobytes(), rec.correlations.tobytes())
        for rec in trace.iterations
    ]
    return records, trace.final_estimate.tobytes(), trace.termination


def outcome_key(result):
    if result[0] == "ok":
        return "ok", trace_key(result[1])
    kind, message, partial = result
    return kind, message, trace_key(partial)


def fuzz_cases():
    """(family, matrix, signal, K, N, epsilon), seeded, numpy only."""
    rng = np.random.default_rng(2206)
    cases = []
    for family in ("integer", "duplicate-column", "scaled", "tie-heavy", "rank-deficient"):
        for case in range(60):
            m, n = int(rng.integers(3, 9)), int(rng.integers(3, 13))
            nsel = int(rng.integers(1, 4))
            fits = min(m, n) // nsel
            k = fits + 1 if case % 10 == 0 else int(rng.integers(1, fits + 1))  # a few do not fit
            if family == "integer":
                a = rng.integers(-3, 4, size=(m, n)).astype(float)
            elif family == "duplicate-column":
                a = rng.standard_normal((m, n))
                a[:, rng.integers(0, n)] = a[:, rng.integers(0, n)]
            elif family == "scaled":
                a = rng.standard_normal((m, n)) * 10.0 ** float(rng.choice([-150, 150]))
            elif family == "tie-heavy":
                a = rng.choice([-1.0, 0.0, 1.0], size=(m, n))
            else:
                a = rng.standard_normal((m, 2)) @ rng.standard_normal((2, n))
            values = np.zeros(n)
            support = rng.permutation(n)[: int(rng.integers(0, min(n, 4) + 1))]
            values[support] = rng.integers(-2, 3, size=support.size)
            y = a @ values
            epsilon = float(rng.choice([0.0, 1e-10 * float(np.linalg.norm(y)), 0.5]))
            cases.append((family, a, SparseSignal(values), k, nsel, epsilon))
    return cases


def generated_cases():
    cases = []
    for k in range(1, 7):
        for nsel in range(1, 5):
            for noisy in (False, True):
                inst = gen_instance(k, nsel, noisy, 22000 + 10 * k + nsel)
                cases.append((f"K{k}N{nsel}", inst.matrix.entries, inst.signal, k, nsel, inst.epsilon,
                               inst.observation))
    return cases


def all_cases():
    cases = generated_cases()
    for family, a, x, k, nsel, epsilon in fuzz_cases():
        cases.append((family, a, x, k, nsel, epsilon, a @ x.values))
    return cases


def test_gomp_run_matches_the_reference_on_every_case():
    kinds = set()
    for family, a, x, k, nsel, epsilon, y in all_cases():
        params = GompParams(sparsity=k, n_select=nsel, epsilon=epsilon)
        expected = outcome(lambda: reference_gomp_run(a, y, params))
        got = outcome(lambda: gomp_run(a, y, params))
        assert outcome_key(got) == outcome_key(expected), family
        kinds.add(expected[0] if expected[0] == "ok" else expected[0].__name__)
    # the fuzz reaches full traces, rank-deficient partial traces and refusals
    assert kinds == {"ok", "RankDeficient", "ValueError"}


def test_selection_condition_matches_the_reference_on_every_trace():
    verdicts, refusals = set(), 0
    for family, a, x, k, nsel, epsilon, y in all_cases():
        result = outcome(lambda: gomp_run(a, y, GompParams(sparsity=k, n_select=nsel, epsilon=epsilon)))
        trace = result[1] if result[0] == "ok" else result[2]
        if trace is None:
            continue
        empty = RecoveryTrace([], np.zeros(x.n), Termination.MAX_ITERATIONS)
        for checked in (trace, empty):
            for n_select in range(1, 4):
                expected = outcome(lambda: reference_selection_condition(x, checked, n_select))
                got = outcome(lambda: verify_selection_condition(a, x, np.zeros(a.shape[0]), checked, n_select))
                assert got == expected, family
                if expected[0] == "ok":
                    verdicts.add(expected[1])
                else:
                    refusals += 1
    assert verdicts == {True, False} and refusals > 0


def overflow_problem(scale):
    a = np.random.default_rng(0).standard_normal((4, 6)) * scale
    return a, a[:, :2] @ np.array([1.0, -2.0])


class TestOverflow:
    """Entries large enough that products or norms overflow. Warnings are
    errors in this suite, so each case also checks that nothing warns."""

    def test_large_finite_correlations_give_the_same_bits_without_warning(self):
        a, y = overflow_problem(1e140)  # A^T r near 1e280: its squares overflow
        trace = gomp_run(a, y, GompParams(sparsity=2, n_select=1, epsilon=0.0))
        run = gomp_stacked(a[None], y[None], np.zeros(1), 2, 1)
        assert frozenset((np.flatnonzero(run.supports[0]) + 1).tolist()) == trace.final_support
        assert run.estimates[0].tobytes() == trace.final_estimate.tobytes()
        assert run.residual_norms[0] == trace.final_residual_norm
        assert outcome_key(outcome(lambda: reference_gomp_run(a, y, GompParams(2, 1, 0.0)))) == \
            outcome_key(("ok", trace))
        assert select_top_n(a.T @ y, 1) == list(trace.iterations[0].selected)

    @pytest.mark.parametrize("scale", [1e155, 1e160])
    def test_overflowing_correlations_are_refused_by_both_paths(self, scale):
        a, y = overflow_problem(scale)
        message = r"^correlations must be finite: A\^T r overflows$"
        with pytest.raises(ValueError, match=message):
            gomp_run(a, y, GompParams(sparsity=2, n_select=1, epsilon=0.0))
        with pytest.raises(ValueError, match=message):
            gomp_stacked(a[None], y[None], np.zeros(1), 2, 1)

    def test_nan_probe_of_select_top_n_does_not_overflow(self):
        c = np.array([1e200, -3e200, 2e200])
        assert select_top_n(c, 2) == [2, 3]
        with pytest.raises(ValueError, match="^correlations must not be NaN$"):
            select_top_n(np.array([1e200, math.nan]), 1)


class TestNormRange:
    """Observations whose square sums leave the double range: both paths
    give the norms and terminations of the exact values, not inf or 0."""

    @pytest.mark.parametrize("scale", [1e155, 1e-170])
    def test_both_paths_stop_on_finite_correct_norms(self, scale):
        a, y = np.eye(3), np.array([1.0, 1.0, 0.0]) * scale
        for epsilon, iterations in ((0.0, 1), (1e300, 0), (2.0 * scale, 0)):
            trace = gomp_run(a, y, GompParams(sparsity=1, n_select=1, epsilon=epsilon))
            run = gomp_stacked(a[None], y[None], np.array([epsilon]), 1, 1)
            assert trace.iterations_used == run.iterations[0] == iterations
            if iterations:
                # one pick of the tied pair leaves the other: ||r|| = scale
                assert trace.termination is Termination.MAX_ITERATIONS
                assert trace.final_residual_norm == run.residual_norms[0] == scale
                assert trace.final_estimate.tolist() == run.estimates[0].tolist() == [scale, 0.0, 0.0]
            else:  # ||y|| = sqrt(2) scale <= epsilon
                assert trace.termination is Termination.RESIDUAL_BELOW_EPSILON
                assert math.isnan(run.residual_norms[0])
