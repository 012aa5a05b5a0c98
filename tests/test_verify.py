import math

import numpy as np
import pytest

from gompkit import (
    GompParams,
    IterationRecord,
    LemmaInstance,
    NotNoiseFree,
    RecoveryTrace,
    SensingMatrix,
    SparseSignal,
    Termination,
    TraceIncomplete,
    exact_ric,
    gen_instance,
    gomp_run,
    lemma4_sides,
    orthogonal_factor,
    random_lemma_instance,
    verify_lemma4,
    verify_selection_condition,
    verify_stopping,
)


def make_instance(matrix, values, selected, competitors, iteration, n_select):
    return LemmaInstance(
        matrix=SensingMatrix(np.asarray(matrix, dtype=float)),
        signal=SparseSignal.from_dense(np.asarray(values, dtype=float)),
        selected=frozenset(selected),
        competitors=frozenset(competitors),
        iteration=iteration,
        n_select=n_select,
    )


class TestLemma4:
    def test_identity_reaches_equality(self):
        inst = make_instance(np.eye(3), [1.0, 0.0, 0.0], set(), {2}, 0, 1)
        lhs, rhs = lemma4_sides(inst)
        assert abs(lhs - 1.0) <= 1e-14
        assert abs(rhs - 1.0) <= 1e-14
        assert verify_lemma4(inst)

    def test_scaled_identity_hand_values(self):
        c = 1.05
        inst = make_instance(c * np.eye(4), [1.0, 1.0, 0.0, 0.0], set(), {3}, 0, 1)
        # constant of any order for c*I is |c^2 - 1|
        delta = c * c - 1.0
        assert abs(exact_ric(c * np.eye(4), 3).value - delta) <= 1e-14
        lhs, rhs = lemma4_sides(inst)
        assert abs(lhs - c * c) <= 1e-12
        assert abs(rhs - (1.0 - math.sqrt(3.0) * delta)) <= 1e-12
        assert verify_lemma4(inst)

    def test_shrunk_identity_still_holds(self):
        inst = make_instance(0.9 * np.eye(4), [0.0, 2.0, 0.0, -1.0], set(), {1}, 0, 1)
        assert verify_lemma4(inst)

    def test_square_du_instance_with_partial_selection(self):
        rng = np.random.default_rng(71)
        n, k_omega, nsel, iteration = 9, 4, 2, 1
        bound = 0.99 / math.sqrt(k_omega / nsel + 1.0)
        d = rng.uniform(math.sqrt(1 - bound), math.sqrt(1 + bound), size=n)
        a = d[:, None] * orthogonal_factor(rng.standard_normal((n, n)))
        values = np.zeros(n)
        omega = [1, 3, 5, 8]
        values[np.array(omega) - 1] = rng.standard_normal(k_omega)
        # selected = one support index + one decoy, so overlap = iteration = 1
        inst = make_instance(a, values, {1, 2}, {4, 6}, iteration, nsel)
        lhs, rhs = lemma4_sides(inst)
        assert lhs >= rhs - 1e-12

    def test_sampler_produces_admissible_and_valid_instances(self):
        rng = np.random.default_rng(73)
        seen_late_iteration = False
        seen_excess_overlap = False
        for _ in range(300):
            inst = random_lemma_instance(rng)
            assert verify_lemma4(inst)
            seen_late_iteration |= inst.iteration >= 1
            seen_excess_overlap |= inst.overlap > inst.iteration
        assert seen_late_iteration and seen_excess_overlap

    def test_rejects_inadmissible_overlap(self):
        # selected set covering the whole support is outside the hypothesis
        with pytest.raises(ValueError):
            make_instance(np.eye(4), [1.0, 0.0, 0.0, 0.0], {1}, {2}, 1, 1)

    def test_rejects_competitors_on_support(self):
        with pytest.raises(ValueError):
            make_instance(np.eye(4), [1.0, 1.0, 0.0, 0.0], set(), {2}, 0, 1)


def run_generated(sparsity, n_select, noisy, seed):
    inst = gen_instance(sparsity, n_select, noisy, seed)
    params = GompParams(sparsity=sparsity, n_select=n_select, epsilon=inst.epsilon)
    return inst, gomp_run(inst.matrix, inst.observation, params)


class TestStopping:
    def test_identity_runs(self):
        a = np.eye(5)
        x = SparseSignal.from_dense(np.array([0.0, 2.0, 0.0, -1.0, 0.0]))
        y = a @ x.values
        trace = gomp_run(a, y, GompParams(sparsity=2, n_select=1, epsilon=1e-10 * np.linalg.norm(y)))
        assert verify_stopping(a, x, trace)

    def test_generated_noise_free_runs(self):
        for seed in range(20):
            inst, trace = run_generated(2 + seed % 4, 1 + seed % 3, False, 900 + seed)
            assert verify_stopping(inst.matrix, inst.signal, trace, noise=inst.noise)

    def test_adversarial_double_fails(self):
        # zero residual, one correct index out of one iteration, but the
        # support is not contained: the property must flag it
        a = np.eye(4)
        x = SparseSignal.from_dense(np.array([1.0, 0.0, 1.0, 0.0]))
        fake = RecoveryTrace(
            iterations=[
                IterationRecord(
                    selected=(1, 2),
                    support_after=frozenset({1, 2}),
                    residual_norm=0.0,
                    correlations=np.zeros(4),
                )
            ],
            final_estimate=np.array([1.0, 1.0, 0.0, 0.0]),
            final_support=frozenset({1, 2}),
            termination=Termination.RESIDUAL_BELOW_EPSILON,
        )
        assert not verify_stopping(a, x, fake)

    def test_vacuous_when_not_enough_correct_picks(self):
        a = np.eye(4)
        x = SparseSignal.from_dense(np.array([1.0, 0.0, 1.0, 0.0]))
        fake = RecoveryTrace(
            iterations=[
                IterationRecord(
                    selected=(2,),
                    support_after=frozenset({2}),
                    residual_norm=0.0,
                    correlations=np.zeros(4),
                )
            ],
            final_estimate=np.zeros(4),
            final_support=frozenset({2}),
            termination=Termination.RESIDUAL_BELOW_EPSILON,
        )
        assert verify_stopping(a, x, fake)

    def test_noisy_instance_rejected(self):
        inst, trace = run_generated(2, 2, True, 1234)
        with pytest.raises(NotNoiseFree):
            verify_stopping(inst.matrix, inst.signal, trace, noise=inst.noise)


class TestSelectionCondition:
    def test_identity_noise_free(self):
        a = np.eye(5)
        x = SparseSignal.from_dense(np.array([0.0, 2.0, 0.0, -1.0, 0.0]))
        y = a @ x.values
        trace = gomp_run(a, y, GompParams(sparsity=2, n_select=1, epsilon=1e-10 * np.linalg.norm(y)))
        assert verify_selection_condition(a, x, np.zeros(5), trace, 1)

    def test_generated_noisy_runs(self):
        for seed in range(20):
            inst, trace = run_generated(2 + seed % 4, 1 + seed % 3, True, 1500 + seed)
            assert verify_selection_condition(
                inst.matrix, inst.signal, inst.noise, trace, inst.n_select
            )

    def test_each_iteration_picks_a_support_index(self):
        # the condition is not just checkable, it is realized: every
        # iteration before exhaustion grabs at least one support index
        for seed in range(20):
            inst, trace = run_generated(2 + seed % 5, 1 + seed % 3, True, 2100 + seed)
            omega = inst.signal.support
            prior = frozenset()
            for rec in trace.iterations:
                if omega <= prior:
                    break
                assert set(rec.selected) & omega
                prior = rec.support_after

    def test_dominant_off_support_correlations_fail(self):
        a = np.eye(3)
        x = SparseSignal.from_dense(np.array([1.0, 0.0, 0.0]))
        fake = RecoveryTrace(
            iterations=[
                IterationRecord(
                    selected=(2, 3),
                    support_after=frozenset({2, 3}),
                    residual_norm=0.5,
                    correlations=np.array([0.1, 5.0, 4.0]),
                )
            ],
            final_estimate=np.zeros(3),
            final_support=frozenset({2, 3}),
            termination=Termination.MAX_ITERATIONS,
        )
        assert not verify_selection_condition(a, x, np.zeros(3), fake, 2)

    def test_missing_correlations_rejected(self):
        a = np.eye(3)
        x = SparseSignal.from_dense(np.array([1.0, 0.0, 0.0]))
        bare = RecoveryTrace(
            iterations=[
                IterationRecord(
                    selected=(1,),
                    support_after=frozenset({1}),
                    residual_norm=0.0,
                    correlations=None,
                )
            ],
            final_estimate=x.values.copy(),
            final_support=frozenset({1}),
            termination=Termination.RESIDUAL_BELOW_EPSILON,
        )
        with pytest.raises(TraceIncomplete):
            verify_selection_condition(a, x, np.zeros(3), bare, 1)

    def test_iterations_after_support_captured_are_ignored(self):
        # once every support index is selected the condition no longer binds
        a = np.eye(3)
        x = SparseSignal.from_dense(np.array([1.0, 0.0, 0.0]))
        trace = RecoveryTrace(
            iterations=[
                IterationRecord(
                    selected=(1,),
                    support_after=frozenset({1}),
                    residual_norm=0.0,
                    correlations=np.array([1.0, 0.0, 0.0]),
                ),
                IterationRecord(
                    selected=(2,),
                    support_after=frozenset({1, 2}),
                    residual_norm=0.0,
                    correlations=np.array([0.0, 0.1, 0.0]),
                ),
            ],
            final_estimate=x.values.copy(),
            final_support=frozenset({1, 2}),
            termination=Termination.MAX_ITERATIONS,
        )
        assert verify_selection_condition(a, x, np.zeros(3), trace, 1)
