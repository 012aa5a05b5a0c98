import math

import numpy as np
import pytest

from gompkit import (
    BudgetExceeded,
    GompParams,
    IterationRecord,
    LemmaInstance,
    RecoveryTrace,
    SensingMatrix,
    SparseSignal,
    Termination,
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
from gompkit import cli, rip, verify
from gompkit.verify import lemma4_holds, lemma4_min_slack


def make_instance(matrix, values, selected, competitors):
    return LemmaInstance(
        matrix=SensingMatrix(np.asarray(matrix, dtype=float)),
        signal=SparseSignal(np.asarray(values, dtype=float)),
        selected=frozenset(selected),
        competitors=frozenset(competitors),
    )


class TestLemma4:
    def test_identity_reaches_equality(self):
        inst = make_instance(np.eye(3), [1.0, 0.0, 0.0], set(), {2})
        lhs, rhs = lemma4_sides(inst)
        assert abs(lhs - 1.0) <= 1e-14
        assert abs(rhs - 1.0) <= 1e-14
        assert verify_lemma4(inst)

    def test_scaled_identity_hand_values(self):
        c = 1.05
        inst = make_instance(c * np.eye(4), [1.0, 1.0, 0.0, 0.0], set(), {3})
        # constant of any order for c*I is |c^2 - 1|
        delta = c * c - 1.0
        assert abs(exact_ric(c * np.eye(4), 3).value - delta) <= 1e-14
        lhs, rhs = lemma4_sides(inst)
        assert abs(lhs - c * c) <= 1e-12
        assert abs(rhs - (1.0 - math.sqrt(3.0) * delta)) <= 1e-12
        assert verify_lemma4(inst)

    def test_shrunk_identity_still_holds(self):
        inst = make_instance(0.9 * np.eye(4), [0.0, 2.0, 0.0, -1.0], set(), {1})
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
        inst = make_instance(a, values, {1, 2}, {4, 6})
        assert (inst.iteration, inst.n_select) == (iteration, nsel)
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

    def test_sampler_follows_documented_draw_order(self):
        # n; (N, K, iteration, overlap) until the sizes fit; d; U's source;
        # the permutation; the K nonzeros
        rejected = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, verify.LEMMA_N_MAX + 1))
            while True:
                nsel, k = int(rng.integers(1, 4)), int(rng.integers(1, n))
                iteration = int(rng.integers(0, k))
                overlap = int(rng.integers(iteration, min(k - 1, iteration * nsel) + 1))
                if nsel * (iteration + 1) + k - iteration <= n:
                    break
                rejected += 1
            bound = 0.99 / math.sqrt(k / nsel + 1.0)
            d = rng.uniform(math.sqrt(1.0 - bound), math.sqrt(1.0 + bound), size=n)
            a = d[:, None] * orthogonal_factor(rng.standard_normal((n, n)))
            perm = (rng.permutation(n) + 1).tolist()
            values = np.zeros(n)
            values[np.array(perm[:k]) - 1] = rng.standard_normal(k)
            off, decoys = perm[k:], iteration * nsel - overlap
            inst = random_lemma_instance(np.random.default_rng(seed))
            assert inst.matrix.entries.tobytes() == a.tobytes()
            assert inst.signal.values.tobytes() == values.tobytes()
            assert inst.selected == set(perm[:overlap] + off[:decoys])
            assert inst.competitors == set(off[decoys:decoys + nsel])
        assert rejected

    def test_rejects_inadmissible_overlap(self):
        # selected set covering the whole support is outside the hypothesis
        with pytest.raises(ValueError):
            make_instance(np.eye(4), [1.0, 0.0, 0.0, 0.0], {1}, {2})

    def test_rejects_competitors_on_support(self):
        with pytest.raises(ValueError):
            make_instance(np.eye(4), [1.0, 1.0, 0.0, 0.0], set(), {2})

    def test_rejects_empty_competitors_and_indivisible_selection(self):
        with pytest.raises(ValueError, match="nonempty"):
            make_instance(np.eye(4), [1.0, 0.0, 0.0, 0.0], set(), set())
        with pytest.raises(ValueError, match="not a multiple"):
            make_instance(np.eye(6), [1.0, 1.0, 0.0, 0.0, 0.0, 0.0], {1, 3, 4}, {5, 6})


def lemma_draw(i):
    return random_lemma_instance(np.random.default_rng([7, 1, i]))


def spy_enumeration(monkeypatch):
    """Record, for each ``rip._lower_bounds`` sequence ``verify_lemma4`` or
    ``lemma4_min_slack`` starts, its support count, how many values it
    handed out (0.0, the column floor, then one per chunk), whether it ran
    to its end, and each support table it fetched through
    ``rip._cached_plan`` (a cold cache's build inside the fetch is
    not counted again)."""
    calls, tables = [], []
    lower_bounds = verify._lower_bounds

    def counting_bounds(a, order, budget=rip.ENUMERATION_BUDGET):
        bounds = lower_bounds(a, order, budget)
        call = {"supports": math.comb(a.n, order), "taken": 0, "exhausted": False}
        calls.append(call)

        def take():
            for value in bounds:
                call["taken"] += 1
                yield value
            call["exhausted"] = True

        return take()

    fetch = rip._cached_plan
    monkeypatch.setattr(rip, "_cached_plan", lambda n, k: tables.append((n, k)) or fetch(n, k))
    monkeypatch.setattr(verify, "_lower_bounds", counting_bounds)
    return calls, tables


def settled_at(call):
    """Where ``verify_lemma4`` settled an instance, by the values it took:
    1 at 0.0, 2 at the column floor, 3 or more in the enumeration."""
    return {1: "zero", 2: "floor"}.get(call["taken"], "enumeration")


class TestLazyLemma4:
    def test_verdict_equals_exact_sides(self):
        for i in range(1600):
            inst = lemma_draw(i)
            verdict = verify_lemma4(inst)
            assert type(verdict) is bool
            assert verdict == lemma4_holds(*lemma4_sides(inst)), i

    def test_enumeration_stops_once_the_verdict_is_settled(self, monkeypatch):
        calls, tables = spy_enumeration(monkeypatch)
        for i in range(200):
            built = len(tables)
            assert verify_lemma4(lemma_draw(i)) is True
            calls[-1]["tables"] = len(tables) - built
        before_chunks = [c for c in calls if c["taken"] <= 2]
        assert before_chunks and all(c["tables"] == 0 for c in before_chunks)
        # settled by the column floor: no support table, no enumeration
        assert any(settled_at(c) == "floor" for c in before_chunks)
        first_chunk = [c for c in calls if c["taken"] == 3 and c["supports"] > rip._FIRST_CHUNK]
        assert first_chunk and all(c["tables"] == 1 for c in first_chunk)

    def test_pass_settled_only_by_the_last_chunk(self, monkeypatch):
        # Columns 10-12 have pairwise correlations 0.1, 0.1 and -0.1 and are
        # orthogonal to the identity columns 1-9. At order 3 the support
        # {10, 11, 12} is the last of C(12, 3) = 220, in the third chunk, and
        # the only one with deviation 0.2 (eigenvalues 0.8, 1.1, 1.1); every
        # other support deviates by at most 0.1. With x = 1 on {11, 12} and
        # competitor 10, lhs = 1 - 3 * 0.1 and rhs = 1 - sqrt(3) * delta.
        rho = 0.1
        gram = np.array([[1.0, rho, rho], [rho, 1.0, -rho], [rho, -rho, 1.0]])
        a = np.eye(12)
        a[9:, 9:] = np.linalg.cholesky(gram).T
        inst = make_instance(a, [0.0] * 10 + [1.0, 1.0], set(), {10})
        bounds = list(rip._lower_bounds(a, inst.ric_order))  # 0.0, the column floor, 3 chunks
        assert len(bounds) == 5
        lhs, rhs = verify._lemma4_terms(inst)
        assert [lemma4_holds(lhs, rhs(w)) for w in bounds] == [False] * 4 + [True]
        calls, _ = spy_enumeration(monkeypatch)
        assert verify_lemma4(inst) is True
        assert calls[-1]["taken"] == 5

    def test_failing_verdict_takes_the_whole_chunk_plan(self, monkeypatch):
        calls, _ = spy_enumeration(monkeypatch)
        monkeypatch.setattr(verify, "lemma4_holds", lambda lhs, rhs: False)
        long_plans = 0
        for i in range(40):
            inst = lemma_draw(i)
            assert verify_lemma4(inst) is False
            plan = list(rip._lower_bounds(inst.matrix, inst.ric_order))[2:]  # one value per chunk
            assert calls[-1]["taken"] == 2 + len(plan)
            long_plans += len(plan) >= 3
        assert long_plans > 0

    def test_stage_counts_at_seed_7(self, monkeypatch):
        calls, _ = spy_enumeration(monkeypatch)
        rng = np.random.default_rng(7)
        for _ in range(2000):
            assert verify_lemma4(random_lemma_instance(rng)) is True
        stages = [settled_at(c) for c in calls]
        counts = [stages.count(stage) for stage in ("zero", "floor", "enumeration")]
        assert counts == [921, 992, 87]

    def test_gram_is_formed_once_per_instance(self, monkeypatch):
        grams = []
        gram = rip._gram
        monkeypatch.setattr(rip, "_gram", lambda entries: grams.append(entries.shape) or gram(entries))
        calls, _ = spy_enumeration(monkeypatch)
        for i in range(200):
            assert verify_lemma4(lemma_draw(i)) is True
            assert len(grams) == i + 1
        assert {settled_at(c) for c in calls} == {"zero", "floor", "enumeration"}

    def test_budget_error_raised_before_a_pass_at_zero(self):
        # order 1 * 1 + 15 = 16: C(30, 16) ~ 1.45e8 supports, over the budget;
        # on the identity, delta = 0 would pass the instance
        values = np.zeros(30)
        values[:15] = np.arange(1.0, 16.0)
        inst = make_instance(np.eye(30), values, set(), {30})
        assert inst.ric_order == 16
        lhs, rhs = verify._lemma4_terms(inst)
        assert lemma4_holds(lhs, rhs(0.0))
        with pytest.raises(BudgetExceeded):
            verify_lemma4(inst)


def exact_min_slack(instances):
    """The lemma-4 scan of ``gompkit verify`` before it was made lazy:
    ``lemma4_sides`` on every instance. The reference for
    ``lemma4_min_slack``."""
    failed, min_slack, argmin = 0, math.inf, -1
    for i, inst in enumerate(instances):
        lhs, rhs = lemma4_sides(inst)
        if not verify.lemma4_holds(lhs, rhs):
            failed += 1
        if lhs - rhs < min_slack:
            min_slack, argmin = lhs - rhs, i
    return failed, min_slack, argmin


def exact_lemma4_scan(count, seed):
    """``exact_min_slack`` over ``count`` seeded lemma-4 instances."""
    rng = np.random.default_rng(seed)
    return exact_min_slack(random_lemma_instance(rng) for _ in range(count))


class TestLazyMinSlack:
    @pytest.mark.parametrize("margin", [0.0, 0.05])
    @pytest.mark.parametrize("seed,count", [(1, 1), (3, 2), (7, 60), (11, 150)])
    def test_cli_output_equals_exact_scan(self, seed, count, margin, monkeypatch, capsys):
        if margin:  # a stricter pass rule, still monotone in rhs, that fails some instances
            holds = verify.lemma4_holds
            monkeypatch.setattr(verify, "lemma4_holds", lambda lhs, rhs: holds(lhs, rhs + margin))
        args = ["verify", "--lemma", "4", "--instances", str(count), "--seed", str(seed)]
        lazy = cli.main(args), capsys.readouterr()
        monkeypatch.setattr(cli, "lemma4_min_slack", exact_min_slack)
        exact = cli.main(args), capsys.readouterr()
        assert lazy == exact
        assert lazy[0] == (1 if margin and count >= 60 else 0)

    def test_instances_stop_once_they_cannot_move_the_minimum(self, monkeypatch):
        calls, _ = spy_enumeration(monkeypatch)
        rng = np.random.default_rng(7)
        failed, min_slack, argmin = lemma4_min_slack(random_lemma_instance(rng) for _ in range(200))
        assert (failed, min_slack, argmin) == exact_lemma4_scan(200, 7)
        assert len(calls) == 200
        assert calls[0]["exhausted"] and calls[argmin]["exhausted"]
        stopped = [c for c in calls if not c["exhausted"]]
        assert len(stopped) > 150
        assert any(c["taken"] <= 2 for c in stopped)
        assert any(c["taken"] > 2 for c in stopped)

    def test_no_instances(self):
        assert lemma4_min_slack([]) == (0, math.inf, -1)


def run_generated(sparsity, n_select, noisy, seed):
    inst = gen_instance(sparsity, n_select, noisy, seed)
    params = GompParams(sparsity=sparsity, n_select=n_select, epsilon=inst.epsilon)
    return inst, gomp_run(inst.matrix, inst.observation, params)


class TestStopping:
    def test_identity_runs(self):
        a = np.eye(5)
        x = SparseSignal(np.array([0.0, 2.0, 0.0, -1.0, 0.0]))
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
        x = SparseSignal(np.array([1.0, 0.0, 1.0, 0.0]))
        fake = RecoveryTrace(
            iterations=[
                IterationRecord(
                    selected=(1, 2),
                    residual_norm=0.0,
                    correlations=np.zeros(4),
                )
            ],
            final_estimate=np.array([1.0, 1.0, 0.0, 0.0]),
            termination=Termination.RESIDUAL_BELOW_EPSILON,
        )
        assert fake.final_support == {1, 2}
        assert not verify_stopping(a, x, fake)

    def test_vacuous_when_not_enough_correct_picks(self):
        a = np.eye(4)
        x = SparseSignal(np.array([1.0, 0.0, 1.0, 0.0]))
        fake = RecoveryTrace(
            iterations=[
                IterationRecord(
                    selected=(2,),
                    residual_norm=0.0,
                    correlations=np.zeros(4),
                )
            ],
            final_estimate=np.zeros(4),
            termination=Termination.RESIDUAL_BELOW_EPSILON,
        )
        assert fake.final_support == {2}
        assert verify_stopping(a, x, fake)

    def test_noisy_instance_rejected(self):
        inst, trace = run_generated(2, 2, True, 1234)
        message = "stopping property applies to noise-free instances only"
        with pytest.raises(ValueError, match=f"^{message}$"):
            verify_stopping(inst.matrix, inst.signal, trace, noise=inst.noise)

    @pytest.mark.parametrize("noise,message", [
        ([np.nan, 0.0, 0.0], "^noise entries must be finite$"),
        ([0.0, 0.0], r"^noise has shape \(2,\), expected \(3,\)$"),
        # nonzero noise whose squared norm underflows to 0 is still noise
        ([1e-300, 0.0, 0.0], "^stopping property applies to noise-free instances only$"),
    ])
    def test_bad_noise_is_refused_not_read_as_none(self, noise, message):
        a = np.eye(3)
        x = SparseSignal(np.array([1.0, 0.0, 0.0]))
        trace = gomp_run(a, a @ x.values, GompParams(sparsity=1, n_select=1, epsilon=1e-10))
        assert verify_stopping(a, x, trace, noise=np.zeros(3))
        with pytest.raises(ValueError, match=message):
            verify_stopping(a, x, trace, noise=noise)


class TestSelectionCondition:
    def test_identity_noise_free(self):
        a = np.eye(5)
        x = SparseSignal(np.array([0.0, 2.0, 0.0, -1.0, 0.0]))
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
                prior |= set(rec.selected)

    def test_dominant_off_support_correlations_fail(self):
        a = np.eye(3)
        x = SparseSignal(np.array([1.0, 0.0, 0.0]))
        fake = RecoveryTrace(
            iterations=[
                IterationRecord(
                    selected=(2, 3),
                    residual_norm=0.5,
                    correlations=np.array([0.1, 5.0, 4.0]),
                )
            ],
            final_estimate=np.zeros(3),
            termination=Termination.MAX_ITERATIONS,
        )
        assert fake.final_support == {2, 3}
        assert not verify_selection_condition(a, x, np.zeros(3), fake, 2)

    def test_missing_correlations_rejected(self):
        # a record without a correlation vector cannot be built, so no
        # verifier ever sees one
        with pytest.raises(ValueError, match="1-d float array"):
            IterationRecord(selected=(1,), residual_norm=0.0, correlations=None)

    @pytest.mark.parametrize("bad", [np.zeros((3, 1)), np.arange(3), 0.5])
    def test_malformed_correlations_rejected(self, bad):
        with pytest.raises(ValueError, match="1-d float array"):
            IterationRecord(selected=(1,), residual_norm=0.0, correlations=bad)

    @pytest.mark.parametrize("correlations", [[-5.0, 0.1, 0.0], [np.nan, 0.0, 0.0],
                                              [0.0, np.inf, 0.0]])
    def test_negative_or_non_finite_correlations_rejected(self, correlations):
        # [-5, 0.1, 0] with support {1} was once judged failing, though |-5| > 0.1
        with pytest.raises(ValueError, match="^correlations must be finite and nonnegative$"):
            IterationRecord(selected=(1,), residual_norm=0.0, correlations=np.array(correlations))

    @pytest.mark.parametrize("selected,error,message", [
        pytest.param((0,), IndexError, "indices must lie in 1..3, got 0..0", id="selected0"),
        pytest.param((2, 2), ValueError, "picks must be distinct, got (2, 2)", id="selected1"),
        pytest.param((-1, 3), IndexError, "indices must lie in 1..3, got -1..3", id="selected2"),
    ])
    def test_bad_picks_rejected(self, selected, error, message):
        # a pick outside 1..len(correlations) gets linops' index-set refusal
        with pytest.raises(error) as raised:
            IterationRecord(selected=selected, residual_norm=0.0, correlations=np.zeros(3))
        assert type(raised.value) is error and str(raised.value) == message

    @pytest.mark.parametrize("records,error,message", [
        # the one-record trace that once passed both verifiers, claiming a column 5 of eye(3)
        pytest.param([((5,), [0.0, 0.0, 0.1, 0.0, 0.05])], ValueError,
                     "record has 5 correlations, expected 3", id="correlation-length"),
        # a record cannot hold a pick past its own correlations, so no verifier sees one
        pytest.param([((5,), [0.0, 0.0, 0.1])], IndexError,
                     r"indices must lie in 1\.\.3, got 5\.\.5", id="pick-above-n"),
        pytest.param([((3,), [0.0, 0.0, 0.1]), ((3,), [0.0, 0.0, 0.1])], ValueError,
                     r"picks \[3\] repeat", id="pick-repeated"),
    ])
    def test_traces_that_do_not_fit_the_signal_rejected(self, records, error, message):
        a = np.eye(3)
        x = SparseSignal(np.array([0.0, 0.0, 1.0]))

        def trace():
            return RecoveryTrace(
                [IterationRecord(picks, 0.0, np.array(corr)) for picks, corr in records],
                np.zeros(3),
                Termination.RESIDUAL_BELOW_EPSILON,
            )

        with pytest.raises(error, match=f"^{message}$"):
            verify_selection_condition(a, x, np.zeros(3), trace(), 1)
        with pytest.raises(error, match=f"^{message}$"):
            verify_stopping(a, x, trace())

    def test_too_few_rivals_refused_only_when_an_iteration_is_checked(self):
        a = np.eye(3)
        x = SparseSignal(np.array([1.0, 1.0, 0.0]))
        record = IterationRecord(selected=(1,), residual_norm=1.0,
                                 correlations=np.array([1.0, 0.5, 0.0]))
        trace = RecoveryTrace([record], np.zeros(3), Termination.MAX_ITERATIONS)
        with pytest.raises(ValueError, match="^need 2 candidates, only 1 remain$"):
            verify_selection_condition(a, x, np.zeros(3), trace, 2)
        # no iteration checked: an empty trace, or an empty support
        empty = RecoveryTrace([], np.zeros(3), Termination.MAX_ITERATIONS)
        assert verify_selection_condition(a, x, np.zeros(3), empty, 2)
        assert verify_selection_condition(a, SparseSignal(np.zeros(3)), np.zeros(3), trace, 4)

    @pytest.mark.parametrize("n_select", [0, -1])
    def test_n_select_below_one_refused(self, n_select):
        # once -1 judged this trace passing, and 0 warned "Mean of empty slice" and failed it
        inst, trace = run_generated(2, 1, True, 5)
        with pytest.raises(ValueError, match=f"^n_select must be >= 1, got {n_select}$"):
            verify_selection_condition(inst.matrix, inst.signal, inst.noise, trace, n_select)
        bad = RecoveryTrace([IterationRecord((9,), 1.0, np.zeros(9))], np.zeros(3),
                            Termination.MAX_ITERATIONS)
        with pytest.raises(ValueError, match=f"^n_select must be >= 1, got {n_select}$"):
            verify_selection_condition(np.eye(3), SparseSignal(np.ones(3)), np.zeros(3), bad, n_select)

    def test_failing_later_iteration_rejected(self):
        # iteration 1 picks support index 1 and passes; iteration 2 is
        # taken with index 2 still missing and its best on-support
        # correlation 0.1 loses to the off-support 0.5
        a = np.eye(3)
        x = SparseSignal(np.array([1.0, 1.0, 0.0]))
        trace = RecoveryTrace(
            iterations=[
                IterationRecord(selected=(1,), residual_norm=1.0,
                                correlations=np.array([1.0, 0.5, 0.0])),
                IterationRecord(selected=(3,), residual_norm=1.0,
                                correlations=np.array([0.0, 0.1, 0.5])),
            ],
            final_estimate=np.array([1.0, 0.0, 0.0]),
            termination=Termination.MAX_ITERATIONS,
        )
        assert trace.final_support == {1, 3}
        assert not verify_selection_condition(a, x, np.zeros(3), trace, 1)

    def test_iterations_after_support_captured_are_ignored(self):
        # once every support index is selected the condition no longer binds
        a = np.eye(3)
        x = SparseSignal(np.array([1.0, 0.0, 0.0]))
        trace = RecoveryTrace(
            iterations=[
                IterationRecord(
                    selected=(1,),
                    residual_norm=0.0,
                    correlations=np.array([1.0, 0.0, 0.0]),
                ),
                IterationRecord(
                    selected=(2,),
                    residual_norm=0.0,
                    correlations=np.array([0.0, 0.1, 0.0]),
                ),
            ],
            final_estimate=x.values.copy(),
            termination=Termination.MAX_ITERATIONS,
        )
        assert trace.final_support == {1, 2}
        assert verify_selection_condition(a, x, np.zeros(3), trace, 1)


@pytest.mark.filterwarnings("error")
class TestNormsThatOverflow:
    """Signals whose square sums overflow: the verifiers take their 2-norms
    by rescaling, with no overflow warning."""

    def test_verify_stopping(self):
        a, x = np.eye(3), SparseSignal(np.array([3e155, 0.0, 4e155]))
        trace = gomp_run(a, a @ x.values, GompParams(sparsity=2, n_select=1, epsilon=0.0))
        assert verify_stopping(a, x, trace)

    def test_lemma4_sides(self):
        lhs, rhs = lemma4_sides(make_instance(np.eye(3), [3e155, 0.0, 4e155], set(), {2}))
        assert lhs == 4e155
        assert rhs == 5e155 / math.sqrt(2.0)

    def test_gram_overflow_refused_before_the_sides(self):
        # forming the sides first would warn twice on this matrix, and under
        # -W error the warning would surface in place of the refusal
        inst = lemma_draw(0)
        big = LemmaInstance(SensingMatrix(inst.matrix.entries * 1e200), inst.signal,
                            inst.selected, inst.competitors)
        for verifier in (verify_lemma4, lemma4_sides):
            with pytest.raises(ValueError, match="not finite"):
                verifier(big)
