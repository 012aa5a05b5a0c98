"""``gomp_run`` against gOMP in exact rational arithmetic on the same floats.

Every double is a dyadic rational, so ``fractions.Fraction`` makes the
correlations, the least-squares refit and the stopping test exact. The
reference shares no LAPACK or BLAS call with the pursuit, so it decides
whether the recorded picks are gOMP's picks on the stored instance.
Floating point may rank a near-tie either way, and picks made from a
residual already at rounding level (below NOISE_FLOOR_REL ||y||) are
rounding too; every other pick, and the reason a run stops, must agree.
"""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from gompkit import GompParams, RankDeficient, gen_instance, gomp_run
from gompkit.greedy import gomp_stacked
from gompkit.linops import _norm
from gompkit.verify import NOISE_FLOOR_REL
from test_pursuit_fuzz import fuzz_cases

# A pick whose exact gap (the N-th minus the (N+1)-th free |c|, over max |c|)
# is below this is a near-tie: rounding may rank it either way, so the
# comparison of that case ends there.
NEAR_TIE = 1e-9

# Every (K, N) of the acceptance grid with n = N K + 1 <= 17, and (8, 4) at n = 33.
CASES = [(k, n_select) for k in range(1, 9) for n_select in range(1, 5)
         if n_select * k + 1 <= 17] + [(8, 4)]


def solve(matrix, rhs):
    """x with ``matrix`` x = ``rhs``, by Gauss-Jordan elimination on Fractions."""
    rows = [row + [value] for row, value in zip(matrix, rhs)]
    size = len(rows)
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col] != 0)  # none: singular
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col]
        for r in range(size):
            factor = rows[r][col] / lead[col] if r != col else 0
            if factor:
                rows[r] = [p - factor * q for p, q in zip(rows[r], lead)]
    return [row[size] / row[col] for col, row in enumerate(rows)]


def exact_gomp(a, y, sparsity, n_select, epsilon):
    """gOMP on the float array ``a`` (m, n) and vector ``y`` in exact arithmetic.

    Each iteration ranks the |c| = |A^T r| of the columns not yet chosen,
    largest first and the smaller index winning ties, adds the first
    ``n_select`` to the support, refits y by exact elimination on
    A_S^T A_S and stops after ``sparsity`` iterations or once
    ||r||^2 <= epsilon^2. With b = A^T y and G = A^T A, the exact fit x
    gives A^T r = b - G[:, S] x and ||r||^2 = ||y||^2 - b_S . x, so r is
    never formed. Returns a list of (1-based pick set, gap) per iteration,
    gap being the N-th minus the (N+1)-th free |c| over max |c| (inf with
    no (N+1)-th), and the ``Termination`` value of the stop.
    """
    cols = [[Fraction(v) for v in column] for column in a.T.tolist()]
    obs = [Fraction(v) for v in y.tolist()]
    n = len(cols)
    gram = [[sum(p * q for p, q in zip(ci, cj)) for cj in cols] for ci in cols]
    b = [sum(p * q for p, q in zip(column, obs)) for column in cols]
    energy, eps_sq = sum(v * v for v in obs), Fraction(epsilon) ** 2
    residual_sq = energy
    support, coef, steps = [], [], []
    while len(steps) < sparsity and residual_sq > eps_sq:
        chosen = set(support)
        c = [abs(b[i] - sum(gram[i][j] * x for j, x in zip(support, coef))) for i in range(n)]
        free = sorted((i for i in range(n) if i not in chosen), key=lambda i: (-c[i], i))
        picks, rest = free[:n_select], free[n_select:]
        top = c[free[0]]
        if not rest:
            gap = math.inf
        else:
            gap = float((c[picks[-1]] - c[rest[0]]) / top) if top else 0.0
        steps.append((frozenset(i + 1 for i in picks), gap))
        support = sorted(chosen.union(picks))
        coef = solve([[gram[i][j] for j in support] for i in support], [b[i] for i in support])
        residual_sq = energy - sum(b[i] * x for i, x in zip(support, coef))
    stop = "residual_below_epsilon" if residual_sq <= eps_sq else "max_iterations"
    return steps, stop


def compare(inst):
    """Check ``gomp_run`` on ``inst`` against ``exact_gomp``; return
    whether a near-tie ended the comparison."""
    trace = gomp_run(inst.matrix, inst.observation,
                     GompParams(inst.sparsity, inst.n_select, inst.epsilon))
    steps, stop = exact_gomp(inst.matrix.entries, inst.observation,
                             inst.sparsity, inst.n_select, inst.epsilon)
    for k, ((picks, gap), record) in enumerate(zip(steps, trace.iterations), start=1):
        if gap < NEAR_TIE:
            return True
        assert set(record.selected) == picks, f"seed {inst.seed}, iteration {k}, gap {gap:.3e}"
    assert trace.iterations_used == len(steps), f"seed {inst.seed}"
    assert trace.termination.value == stop, f"seed {inst.seed}"
    return False


def classify(a, y, sparsity, n_select, epsilon):
    """How ``gomp_run`` compares with ``exact_gomp`` on one problem:
    "refused", "floor", "near-tie" or "agree"; a mismatch fails.

    Picks are compared while the float residual entering the iteration is
    above NOISE_FLOOR_REL ||y|| and the exact gap is at least NEAR_TIE.
    Below the floor the float residual is rounding, and so are its picks:
    ``scaled`` fuzz case 137 picks {2}, against the exact {1}, at iteration
    3, after ||r|| fell to 1.8e-16 ||y||. When every iteration was compared,
    the iteration count and termination must agree too, unless epsilon and
    the last float residual are both at or below the floor, where the exact
    residual can reach 0 and the float one does not.
    """
    try:
        trace = gomp_run(a, y, GompParams(sparsity, n_select, epsilon))
    except (ValueError, RankDeficient):
        return "refused"
    steps, stop = exact_gomp(a, y, sparsity, n_select, epsilon)
    floor = NOISE_FLOOR_REL * _norm(y)
    entering = [_norm(y)] + [record.residual_norm for record in trace.iterations]
    for k, ((picks, gap), record) in enumerate(zip(steps, trace.iterations)):
        if not entering[k] > floor:
            return "floor"
        if gap < NEAR_TIE:
            return "near-tie"
        assert set(record.selected) == picks, f"iteration {k + 1}, gap {gap:.3e}"
    if (trace.iterations_used, trace.termination.value) == (len(steps), stop):
        return "agree"
    assert epsilon < floor and entering[-1] <= floor, (
        f"{trace.iterations_used} iterations, {trace.termination.value}; "
        f"exact {len(steps)}, {stop}"
    )
    return "floor"


class TestExactGomp:
    def test_reference_on_identity_sensing(self):
        # columns are the unit vectors: picks follow |y|, ties to the smaller index
        steps, stop = exact_gomp(np.eye(4), np.array([1.0, -2.0, 1.0, 0.5]), 3, 1, 0.0)
        assert steps == [(frozenset({2}), 0.5), (frozenset({1}), 0.0), (frozenset({3}), 0.5)]
        assert stop == "max_iterations"
        steps, stop = exact_gomp(np.eye(4), np.array([0.5, -2.0, 0.5, 1.0]), 2, 2, 0.0)
        assert steps == [(frozenset({2, 4}), 0.25), (frozenset({1, 3}), math.inf)]
        assert stop == "residual_below_epsilon"

    @pytest.mark.parametrize("noisy", [False, True], ids=["noise-free", "noisy"])
    def test_gomp_run_picks_equal_the_exact_picks(self, noisy):
        assert len(CASES) == 26
        near_ties = sum(compare(gen_instance(k, n_select, noisy, 1000 * k + n_select))
                        for k, n_select in CASES)
        # At this allowance a near-tie is about 1e-9-likely per pick; more
        # than two in 26 cases would mean the gaps themselves are wrong.
        assert near_ties <= 2

    def test_gomp_stacked_supports_equal_the_exact_supports(self):
        # One stacked pass per (K, N): its noise-free and noisy instances.
        # gomp_stacked keeps no picks, so a row is compared by its final
        # support and iteration count, unless a near-tie ends its exact run.
        # A row enters each iteration with ||r|| > epsilon, and epsilon is at
        # least the noise floor here, so the floor rule never ends a row.
        near_ties = 0
        for k, n_select in CASES:
            insts = [gen_instance(k, n_select, noisy, 1000 * k + n_select)
                     for noisy in (False, True)]
            run = gomp_stacked(np.stack([inst.matrix.entries for inst in insts]),
                               np.stack([inst.observation for inst in insts]),
                               np.array([inst.epsilon for inst in insts]), k, n_select)
            for row, inst in enumerate(insts):
                assert inst.epsilon >= NOISE_FLOOR_REL * _norm(inst.observation)
                steps, _ = exact_gomp(inst.matrix.entries, inst.observation,
                                      k, n_select, inst.epsilon)
                if min(gap for _, gap in steps) < NEAR_TIE:
                    near_ties += 1
                    continue
                exact = frozenset().union(*(picks for picks, _ in steps))
                found = frozenset((np.flatnonzero(run.supports[row]) + 1).tolist())
                assert found == exact, f"seed {inst.seed}"
                assert run.iterations[row] == len(steps), f"seed {inst.seed}"
        # as in the traced test: at most two near-ties per noise mode
        assert near_ties <= 4

    def test_gomp_run_picks_equal_the_exact_picks_on_the_fuzz_cases(self):
        tally = Counter()
        for i, (family, a, x, k, n_select, epsilon) in enumerate(fuzz_cases()):
            try:
                tally[classify(a, a @ x.values, k, n_select, epsilon)] += 1
            except AssertionError as exc:
                raise AssertionError(f"{family} case {i}: {exc}") from exc
        # 190 agree, 28 near-ties, 24 floor ends and 58 refusals when written;
        # rounding may move a few cases between the first three
        assert tally["agree"] >= 180 and sum(tally.values()) == 300
