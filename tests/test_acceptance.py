"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from gompkit import (
    Condition,
    GompParams,
    condition_threshold,
    du_ric_bound,
    exact_ric,
    gen_instance,
    gomp_run,
    orthogonal_factor,
    random_lemma_instance,
    verify_lemma4,
    verify_selection_condition,
)
from test_greedy import textbook_omp_selections

GRID_SPARSITIES = range(2, 9)
GRID_N_SELECT = range(1, 5)
TRIALS_PER_CELL = 200
BASE_SEED = 20_2400


def report(number, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"criterion {number} [{name}]: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {number} [{name}] failed{tail}"


def run_grid(noisy):
    out = []
    for k in GRID_SPARSITIES:
        for nsel in GRID_N_SELECT:
            for t in range(TRIALS_PER_CELL):
                inst = gen_instance(k, nsel, noisy=noisy, seed=BASE_SEED + t)
                trace = gomp_run(
                    inst.matrix,
                    inst.observation,
                    GompParams(sparsity=k, n_select=nsel, epsilon=inst.epsilon),
                )
                out.append((inst, trace))
    return out


@pytest.fixture(scope="module")
def noisy_grid():
    return run_grid(noisy=True)


def test_criterion_1_noise_free_exact_recovery():
    failures = 0
    total = 0
    for inst, trace in run_grid(noisy=False):
        total += 1
        x = inst.signal.values
        exact = np.max(np.abs(trace.final_estimate - x)) <= 1e-8 * np.max(np.abs(x))
        if not (exact and trace.iterations_used <= inst.sparsity):
            failures += 1
    report(1, "noise-free exact recovery", failures == 0,
           f"{total - failures}/{total} trials exact within K iterations")


def test_criterion_2_noisy_support_recovery(noisy_grid):
    failures = sum(
        0 if inst.signal.support <= trace.final_support else 1
        for inst, trace in noisy_grid
    )
    total = len(noisy_grid)
    report(2, "noisy support recovery", failures == 0,
           f"{total - failures}/{total} trials captured the support")


def test_criterion_3_selection_margin_inequality():
    rng = np.random.default_rng(31337)
    failures = 0
    count = 10_000
    for _ in range(count):
        if not verify_lemma4(random_lemma_instance(rng)):
            failures += 1
    report(3, "selection-margin inequality", failures == 0,
           f"{count - failures}/{count} instances satisfied lhs >= rhs - 1e-12")


def test_criterion_4_ric_oracle_consistency():
    rng = np.random.default_rng(424242)
    failures = 0
    for _ in range(100):
        n = int(rng.integers(3, 11))
        ratio_root = float(rng.uniform(1.1, 2.5))
        bound = 0.99 / ratio_root
        d = rng.uniform(math.sqrt(1.0 - bound), math.sqrt(1.0 + bound), size=n)
        a = d[:, None] * orthogonal_factor(rng.standard_normal((n, n)))
        cap = du_ric_bound(d).value
        values = [exact_ric(a, order).value for order in range(1, n + 1)]
        if not all(v <= cap + 1e-9 for v in values):
            failures += 1
            continue
        if not all(lo <= hi + 1e-14 for lo, hi in zip(values, values[1:])):
            failures += 1
    report(4, "ric oracle consistency", failures == 0,
           f"{100 - failures}/100 matrices bounded and monotone across orders")


def test_criterion_5_threshold_ordering():
    priors = (Condition.WANG2012, Condition.LIU2012, Condition.SATPATHI2013A,
              Condition.SATPATHI2013B, Condition.SHEN2014)
    violations = 0
    pairs = 0
    for k in range(1, 65):
        for nsel in range(1, k + 1):
            pairs += 1
            sharp = condition_threshold(k, nsel, Condition.SHARP)
            for prior in priors:
                if not sharp > condition_threshold(k, nsel, prior):
                    violations += 1
    report(5, "threshold ordering", violations == 0,
           f"{pairs} (K, N) pairs, {violations} violations across {len(priors)} prior thresholds")


def test_criterion_6_omp_equivalence():
    rng = np.random.default_rng(606060)
    mismatches = 0
    for trial in range(500):
        if trial % 2 == 0:
            k = 2 + trial % 6
            inst = gen_instance(k, 1, noisy=trial % 4 == 0, seed=BASE_SEED + trial)
            a, y, eps = inst.matrix.entries, inst.observation, inst.epsilon
        else:
            a = rng.standard_normal((12, 24))
            a /= np.linalg.norm(a, axis=0)
            k = int(rng.integers(2, 6))
            x = np.zeros(24)
            x[rng.permutation(24)[:k]] = rng.standard_normal(k)
            y = a @ x
            eps = 1e-10 * np.linalg.norm(y)
        trace = gomp_run(a, y, GompParams(sparsity=k, n_select=1, epsilon=eps))
        ours = [rec.selected[0] for rec in trace.iterations]
        if ours != textbook_omp_selections(a, y, k, eps):
            mismatches += 1
    report(6, "single-pick equivalence with textbook OMP", mismatches == 0,
           f"{500 - mismatches}/500 selection sequences identical")


def test_criterion_7_selection_condition_on_noisy_trials(noisy_grid):
    failures = sum(
        0 if verify_selection_condition(
            inst.matrix, inst.signal, inst.noise, trace, inst.n_select
        ) else 1
        for inst, trace in noisy_grid
    )
    total = len(noisy_grid)
    report(7, "per-iteration selection condition", failures == 0,
           f"{total - failures}/{total} noisy trials satisfied it at every iteration")


def test_criterion_8_run_subcommand_determinism():
    args = [sys.executable, "-m", "gompkit", "run",
            "--k-min", "2", "--k-max", "4", "--nsel-min", "1", "--nsel-max", "2",
            "--trials", "25", "--noisy", "--seed", "808", "--format", "csv"]
    first = subprocess.run(args, capture_output=True)
    second = subprocess.run(args, capture_output=True)
    ok = first.returncode == 0 and first.stdout == second.stdout and first.stdout
    report(8, "byte-identical CSV across reruns", bool(ok),
           f"{len(first.stdout)} bytes compared")
