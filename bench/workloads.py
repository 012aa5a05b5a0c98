"""The benchmark's three workloads: inputs made from a seed, one round of
work, the scoring of a round, and the correctness gates.

A workload is a fixed list of work items, each a call into gompkit that
returns an outcome.  A round runs every item once and times each one, and
every round repeats exactly the same items on the same inputs, so an
item's times are comparable across rounds.  Items call only public
gompkit functions, always through their module attribute
(``harness.run_trials``, never a name bound at import), so that the
traced run can rebind them.

Importing this module puts the checkout's ``src`` directory first on
``sys.path`` and refuses a gompkit imported from anywhere else, so the
benchmark always measures the source tree it sits next to.
"""

from __future__ import annotations

import io
import itertools
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Sequence

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import gompkit  # noqa: E402
from gompkit import greedy, harness, rip, verify  # noqa: E402

if Path(gompkit.__file__).resolve().parent.parent != SRC:
    raise ImportError(f"gompkit was imported from {gompkit.__file__}, not from {SRC}")

# Trial seeds of a run start at seed * SEED_STRIDE, so two benchmark seeds
# never share an instance while a run uses fewer than this many.
SEED_STRIDE = 100_000

# The acceptance grid of the noisy support-recovery experiment.
GRID_K = range(2, 9)
GRID_N = range(1, 5)

# The analytic D*U constant bounds every exact constant of a generated
# matrix; the tolerance absorbs the rounding of d**2.
DU_TOL = 1e-9
# Two computations of the same eigenvalues agree to a few ulps of O(1)
# values; interlacing makes the spectral bound exact up to that rounding.
ROUNDING_TOL = 1e-12

FAILURE_KINDS = ("trial_error", "verifier_false", "exception", "gate_mismatch")


@dataclass(frozen=True)
class Scale:
    """How much work one round of each workload does."""

    grid_trials: int  # trials per (K, N) cell of grid-noisy
    reference_cells: int  # grid cells re-run through the scalar reference
    lemma_instances: int  # certify: verify_lemma4 instances per round
    selection_instances: int  # certify: selection-condition instances per round
    ric_specs: tuple[tuple[int, int, int], ...]  # ric-oracle: (K, N, order) per matrix
    ric_check_order: int  # order of the independent enumeration check


SCALES = {
    # C(25, 6) = 177,100 and C(29, 5) = 118,755 supports: both between
    # 10**5 and the 10**6 budget, at two kernel sizes (6x6 and 5x5).
    "full": Scale(50, 3, 800, 800, ((8, 3, 6), (7, 4, 5)), 3),
    "tiny": Scale(2, 1, 6, 6, ((3, 2, 3), (2, 3, 2)), 2),
}


@dataclass
class Score:
    """What a round or a gate did: operations attempted, failures by kind,
    and deterministic counts."""

    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    causes: Counter = field(default_factory=Counter)  # exception type or trial error -> count
    counts: Counter = field(default_factory=Counter)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, kind: str, cause: str | None = None, n: int = 1) -> None:
        self.failures[kind] += n
        if cause:
            self.causes[cause] += n

    def check(self, ok: bool, cause: str) -> None:
        """Count one gate operation, failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.fail("gate_mismatch", cause)

    def verdict(self, outcome: object, check: str) -> None:
        """Count one ``check`` verifier call that returned ``outcome`` or
        raised it; a pass counts as a verified instance."""
        self.attempted += 1
        if isinstance(outcome, Exception):
            self.fail("exception", type(outcome).__name__)
        elif outcome is not True:
            self.fail("verifier_false", f"{check}_false")
        else:
            self.counts[f"verify.{check}_instances"] += 1

    def add(self, other: "Score") -> None:
        self.attempted += other.attempted
        self.failures.update(other.failures)
        self.causes.update(other.causes)
        self.counts.update(other.counts)


def warm_blas() -> None:
    """Run each LAPACK/BLAS routine the workloads use once, so lazy
    initialisation is paid in set-up, not in the first round."""
    a = np.random.default_rng(0).standard_normal((33, 33))
    np.linalg.qr(a)
    np.linalg.svd(a)
    np.linalg.eigvalsh(np.broadcast_to(a.T @ a, (4, 33, 33)))


def _noop(item: str) -> None:
    pass


def run_round(items: Sequence[tuple[str, Callable]], mark: Callable[[str], None] = _noop):
    """Run every work item once; return the outcomes and each item's time.

    An exception is the item's outcome, so one failing item does not end
    the round.
    """
    outcomes, times = [], []
    for item_id, call in items:
        mark(item_id)
        t0 = perf_counter()
        try:
            outcome = call()
        except Exception as exc:
            outcome = exc
        times.append(perf_counter() - t0)
        outcomes.append(outcome)
    return outcomes, times


class GridNoisy:
    """``harness.run_trials`` over the acceptance grid with noise, one call
    per (K, N) cell."""

    name = "grid-noisy"
    item_unit = "trial"

    def __init__(self, seed: int, scale: Scale):
        self.trials = scale.grid_trials
        self.base_seed = seed * SEED_STRIDE
        self.cells = [(k, n) for k in GRID_K for n in GRID_N]
        self.items = [(f"cell_K{k}_N{n}", self._cell(k, n)) for k, n in self.cells]
        rng = np.random.default_rng([seed, 0])
        picks = rng.choice(len(self.cells), size=scale.reference_cells, replace=False)
        self.reference_cells = [self.cells[i] for i in sorted(picks)]
        self.items_per_round = len(self.cells) * self.trials
        self.first_csv: str | None = None

    def _cell(self, k: int, n: int) -> Callable:
        return lambda: harness.run_trials([k], [n], self.trials, True, self.base_seed)[0]

    def score(self, outcomes: list) -> Score:
        """Count trials and their failures, and check that the round's CSV
        report is byte-identical to the first round's."""
        score = Score()
        for cell in outcomes:
            score.attempted += self.trials
            if isinstance(cell, Exception):
                score.fail("exception", type(cell).__name__, self.trials)
                continue
            for report in cell.reports:
                if report.error is not None:
                    score.fail("trial_error", report.error.split(":")[0])
                elif not report.support_recovery:
                    score.fail("gate_mismatch", "support_not_recovered")
        if not any(isinstance(c, Exception) for c in outcomes):
            buf = io.StringIO()
            harness.emit_report(outcomes, "csv", buf)
            if self.first_csv is None:
                self.first_csv = buf.getvalue()
            else:
                score.check(buf.getvalue() == self.first_csv, "csv_not_repeatable")
        return score

    def gate(self, first: list) -> Score:
        """Re-run a seeded subsample of cells through the scalar reference
        (``gen_instance`` + ``gomp_run``) and compare per-cell rates."""
        score = Score()
        for k, n in self.reference_cells:
            cell = first[self.cells.index((k, n))]
            if isinstance(cell, Exception):
                score.check(False, "reference_cell_failed")
                continue
            exact = support = iterations = 0
            for t in range(self.trials):
                inst = harness.gen_instance(k, n, True, self.base_seed + t)
                params = greedy.GompParams(sparsity=k, n_select=n, epsilon=inst.epsilon)
                trace = greedy.gomp_run(inst.matrix, inst.observation, params)
                x = inst.signal.values
                err = float(np.max(np.abs(trace.final_estimate - x)))
                exact += err <= harness.EXACT_RECOVERY_RTOL * float(np.max(np.abs(x)))
                support += inst.signal.support <= trace.final_support
                iterations += trace.iterations_used
            score.check(
                cell.exact_rate == exact / self.trials
                and cell.support_rate == support / self.trials == 1.0
                and cell.mean_iterations == iterations / self.trials,
                "reference_mismatch",
            )
        return score


class Certify:
    """A fixed mix of the two heavy ``gompkit verify`` paths: the
    selection-margin inequality on random lemma instances, and the
    per-iteration selection condition on the trace of a noisy pursuit."""

    name = "certify"
    item_unit = "instance"

    def __init__(self, seed: int, scale: Scale):
        rng = np.random.default_rng([seed, 2])
        selection = [
            (int(rng.integers(1, 6)), int(rng.integers(1, 4)), seed * SEED_STRIDE + i)
            for i in range(scale.selection_instances)
        ]
        self.items = [(f"lemma4_{i}", self._lemma(seed, i)) for i in range(scale.lemma_instances)]
        self.items += [(f"selection_{i}", self._selection(*job)) for i, job in enumerate(selection)]
        self.items_per_round = len(self.items)

    @staticmethod
    def _lemma(seed: int, i: int) -> Callable:
        return lambda: verify.verify_lemma4(
            verify.random_lemma_instance(np.random.default_rng([seed, 1, i]))
        )

    @staticmethod
    def _selection(k: int, n: int, seed: int) -> Callable:
        def call():
            inst = harness.gen_instance(k, n, True, seed)
            params = greedy.GompParams(sparsity=k, n_select=n, epsilon=inst.epsilon)
            trace = greedy.gomp_run(inst.matrix, inst.observation, params)
            return verify.verify_selection_condition(inst.matrix, inst.signal, inst.noise, trace, n)

        return call

    def score(self, outcomes: list) -> Score:
        score = Score()
        for (item_id, _), outcome in zip(self.items, outcomes):
            score.verdict(outcome, item_id.split("_")[0])
        return score

    def gate(self, first: list) -> Score:
        return Score()


def reference_ric(a: np.ndarray, order: int) -> float:
    """Isometry constant by per-support eigvalsh of A_S^T A_S, written
    independently of ``rip.exact_ric``."""
    worst = 0.0
    for cols in itertools.combinations(range(a.shape[1]), order):
        sub = a[:, cols]
        eigs = np.linalg.eigvalsh(sub.T @ sub)
        worst = max(worst, eigs[-1] - 1.0, 1.0 - eigs[0])
    return float(worst)


class RicOracle:
    """``rip.exact_ric`` on seeded D*U matrices near the enumeration budget."""

    name = "ric-oracle"
    item_unit = "support"

    def __init__(self, seed: int, scale: Scale):
        self.jobs = [
            (harness.gen_instance(k, n, False, seed * SEED_STRIDE + j), order)
            for j, (k, n, order) in enumerate(scale.ric_specs)
        ]
        self.items = [(f"ric_{j}", self._ric(inst, order)) for j, (inst, order) in enumerate(self.jobs)]
        self.check_order = scale.ric_check_order
        self.items_per_round = sum(math.comb(inst.matrix.n, order) for inst, order in self.jobs)

    @staticmethod
    def _ric(inst, order: int) -> Callable:
        return lambda: rip.exact_ric(inst.matrix, order)

    def score(self, outcomes: list) -> Score:
        score = Score()
        for est in outcomes:
            score.attempted += 1
            if isinstance(est, Exception):
                score.fail("exception", type(est).__name__)
        return score

    def gate(self, first: list) -> Score:
        """Exact constants lie under both bounds, and ``exact_ric`` agrees
        with the independent enumeration at a small order."""
        score = Score()
        for (inst, _), est in zip(self.jobs, first):
            if isinstance(est, Exception):
                score.check(False, "ric_failed")
                continue
            score.check(est.value <= inst.claimed_delta.value + DU_TOL, "above_du_bound")
            spectral = rip.spectral_ric_bound(inst.matrix).value
            score.check(est.value <= spectral + ROUNDING_TOL, "above_spectral_bound")
            small = rip.exact_ric(inst.matrix, self.check_order).value
            expected = reference_ric(inst.matrix.entries, self.check_order)
            score.check(abs(small - expected) <= ROUNDING_TOL, "reference_mismatch")
        return score


WORKLOADS = {w.name: w for w in (GridNoisy, Certify, RicOracle)}
