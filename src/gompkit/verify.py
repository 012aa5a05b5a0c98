"""Numeric verification of the pursuit's selection guarantees.

Three checks, each run against concrete instances with isometry constants
certified by exhaustive enumeration:

* the selection-margin inequality: after projecting out an already
  selected set, the best on-support correlation beats the mean off-support
  correlation over any competitor set by a computable margin;
* the stopping property: a zero residual reached with at least as many
  correct picks as iterations implies the whole support was captured;
* the per-iteration selection condition on recorded traces: the strongest
  on-support correlation exceeds the mean over the strongest off-support
  competitors, which forces at least one correct pick per iteration.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from .greedy import RecoveryTrace, _top_n
from .linops import (
    MatrixLike,
    SensingMatrix,
    _count,
    _du_interval,
    _index_set,
    _norm,
    as_sensing_matrix,
    as_vector,
    du_entries,
    project_complement,
)
from .metrics import SparseSignal
from .rip import _lower_bounds, exact_ric

# Absolute slack for inequality comparisons: both sides are O(1) at the
# problem sizes enumeration allows, leaving ~1e-15 of true float noise.
LEMMA_SLACK = 1e-12

# Noise-free residual floor, relative to ||y||; also the generator's noise-free epsilon.
NOISE_FLOOR_REL = 1e-10

LEMMA_N_MAX = 12  # largest column count of a random lemma instance


@dataclass(frozen=True)
class LemmaInstance:
    """One admissible configuration for the selection-margin inequality.

    ``competitors`` is a candidate set of ``n_select`` off-support indices
    the selection could confuse with the true support; ``selected`` plays
    the role of the set already picked after ``iteration`` rounds of
    ``n_select`` picks each. All index sets are 1-based.

    The counts are stored once the sets are validated: ``n_select`` is
    |competitors|, ``iteration`` is |selected| / n_select, ``overlap`` is
    |support & selected|, and ``ric_order`` is n_select * (iteration + 1)
    + |support| - overlap, the order of the constant the inequality uses.
    """

    matrix: SensingMatrix
    signal: SparseSignal
    selected: frozenset[int]
    competitors: frozenset[int]
    n_select: int = field(init=False)
    iteration: int = field(init=False)
    overlap: int = field(init=False)
    ric_order: int = field(init=False)

    def __post_init__(self):
        mat = self.matrix
        if self.signal.n != mat.n:
            raise ValueError(f"signal length {self.signal.n} != columns {mat.n}")
        object.__setattr__(self, "selected", _index_set(self.selected, mat.n))
        object.__setattr__(self, "competitors", _index_set(self.competitors, mat.n))
        omega = self.signal.support
        n_select = len(self.competitors)
        if not n_select:
            raise ValueError("competitor set must be nonempty")
        iteration, rest = divmod(len(self.selected), n_select)
        if rest:
            raise ValueError(
                f"|selected| = {len(self.selected)} is not a multiple of "
                f"n_select = |competitors| = {n_select}"
            )
        if self.competitors & omega:
            raise ValueError("competitors must avoid the signal support")
        if self.competitors & self.selected:
            raise ValueError("competitors must avoid the selected set")
        overlap = len(omega & self.selected)
        if not (iteration <= overlap <= len(omega) - 1):
            raise ValueError(
                f"need iteration <= |support & selected| <= |support| - 1, got "
                f"iteration={iteration}, overlap={overlap}, |support|={len(omega)}"
            )
        if n_select * (iteration + 1) + len(omega) - iteration > mat.m:
            raise ValueError("instance too large for the row count")
        object.__setattr__(self, "n_select", n_select)
        object.__setattr__(self, "iteration", iteration)
        object.__setattr__(self, "overlap", overlap)
        object.__setattr__(self, "ric_order", n_select * (iteration + 1) + len(omega) - overlap)


def _lemma4_terms(inst: LemmaInstance) -> tuple[float, Callable[[float], float]]:
    """The left side of the selection-margin inequality, and its right side
    as a function of delta."""
    mat, x = inst.matrix, inst.signal
    omega = x.support
    remaining = np.asarray(sorted(omega - inst.selected)) - 1
    x_rem = x.values[remaining]
    signal_part = mat.entries[:, remaining] @ x_rem
    projected = project_complement(mat, inst.selected, signal_part)

    corr = mat.entries.T @ projected
    lhs = float(np.abs(corr[remaining]).max())
    comp = np.asarray(sorted(inst.competitors)) - 1
    lhs -= float(np.abs(corr[comp]).sum() / comp.size)

    missing = len(omega) - inst.overlap
    growth = math.sqrt(missing / inst.n_select + 1.0)
    with np.errstate(over="ignore"):  # _norm rescales an overflowing square sum
        norm = _norm(x_rem)

    def rhs(delta: float) -> float:
        return (1.0 - growth * delta) * norm / math.sqrt(missing)

    return lhs, rhs


def lemma4_sides(inst: LemmaInstance) -> tuple[float, float]:
    """Both sides of the selection-margin inequality for one instance.

    Left side: best on-support correlation against the projected residual
    signal, minus the competitor-set mean. Right side: the margin
    (1 - sqrt((|support| - overlap)/n_select + 1) * delta) * ||x_rem|| /
    sqrt(|support| - overlap), with delta the exact constant at the order
    this configuration touches.
    """
    delta = exact_ric(inst.matrix, inst.ric_order).value  # refuses before any work
    lhs, rhs = _lemma4_terms(inst)
    return lhs, rhs(delta)


def lemma4_holds(lhs: float, rhs: float) -> bool:
    """The pass rule on the two sides from ``lemma4_sides``: lhs >= rhs up
    to LEMMA_SLACK."""
    return lhs >= rhs - LEMMA_SLACK


def _settle_lemma4(inst: LemmaInstance, floor: float) -> tuple[float, float] | None:
    """None once the instance passes at a value w of ``rip._lower_bounds``
    with slack lhs - rhs(w) >= ``floor``; otherwise both sides at the exact
    constant, its last value (see ``verify_lemma4``)."""
    bounds = _lower_bounds(inst.matrix, inst.ric_order)  # refuses before any work
    lhs, rhs = _lemma4_terms(inst)
    for delta in bounds:
        right = rhs(delta)
        if lemma4_holds(lhs, right) and lhs - right >= floor:
            return None
    return lhs, right


def verify_lemma4(inst: LemmaInstance) -> bool:
    """Whether the selection-margin inequality holds on this instance.

    The verdict is ``lemma4_holds(*lemma4_sides(inst))``, with the same
    exceptions, but the enumeration of the constant stops once it settles
    the verdict:

    * The computed right side is non-increasing in delta. It multiplies
      delta by sqrt(missing/n_select + 1) >= 0, subtracts from 1,
      multiplies by ||x_rem|| >= 0 and divides by sqrt(missing) > 0, and
      each of these correctly rounded operations is monotone, as is the
      subtraction of LEMMA_SLACK in ``lemma4_holds``.
    * Every value w of ``rip._lower_bounds``, namely 0.0, the column floor
      and the running values of the enumeration, is at most the exact
      constant, so a pass at w is a pass at the exact constant.

    The instance passes at the first of these values that passes it. It
    fails only when the last one, which is the exact constant, fails it
    too.
    """
    return _settle_lemma4(inst, -math.inf) is None


def lemma4_min_slack(instances: Iterable[LemmaInstance]) -> tuple[int, float, int]:
    """Failures among ``instances``, the smallest slack lhs - rhs of
    ``lemma4_sides`` and the (0-based) index of the first instance that
    reached it (math.inf and -1 for no instances).

    Equal, bit for bit, to scanning ``lemma4_sides`` on every instance,
    but an instance stops once it passes at a lower bound w of the exact
    constant tried by ``verify_lemma4`` with lhs - rhs(w) >= the smallest
    slack so far. The computed slack is non-decreasing in delta, because
    rhs is non-increasing (see ``verify_lemma4``) and a correctly rounded
    subtraction is monotone. So such an instance passes at its exact
    constant too, with a slack that is not below the minimum so far, and
    changes neither output.
    """
    failed, min_slack, argmin = 0, math.inf, -1
    for i, inst in enumerate(instances):
        sides = _settle_lemma4(inst, min_slack)
        if sides is None:
            continue
        lhs, rhs = sides
        if not lemma4_holds(lhs, rhs):
            failed += 1
        if lhs - rhs < min_slack:
            min_slack, argmin = lhs - rhs, i
    return failed, min_slack, argmin


def _check_trace(trace: RecoveryTrace, n: int) -> None:
    """Refuse, with ValueError, a trace that does not fit a length-n signal:
    a record with other than n correlations (its picks then lie in 1..n), or
    a pick repeated across records (``IterationRecord`` checks within one)."""
    seen: set[int] = set()
    for record in trace.iterations:
        if record.correlations.size != n:
            raise ValueError(f"record has {record.correlations.size} correlations, expected {n}")
        if seen.intersection(record.selected):
            raise ValueError(f"picks {sorted(seen.intersection(record.selected))} repeat")
        seen.update(record.selected)


def verify_stopping(
    a: MatrixLike,
    x: SparseSignal,
    trace: RecoveryTrace,
    *,
    noise: np.ndarray | None = None,
) -> bool:
    """Check the stopping property on a noise-free trace.

    If the run ended with a residual at the noise floor and had collected
    at least one correct index per iteration performed, the full support
    must be inside the final selection. Vacuously true otherwise. A trace
    that does not fit ``x``, or a ``noise`` that is not a finite length-m
    vector, raises ValueError.
    """
    mat = as_sensing_matrix(a)
    if noise is not None and as_vector(noise, mat.m, "noise").any():
        raise ValueError("stopping property applies to noise-free instances only")
    _check_trace(trace, x.n)
    k0 = len(trace.iterations)
    if k0 == 0:
        return True
    y = mat.entries @ x.values
    with np.errstate(over="ignore"):  # _norm rescales an overflowing square sum
        floor = NOISE_FLOOR_REL * _norm(y)
    if trace.iterations[-1].residual_norm > floor:
        return True
    if len(x.support & trace.final_support) < k0:
        return True
    return x.support <= trace.final_support


def verify_selection_condition(
    a: MatrixLike,
    x: SparseSignal,
    v: np.ndarray,
    trace: RecoveryTrace,
    n_select: int,
) -> bool:
    """Check the per-iteration selection condition on a recorded trace.

    At every iteration taken before the support was exhausted, the largest
    on-support correlation magnitude must strictly exceed the mean over
    the ``n_select`` largest off-support ones -- the condition under which
    an iteration is guaranteed to pick at least one support index. ``v``
    is the noise vector of the instance the trace came from (the check
    itself reads only the recorded correlations). A trace that does not fit
    ``x`` raises ValueError.
    """
    n_select = _count("n_select", n_select)
    mat = as_sensing_matrix(a)
    _check_trace(trace, x.n)
    omega = x.support
    on = x.values.nonzero()[0]
    if on.size and trace.iterations and n_select > x.n - on.size:  # some iteration is checked
        raise ValueError(f"need {n_select} candidates, only {x.n - on.size} remain")
    prior: set[int] = set()
    for record in trace.iterations:
        if omega <= prior:
            break
        corr = record.correlations
        if not corr[on].max() > corr[_top_n(corr, n_select, on)].sum() / n_select:
            return False
        prior.update(record.selected)
    return True


def random_lemma_instance(rng: np.random.Generator) -> LemmaInstance:
    """Draw one admissible instance for the selection-margin inequality.

    The matrix is diagonal-times-orthogonal with a controlled constant so
    the inequality is informative, and the selected set is built by first
    fixing how many support indices it contains; uniform subset sampling
    would almost never land on the sparsely admissible (iteration,
    overlap) pairs.
    """
    n = int(rng.integers(4, LEMMA_N_MAX + 1))
    # A draw with n_select = 1 always passes, so the loop ends.
    while True:
        n_select = int(rng.integers(1, 4))
        support_size = int(rng.integers(1, n))
        iteration = int(rng.integers(0, support_size))
        # iteration < support_size and n_select >= 1, so the range is nonempty
        overlap = int(rng.integers(iteration, min(support_size - 1, iteration * n_select) + 1))
        # overlap >= iteration, so this also leaves the off-support columns used below
        if n_select * (iteration + 1) + support_size - iteration <= n:
            break

    d = rng.uniform(*_du_interval(support_size / n_select), size=n)
    mat = SensingMatrix(du_entries(d, rng.standard_normal((n, n))))

    perm = rng.permutation(n)
    values = np.zeros(n)
    values[perm[:support_size]] = rng.standard_normal(support_size)
    signal = SparseSignal(values)
    omega, off = (perm[:support_size] + 1).tolist(), (perm[support_size:] + 1).tolist()

    selected = frozenset(omega[:overlap]) | frozenset(off[: iteration * n_select - overlap])
    competitors = frozenset(off[iteration * n_select - overlap:][:n_select])
    return LemmaInstance(matrix=mat, signal=signal, selected=selected, competitors=competitors)
