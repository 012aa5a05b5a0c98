"""Experiment generation, Monte-Carlo trial running, and report emission.

Instances use a square diagonal-times-orthogonal sensing matrix whose
isometry constant is known by construction: with n = N*K + 1, the
diagonal is sampled so the constant stays at 99% of the certified
threshold 1/sqrt(K/N + 1). In the noisy mode the noise norm is the
smaller of two: the norm that puts sqrt(SNR) exactly 0.01 above the
sufficient threshold, and sqrt(1 - delta) min|x_i| / 2.02, under which the
pursuit cannot stop at ||r|| <= epsilon with a support index missing. So
sqrt(SNR) is at least 0.01 above the threshold, and the stopping epsilon
equals the realized noise norm.

Reproducibility contract: all randomness comes from numpy's PCG64
generator seeded with the instance seed, drawn in this fixed order:
diagonal entries (uniform), orthogonal-factor source matrix (standard
normal, row-major), support permutation, nonzero values, then the noise
direction. Identical seeds give bit-identical instances. The noise cap
changed the noisy instances it shrinks, and only those.

``_generators`` seeds a whole pass at once. Each seed's
``SeedSequence(seed).pool`` is numpy's own entropy mixing; the 8-word hash
of ``SeedSequence.generate_state(4, uint64)`` then runs for every seed in
a few uint32 array operations, and each row seeds ``PCG64`` through
numpy's ``ISeedSequence`` interface, so PCG64's own seeding still runs.
Each generator is ``np.random.default_rng(seed)`` bit for bit, and
``_check_seeding`` refuses at import, with RuntimeError, a numpy whose
hash differs.

There is one generator, ``_stacked_instances``, which builds the
instances of many seeds as stacked rows; a row's bits do not depend on
the other seeds. ``gen_instance`` is its call on one seed. Every trial
runs through ``_run_stacked`` (the generator, ``greedy.gomp_stacked``,
scoring): ``run_trials`` in passes of many seeds, ``run_trial`` on one.
The traced ``gomp_run`` on ``gen_instance`` is the reference for its bits.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .exceptions import GompkitError
from .greedy import gomp_stacked
from .linops import SensingMatrix, _norm, draw_du, du_entries
from .metrics import SparseSignal, _row_mar, snr_threshold
from .rip import RicEstimate, RicKind
from .verify import NOISE_FLOOR_REL

SNR_MARGIN = 0.01
EXACT_RECOVERY_RTOL = 1e-8
# Seeds per stacked pass: bounds the (T, n, n) stacks of a large cell to a
# few MB at n = 33.
STACK_ROWS = 128


@dataclass(frozen=True)
class Instance:
    """One generated experiment: matrix, signal, noise, and observation.
    ``sparsity`` is K = |signal support| and ``n_select`` is N = (n - 1) / K,
    by the generator's rule n = N K + 1; a shape off that rule raises ValueError."""

    matrix: SensingMatrix
    signal: SparseSignal
    noise: np.ndarray
    observation: np.ndarray
    epsilon: float
    seed: int
    claimed_delta: RicEstimate
    sparsity: int = field(init=False)
    n_select: int = field(init=False)

    def __post_init__(self):
        n, k = self.matrix.n, len(self.signal.support)
        if self.signal.n != n or not k or (n - 1) % k or n - 1 < k:
            raise ValueError(f"a length-{self.signal.n} signal with K = {k} nonzeros "
                             f"does not fit n = N K + 1 = {n} for an integer N >= 1")
        object.__setattr__(self, "sparsity", k)
        object.__setattr__(self, "n_select", (n - 1) // k)

    @property
    def noisy(self) -> bool:
        return bool(self.noise.any())


@dataclass(frozen=True)
class TrialReport:
    """Outcome of one recovery trial."""

    instance_seed: int
    exact_recovery: bool
    support_recovery: bool
    iterations_used: int
    residual_final: float
    error: str | None = None


@dataclass(frozen=True)
class CellResult:
    """Outcomes of one (sparsity, n_select) grid cell and their aggregates:
    the rates over all trials, the means over the trials without an error
    (NaN when every trial has one). An empty ``reports`` raises ValueError."""

    sparsity: int
    n_select: int
    noisy: bool
    reports: tuple[TrialReport, ...]
    trials: int = field(init=False)
    exact_rate: float = field(init=False)
    support_rate: float = field(init=False)
    mean_iterations: float = field(init=False)
    mean_final_residual: float = field(init=False)

    def __post_init__(self):
        reports = tuple(self.reports)
        if not reports:
            raise ValueError("a cell needs at least one trial report")
        trials, clean = len(reports), [r for r in reports if r.error is None]
        for name, value in {
            "reports": reports,
            "trials": trials,
            "exact_rate": sum(r.exact_recovery for r in reports) / trials,
            "support_rate": sum(r.support_recovery for r in reports) / trials,
            "mean_iterations": (
                sum(r.iterations_used for r in clean) / len(clean) if clean else math.nan
            ),
            "mean_final_residual": (
                sum(r.residual_final for r in clean) / len(clean) if clean else math.nan
            ),
        }.items():
            object.__setattr__(self, name, value)


# SeedSequence.generate_state's hash (numpy/random/bit_generator.pyx): output
# word i mixes pool word i % 4 with h_i and h_(i+1), where h_0 = INIT_B and
# h_(i+1) = h_i MULT_B mod 2**32. _HASH_CONSTANTS holds h_0 .. h_8.
_HASH_CONSTANTS = np.array(
    [0x8B51F9DD * pow(0x58F38DED, i, 2**32) % 2**32 for i in range(9)], dtype=np.uint32
)
_POOL_WORDS = np.arange(8) % 4


class _SeedWords(ISeedSequence):
    """The precomputed ``generate_state(4, uint64)`` of one seed."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _generators(seeds: Sequence[int]) -> list[np.random.Generator]:
    """``np.random.default_rng(seed)`` for each seed, bit for bit, with
    ``generate_state``'s hash run once over the whole pass: word i of a
    seed's state is w ^ (w >> 16) for w = (pool[i % 4] ^ h_i) h_(i+1).
    A seed that ``SeedSequence`` refuses raises its exception."""
    pools = np.array([np.random.SeedSequence(seed).pool for seed in seeds], dtype=np.uint32)
    words = pools.take(_POOL_WORDS, axis=1)
    words ^= _HASH_CONSTANTS[:8]
    words *= _HASH_CONSTANTS[1:]
    words ^= words >> 16
    # numpy's little-endian pairing of the uint32 words into uint64 ones
    states = words.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    return [np.random.Generator(np.random.PCG64(_SeedWords(state))) for state in states]


def _check_seeding() -> None:
    """Raise RuntimeError unless ``_generators`` gives ``default_rng``'s
    states, on one seed below 2**32 and one above 2**64."""
    seeds = (2**32 - 7, 2**64 + 13)
    for seed, rng in zip(seeds, _generators(seeds)):
        if rng.bit_generator.state != np.random.default_rng(seed).bit_generator.state:
            raise RuntimeError(
                f"numpy {np.__version__} seeds PCG64 differently from harness._generators "
                f"(seed {seed}); instances would not be reproducible"
            )


_check_seeding()


def _draw(sparsity: int, n_select: int, noisy: bool, rng: np.random.Generator, flat_signal: bool) -> tuple:
    """Every random draw of one instance from its seeded generator, in the
    contract order: (d, source of the orthogonal factor, 0-based support,
    nonzeros, noise direction or None when noise-free)."""
    n = n_select * sparsity + 1
    d, source = draw_du(rng, n, sparsity / n_select)
    support = rng.permutation(n)[:sparsity]
    if flat_signal:
        nonzeros = rng.integers(0, 2, size=sparsity) * 2.0 - 1.0
    else:
        nonzeros = rng.standard_normal(sparsity)
        while not nonzeros.all():  # measure-zero, but a zero leaves fewer than K nonzeros
            nonzeros[nonzeros == 0.0] = rng.standard_normal(np.count_nonzero(nonzeros == 0.0))
    direction = rng.standard_normal(n) if noisy else None
    return d, source, support, nonzeros, direction


def gen_instance(
    sparsity: int,
    n_select: int,
    noisy: bool,
    seed: int,
    *,
    flat_signal: bool = False,
) -> Instance:
    """Generate one seeded instance with a certified sensing matrix: row 0
    of ``_stacked_instances`` on the single seed.

    ``flat_signal`` draws the nonzero entries as random signs instead of
    standard normals, pinning the minimum-to-average ratio at 1 so the
    isometry condition is exercised in isolation.
    """
    entries, values, noise, observation, epsilon, delta = _stacked_instances(
        sparsity, n_select, noisy, [seed], flat_signal
    )
    return Instance(
        matrix=SensingMatrix(entries[0]),
        signal=SparseSignal(values[0]),
        noise=noise[0],
        observation=observation[0],
        epsilon=float(epsilon[0]),
        seed=seed,
        claimed_delta=RicEstimate(entries.shape[-1], float(delta[0]), RicKind.ANALYTIC_DU),
    )


def _stacked_instances(
    sparsity: int, n_select: int, noisy: bool, seeds: Sequence[int], flat_signal: bool
) -> tuple[np.ndarray, ...]:
    """The instances of ``seeds``, stacked by row: matrix entries, signal
    values, noise, observation, epsilon and the claimed isometry constant
    delta.

    The draws are ``_draw``'s from the generators of ``_generators``, and
    the orthogonal factor is one stacked call. delta is
    ``du_ric_bound(d).value``, max(1 - min d^2, max d^2 - 1), exact at
    order n = N K + 1. In the noisy mode the MAR is ``mar``'s
    K min x_i^2 / ||x||^2, taken row by row by ``metrics._row_mar``, and
    the noise is scaled so sqrt(SNR) = SNR_MARGIN + ``snr_threshold``,
    unless that puts ||v|| above the cap sqrt(1 - delta) min|x_i| /
    (2 (1 + SNR_MARGIN)). While a support index is missing,
    ||r|| >= sqrt(1 - delta) ||x off the support found|| - ||v||, which the
    cap keeps above epsilon = ||v||. Each product and norm has the operand
    layout and BLAS call of the 1-d form, so a row's bits do not depend on
    the other seeds of the call.
    ``test_matrix_follows_documented_draw_order`` and
    ``test_noisy_calibration`` in tests/test_harness.py pin these
    expressions against ``du_ric_bound`` and ``mar``.
    """
    if sparsity < 1 or n_select < 1:
        raise ValueError("sparsity and n_select must be >= 1")
    d, source, support, nonzeros, direction = zip(
        *(_draw(sparsity, n_select, noisy, rng, flat_signal) for rng in _generators(seeds))
    )
    d, support, nonzeros = np.array(d), np.array(support), np.array(nonzeros)
    source = np.array(source)  # drops the per-seed copies before the QR
    entries = du_entries(d, source)
    del source
    values = np.zeros(d.shape)
    values[np.arange(len(values))[:, None], support] = nonzeros
    clean = (entries @ values[:, :, None])[:, :, 0]
    clean_norm = _norm(clean)
    sq = d * d
    delta = np.maximum(1.0 - sq.min(axis=1), sq.max(axis=1) - 1.0)
    if noisy:
        smallest = np.minimum.reduce(nonzeros * nonzeros, axis=1)
        mar_values = _row_mar(values, sparsity, smallest)
        target_root_snr = SNR_MARGIN + snr_threshold(sparsity, n_select, delta, mar_values)
        cap = np.sqrt((1.0 - delta) * smallest) / (2.0 * (1.0 + SNR_MARGIN))
        direction = np.array(direction)
        noise = np.minimum(clean_norm / target_root_snr, cap)[:, None] * (
            direction / _norm(direction)[:, None]
        )
        epsilon = _norm(noise)
    else:
        noise = np.zeros(values.shape)
        epsilon = NOISE_FLOOR_REL * clean_norm
    return entries, values, noise, clean + noise, epsilon, delta


def _run_stacked(
    sparsity: int, n_select: int, noisy: bool, seeds: Sequence[int], flat_signal: bool
) -> list[TrialReport]:
    """The trials of ``seeds``, generated, pursued and scored as one stacked pass."""
    entries, x, _, observation, epsilon, _ = _stacked_instances(
        sparsity, n_select, noisy, seeds, flat_signal
    )
    run = gomp_stacked(entries, observation, epsilon, sparsity, n_select)
    err = np.max(np.abs(run.estimates - x), axis=1)
    exact = err <= EXACT_RECOVERY_RTOL * np.max(np.abs(x), axis=1)
    support_ok = ~np.any((x != 0.0) & ~run.supports, axis=1)
    columns = (exact, support_ok, run.iterations, run.residual_norms)
    return [
        TrialReport(seed, *fields)
        for seed, *fields in zip(seeds, *(column.tolist() for column in columns))
    ]


def run_trial(sparsity: int, n_select: int, noisy: bool, seed: int, *, flat_signal: bool = False) -> TrialReport:
    """One seeded trial: the one-seed stacked pass, or a report of the numerical
    refusal (a GompkitError or LinAlgError) it raised; bad input raises."""
    try:
        return _run_stacked(sparsity, n_select, noisy, [seed], flat_signal)[0]
    except (GompkitError, np.linalg.LinAlgError) as exc:
        return TrialReport(
            instance_seed=seed,
            exact_recovery=False,
            support_recovery=False,
            iterations_used=0,
            residual_final=float("nan"),
            error=f"{type(exc).__name__}: {exc}",
        )


def run_trials(
    sparsities: Iterable[int],
    n_selects: Iterable[int],
    trials_per_cell: int,
    noisy: bool,
    base_seed: int,
    *,
    flat_signal: bool = False,
) -> list[CellResult]:
    """Run a (sparsity, n_select) grid of seeded trials.

    Trial t of every cell uses seed base_seed + t, so cells are
    independent of each other and of execution order. Each cell runs as
    stacked passes of up to STACK_ROWS seeds; a pass that raises is redone
    with ``run_trial`` per seed, which records each failing trial's error.
    """
    if trials_per_cell < 0:
        raise ValueError("trials_per_cell must be >= 0")
    if trials_per_cell == 0:
        return []
    cells = sorted((int(k), int(nsel)) for k in sparsities for nsel in n_selects)
    results = []
    for k, nsel in cells:
        reports = []
        for start in range(0, trials_per_cell, STACK_ROWS):
            seeds = range(base_seed + start, base_seed + min(start + STACK_ROWS, trials_per_cell))
            try:
                reports += _run_stacked(k, nsel, noisy, seeds, flat_signal)
            except (GompkitError, np.linalg.LinAlgError):
                reports += [run_trial(k, nsel, noisy, s, flat_signal=flat_signal) for s in seeds]
        results.append(CellResult(k, nsel, noisy, tuple(reports)))
    return results


# ---------------------------------------------------------------------------
# serialization

CSV_HEADER = "K,N,noisy,trials,exact_rate,support_rate,mean_iterations,mean_final_residual"


def _cell_values(cell: CellResult) -> tuple:
    """A cell's report fields, in CSV_HEADER order."""
    return (cell.sparsity, cell.n_select, cell.noisy, cell.trials, cell.exact_rate,
            cell.support_rate, cell.mean_iterations, cell.mean_final_residual)


def report_rows(results: Sequence[CellResult]) -> list[str]:
    return [CSV_HEADER] + [
        ",".join(format(v, ".12g") if isinstance(v, float) else str(v).lower()
                 for v in _cell_values(cell))
        for cell in results
    ]


def _nan_to_null(record: dict) -> dict:
    return {key: None if isinstance(v, float) and math.isnan(v) else v for key, v in record.items()}


def report_payload(results: Sequence[CellResult], *, include_trials: bool = False) -> dict:
    """JSON-ready mirror of the CSV schema (each key the header name in lower
    case, NaN as null) plus per-cell error counts by exception name,
    optionally with each trial's ``TrialReport`` fields."""
    cells = []
    for cell in results:
        entry = _nan_to_null(dict(zip(CSV_HEADER.lower().split(","), _cell_values(cell))))
        errors = Counter(r.error.partition(":")[0] for r in cell.reports if r.error is not None)
        entry["errors"] = dict(sorted(errors.items()))
        if include_trials:
            entry["reports"] = [_nan_to_null(asdict(r)) for r in cell.reports]
        cells.append(entry)
    return {"cells": cells}


def _write_text(text: str, destination: str | Path | IO[str] | None) -> None:
    """Write ``text`` to a path, a stream, or stdout when ``destination`` is None."""
    if destination is None:
        sys.stdout.write(text)
    elif isinstance(destination, (str, Path)):
        with open(destination, "w", newline="") as fh:
            fh.write(text)
    else:
        destination.write(text)


def emit_report(
    results: Sequence[CellResult],
    fmt: str,
    destination: str | Path | IO[str] | None = None,
    *,
    include_trials: bool = False,
) -> None:
    """Write results as CSV or JSON to a path, a stream, or stdout.

    CSV prints numbers with 12 significant digits; JSON uses exact
    round-trip float text so a reparse reproduces the report.
    """
    if fmt == "csv":
        text = "\n".join(report_rows(results)) + "\n"
    elif fmt == "json":
        text = json.dumps(report_payload(results, include_trials=include_trials), indent=2) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")
    _write_text(text, destination)


def instance_payload(inst: Instance) -> dict:
    """Schema of the instance file; see the README for field meanings."""
    return {
        "k": inst.sparsity,
        "n_select": inst.n_select,
        "m": inst.matrix.m,
        "n": inst.matrix.n,
        "noisy": inst.noisy,
        "seed": inst.seed,
        "epsilon": inst.epsilon,
        "claimed_delta": {
            "order": inst.claimed_delta.order,
            "value": inst.claimed_delta.value,
            "kind": inst.claimed_delta.kind.value,
        },
        "matrix": [list(row) for row in inst.matrix.entries],
        "signal": list(inst.signal.values),
        "support": sorted(inst.signal.support),
        "noise": list(inst.noise),
        "observation": list(inst.observation),
    }


def write_instance(inst: Instance, destination: str | Path | IO[str] | None = None) -> None:
    """Serialize an instance as JSON (matrix row-major, exact round-trip floats)."""
    _write_text(json.dumps(instance_payload(inst), allow_nan=False) + "\n", destination)


def load_matrix(path: str | Path) -> np.ndarray:
    """Read a matrix from an instance file or a bare JSON 2-d array."""
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict):
        if "matrix" not in doc:
            raise ValueError(f"{path}: no 'matrix' field in JSON document")
        doc = doc["matrix"]
    try:
        arr = np.asarray(doc, dtype=float)
    except TypeError as exc:  # a non-numeric entry such as {}
        raise ValueError(f"{path}: {exc}") from exc
    if arr.ndim != 2:
        raise ValueError(f"{path}: expected a 2-d array, got ndim={arr.ndim}")
    return arr
