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
direction. Identical seeds give bit-identical instances.

``_generators`` keeps one per-seed cache of the last 2 STACK_ROWS seeds'
``SeedSequence(seed).generate_state(4, uint64)``, the state PCG64 is
seeded from; ``run_trials`` runs each seed range over every cell before
it moves to the next range, so each seed's state is built once per grid,
and a range keeps its states while one-seed calls come in between.
Every pass still gets fresh generators, each ``default_rng(seed)`` bit for
bit, and each draws straight into its row of the pass's stacks, in the
contract order. The orthogonal factor of a drawn source is taken straight
from QR (``linops.du_entries``), so no seed is refused as singular.

There is one generator, ``_stacked_instances``, which builds the
instances of many seeds as stacked rows; a row's bits do not depend on
the other seeds. ``gen_instance`` is its call on one seed. Every trial
runs through ``_run_stacked`` (the generator, ``greedy.gomp_stacked``,
scoring), in passes of up to STACK_ROWS seeds; a pass that raises replays
its seeds one by one. The traced ``gomp_run`` on ``gen_instance`` is the
reference for its bits.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .exceptions import GompkitError
from .greedy import gomp_stacked
from .linops import SensingMatrix, _count, _du_interval, _norm, du_entries
from .metrics import SparseSignal, _row_mar, snr_threshold
from .rip import RicEstimate, RicKind, _du_delta
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


class _SeedWords(ISeedSequence):
    """One seed's ``SeedSequence`` for ``PCG64``: the ``generate_state(4,
    uint64)`` that PCG64 asks for is computed once and kept read-only, and
    any other request goes to the ``SeedSequence``."""

    def __init__(self, seed: int):
        self.sequence = np.random.SeedSequence(seed)
        self.words = self.sequence.generate_state(4, np.uint64)
        self.words.flags.writeable = False

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and dtype is np.uint64:
            return self.words
        return self.sequence.generate_state(n_words, dtype)


# the words of the last 2 STACK_ROWS seeds: run_trials takes each seed range
# through every cell, so a seed's words are built once per grid, and the
# spare half keeps a full range cached across one-seed calls between its
# cells; typed, so a float 5.0 never meets a cached 5 and raises as
# default_rng(5.0) does
_seed_words = lru_cache(maxsize=2 * STACK_ROWS, typed=True)(_SeedWords)


def _generators(seeds: Sequence[int]) -> list[np.random.Generator]:
    """``np.random.default_rng(seed)`` for each seed, bit for bit: a fresh
    ``PCG64`` per seed from its cached ``_seed_words``."""
    return [np.random.Generator(np.random.PCG64(_seed_words(seed))) for seed in seeds]


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

    Each seed's generator from ``_generators`` fills its own row of the
    pass's stacks in the contract order; d is drawn by ``random`` and put
    on ``_du_interval`` once per pass as low + (high - low) u, the bits of
    ``uniform``. The orthogonal factor is one stacked ``du_entries`` call.
    delta is ``du_ric_bound(d).value``, taken row by row by
    ``rip._du_delta``, exact at order n = N K + 1. In the noisy mode the MAR is ``mar``'s
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
    sparsity, n_select = _count("sparsity", sparsity), _count("n_select", n_select)
    rngs, n = _generators(seeds), n_select * sparsity + 1
    rows = len(rngs)
    d, source, nonzeros = np.empty((rows, n)), np.empty((rows, n, n)), np.empty((rows, sparsity))
    support = np.arange(n)[None].repeat(rows, axis=0)  # rows shuffled as permutation(n)
    for rng, d_row, source_row, support_row, nonzeros_row in zip(rngs, d, source, support, nonzeros):
        rng.random(out=d_row)
        rng.standard_normal(out=source_row)
        rng.shuffle(support_row)
        if flat_signal:
            nonzeros_row[:] = rng.integers(0, 2, size=sparsity) * 2.0 - 1.0
        else:
            rng.standard_normal(out=nonzeros_row)
    low, high = _du_interval(sparsity / n_select)
    d = low + (high - low) * d
    # measure-zero, but a zero leaves fewer than K nonzeros; a row's redraws
    # come from its generator, after its first K draws and before its direction
    while np.count_nonzero(nonzeros) < nonzeros.size:
        t = int(np.argmin(nonzeros.all(axis=1)))
        zero = nonzeros[t] == 0.0
        nonzeros[t, zero] = rngs[t].standard_normal(np.count_nonzero(zero))
    entries = du_entries(d, source)
    del source
    values = np.zeros(d.shape)
    values[np.arange(rows)[:, None], support[:, :sparsity]] = nonzeros
    clean = (entries @ values[:, :, None])[:, :, 0]
    clean_norm = _norm(clean)
    delta = _du_delta(d)
    if noisy:
        smallest = np.minimum.reduce(nonzeros * nonzeros, axis=1)
        mar_values = _row_mar(values, sparsity, smallest)
        target_root_snr = SNR_MARGIN + snr_threshold(sparsity, n_select, delta, mar_values)
        cap = np.sqrt((1.0 - delta) * smallest) / (2.0 * (1.0 + SNR_MARGIN))
        direction = np.empty(d.shape)
        for rng, direction_row in zip(rngs, direction):
            rng.standard_normal(out=direction_row)
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
    """The trials of ``seeds``, generated, pursued and scored as one stacked
    pass. A numerical refusal (a GompkitError or LinAlgError) reruns a pass
    of several seeds as one-seed passes, and is the error of a one-seed
    pass's trial; bad input raises."""
    try:
        entries, x, _, observation, epsilon, _ = _stacked_instances(
            sparsity, n_select, noisy, seeds, flat_signal
        )
        run = gomp_stacked(entries, observation, epsilon, sparsity, n_select)
    except (GompkitError, np.linalg.LinAlgError) as exc:
        if len(seeds) > 1:
            return [report for seed in seeds
                    for report in _run_stacked(sparsity, n_select, noisy, [seed], flat_signal)]
        return [TrialReport(seeds[0], False, False, 0, math.nan, f"{type(exc).__name__}: {exc}")]
    err = np.max(np.abs(run.estimates - x), axis=1)
    exact = err <= EXACT_RECOVERY_RTOL * np.max(np.abs(x), axis=1)
    support_ok = ~np.any((x != 0.0) & ~run.supports, axis=1)
    columns = (exact, support_ok, run.iterations, run.residual_norms)
    return [
        TrialReport(seed, *fields)
        for seed, *fields in zip(seeds, *(column.tolist() for column in columns))
    ]


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
    ``_run_stacked`` passes of up to STACK_ROWS seeds, every cell's pass of
    one seed range before the next range, so that range's states are built
    once; a pass that raises replays its own seeds one by one, and a trial
    whose one-seed pass raises reports the error.
    """
    cells = sorted((_count("sparsity", k), _count("n_select", nsel))
                   for k in sparsities for nsel in n_selects)
    if _count("trials_per_cell", trials_per_cell, 0) == 0:
        return []
    reports = [[] for _ in cells]
    for start in range(0, trials_per_cell, STACK_ROWS):
        seeds = range(base_seed + start, base_seed + min(start + STACK_ROWS, trials_per_cell))
        for (k, nsel), cell_reports in zip(cells, reports):
            cell_reports += _run_stacked(k, nsel, noisy, seeds, flat_signal)
    return [CellResult(k, nsel, noisy, tuple(r)) for (k, nsel), r in zip(cells, reports)]


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
    """Read a matrix from an instance file or a bare JSON 2-d array; each
    refusal is a ValueError that starts with the path."""
    try:  # an OSError propagates as it is
        with open(path) as fh:
            doc = json.load(fh, parse_int=float)  # an integer past int64 stays a number
        if isinstance(doc, dict):
            if "matrix" not in doc:
                raise ValueError("no 'matrix' field in JSON document")
            doc = doc["matrix"]
        return SensingMatrix(doc).entries  # which refuses a boolean, alone or among numbers
    except (TypeError, ValueError) as exc:  # not JSON or text, ragged, not real or refused
        raise ValueError(f"{path}: {exc}") from exc
