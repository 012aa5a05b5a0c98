"""Command-line interface: gen, run, ric, and verify subcommands."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .exceptions import GompkitError
from .greedy import GompParams, gomp_run
from .harness import emit_report, gen_instance, load_matrix, run_trials, write_instance
from .rip import ENUMERATION_BUDGET, exact_ric
from .verify import (
    lemma4_min_slack,
    random_lemma_instance,
    verify_selection_condition,
    verify_stopping,
)


def _cmd_gen(args: argparse.Namespace) -> int:
    inst = gen_instance(args.k, args.n_select, args.noisy, args.seed)
    write_instance(inst, args.out)
    return 0


def _at_least_one(flag: str, value: int) -> int:
    if value < 1:
        raise ValueError(f"{flag} must be at least 1, got {value}")
    return value


def _closed_range(low_flag: str, low: int, high_flag: str, high: int) -> range:
    if low > high:
        raise ValueError(f"empty range: {low_flag} {low} > {high_flag} {high}")
    return range(low, high + 1)


def _cmd_run(args: argparse.Namespace) -> int:
    if args.per_trial and args.format != "json":
        raise ValueError("--per-trial needs --format json")
    results = run_trials(
        _closed_range("--k-min", args.k_min, "--k-max", args.k_max),
        _closed_range("--nsel-min", args.nsel_min, "--nsel-max", args.nsel_max),
        _at_least_one("--trials", args.trials),
        args.noisy,
        args.seed,
        flat_signal=args.flat_signal,
    )
    emit_report(results, args.format, args.out, include_trials=args.per_trial)
    return 0


def _cmd_ric(args: argparse.Namespace) -> int:
    matrix = load_matrix(args.matrix)
    est = exact_ric(matrix, args.order, budget=args.budget)
    print(json.dumps({"order": est.order, "value": est.value, "kind": est.kind.value}))
    return 0


def _verify_lemma4(count: int, seed: int) -> tuple[int, float, int]:
    """``lemma4_min_slack`` over ``count`` seeded lemma-4 instances."""
    rng = np.random.default_rng(seed)
    return lemma4_min_slack(random_lemma_instance(rng) for _ in range(count))


def _verify_traces(count: int, seed: int, noisy: bool, holds) -> int:
    """Count the seeded generated runs on which ``holds(inst, trace)`` fails."""
    rng = np.random.default_rng(seed)
    failed = 0
    for i in range(count):
        k = int(rng.integers(1, 6))
        nsel = int(rng.integers(1, 4))
        inst = gen_instance(k, nsel, noisy=noisy, seed=seed + i)
        trace = gomp_run(
            inst.matrix,
            inst.observation,
            GompParams(sparsity=k, n_select=nsel, epsilon=inst.epsilon),
        )
        if not holds(inst, trace):
            failed += 1
    return failed


def _cmd_verify(args: argparse.Namespace) -> int:
    _at_least_one("--instances", args.instances)
    detail = None
    if args.lemma == "4":
        failed, min_slack, argmin = _verify_lemma4(args.instances, args.seed)
        if argmin >= 0:
            detail = f"min slack (lhs - rhs) {min_slack!r} at instance {argmin}"
    elif args.lemma == "5":
        failed = _verify_traces(args.instances, args.seed, False, lambda inst, trace: (
            verify_stopping(inst.matrix, inst.signal, trace, noise=inst.noise)
        ))
    else:
        failed = _verify_traces(args.instances, args.seed, True, lambda inst, trace: (
            verify_selection_condition(inst.matrix, inst.signal, inst.noise, trace, inst.n_select)
        ))
    passed = args.instances - failed
    print(f"lemma {args.lemma}: {passed} passed, {failed} failed ({args.instances} instances)")
    if detail:
        print(f"lemma {args.lemma}: {detail}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gompkit",
        description="Greedy multi-index sparse recovery with isometry certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate one instance as JSON")
    gen.add_argument("--k", type=int, required=True, help="sparsity level")
    gen.add_argument("--n-select", type=int, required=True, help="indices picked per iteration")
    gen.add_argument("--noisy", action="store_true", help="add calibrated noise")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", default=None, help="destination path (default: stdout)")
    gen.set_defaults(func=_cmd_gen)

    run = sub.add_parser("run", help="run a seeded grid of recovery trials")
    run.add_argument("--k-min", type=int, required=True)
    run.add_argument("--k-max", type=int, required=True)
    run.add_argument("--nsel-min", type=int, required=True)
    run.add_argument("--nsel-max", type=int, required=True)
    run.add_argument("--trials", type=int, required=True)
    run.add_argument("--noisy", action="store_true")
    run.add_argument("--flat-signal", action="store_true", help="unit-magnitude nonzeros")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--per-trial", action="store_true", help="include per-trial detail (JSON only)")
    run.add_argument("--out", default=None, help="destination path (default: stdout)")
    run.set_defaults(func=_cmd_run)

    ric = sub.add_parser("ric", help="exact isometry constant by enumeration")
    ric.add_argument("--matrix", required=True, help="instance JSON or bare 2-d JSON array")
    ric.add_argument("--order", type=int, required=True)
    ric.add_argument("--budget", type=int, default=ENUMERATION_BUDGET)
    ric.set_defaults(func=_cmd_ric)

    ver = sub.add_parser("verify", help="batch-verify a recovery property")
    ver.add_argument("--lemma", choices=("4", "5", "selection"), required=True)
    ver.add_argument("--instances", type=int, required=True)
    ver.add_argument("--seed", type=int, required=True)
    ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GompkitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
