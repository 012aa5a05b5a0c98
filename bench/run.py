"""gompkit benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload grid-noisy --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py, BENCHMARK.json and METRICS.md): grid-noisy,
certify and ric-oracle.  Each run builds the workload's inputs from
--seed, repeats rounds of identical work items for --seconds in one
process, timing each item, scores every item, then runs the correctness
gates.  Any failed item or gate
counts as a failed operation; the run goes on.

Output: a detail line (environment record, round times, failure causes),
then as the last line
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are BENCHMARK.json's end-to-end metrics,
measured untraced.  With --trace 1 they are its per-layer metrics: the
run alternates untraced and traced rounds for --seconds, reports the
traced rounds' split by layer and the tracing overhead (traced minus
untraced), and writes the spans to .bench_out/spans-<workload>.jsonl.

--scale tiny shrinks every round, for the self-test (selftest.py).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 7
THREAD_VARS = ("GOMP_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("grid-noisy", "certify", "ric-oracle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        return lines[1]
    return None


def environment(thread_vars: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "thread_env": thread_vars,
    }


def time_setup(args) -> float:
    """Wall time of a fresh process that imports numpy and gompkit, warms up
    BLAS and builds the workload's inputs."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]
    t0 = perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def summary(times: list[float]) -> dict:
    """Count, median and quartiles of a list of times."""
    q = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return {"n": len(times), "q1": q[0], "median": q[1], "q3": q[2]}


def one_round(work, workloads, tracer=None) -> tuple[list[float], object]:
    """Run one round, traced when a ``tracer`` is given; return its
    per-item times and its score."""
    if tracer is None:
        outcomes, times = workloads.run_round(work.items)
    else:
        with tracer.installed():
            outcomes, times = workloads.run_round(work.items, tracer.mark)
    return times, work.score(outcomes)


def fastest(rounds: list[list[float]], keep=lambda i: True) -> float:
    """Sum over work items (the i with ``keep(i)``) of each item's fastest
    time across rounds.

    Contention from other tenants of a shared host comes in bursts; an
    item's fastest repeat estimates its uncontended time far more steadily
    than any whole-round statistic (see METRICS.md).
    """
    return sum(min(times) for i, times in enumerate(zip(*rounds)) if keep(i))


def end_to_end(work, args, workloads) -> tuple[dict, object, dict]:
    first, _ = workloads.run_round(work.items)
    total = work.score(first)
    rounds, setups = [], []
    start = perf_counter()
    # Set-ups are spread evenly over the run, so their median samples the
    # host's speed over the whole run, as the rounds do.
    setup_at = [start + i * args.seconds / SETUP_REPS for i in range(SETUP_REPS)]
    while len(rounds) < 3 or perf_counter() < start + args.seconds:
        while setup_at and perf_counter() >= setup_at[0]:
            setup_at.pop(0)
            setups.append(time_setup(args))
        times, score = one_round(work, workloads)
        rounds.append(times)
        total.add(score)
    setups += [time_setup(args) for _ in setup_at]
    total.add(work.gate(first))
    values = {
        "items_per_s": work.items_per_round / fastest(rounds),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (total.attempted - total.failed) / total.attempted,
    }
    detail = {"round_s": summary([sum(r) for r in rounds]), "fastest_round_s": fastest(rounds),
              "setup_runs_s": setups}
    return values, total, detail


def per_layer(work, args, workloads) -> tuple[dict, object, dict]:
    from tracing import TRACED, Tracer, fastest_over

    first, _ = workloads.run_round(work.items)
    total = work.score(first)
    # Untraced and traced rounds alternate, so drift in the host's speed
    # falls on both alike and their difference is the tracing overhead.
    tracer = Tracer()
    plain_rounds, traced_rounds, traced_scores = [], [], []
    end = perf_counter() + args.seconds
    while len(traced_rounds) < 2 or perf_counter() < end:
        times, score = one_round(work, workloads)
        plain_rounds.append(times)
        total.add(score)
        tracer.round = len(traced_rounds)
        times, score = one_round(work, workloads, tracer)
        traced_rounds.append(times)
        traced_scores.append(score)
        total.add(score)
    gates = work.gate(first)
    total.add(gates)

    rounds = tracer.per_round()
    # Counts of identical rounds must repeat exactly.
    signature = [
        (rounds[r]["calls"], tracer.counts[r], traced_scores[r].counts, traced_scores[r].failures)
        for r in range(len(traced_rounds))
    ]
    repeat = workloads.Score()
    repeat.check(all(sig == signature[0] for sig in signature), "counts_not_repeatable")
    total.add(repeat)

    values = {}
    for name in TRACED:
        values[f"{name}.calls"] = rounds[0]["calls"][name]
        values[f"{name}.busy_s"] = fastest_over(rounds, "busy_s", name)
        values[f"{name}.self_s"] = fastest_over(rounds, "self_s", name)
    cell_s = tracer.item_durations("harness.run_trials")
    for k in workloads.GRID_K:
        for n in workloads.GRID_N:
            durations = cell_s.get(f"cell_K{k}_N{n}")
            values[f"harness.run_trials.cell_K{k}_N{n}.ms_per_trial"] = (
                1e3 * min(durations) / work.trials if durations else 0.0
            )
    counts = tracer.counts[0]
    for key in ("greedy.iterations", "greedy.picks", "rip.exact_ric.supports", "rip.exact_ric.chunk_bytes"):
        values[key] = counts[key]
    values["greedy.correct_pick_ratio"] = (
        counts["greedy.correct_picks"] / counts["greedy.picks"] if counts["greedy.picks"] else 0.0
    )
    ric_busy = values["rip.exact_ric.busy_s"]
    values["rip.exact_ric.supports_per_s"] = counts["rip.exact_ric.supports"] / ric_busy if ric_busy else 0.0
    for check in ("lemma4", "selection"):
        done = traced_scores[0].counts[f"verify.{check}_instances"]
        values[f"verify.{check}_instances"] = done
        values[f"verify.{check}_instances_per_s"] = (
            done / fastest(plain_rounds, lambda i: work.items[i][0].startswith(check + "_"))
            if done else 0.0
        )
    errors = traced_scores[0].failures + gates.failures + repeat.failures
    for kind in workloads.FAILURE_KINDS:
        values[f"errors.{kind}"] = errors[kind]
    values["trace.overhead_frac"] = fastest(traced_rounds) / fastest(plain_rounds) - 1.0

    spans_file = OUT_DIR / f"spans-{args.workload}.jsonl"
    tracer.write(spans_file, seed=args.seed)
    detail = {"round_s": summary([sum(r) for r in plain_rounds]),
              "traced_round_s": summary([sum(r) for r in traced_rounds]),
              "spans": len(tracer), "spans_file": str(spans_file.relative_to(ROOT))}
    return values, total, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    thread_vars = {v: os.environ.get(v) for v in THREAD_VARS}
    # The harness's thread pool more than doubles the grid's time; a stray
    # GOMP_THREADS would read as a regression, so every run goes without it.
    os.environ.pop("GOMP_THREADS", None)
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import gompkit from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    workloads.warm_blas()
    work = workloads.WORKLOADS[args.workload](args.seed, workloads.SCALES[args.scale])
    measure_fn, kind = (per_layer, "per_layer") if args.trace else (end_to_end, "end_to_end")
    values, total, detail = measure_fn(work, args, workloads)

    metrics = {}
    for m in spec[kind]:
        value = float(values[m["name"]])
        if not math.isfinite(value):
            raise ValueError(f"metric {m['name']} is not finite: {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "env": environment(thread_vars),
        "items_per_round": work.items_per_round, "item_unit": work.item_unit,
        "failures": dict(total.failures), "failure_causes": dict(total.causes), **detail,
    }))
    print(json.dumps({
        "correct": total.failed == 0, "attempted": total.attempted,
        "failed": total.failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
