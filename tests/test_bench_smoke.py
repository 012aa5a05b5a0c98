"""The benchmark's workloads still run against the package's public API.

One round of every workload in ``bench/workloads.py`` at the tiny scale,
scored and gated in process, once plain and once under
``bench/tracing.py``'s tracer, whose hooks read traces and instances: a
signature or attribute change that breaks a benchmark call shows up here
as a failed operation.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location("bench_" + name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through sys.modules
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracing = _load("tracing")


@pytest.mark.parametrize("name,traced", [
    pytest.param(name, traced, id=f"{name}-traced" if traced else name)
    for name in sorted(workloads.WORKLOADS) for traced in (False, True)
])
def test_tiny_round_scores_and_gates_clean(name, traced):
    work = workloads.WORKLOADS[name](3, workloads.SCALES["tiny"])
    if traced:
        tracer = tracing.Tracer()
        with tracer.installed():
            outcomes, _ = workloads.run_round(work.items, tracer.mark)
        assert len(tracer) > 0
    else:
        outcomes, _ = workloads.run_round(work.items)
    score = work.score(outcomes)
    score.add(work.gate(outcomes))
    assert score.attempted > 0
    assert score.failed == 0, (dict(score.failures), dict(score.causes))


def test_full_certify_round_scores_and_gates_clean():
    # Score.verdict counts a pass only for ``outcome is True``, so this
    # also catches a truthy non-bool verdict or a flip at full scale.
    work = workloads.WORKLOADS["certify"](3, workloads.SCALES["full"])
    outcomes, _ = workloads.run_round(work.items)
    score = work.score(outcomes)
    score.add(work.gate(outcomes))
    assert score.attempted == len(work.items) == 1_600
    assert score.failed == 0, (dict(score.failures), dict(score.causes))
    assert score.counts["verify.lemma4_instances"] == score.counts["verify.selection_instances"] == 800
