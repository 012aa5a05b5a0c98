"""The benchmark's workloads still run against the package's public API.

One round of every workload in ``bench/workloads.py`` at the tiny scale,
scored and gated in process: a signature change that breaks a benchmark
call shows up here as a failed operation.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through sys.modules
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_round_scores_and_gates_clean(name):
    work = workloads.WORKLOADS[name](3, workloads.SCALES["tiny"])
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
