"""The error taxonomy: bad input raises the built-in ValueError (TypeError
for a non-integral count or index, IndexError for an index outside 1..n),
and the only GompkitErrors are the numerical refusals and the enumeration
budget."""

import json

import numpy as np
import pytest

import gompkit
from gompkit import (
    GompkitError,
    GompParams,
    IterationRecord,
    LemmaInstance,
    RecoveryTrace,
    RicEstimate,
    RicKind,
    SensingMatrix,
    SparseSignal,
    Termination,
    check_recovery_condition,
    cli,
    condition_threshold,
    du_ric_bound,
    exact_ric,
    gen_instance,
    least_squares,
    mar,
    project_complement,
    run_trials,
    select_top_n,
    snr_threshold,
    verify_selection_condition,
    verify_stopping,
)

# One raise site of each exception type the taxonomy folded into ValueError,
# with the message it has always raised.
FORMER_SITES = [
    pytest.param(lambda: GompParams(0, 1, 0.0), "sparsity must be >= 1, got 0",
                 id="InvalidParams"),
    pytest.param(lambda: select_top_n(np.array([1.0, 2.0]), 2, excluded={1}),
                 "need 2 candidates, only 1 remain", id="InsufficientCandidates"),
    pytest.param(lambda: least_squares(np.eye(3), {1}, np.ones(4)),
                 "observation has shape (4,), expected (3,)", id="DimensionMismatch"),
    pytest.param(lambda: exact_ric(np.eye(3), 0), "order must lie in 1..3, got 0",
                 id="DimensionError"),
    pytest.param(lambda: du_ric_bound(np.array([-1.0])),
                 "diagonal entries must be strictly positive", id="NonPositiveDiagonal"),
    pytest.param(lambda: check_recovery_condition(
                     RicEstimate(2, 0.1, RicKind.EXACT_ENUMERATION), 1, 2),
                 "estimate of order 2 cannot certify order 3", id="OrderMismatch"),
    pytest.param(lambda: snr_threshold(1, 1, 0.75, 1.0),
                 "delta = 0.75 >= 1/sqrt(K/N + 1) = 0.7071067811865475; threshold undefined",
                 id="ConditionViolated"),
    pytest.param(lambda: mar(SparseSignal(np.zeros(3)), 1),
                 "MAR is undefined for an all-zero signal", id="EmptySupport"),
    pytest.param(lambda: verify_stopping(
                     np.eye(2), SparseSignal(np.array([1.0, 0.0])),
                     RecoveryTrace([], np.zeros(2), Termination.MAX_ITERATIONS),
                     noise=np.array([0.1, 0.0])),
                 "stopping property applies to noise-free instances only", id="NotNoiseFree"),
]


@pytest.mark.parametrize("call,message", FORMER_SITES)
def test_bad_input_raises_plain_value_error(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message
    assert not isinstance(raised.value, GompkitError)
    exported = {name for name in gompkit.__all__
                if isinstance(getattr(gompkit, name), type)
                and issubclass(getattr(gompkit, name), BaseException)}
    assert exported == {"GompkitError", "RankDeficient", "BudgetExceeded"}


def test_cli_reports_bad_order_with_status_2(tmp_path, capsys):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(np.eye(3).tolist()))
    assert cli.main(["ric", "--matrix", str(path), "--order", "0"]) == 2
    assert capsys.readouterr() == ("", "error: order must lie in 1..3, got 0\n")


def test_cli_reports_bad_budget_with_status_2(tmp_path, capsys):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(np.eye(3).tolist()))
    assert cli.main(["ric", "--matrix", str(path), "--order", "2", "--budget", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: budget must be >= 1, got -1\n")


def lemma_instance(selected, competitors):
    """A LemmaInstance on eye(4) with support {1, 2}; {1} and {3} are admissible."""
    return LemmaInstance(SensingMatrix(np.eye(4)), SparseSignal(np.array([1.0, 1.0, 0.0, 0.0])),
                         frozenset(selected), frozenset(competitors))


EMPTY_TRACE = RecoveryTrace([], np.zeros(3), Termination.MAX_ITERATIONS)
TWO_NONZEROS = SparseSignal(np.array([1.0, 2.0, 0.0]))

# Sites that once truncated a non-integral count or index with int(), or
# compared it as it was, and went on with a plausible result.
NON_INTEGRAL_SITES = [
    pytest.param(lambda: GompParams(2.5, 1, 0.0), id="GompParams-sparsity"),
    pytest.param(lambda: GompParams(2, 1.5, 0.0), id="GompParams-n_select"),
    pytest.param(lambda: select_top_n(np.array([0.3, 0.1, 0.2]), 1, excluded={2.0}),
                 id="select_top_n-excluded"),
    pytest.param(lambda: least_squares(np.eye(3), [1.5], np.ones(3)), id="least_squares"),
    pytest.param(lambda: project_complement(np.eye(3), ["2"], np.ones(3)),
                 id="project_complement"),
    pytest.param(lambda: lemma_instance({"1"}, {3}), id="LemmaInstance-selected"),
    pytest.param(lambda: lemma_instance({1}, {3.5}), id="LemmaInstance-competitors"),
    pytest.param(lambda: IterationRecord((1.0,), 0.0, np.zeros(3)), id="IterationRecord"),
    pytest.param(lambda: run_trials([2.7], [1.9], 1, False, 0), id="run_trials"),
    pytest.param(lambda: condition_threshold(2.5, 1), id="condition_threshold"),
    pytest.param(lambda: snr_threshold(2, 1.5, 0.1, 1.0), id="snr_threshold"),
    pytest.param(lambda: mar(TWO_NONZEROS, 2.5), id="mar"),
    pytest.param(lambda: verify_selection_condition(
                     np.eye(3), TWO_NONZEROS, np.zeros(3), EMPTY_TRACE, 1.5),
                 id="verify_selection_condition"),
    pytest.param(lambda: exact_ric(np.eye(4), 2, budget=6.5), id="exact_ric-budget"),
    # once formed the order N K + 1 = 3.5 first and refused it as a ValueError
    pytest.param(lambda: check_recovery_condition(
                     RicEstimate(3, 0.1, RicKind.EXACT_ENUMERATION), 2.5, 1),
                 id="check_recovery_condition"),
]


@pytest.mark.parametrize("call", NON_INTEGRAL_SITES)
def test_non_integral_count_or_index_raises_type_error(call):
    with pytest.raises(TypeError, match="object cannot be interpreted as an integer$"):
        call()


# Every count refusal reads "<name> must be >= <low>, got <value>", and every
# index refusal "indices must lie in 1..n, got <min>..<max>".
RANGE_SITES = [
    pytest.param(lambda: condition_threshold(0, 1), ValueError,
                 "sparsity must be >= 1, got 0", id="condition_threshold-sparsity"),
    pytest.param(lambda: snr_threshold(1, 0, 0.1, 1.0), ValueError,
                 "n_select must be >= 1, got 0", id="snr_threshold-n_select"),
    pytest.param(lambda: gen_instance(2, 0, False, 0), ValueError,
                 "n_select must be >= 1, got 0", id="gen_instance-n_select"),
    pytest.param(lambda: mar(TWO_NONZEROS, 1), ValueError,
                 "sparsity must be >= 2, got 1", id="mar-below-support-size"),
    pytest.param(lambda: run_trials([2], [1], -1, False, 0), ValueError,
                 "trials_per_cell must be >= 0, got -1", id="run_trials-trials"),
    # a bad cell is refused even when no trial would run
    pytest.param(lambda: run_trials([0], [1], 0, False, 0), ValueError,
                 "sparsity must be >= 1, got 0", id="run_trials-zero-trials"),
    pytest.param(lambda: lemma_instance({1}, {5}), IndexError,
                 "indices must lie in 1..4, got 5..5", id="LemmaInstance"),
    pytest.param(lambda: IterationRecord((4, 1), 0.0, np.zeros(3)), IndexError,
                 "indices must lie in 1..3, got 1..4", id="IterationRecord"),
    # once refused as BudgetExceeded, a numerical refusal, for bad input
    pytest.param(lambda: exact_ric(np.eye(4), 2, budget=-1), ValueError,
                 "budget must be >= 1, got -1", id="exact_ric-budget"),
]


@pytest.mark.parametrize("call,error,message", RANGE_SITES)
def test_counts_and_indices_out_of_range_share_one_message(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message
