"""The error taxonomy: bad input raises the built-in ValueError, and the
only GompkitErrors are the numerical refusals and the enumeration budget."""

import json

import numpy as np
import pytest

import gompkit
from gompkit import (
    GompkitError,
    GompParams,
    RecoveryTrace,
    RicEstimate,
    RicKind,
    SparseSignal,
    Termination,
    check_recovery_condition,
    cli,
    du_ric_bound,
    exact_ric,
    least_squares,
    mar,
    select_top_n,
    snr_threshold,
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
    assert exported == {"GompkitError", "RankDeficient", "Singular", "BudgetExceeded"}


def test_cli_reports_bad_order_with_status_2(tmp_path, capsys):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(np.eye(3).tolist()))
    assert cli.main(["ric", "--matrix", str(path), "--order", "0"]) == 2
    assert capsys.readouterr() == ("", "error: order must lie in 1..3, got 0\n")
