"""The error taxonomy: bad input raises the built-in ValueError (TypeError
for a non-integral count or index and for data that is not integers or
floats, IndexError for an index outside 1..n), and the only GompkitErrors
are the numerical refusals and the enumeration budget."""

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
    gomp_run,
    least_squares,
    mar,
    orthogonal_factor,
    project_complement,
    run_trials,
    select_top_n,
    snr_threshold,
    verify_selection_condition,
    verify_stopping,
)
from gompkit.greedy import gomp_stacked

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
ONE_NONZERO = SparseSignal(np.array([0.0, 3.0, 0.0]))
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
    # a Python bool, which operator.index takes as 0 or 1, is refused as numpy's is
    pytest.param(lambda: GompParams(True, 1, 0.0), id="GompParams-sparsity-bool"),
    pytest.param(lambda: GompParams(1, True, 0.0), id="GompParams-n_select-bool"),
    pytest.param(lambda: mar(ONE_NONZERO, True), id="mar-bool"),
    pytest.param(lambda: least_squares(np.eye(3), [True], np.ones(3)), id="least_squares-bool"),
    pytest.param(lambda: RicEstimate(True, 0.1, RicKind.ANALYTIC_DU), id="RicEstimate-order-bool"),
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


def test_params_store_the_counts_as_ints():
    params = GompParams(np.int64(2), np.uint8(1), np.float32(0.5))
    assert (type(params.sparsity), type(params.n_select), type(params.epsilon)) == (int, int, float)
    assert params == GompParams(2, 1, 0.5)


def complex_string_bool(value):
    """``value`` as complex (with an imaginary part), string and bool arrays:
    numpy's float cast takes each, the complex one with a ComplexWarning."""
    value = np.asarray(value, dtype=float)
    return {"complex": value + 1j, "string": value.astype(str), "bool": value.astype(bool)}


EYE, UNIT = np.eye(3), np.array([1.0, 0.0, 0.0])
# Each site of linops._real, fed data of each kind but integers and floats.
NON_REAL_SITES = {
    "SensingMatrix": (EYE, SensingMatrix),
    "as_vector": (UNIT, lambda y: gomp_run(EYE, y, GompParams(1, 1, 0.0))),
    "orthogonal_factor": (EYE, orthogonal_factor),
    "gomp_stacked-entries": (EYE[None], lambda a: gomp_stacked(a, UNIT[None], np.zeros(1), 1, 1)),
    "gomp_stacked-y": (UNIT[None], lambda y: gomp_stacked(EYE[None], y, np.zeros(1), 1, 1)),
    "gomp_stacked-eps": ([0.5], lambda eps: gomp_stacked(EYE[None], UNIT[None], eps, 1, 1)),
    "SparseSignal": (UNIT, SparseSignal),
    "du_ric_bound": (np.ones(3), du_ric_bound),
    "GompParams-epsilon": (0.5, lambda eps: GompParams(1, 1, eps)),
    "RicEstimate-value": (0.1, lambda value: RicEstimate(2, value, RicKind.ANALYTIC_DU)),
}
# a string epsilon raises TypeError without _real too, when compared with 0.0
ALWAYS_REFUSED = {("GompParams-epsilon", "string")}


@pytest.mark.parametrize("site,kind", [
    pytest.param(site, kind, id=f"{site}-{kind}")
    for site in NON_REAL_SITES for kind in ("complex", "string", "bool")
    if (site, kind) not in ALWAYS_REFUSED
])
def test_data_that_is_not_integers_or_floats_raises_type_error(site, kind):
    value, call = NON_REAL_SITES[site]
    with pytest.raises(TypeError, match=r" entries must be integers or floats, got "):
        call(complex_string_bool(value)[kind])


def test_motivating_complex_observation_raises_type_error():
    with pytest.raises(TypeError, match="^observation entries must be integers or floats, got complex128$"):
        gomp_run(np.eye(3), np.array([1j, 0, 0]), GompParams(1, 1, 0.0))


INF, NAN = float("inf"), float("nan")
# Every non-finite entry reads "<name> entries must be finite".
NON_FINITE_SITES = [
    pytest.param(lambda: SensingMatrix([[1.0, NAN]]), "matrix", id="SensingMatrix"),
    pytest.param(lambda: gomp_run(EYE, [INF, 0.0, 0.0], GompParams(1, 1, 0.0)), "observation",
                 id="as_vector"),
    pytest.param(lambda: orthogonal_factor([[1.0, 0.0], [0.0, -INF]]), "matrix",
                 id="orthogonal_factor"),
    pytest.param(lambda: gomp_stacked([[[NAN]]], [[1.0]], [0.0], 1, 1), "matrix",
                 id="gomp_stacked-entries"),
    pytest.param(lambda: gomp_stacked([[[1.0]]], [[INF]], [0.0], 1, 1), "observation",
                 id="gomp_stacked-y"),
    # an infinite epsilon once froze every row before its first iteration
    pytest.param(lambda: gomp_stacked([[[1.0]]], [[1.0]], [INF], 1, 1), "epsilon",
                 id="gomp_stacked-eps"),
    pytest.param(lambda: SparseSignal([0.0, NAN]), "signal", id="SparseSignal"),
    pytest.param(lambda: du_ric_bound([1.0, INF]), "diagonal", id="du_ric_bound"),
    # once a zero-iteration trace that read RESIDUAL_BELOW_EPSILON
    pytest.param(lambda: GompParams(2, 1, INF), "epsilon", id="GompParams-epsilon"),
    pytest.param(lambda: RicEstimate(2, NAN, RicKind.ANALYTIC_DU), "value", id="RicEstimate"),
]


@pytest.mark.parametrize("call,name", NON_FINITE_SITES)
def test_non_finite_entries_share_one_message(call, name):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == f"{name} entries must be finite"


def test_string_kind_cannot_bypass_the_order_check():
    estimate = RicEstimate(1, 0.1, "exact_enumeration")
    assert estimate.kind is RicKind.EXACT_ENUMERATION
    with pytest.raises(ValueError, match="^estimate of order 1 cannot certify order 3$"):
        check_recovery_condition(estimate, 1, 2)
    with pytest.raises(ValueError, match="'exact' is not a valid RicKind"):
        RicEstimate(1, 0.1, "exact")


@pytest.mark.parametrize("value", [-5.0, -1e-300])
def test_negative_constant_is_refused(value):
    with pytest.raises(ValueError, match=f"^value must be >= 0, got {value}$"):
        RicEstimate(3, value, RicKind.ANALYTIC_DU)


@pytest.mark.parametrize("norm", [NAN, -1.0])
def test_record_refuses_a_nan_or_negative_residual_norm(norm):
    with pytest.raises(ValueError, match="^residual_norm must be >= 0, got "):
        IterationRecord((1,), norm, np.zeros(3))
