import json
import math
import random
import subprocess
import sys

import numpy as np
import pytest

from gompkit import (
    CellResult,
    GompkitError,
    GompParams,
    Instance,
    RicEstimate,
    RicKind,
    SensingMatrix,
    SparseSignal,
    check_recovery_condition,
    du_ric_bound,
    emit_report,
    exact_ric,
    gen_instance,
    gomp_run,
    mar,
    orthogonal_factor,
    run_trial,
    run_trials,
    snr,
    snr_threshold,
    write_instance,
)
from gompkit import cli, harness, linops
from gompkit.harness import TrialReport, instance_payload, load_matrix, report_payload, report_rows
from gompkit.verify import lemma4_sides, random_lemma_instance


class TestGenInstance:
    def test_square_shape_rule(self):
        for k, nsel in [(2, 1), (2, 2), (3, 2), (4, 3)]:
            inst = gen_instance(k, nsel, noisy=False, seed=1)
            assert inst.matrix.n == nsel * k + 1
            assert inst.matrix.m == inst.matrix.n
            assert len(inst.signal.support) == k
            assert (inst.sparsity, inst.n_select) == (k, nsel)

    @pytest.mark.parametrize("values", [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    def test_instance_refuses_shape_off_the_rule(self, values):
        # n = 4 gives n - 1 = 3, which K = 2 does not divide; K = 0 has no N
        with pytest.raises(ValueError):
            Instance(
                matrix=SensingMatrix(np.eye(4)),
                signal=SparseSignal(np.array(values)),
                noise=np.zeros(4),
                observation=np.array(values),
                epsilon=0.0,
                seed=0,
                claimed_delta=RicEstimate(4, 0.0, RicKind.ANALYTIC_DU),
            )

    def test_diagonal_within_interval(self):
        inst = gen_instance(2, 2, noisy=False, seed=5)
        bound = 0.99 / math.sqrt(2.0)
        # rows of the product keep the diagonal entries as their norms
        d = np.linalg.norm(inst.matrix.entries, axis=1)
        assert np.all(d >= math.sqrt(1.0 - bound) - 1e-12)
        assert np.all(d <= math.sqrt(1.0 + bound) + 1e-12)
        assert inst.claimed_delta.value <= bound + 1e-12
        assert inst.claimed_delta.value < 1.0 / math.sqrt(2.0)

    def test_claimed_constant_certifies_recovery(self):
        for seed in range(5):
            inst = gen_instance(3, 2, noisy=False, seed=seed)
            assert check_recovery_condition(inst.claimed_delta, 3, 2)

    def test_claimed_constant_dominates_enumeration(self):
        for seed in range(5):
            inst = gen_instance(2, 2, noisy=False, seed=40 + seed)
            order = min(inst.matrix.n, 2 * 2 + 1)
            assert exact_ric(inst.matrix, order).value <= inst.claimed_delta.value + 1e-9

    def test_noise_free_mode(self):
        inst = gen_instance(3, 1, noisy=False, seed=9)
        assert np.all(inst.noise == 0.0)
        assert snr(inst.matrix, inst.signal, inst.noise) == math.inf
        clean = inst.matrix.entries @ inst.signal.values
        assert inst.epsilon == 1e-10 * np.linalg.norm(clean)

    def test_observation_recomputable(self):
        for seed in range(5):
            inst = gen_instance(3, 2, noisy=True, seed=70 + seed)
            recomputed = inst.matrix.entries @ inst.signal.values + inst.noise
            err = np.linalg.norm(recomputed - inst.observation)
            assert err <= 1e-12 * np.linalg.norm(inst.observation)

    def test_noisy_calibration(self):
        # ||v|| = min(||A x|| / target, cap): the target puts sqrt(SNR) 0.01 above
        # the threshold, and the cap sqrt(1 - delta) min|x_i| / (2 (1 + 0.01))
        # keeps ||r|| above epsilon = ||v|| while a support index is missing
        cases = [(4, 2, seed, False) for seed in range(100, 105)] + [(2, 1, 700158, True)]
        for k, nsel, seed, capped in cases:
            inst = gen_instance(k, nsel, noisy=True, seed=seed)
            noise_norm = np.linalg.norm(inst.noise)
            assert inst.epsilon == noise_norm
            delta = inst.claimed_delta.value
            target = 0.01 + snr_threshold(k, nsel, delta, mar(inst.signal, k))
            calibrated = np.linalg.norm(inst.matrix.entries @ inst.signal.values) / target
            nonzeros = inst.signal.values[inst.signal.values != 0.0]
            cap = math.sqrt(1.0 - delta) * np.min(np.abs(nonzeros)) / (2.0 * (1.0 + 0.01))
            assert (cap < calibrated) == capped
            assert abs(noise_norm - min(calibrated, cap)) <= 1e-12 * min(calibrated, cap)
            achieved = math.sqrt(snr(inst.matrix, inst.signal, inst.noise))
            if capped:
                assert achieved > target
            else:
                assert abs(achieved - target) <= 1e-9

    def test_same_seed_bit_identical(self):
        a = gen_instance(3, 2, noisy=True, seed=777)
        b = gen_instance(3, 2, noisy=True, seed=777)
        assert np.array_equal(a.matrix.entries, b.matrix.entries)
        assert np.array_equal(a.signal.values, b.signal.values)
        assert np.array_equal(a.noise, b.noise)
        assert np.array_equal(a.observation, b.observation)
        assert a.epsilon == b.epsilon
        assert a.claimed_delta == b.claimed_delta

    @pytest.mark.parametrize("k,nsel", [(1, 1), (3, 2), (8, 4)])
    def test_matrix_follows_documented_draw_order(self, k, nsel):
        # uniform diagonal, then the standard-normal source of the orthogonal factor
        n = nsel * k + 1
        rng = np.random.default_rng(17)
        bound = 0.99 / math.sqrt(k / nsel + 1.0)
        d = rng.uniform(math.sqrt(1.0 - bound), math.sqrt(1.0 + bound), size=n)
        u = orthogonal_factor(rng.standard_normal((n, n)))
        inst = gen_instance(k, nsel, noisy=True, seed=17)
        assert (d[:, None] * u).tobytes() == inst.matrix.entries.tobytes()
        assert du_ric_bound(d) == inst.claimed_delta

    def test_flat_signal_pins_mar(self):
        inst = gen_instance(4, 2, noisy=False, seed=31, flat_signal=True)
        nz = inst.signal.values[np.array(sorted(inst.signal.support)) - 1]
        assert set(np.abs(nz)) == {1.0}
        assert mar(inst.signal, 4) == 1.0


class TestSeeding:
    """A pass's generators are ``np.random.default_rng(seed)``'s, bit for bit."""

    @staticmethod
    def assert_default_states(seeds):
        got = [rng.bit_generator.state for rng in harness._generators(seeds)]
        assert got == [np.random.default_rng(seed).bit_generator.state for seed in seeds]

    def test_edge_seeds(self):
        self.assert_default_states([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**100])

    def test_numpy_integer_seeds(self):
        self.assert_default_states([np.int64(5), np.uint64(2**64 - 1), np.int64(2**62), 9])

    def test_random_seeds(self):
        draw = random.Random(24)
        self.assert_default_states([draw.getrandbits(draw.randint(8, 100)) for _ in range(2000)])

    @pytest.mark.parametrize("noisy,flat", [(True, False), (False, True)])
    def test_row_does_not_depend_on_its_position(self, noisy, flat):
        seed = 9_000_000
        alone = harness._stacked_instances(3, 2, noisy, [seed], flat)
        for position in (0, 63, 127):
            seeds = list(range(seed - position, seed - position + 128))
            stacked = harness._stacked_instances(3, 2, noisy, seeds, flat)
            for one, many in zip(alone, stacked):
                assert one[0].tobytes() == many[position].tobytes()

    @pytest.mark.parametrize("seed", [-1, 2.5, -(2**70)])
    def test_bad_seeds_raise_as_default_rng_does(self, seed):
        with pytest.raises(Exception) as expected:
            np.random.default_rng(seed)
        with pytest.raises(type(expected.value)) as raised:
            harness._generators([3, seed])
        assert str(raised.value) == str(expected.value)

    def test_check_refuses_another_hash(self, monkeypatch):
        harness._check_seeding()
        constants = harness._HASH_CONSTANTS.copy()
        constants[5] ^= 1
        monkeypatch.setattr(harness, "_HASH_CONSTANTS", constants)
        with pytest.raises(RuntimeError, match="seeds PCG64 differently"):
            harness._check_seeding()


@pytest.mark.filterwarnings("error")
def test_noisy_reads_noise_whose_square_sum_overflows():
    # the noise-free test once took a 2-norm, which warned on this noise
    inst = gen_instance(2, 1, True, 5)
    for noise, noisy in [(np.array([3e155, 0.0, 4e155]), True), (np.zeros(3), False)]:
        assert Instance(inst.matrix, inst.signal, noise, inst.observation, inst.epsilon,
                        inst.seed, inst.claimed_delta).noisy is noisy


def scalar_trial(k, nsel, noisy, seed, flat=False):
    """The trial of one seed through the traced scalar path: ``gen_instance``
    and ``gomp_run``, scored as acceptance criteria 1 and 2 score, with a
    raised error reported as ``run_trial`` reports it."""
    try:
        inst = gen_instance(k, nsel, noisy, seed, flat_signal=flat)
        trace = gomp_run(inst.matrix, inst.observation, GompParams(k, nsel, inst.epsilon))
    except (GompkitError, np.linalg.LinAlgError) as exc:
        return TrialReport(seed, False, False, 0, math.nan, f"{type(exc).__name__}: {exc}")
    x = inst.signal.values
    exact = np.max(np.abs(trace.final_estimate - x)) <= 1e-8 * np.max(np.abs(x))
    residual = trace.final_residual_norm if trace.iterations else float(np.linalg.norm(inst.observation))
    return TrialReport(seed, bool(exact), inst.signal.support <= trace.final_support,
                       trace.iterations_used, residual)


class TestRunTrials:
    def test_zero_trials_is_empty(self):
        assert run_trials([2, 3], [1, 2], 0, noisy=False, base_seed=0) == []

    def test_cell_refuses_empty_reports(self):
        with pytest.raises(ValueError):
            CellResult(2, 1, False, ())

    def test_cell_aggregates_its_reports(self):
        reports = (TrialReport(1, True, True, 2, 0.5), TrialReport(2, False, True, 4, 1.5),
                   TrialReport(3, False, False, 0, math.nan, "Singular: x"))
        cell = CellResult(2, 1, True, reports)
        assert (cell.trials, cell.exact_rate, cell.support_rate) == (3, 1 / 3, 2 / 3)
        assert (cell.mean_iterations, cell.mean_final_residual) == (3.0, 1.0)

    def test_small_noise_free_grid_recovers(self):
        results = run_trials(range(2, 4), range(1, 3), 10, noisy=False, base_seed=50)
        assert len(results) == 4
        for cell in results:
            assert cell.exact_rate == 1.0
            assert cell.support_rate == 1.0
            assert cell.mean_iterations <= cell.sparsity
            assert all(r.error is None for r in cell.reports)

    def test_small_noisy_grid_finds_support(self):
        results = run_trials([2, 3], [2], 10, noisy=True, base_seed=60)
        for cell in results:
            assert cell.support_rate == 1.0

    def test_exact_implies_support(self):
        results = run_trials([2, 3, 4], [1, 2], 8, noisy=True, base_seed=70)
        for cell in results:
            for r in cell.reports:
                assert (not r.exact_recovery) or r.support_recovery

    def test_cells_ordered_and_seeded(self):
        results = run_trials([3, 2], [2, 1], 3, noisy=False, base_seed=11)
        assert [(c.sparsity, c.n_select) for c in results] == [(2, 1), (2, 2), (3, 1), (3, 2)]
        for cell in results:
            assert [r.instance_seed for r in cell.reports] == [11, 12, 13]

    def test_cells_are_seeded_single_trials(self):
        results = run_trials([2, 3], [1, 2], 4, True, 90)
        for cell in results:
            expected = tuple(scalar_trial(cell.sparsity, cell.n_select, True, 90 + t) for t in range(4))
            assert cell.reports == expected
            assert tuple(run_trial(cell.sparsity, cell.n_select, True, 90 + t) for t in range(4)) == expected

    @pytest.mark.parametrize("k,nsel,noisy,flat", [
        (8, 4, True, False), (8, 4, False, False), (2, 1, True, False), (2, 1, False, False),
        (3, 2, False, True), (5, 3, True, True),
    ])
    def test_stacked_cell_matches_scalar_trials(self, k, nsel, noisy, flat):
        [cell] = run_trials([k], [nsel], 10, noisy, 400, flat_signal=flat)
        assert cell.reports == tuple(scalar_trial(k, nsel, noisy, 400 + t, flat) for t in range(10))

    def test_rows_stopping_at_different_iterations_match(self):
        [cell] = run_trials([6], [2], 12, True, 31)
        assert len({r.iterations_used for r in cell.reports}) > 1
        assert cell.reports == tuple(scalar_trial(6, 2, True, 31 + t) for t in range(12))

    def test_passes_split_at_stack_rows(self, monkeypatch):
        monkeypatch.setattr(harness, "STACK_ROWS", 3)
        [cell] = run_trials([4], [3], 7, True, 12)
        assert cell.reports == tuple(scalar_trial(4, 3, True, 12 + t) for t in range(7))

    @pytest.mark.parametrize("k,nsel,noisy,flat", [(1, 1, True, False), (2, 1, False, True),
                                                   (5, 2, True, True), (8, 4, True, False),
                                                   (8, 4, False, False)])
    def test_stacked_instances_match_gen_instance_bits(self, k, nsel, noisy, flat):
        # batch independence: row t of a 6-seed call is the one-seed call on seed t
        seeds = range(70, 76)
        entries, values, noise, observation, epsilon, delta = (
            harness._stacked_instances(k, nsel, noisy, seeds, flat)
        )
        for t, seed in enumerate(seeds):
            inst = gen_instance(k, nsel, noisy, seed, flat_signal=flat)
            assert entries[t].tobytes() == inst.matrix.entries.tobytes()
            assert values[t].tobytes() == inst.signal.values.tobytes()
            assert noise[t].tobytes() == inst.noise.tobytes()
            assert observation[t].tobytes() == inst.observation.tobytes()
            assert epsilon[t] == inst.epsilon
            assert inst.claimed_delta == RicEstimate(nsel * k + 1, delta[t], RicKind.ANALYTIC_DU)
            assert len(inst.signal.support) == k

    def test_linalg_error_is_recorded_not_raised(self, monkeypatch):
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(harness, "gomp_stacked", broken)
        [cell] = run_trials([2], [1], 3, False, 5)
        assert all(r.error.startswith("LinAlgError") for r in cell.reports)
        assert cell.exact_rate == cell.support_rate == 0.0
        assert math.isnan(cell.mean_iterations)
        assert report_payload([cell])["cells"][0]["errors"] == {"LinAlgError": 3}

    def test_failed_stacked_pass_is_redone_per_seed(self, monkeypatch):
        original, rows = harness.gomp_stacked, []

        def broken_on_stacks(entries, *args):
            rows.append(len(entries))
            if len(entries) > 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return original(entries, *args)

        monkeypatch.setattr(harness, "gomp_stacked", broken_on_stacks)
        [cell] = run_trials([3], [2], 5, True, 44)
        assert rows == [5, 1, 1, 1, 1, 1]
        assert cell.reports == tuple(scalar_trial(3, 2, True, 44 + t) for t in range(5))
        assert all(r.error is None for r in cell.reports)

    def test_failed_refits_report_the_scalar_error(self, monkeypatch):
        # every refit of more than one column fails once the instances exist
        generate = harness._stacked_instances

        def then_strict(*args):
            monkeypatch.setattr(linops, "RANK_RTOL", 1e-10)
            instances = generate(*args)
            monkeypatch.setattr(linops, "RANK_RTOL", 0.999)
            return instances

        monkeypatch.setattr(harness, "_stacked_instances", then_strict)
        for k, nsel, noisy in [(3, 1, True), (4, 2, False)]:
            [cell] = run_trials([k], [nsel], 4, noisy, 8)
            assert all(r.error.startswith("RankDeficient: iteration ") for r in cell.reports)
            expected = [scalar_trial(k, nsel, noisy, 8 + t) for t in range(4)]
            assert list(map(repr, cell.reports)) == list(map(repr, expected))  # nan != nan


@pytest.mark.parametrize("seed", [700158, 700682])
def test_noisy_trial_does_not_stop_early(seed):
    # K = 2, N = 1: without the noise cap, both stop after one iteration at
    # ||r|| <= ||v||, missing one index
    report = run_trial(2, 1, True, seed)
    assert report.error is None
    assert report.support_recovery


@pytest.mark.parametrize("bench_seed", [10, 44, 51, 67, 74, 140, 273, 296])
def test_benchmark_noisy_cell_recovers_every_support(bench_seed):
    # The K = 2, N = 1 cell of bench/run.py --workload grid-noisy --seed bench_seed
    # (base seed bench_seed * 100,000, 50 trials); each held one early stop
    # before the noise cap
    [cell] = run_trials([2], [1], 50, True, bench_seed * 100_000)
    assert cell.support_rate == 1.0


class TestEmitReport:
    def test_empty_csv_is_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        emit_report([], "csv", out)
        assert out.read_text() == "K,N,noisy,trials,exact_rate,support_rate,mean_iterations,mean_final_residual\n"

    def test_single_cell_row(self):
        results = run_trials([2], [1], 5, noisy=False, base_seed=3)
        rows = report_rows(results)
        assert len(rows) == 2
        fields = rows[1].split(",")
        assert fields[0] == "2" and fields[1] == "1" and fields[2] == "false" and fields[3] == "5"
        assert 0.0 <= float(fields[4]) <= 1.0
        assert 0.0 <= float(fields[5]) <= 1.0
        # 12 significant digits on the float columns
        assert fields[7] == format(results[0].mean_final_residual, ".12g")

    def test_json_round_trip_identity(self, tmp_path):
        results = run_trials([2, 3], [1], 4, noisy=True, base_seed=21)
        out = tmp_path / "report.json"
        emit_report(results, "json", out, include_trials=True)
        doc = json.loads(out.read_text())
        assert doc == report_payload(results, include_trials=True)
        assert [cell["errors"] for cell in doc["cells"]] == [{}, {}]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report([], "xml", None)

    def test_unwritable_destination_raises(self, tmp_path):
        with pytest.raises(IOError):
            emit_report([], "csv", tmp_path / "missing-dir" / "x.csv")


class TestInstanceFiles:
    @pytest.mark.parametrize("k,nsel,noisy", [(1, 1, False), (3, 2, True), (5, 3, False), (8, 4, True)])
    def test_floats_round_trip_exactly(self, tmp_path, k, nsel, noisy):
        inst = gen_instance(k, nsel, noisy=noisy, seed=13)
        path = tmp_path / "instance.json"
        write_instance(inst, path)
        doc = json.loads(path.read_text())
        n = nsel * k + 1
        assert doc["k"] == k and doc["n_select"] == nsel and doc["noisy"] is noisy
        assert doc["m"] == doc["n"] == n
        for field, array in [("matrix", inst.matrix.entries), ("signal", inst.signal.values),
                             ("noise", inst.noise), ("observation", inst.observation)]:
            parsed = np.array(doc[field], dtype=float)
            assert parsed.shape == array.shape
            assert parsed.tobytes() == array.tobytes(), field
        assert doc["support"] == sorted(inst.signal.support)
        assert doc["epsilon"] == inst.epsilon
        assert doc["claimed_delta"]["value"] == inst.claimed_delta.value

    def test_load_matrix_accepts_instance_and_bare_array(self, tmp_path):
        inst = gen_instance(2, 1, noisy=False, seed=8)
        path = tmp_path / "instance.json"
        write_instance(inst, path)
        assert np.array_equal(load_matrix(path), inst.matrix.entries)

        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps([[1.0, 0.5], [0.0, 1.0]]))
        assert np.array_equal(load_matrix(bare), [[1.0, 0.5], [0.0, 1.0]])

    def test_load_matrix_rejects_bad_documents(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rows": []}))
        with pytest.raises(ValueError):
            load_matrix(bad)

    def test_payload_schema_keys(self):
        payload = instance_payload(gen_instance(2, 1, noisy=False, seed=1))
        assert list(payload) == [
            "k", "n_select", "m", "n", "noisy", "seed", "epsilon",
            "claimed_delta", "matrix", "signal", "support", "noise", "observation",
        ]


def run_cli(*args):
    """``python -m gompkit`` in a fresh process."""
    return subprocess.run(
        [sys.executable, "-m", "gompkit", *args], capture_output=True, text=True
    )


def call_cli(capsys, *args):
    """``cli.main`` in this process: (exit status, captured stdout)."""
    status = cli.main(list(args))
    return status, capsys.readouterr().out


class TestCli:
    def test_gen_to_stdout(self):
        proc = run_cli("gen", "--k", "2", "--n-select", "2", "--seed", "4")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["k"] == 2 and doc["noisy"] is False
        assert len(doc["matrix"]) == 5

    def test_gen_matches_library(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        status, _ = call_cli(capsys, "gen", "--k", "3", "--n-select", "1", "--noisy", "--seed", "99",
                             "--out", str(path))
        assert status == 0
        doc = json.loads(path.read_text())
        inst = gen_instance(3, 1, noisy=True, seed=99)
        assert np.array_equal(np.array(doc["matrix"]), inst.matrix.entries)

    @pytest.mark.parametrize("k,nsel,seed", [("0", "1", "1"), ("1", "0", "1"), ("1", "1", "-1")])
    def test_gen_rejects_bad_parameters(self, k, nsel, seed, capsys):
        # the library raises ValueError and the CLI reports it with status 2
        with pytest.raises(ValueError) as raised:
            gen_instance(int(k), int(nsel), False, int(seed))
        assert cli.main(["gen", "--k", k, "--n-select", nsel, "--seed", seed]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"error: {raised.value}"]

    def test_ric_on_generated_file(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        call_cli(capsys, "gen", "--k", "2", "--n-select", "1", "--seed", "6", "--out", str(path))
        status, out = call_cli(capsys, "ric", "--matrix", str(path), "--order", "2")
        assert status == 0
        doc = json.loads(out)
        inst = gen_instance(2, 1, noisy=False, seed=6)
        assert doc["order"] == 2
        assert doc["kind"] == "exact_enumeration"
        assert abs(doc["value"] - exact_ric(inst.matrix, 2).value) <= 1e-15

    def test_ric_budget_failure_is_loud(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        call_cli(capsys, "gen", "--k", "4", "--n-select", "3", "--seed", "6", "--out", str(path))
        status, _ = call_cli(capsys, "ric", "--matrix", str(path), "--order", "6", "--budget", "2")
        assert status != 0

    def test_ric_rejects_non_numeric_matrix(self, tmp_path, capsys):
        path = tmp_path / "matrix.json"
        path.write_text("[[{}, 1], [0, 1]]")
        assert cli.main(["ric", "--matrix", str(path), "--order", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {path}: float() argument must be")

    def test_run_csv_deterministic(self):
        args = ("run", "--k-min", "2", "--k-max", "3", "--nsel-min", "1", "--nsel-max", "2",
                "--trials", "5", "--seed", "17", "--format", "csv")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.splitlines()[0].startswith("K,N,noisy")

    def test_run_json_parses(self, capsys):
        status, out = call_cli(capsys, "run", "--k-min", "2", "--k-max", "2", "--nsel-min", "1",
                               "--nsel-max", "1", "--trials", "3", "--noisy", "--seed", "23",
                               "--format", "json", "--per-trial")
        assert status == 0
        doc = json.loads(out)
        assert len(doc["cells"]) == 1
        assert len(doc["cells"][0]["reports"]) == 3

    @pytest.mark.parametrize("lemma", ["4", "5", "selection"])
    def test_verify_subcommand_passes(self, lemma, capsys):
        status, out = call_cli(capsys, "verify", "--lemma", lemma, "--instances", "15", "--seed", "3")
        assert status == 0
        assert "15 instances" in out
        assert "0 failed" in out

    def test_verify_lemma4_reports_min_slack(self, capsys):
        status, out = call_cli(capsys, "verify", "--lemma", "4", "--instances", "15", "--seed", "3")
        assert status == 0
        rng = np.random.default_rng(3)
        slacks = [lhs - rhs for lhs, rhs in
                  (lemma4_sides(random_lemma_instance(rng)) for _ in range(15))]
        at = int(np.argmin(slacks))
        assert out.splitlines() == [
            "lemma 4: 15 passed, 0 failed (15 instances)",
            f"lemma 4: min slack (lhs - rhs) {slacks[at]!r} at instance {at}",
        ]

    @pytest.mark.parametrize("args,message", [
        (("verify", "--lemma", "4", "--instances", "-3", "--seed", "1"),
         "error: --instances must be at least 1, got -3"),
        (("verify", "--lemma", "selection", "--instances", "0", "--seed", "1"),
         "error: --instances must be at least 1, got 0"),
        (("run", "--k-min", "5", "--k-max", "3", "--nsel-min", "1", "--nsel-max", "2",
          "--trials", "3", "--seed", "1"),
         "error: empty range: --k-min 5 > --k-max 3"),
        (("run", "--k-min", "2", "--k-max", "3", "--nsel-min", "3", "--nsel-max", "2",
          "--trials", "3", "--seed", "1"),
         "error: empty range: --nsel-min 3 > --nsel-max 2"),
        (("run", "--k-min", "2", "--k-max", "3", "--nsel-min", "1", "--nsel-max", "2",
          "--trials", "0", "--seed", "1"),
         "error: --trials must be at least 1, got 0"),
        (("run", "--k-min", "2", "--k-max", "3", "--nsel-min", "1", "--nsel-max", "2",
          "--trials", "3", "--seed", "1", "--per-trial"),
         "error: --per-trial needs --format json"),
    ])
    def test_bad_counts_and_empty_ranges_are_rejected(self, args, message, capsys):
        assert cli.main(list(args)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [message]
