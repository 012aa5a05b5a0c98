import math
import re

import numpy as np
import pytest

from gompkit import (
    SparseSignal,
    gen_instance,
    mar,
    snr,
    snr_threshold,
)
from gompkit.metrics import _row_mar


class TestSparseSignal:
    def test_from_dense(self):
        # the support is the 1-based positions of the nonzeros; -0.0 is zero
        x = SparseSignal(np.array([-0.0, 3.0, 0.0, -2.0, 1e-300]))
        assert x.support == {2, 4, 5}
        assert x.n == 5

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SparseSignal(np.array([1.0, bad, 0.0]))

    def test_all_zero_signal_has_empty_support(self):
        x = SparseSignal(np.array([0.0, -0.0, 0.0]))
        assert x.support == frozenset()


class TestSnr:
    def test_zero_noise_is_infinite(self):
        x = SparseSignal(np.array([1.0, 0.0]))
        assert snr(np.eye(2), x, np.zeros(2)) == math.inf

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_noise(self, bad):
        # nan noise used to give nan, inf noise an SNR of 0.0
        x = SparseSignal(np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="finite"):
            snr(np.eye(2), x, np.array([bad, 0.0]))

    def test_pythagorean_case(self):
        x = SparseSignal(np.array([3.0, 0.0, 0.0, 4.0]))
        v = np.array([0.0, 0.0, 5.0, 0.0])
        assert snr(np.eye(4), x, v) == 1.0

    def test_scales_inversely_with_noise(self):
        rng = np.random.default_rng(53)
        a = rng.standard_normal((5, 5))
        x = SparseSignal(np.array([0.0, 1.5, 0.0, 0.0, -0.5]))
        v = rng.standard_normal(5)
        base = snr(a, x, v)
        assert abs(snr(a, x, 2.0 * v) - base / 4.0) <= 1e-12 * base

    @pytest.mark.parametrize("signal,noise,want", [
        ([1e-170, 0.0, 0.0], [1e-170, 0.0, 0.0], 1.0),  # both energies underflow to 0
        ([1e-20, 0.0, 0.0], [1e-170, 0.0, 0.0], 1e300),  # ||v||^2 underflows to 0
        ([1e-10, 0.0, 0.0], [1e-160, 0.0, 0.0], 1e300),  # ||v||^2 is subnormal
    ])
    def test_noise_energy_below_the_normal_range(self, signal, noise, want):
        # real noise is not read as none, and keeps the ratio's precision
        got = snr(np.eye(3), SparseSignal(np.array(signal)), np.array(noise))
        assert abs(got - want) <= 4e-16 * want

    def test_calibrated_instance_hits_target(self):
        inst = gen_instance(3, 2, noisy=True, seed=808)
        target_root = 0.01 + snr_threshold(3, 2, inst.claimed_delta.value, mar(inst.signal, 3))
        got = snr(inst.matrix, inst.signal, inst.noise)
        assert abs(got - target_root**2) <= 1e-10 * target_root**2


class TestMar:
    def test_flat_signal_is_one(self):
        x = SparseSignal(np.array([1.0, 0.0, -1.0, 1.0]))
        assert abs(mar(x, 3) - 1.0) <= 1e-15

    def test_direct_arithmetic(self):
        x = SparseSignal(np.array([1.0, 2.0]))
        assert abs(mar(x, 2) - 0.4) <= 1e-15

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError, match="^MAR is undefined for an all-zero signal$"):
            mar(SparseSignal(np.zeros(3)), 2)

    def test_sparsity_below_support_rejected(self):
        with pytest.raises(ValueError):
            mar(SparseSignal(np.array([1.0, 2.0])), 1)

    def test_range_and_flat_characterization(self):
        rng = np.random.default_rng(59)
        for _ in range(30):
            n, k = 10, int(rng.integers(1, 6))
            values = np.zeros(n)
            sup = rng.permutation(n)[:k]
            values[sup] = rng.standard_normal(k)
            x = SparseSignal(values)
            got = mar(x, k)
            # independent recomputation from the definition
            nz = values[sup]
            want = min(nz * nz) / ((values @ values) / k)
            assert abs(got - want) <= 1e-12
            assert 0.0 < got <= 1.0
            mags = np.abs(nz)
            assert (got == 1.0) == bool(np.all(mags == mags[0]))

    @pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e160, 1e200])
    def test_energy_outside_the_normal_range(self, scale):
        # ||x||^2 underflows to 0 or overflows to inf: once a ZeroDivisionError or NaN
        got = mar(SparseSignal(np.array([1.0, 2.0, 0.0]) * scale), 2)
        assert abs(got - 0.4) <= 1e-15

    def test_energy_whose_k_multiple_overflows(self):
        # ||x||^2 = 7e307 is finite, but K min x_i^2 = 4.2e308 once overflowed to inf
        assert mar(SparseSignal(np.array([0.0, 8.37e153, 0.0])), 6) == 6.0
        assert mar(SparseSignal(np.array([1e153, 8e153])), 3) == pytest.approx(3 / 65, rel=1e-15)

    def test_rows_have_the_bits_of_mar(self):
        rng = np.random.default_rng(61)
        values = np.zeros((40, 9))
        for row in values:
            k = int(rng.integers(1, 6))
            row[rng.permutation(9)[:k]] = rng.standard_normal(k) * 10.0 ** rng.integers(-200, 200)
        values[0] = [0.0, 8.37e153] + [0.0] * 7  # ||x||^2 is finite, K ||x||^2 is not
        with np.errstate(over="ignore"):
            got = _row_mar(values, 6)
        assert got.tolist() == [mar(SparseSignal(row), 6) for row in values]
        normal = values[np.abs(values).max(axis=1) < 1e100]
        smallest = np.where(normal != 0.0, normal * normal, math.inf).min(axis=1)
        assert _row_mar(normal, 6, smallest).tolist() == _row_mar(normal, 6).tolist()

    def test_scale_invariant(self):
        x = SparseSignal(np.array([0.0, 2.0, -1.0]))
        scaled = SparseSignal(np.array([0.0, -6.0, 3.0]))
        assert abs(mar(x, 2) - mar(scaled, 2)) <= 1e-15


class TestSnrThreshold:
    def test_unit_case(self):
        assert abs(snr_threshold(1, 1, 0.0, 1.0) - math.sqrt(2.0)) <= 1e-15

    def test_hand_computed_value(self):
        # sqrt(8) * 1.2 / (1 - sqrt(5) * 0.2), frozen from a high-precision
        # evaluation of the formula
        assert abs(snr_threshold(4, 1, 0.2, 1.0) - 6.140007283220313) <= 1e-12

    def test_single_pick_formula_identity(self):
        for k, delta, m in [(3, 0.1, 0.7), (5, 0.2, 1.0), (8, 0.05, 0.3)]:
            direct = math.sqrt(2 * k) * (1 + delta) / ((1 - math.sqrt(k + 1) * delta) * math.sqrt(m))
            assert abs(snr_threshold(k, 1, delta, m) - direct) <= 1e-13

    def test_rejects_delta_at_or_past_limit(self):
        limit = 1.0 / math.sqrt(5.0)
        for delta in (limit, 0.9):
            message = f"delta = {delta} >= 1/sqrt(K/N + 1) = {limit}; threshold undefined"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                snr_threshold(4, 1, delta, 1.0)
        with pytest.raises(ValueError):
            snr_threshold(2, 1, math.nan, 0.5)

    @pytest.mark.parametrize("bad", [0.0, -0.5, math.nan, math.inf])
    def test_rejects_mar_outside_positive_finite(self, bad):
        # an infinite MAR used to give a threshold of 0.0
        with pytest.raises(ValueError, match="MAR"):
            snr_threshold(2, 1, 0.1, bad)

    def test_elementwise_on_arrays(self):
        rng = np.random.default_rng(67)
        deltas, mars = rng.uniform(0.0, 0.44, 50), rng.uniform(0.05, 1.0, 50)
        values = snr_threshold(4, 1, deltas, mars)
        root = math.sqrt(5.0)  # the scalar formula, bit for bit
        expected = [math.sqrt(8.0) * (1.0 + d) / ((1.0 - root * d) * math.sqrt(m))
                    for d, m in zip(deltas.tolist(), mars.tolist())]
        assert values.tolist() == expected
        assert [snr_threshold(4, 1, d, m) for d, m in zip(deltas.tolist(), mars.tolist())] == expected
        for bad_delta, bad_mar in [(0.9, 0.5), (-0.1, 0.5), (0.1, 0.0), (0.1, math.inf),
                                   (math.nan, 0.5), (0.1, math.nan)]:
            with pytest.raises(ValueError):  # one bad element refuses the call
                snr_threshold(4, 1, np.append(deltas, bad_delta), np.append(mars, bad_mar))
        assert snr_threshold(4, 1, np.empty(0), np.empty(0)).shape == (0,)

    def test_monotone_in_delta_and_mar(self):
        deltas = np.linspace(0.0, 0.44, 20)
        values = [snr_threshold(4, 1, d, 0.8) for d in deltas]
        assert all(lo < hi for lo, hi in zip(values, values[1:]))
        mars = np.linspace(0.05, 1.0, 20)
        values = [snr_threshold(4, 1, 0.2, m) for m in mars]
        assert all(lo > hi for lo, hi in zip(values, values[1:]))

    def test_below_prior_single_pick_bound(self):
        # the older sufficient bound 2 sqrt(K)(1+d)/((1-(sqrt K + 1)d) sqrt m)
        # is strictly larger wherever it is defined
        rng = np.random.default_rng(61)
        for _ in range(200):
            k = int(rng.integers(1, 30))
            m = float(rng.uniform(0.05, 1.0))
            d = float(rng.uniform(0.0, 1.0 / (math.sqrt(k) + 1.0) * 0.999))
            prior = 2.0 * math.sqrt(k) * (1.0 + d) / ((1.0 - (math.sqrt(k) + 1.0) * d) * math.sqrt(m))
            assert snr_threshold(k, 1, d, m) < prior
