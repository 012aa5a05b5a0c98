import functools
import math
from fractions import Fraction
from itertools import combinations, islice

import numpy as np
import pytest

from gompkit import (
    BudgetExceeded,
    Condition,
    RicEstimate,
    RicKind,
    check_recovery_condition,
    condition_threshold,
    du_ric_bound,
    exact_ric,
    gen_instance,
    orthogonal_factor,
    project_complement,
    spectral_ric_bound,
)
from gompkit import rip


def brute_force_ric(a, order):
    """Reference enumeration using a plain python loop and per-support
    eigensolves; deliberately separate from the library's batched path."""
    n = a.shape[1]
    worst = 0.0
    for cols in combinations(range(n), order):
        gram = a[:, list(cols)].T @ a[:, list(cols)]
        eigs = np.linalg.eigvalsh(gram)
        worst = max(worst, eigs[-1] - 1.0, 1.0 - eigs[0])
    return worst


def unscreened_prefix_rics(a, order, ends):
    """Full enumeration without the screen: eigvalsh on every support in
    one batch, gathered from the same a.T @ a as ``exact_ric``; for each
    end, the constant over the first ``end`` supports."""
    a = np.asarray(a, dtype=float)
    gram = a.T @ a
    sets = np.array(list(combinations(range(a.shape[1]), order)))
    eigs = np.linalg.eigvalsh(gram[sets[:, :, None], sets[:, None, :]])
    return [max(0.0, float(np.max(eigs[:end]) - 1.0), float(1.0 - np.min(eigs[:end]))) for end in ends]


def unscreened_ric(a, order):
    """The constant over every support, by ``unscreened_prefix_rics``."""
    return unscreened_prefix_rics(a, order, [math.comb(np.shape(a)[1], order)])[0]


def reference_above(stack, shift):
    """One side of the screen on full batch-last stacks, shape (k, k, B):
    the same left-looking LDL^T as ``rip._inside_band``, reading entry
    (i, j) directly; True where stack_b - shift_b*I has all-positive
    pivots."""
    k = stack.shape[0]
    ok = np.ones(stack.shape[2], dtype=bool)
    unit = [[None] * k for _ in range(k)]
    pivots = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(k):
            scaled = [unit[j][p] * pivots[p] for p in range(j)]
            pivot = stack[j, j] - shift
            for p in range(j):
                pivot -= scaled[p] * unit[j][p]
            ok &= pivot > 0.0
            pivots.append(pivot)
            for i in range(j + 1, k):
                entry = stack[i, j]
                for p in range(j):
                    entry = entry - unit[i][p] * scaled[p]
                unit[i][j] = entry / pivot
    return ok


def reference_sides(stack, low, high):
    """Both sides of the band test on a full stack, run as one doubled
    stack [G | -G] with shifts [low | -high]: (low side, high side)."""
    batch = stack.shape[2]
    shift = np.concatenate((np.full(batch, low), np.full(batch, -high)))
    ok = reference_above(np.concatenate((stack, -stack), axis=2), shift)
    return ok[:batch], ok[batch:]


def reference_inside_band(stack, low, high):
    """Every eigenvalue of each matrix certifiably inside (low, high)."""
    low_ok, high_ok = reference_sides(stack, low, high)
    return low_ok & high_ok


def band_screen(lower, low, high):
    """``rip._inside_band`` run on both sides of the band (low, high)."""
    batch = lower.shape[1]
    return rip._inside_band(lower, np.full(batch, low)) & rip._inside_band(-lower, np.full(batch, -high))


def lower_triangles(stack):
    """(k, k, B) -> the (k(k+1)/2, B) lower-triangle layout of the screen."""
    return stack[np.tril_indices(stack.shape[0])]


def du_matrix(rng, n, bound):
    d = rng.uniform(math.sqrt(1.0 - bound), math.sqrt(1.0 + bound), size=n)
    return d, d[:, None] * orthogonal_factor(rng.standard_normal((n, n)))


class TestExactRic:
    def test_identity_is_isometry(self):
        for order in (1, 2, 5):
            est = exact_ric(np.eye(5), order)
            assert est.value == 0.0
            assert est.kind is RicKind.EXACT_ENUMERATION
            assert est.order == order

    def test_order_one_hand_value(self):
        # second column (1, 1) has squared norm 2, so delta_1 = 1
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert abs(exact_ric(a, 1).value - 1.0) <= 1e-14

    def test_order_two_hand_eigenvalues(self):
        # Gram [[1, 1], [1, 2]] has eigenvalues (3 +- sqrt 5)/2
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert abs(exact_ric(a, 2).value - (math.sqrt(5.0) + 1.0) / 2.0) <= 1e-12

    def test_matches_plain_loop_enumeration(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            a = rng.standard_normal((6, 8)) / math.sqrt(6.0)
            for order in (1, 2, 3):
                assert abs(exact_ric(a, order).value - brute_force_ric(a, order)) <= 1e-12

    def test_monotone_in_order(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = rng.standard_normal((7, 7)) / math.sqrt(7.0)
            values = [exact_ric(a, k).value for k in range(1, 8)]
            assert all(lo <= hi + 1e-14 for lo, hi in zip(values, values[1:]))

    def test_budget_and_dimension_errors(self):
        a = np.eye(30)
        with pytest.raises(BudgetExceeded):
            exact_ric(a, 15, budget=1000)
        with pytest.raises(ValueError, match=r"^order must lie in 1\.\.3, got 4$"):
            exact_ric(np.eye(3), 4)
        with pytest.raises(ValueError, match=r"^order must lie in 1\.\.3, got 0$"):
            exact_ric(np.eye(3), 0)

    def test_adjoint_energy_bound(self):
        # ||A_S^T u||^2 <= (1 + delta_K) ||u||^2 whenever |S| <= K
        rng = np.random.default_rng(29)
        for _ in range(10):
            a = rng.standard_normal((8, 8)) / math.sqrt(8.0)
            k = int(rng.integers(1, 5))
            delta = exact_ric(a, k).value
            cols = rng.permutation(8)[: int(rng.integers(1, k + 1))]
            u = rng.standard_normal(8)
            lhs = np.linalg.norm(a[:, cols].T @ u) ** 2
            assert lhs <= (1.0 + delta) * np.linalg.norm(u) ** 2 + 1e-10

    def test_projected_isometry_sandwich(self):
        # projecting out S1 keeps A_{S2 \ S1} within the order-|S1 u S2| band
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = 8
            a = rng.standard_normal((n, n)) / math.sqrt(n)
            perm = rng.permutation(n) + 1
            s1 = frozenset(int(i) for i in perm[:2])
            s2 = frozenset(int(i) for i in perm[2:5])
            delta = exact_ric(a, len(s1 | s2)).value
            rest = sorted(s2 - s1)
            x = rng.standard_normal(len(rest))
            image = project_complement(a, s1, a[:, np.array(rest) - 1] @ x)
            energy = np.linalg.norm(image) ** 2
            norm2 = np.linalg.norm(x) ** 2
            assert (1.0 - delta) * norm2 - 1e-10 <= energy <= (1.0 + delta) * norm2 + 1e-10


def _screen_cases():
    rng = np.random.default_rng(53)
    wide = rng.standard_normal((8, 12)) / math.sqrt(8.0)
    tall = rng.standard_normal((14, 10)) / math.sqrt(14.0)
    twin = rng.standard_normal((10, 11)) / math.sqrt(10.0)
    twin[:, 7] = twin[:, 3]
    orthonormal = np.linalg.qr(rng.standard_normal((12, 9)))[0]
    _, du = du_matrix(rng, 16, 0.6)
    cases = {
        "gaussian-m<n": (wide, (1, 3, 6, 12)),
        "gaussian-m>=n": (tall, (2, 5, 10)),
        "du-n16": (du, (5,)),
        "identical-columns": (twin, (2, 4)),
        "identity": (np.eye(10), (1, 5, 10)),
        "orthonormal-columns": (orthonormal, (4, 9)),
        "scaled-1e3": (1e3 * tall, (1, 4)),
        "scaled-1e-3": (1e-3 * tall, (1, 4)),
    }
    return [pytest.param(a, orders, id=name) for name, (a, orders) in cases.items()]


def classification_grams(k):
    """300 symmetric k x k matrices, shape (300, k, k), and which of them
    have an eigenvalue outside (0.5, 1.5): spectra inside (0.55, 1.45), or
    with one eigenvalue moved outside (0.45, 1.55), so every eigenvalue is
    at least 0.05 from the band's edges."""
    rng = np.random.default_rng(61 + k)
    batch = 300
    eigs = rng.uniform(0.55, 1.45, size=(batch, k))
    out = rng.random(batch) < 0.5
    outside = rng.choice([-1.0, 1.0], size=batch) * rng.uniform(0.55, 0.8, size=batch)
    eigs[out, rng.integers(0, k, size=batch)[out]] = 1.0 + outside[out]
    q = orthogonal_factor(rng.standard_normal((batch, k, k)))
    grams = (q * eigs[:, None, :]) @ q.transpose(0, 2, 1)
    return (grams + grams.transpose(0, 2, 1)) / 2.0, out


def chunk_ends(total):
    """Where each chunk of a C(n, k) = ``total`` enumeration ends: the first
    has rip._FIRST_CHUNK supports, later ones double up to rip._MAX_CHUNK."""
    ends, size = [0], rip._FIRST_CHUNK
    while ends[-1] < total:
        ends.append(min(ends[-1] + size, total))
        size = min(2 * size, rip._MAX_CHUNK)
    return ends[1:]


def spy_screen(monkeypatch):
    """Record the screen's calls in order: ("stage1", batch, sides its
    bounds leave open), ("ldl", sides, failed sides) and ("eigvalsh",
    matrices)."""
    events = []
    screen, inside_band = rip._screen, rip._inside_band
    eigvalsh = np.linalg.eigvalsh

    def spy_stage1(flat, cols, lo, hi, low, high):
        opened = int(np.count_nonzero(~(lo > low)) + np.count_nonzero(~(hi < high)))
        events.append(("stage1", cols.shape[1], opened))
        return screen(flat, cols, lo, hi, low, high)

    def spy_inside_band(lower, shift):
        inside = inside_band(lower, shift)
        events.append(("ldl", lower.shape[1], int(np.count_nonzero(~inside))))
        return inside

    monkeypatch.setattr(rip, "_screen", spy_stage1)
    monkeypatch.setattr(rip, "_inside_band", spy_inside_band)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda x: events.append(("eigvalsh", len(x))) or eigvalsh(x))
    return events


class TestScreenedEnumeration:
    @pytest.mark.parametrize("a,orders", _screen_cases())
    def test_equals_unscreened_bit_for_bit(self, a, orders):
        for order in orders:
            assert exact_ric(a, order).value == unscreened_ric(a, order), order

    @pytest.mark.parametrize("a,orders", _screen_cases())
    def test_running_values_rise_to_the_constant(self, a, orders):
        for order in orders:
            ends = chunk_ends(math.comb(a.shape[1], order))
            running = list(rip._lower_bounds(a, order))[2:]  # after 0.0 and the column floor
            # value i is the unscreened constant over the supports of chunks 0..i
            assert running == unscreened_prefix_rics(a, order, ends)
            assert running[-1] == exact_ric(a, order).value

    def test_screen_prunes_across_ramped_chunks(self, monkeypatch):
        # C(16, 5) = 4368 supports: chunks of 64 (unscreened), 128, 256, ...
        _, a = du_matrix(np.random.default_rng(59), 16, 0.6)
        expected = unscreened_ric(a, 5)
        events = spy_screen(monkeypatch)
        assert exact_ric(a, 5).value == expected
        total = math.comb(16, 5) - 64
        stage1 = [event[1] for event in events if event[0] == "stage1"]
        assert stage1[:3] == [128, 256, 512] and sum(stage1) == total
        # the first chunk goes to eigvalsh unscreened; then each chunk runs
        # stage 1, LDL^T on exactly the sides stage 1 left open (so at most
        # twice the chunk), and eigvalsh on exactly the sides that failed
        assert events[0] == ("eigvalsh", 64)
        failed, rest = 0, events[1:]
        for size in stage1:
            (_, chunk, opened), (stage, sides, fails), *rest = rest
            assert chunk == size and stage == "ldl" and sides == opened <= 2 * size
            if fails:
                assert rest[0] == ("eigvalsh", fails)
                rest = rest[1:]
            failed += fails
        assert rest == []
        assert failed < 0.1 * total

    def test_each_chunk_is_screened_once_as_it_comes(self, monkeypatch):
        # C(20, 5) = 15504 supports: chunks ramp 64, 128, ... up to _MAX_CHUNK
        _, a = du_matrix(np.random.default_rng(7), 20, 0.6)
        expected = unscreened_ric(a, 5)
        ends = chunk_ends(math.comb(20, 5))
        sizes = np.diff([0, *ends]).tolist()
        assert sizes[:2] == [rip._FIRST_CHUNK, 2 * rip._FIRST_CHUNK]
        assert sizes.count(rip._MAX_CHUNK) >= 2 and max(sizes) == rip._MAX_CHUNK
        events = spy_screen(monkeypatch)
        running = []
        for value in islice(rip._lower_bounds(a, 5), 2, None):  # after 0.0 and the column floor
            events.append(("yield", value))
            running.append(value)
        assert running[-1] == expected
        chunks = [[]]
        for event in events:
            chunks[-1].append(event[0])
            if event[0] == "yield":
                chunks.append([])
        assert chunks.pop() == [] and len(chunks) == len(sizes)
        assert chunks[0] == ["eigvalsh", "yield"]
        # every later chunk: one stage-1 call and one LDL^T call, before its yield
        for chunk in chunks[1:]:
            assert chunk[:2] == ["stage1", "ldl"] and chunk[2:] in (["yield"], ["eigvalsh", "yield"])
        stage1 = [event[1] for event in events if event[0] == "stage1"]
        assert stage1 == sizes[1:]

    def test_support_table_is_lexicographic_combinations(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                table = rip._plan(n, k)[-1][0]
                assert table.dtype == np.uint8
                assert table.tolist() == [list(c) for c in combinations(range(n), k)]
        for n, dtype in ((256, np.uint16), (300, np.uint16)):
            for k in (1, 2):
                table = rip._plan(n, k)[-1][0]
                assert table.dtype == dtype
                assert table.tolist() == [list(c) for c in combinations(range(n), k)]

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 10) for k in range(1, n + 1)] + [(16, 5), (25, 4), (300, 2)])
    def test_plan_levels_are_the_prefixes_of_the_table(self, n, k):
        levels = rip._plan(n, k)
        assert len(levels) == k
        rows = [()]  # level 0: the empty row
        for level, (table, prefix) in enumerate(levels, start=1):
            expected = list(combinations(range(n - k + level), level))
            assert table.dtype == np.min_scalar_type(n)
            assert [tuple(row) for row in table.tolist()] == expected
            # each row extends the row of the level before that is its prefix
            assert [rows[i] for i in prefix.tolist()] == [row[:-1] for row in expected]
            assert prefix.dtype == np.min_scalar_type(len(rows) - 1)
            rows = expected
        assert rows == list(combinations(range(n), k))

    @pytest.mark.parametrize("k", range(1, 13))
    def test_screen_matches_eigvalsh_classification(self, k):
        grams, out = classification_grams(k)
        low, high = 0.5, 1.5
        computed = np.linalg.eigvalsh(grams)
        expected = (computed[:, 0] > low) & (computed[:, -1] < high)
        assert np.array_equal(expected, ~out)
        got = band_screen(grams.transpose(1, 2, 0)[np.tril_indices(k)], low, high)
        assert np.array_equal(got, expected)

    def test_small_tables_are_cached_read_only(self):
        plan = rip._cached_plan(12, 6)  # C(12, 6) = 924 rows
        assert rip._cached_plan(12, 6) is plan
        assert plan[-1][0].tolist() == [list(c) for c in combinations(range(12), 6)]
        assert_read_only(plan)

    def test_large_tables_are_kept_read_only_in_two_entries(self):
        def builds():  # each cache miss builds a plan
            return rip._large_plans.cache_info().misses

        a = np.random.default_rng(67).standard_normal((16, 16))
        b = np.random.default_rng(67).standard_normal((17, 17))
        for _ in range(3):
            exact_ric(a, 5)  # C(16, 5) = 4368 rows
            exact_ric(a, 3)  # C(16, 3) = 560 rows
        assert builds() == 1 and rip._small_plans.cache_info().misses == 1
        plan = rip._cached_plan(16, 5)
        assert rip._cached_plan(16, 5) is plan and builds() == 1
        assert plan[-1][0].tolist() == [list(c) for c in combinations(range(16), 5)]
        assert_read_only(plan)
        # two large (n, k) in turn, as C(25, 6) and C(29, 5) are: each built once
        for _ in range(3):
            exact_ric(a, 6)  # C(16, 6) = 8008 rows
            exact_ric(b, 5)  # C(17, 5) = 6188 rows
        assert builds() == 3
        # a third large (n, k) evicts the least recently used plan
        exact_ric(a, 7)  # C(16, 7) = 11440 rows
        assert rip._large_plans.cache_info().currsize == 2 and builds() == 4
        exact_ric(b, 5)
        assert builds() == 4
        exact_ric(a, 6)
        assert builds() == 5

    def test_budget_checked_before_table(self, monkeypatch):
        def refuse(n, k):
            raise AssertionError("support table built past the budget")

        monkeypatch.setattr(rip, "_cached_plan", refuse)
        with pytest.raises(BudgetExceeded):
            exact_ric(np.eye(200), 100)


class TestLowerTriangleScreen:
    """The screen on (k(k+1)/2, B) lower triangles against the full-stack
    reference, and the gather that feeds it."""

    @pytest.mark.parametrize("k", range(1, 13))
    def test_classification_spectra(self, k):
        stack = np.ascontiguousarray(classification_grams(k)[0].transpose(1, 2, 0))
        got = band_screen(lower_triangles(stack), 0.5, 1.5)
        assert np.array_equal(got, reference_inside_band(stack, 0.5, 1.5))

    @pytest.mark.parametrize("k", range(1, 13))
    def test_gram_chunks_at_three_band_widths(self, k):
        rng = np.random.default_rng(71 + k)
        gaussian = rng.standard_normal((20, 14)) / math.sqrt(20.0)
        _, du = du_matrix(rng, 16, 0.6)
        for a in (gaussian, du):
            gram = a.T @ a
            cols = rip._plan(a.shape[1], k)[-1][0][:256].T.astype(np.intp)
            stack = gram[cols[:, None, :], cols[None, :, :]]
            eigs = np.linalg.eigvalsh(np.moveaxis(stack, 2, 0))
            deviation = np.maximum(eigs[:, -1] - 1.0, 1.0 - eigs[:, 0])
            for quantile in (0.1, 0.5, 0.9):
                w = float(np.quantile(deviation, quantile))
                got = band_screen(lower_triangles(stack), 1.0 - w, 1.0 + w)
                assert np.array_equal(got, reference_inside_band(stack, 1.0 - w, 1.0 + w))
                assert 0 < got.sum() < got.size, quantile

    @pytest.mark.parametrize("k", range(1, 13))
    def test_spectra_within_ulps_of_the_band_edge(self, k):
        rng = np.random.default_rng(83 + k)
        batch, low, high = 200, 0.75, 1.25
        eigs = rng.uniform(0.8, 1.2, size=(batch, k))
        edge = np.where(rng.random(batch) < 0.5, low, high)
        eigs[np.arange(batch), rng.integers(0, k, size=batch)] = (
            edge + rng.integers(-4, 5, size=batch) * np.spacing(edge)
        )
        diagonal = np.zeros((k, k, batch))
        diagonal[np.arange(k), np.arange(k)] = eigs.T
        # pivots of a diagonal matrix are d - low and high - d, exact this near the edge
        inside = ((eigs > low) & (eigs < high)).all(axis=1)
        assert np.array_equal(band_screen(lower_triangles(diagonal), low, high), inside)
        q = orthogonal_factor(rng.standard_normal((batch, k, k)))
        rotated = (q * eigs[:, None, :]) @ q.transpose(0, 2, 1)
        rotated = np.ascontiguousarray(((rotated + rotated.transpose(0, 2, 1)) / 2.0).transpose(1, 2, 0))
        for stack in (diagonal, rotated):
            got = band_screen(lower_triangles(stack), low, high)
            assert np.array_equal(got, reference_inside_band(stack, low, high))

    def test_same_supports_reach_eigvalsh(self, monkeypatch):
        a = next(case.values[0] for case in _screen_cases() if case.id == "du-n16")
        batches = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda x: batches.append(len(x)) or eigvalsh(x))
        value = exact_ric(a, 5).value
        screened = batches.copy()
        batches.clear()

        def full_stack_screen(lower, shift):
            k = math.isqrt(2 * len(lower))
            stack = np.zeros((k, k, lower.shape[1]))
            stack[np.tril_indices(k)] = lower
            return reference_above(stack, shift)

        monkeypatch.setattr(rip, "_inside_band", full_stack_screen)
        assert exact_ric(a, 5).value == value
        assert batches == screened
        assert sum(screened) < 0.1 * math.comb(16, 5)

    def test_small_enumerations_build_no_index_pairs(self, monkeypatch):
        built = []
        layout, level_bounds = rip._layout, rip._level_bounds
        monkeypatch.setattr(rip, "_layout", lambda k: built.append(("layout", k)) or layout(k))
        monkeypatch.setattr(rip, "_level_bounds", lambda flat, levels: built.append(("prefixes", len(levels) + 1)) or level_bounds(flat, levels))
        a = np.random.default_rng(89).standard_normal((8, 8))
        exact_ric(a, 3)  # C(8, 3) = 56 supports: the unscreened first chunk only
        exact_ric(a, 5)
        assert built == []  # no G*G, no prefix bounds and no index pairs
        exact_ric(a, 4)  # C(8, 4) = 70: a second, screened chunk
        # G*G and the prefixes' bounds, then the open sides' gather
        assert built == [("prefixes", 4), ("layout", 4)]

    def test_index_pairs_are_cached_read_only(self):
        layout = rip._layout(6)
        assert rip._layout(6) is layout
        for index, expected in zip(layout[:2], np.tril_indices(6)):
            assert np.array_equal(index, expected)
            assert not index.flags.writeable
            with pytest.raises(ValueError):
                index[0] = 1

    @pytest.mark.parametrize("estimate", [
        *(pytest.param(functools.partial(exact_ric, order=order), id=str(order))
          for order in (2, 4, 6)),
        pytest.param(spectral_ric_bound, id="spectral"),
    ])
    def test_value_does_not_depend_on_memory_layout(self, estimate):
        rng = np.random.default_rng(97)
        for _ in range(3):
            strided = (rng.standard_normal((24, 30)) / 4.0)[::2, ::2]
            contiguous = np.ascontiguousarray(strided)
            value = estimate(contiguous).value
            for a in (np.asfortranarray(contiguous), np.ascontiguousarray(contiguous.T).T, strided):
                assert estimate(a).value == value


def assert_read_only(plan):
    for array in (array for level in plan for array in level):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1


def table_bounds(gram, k):
    """Stage 1's bounds (lo, hi) on every support of the (n, k) table, as
    the enumeration carries them down each support's prefixes."""
    _, (lo, hi) = rip._level_bounds(np.ascontiguousarray(gram).ravel(), rip._cached_plan(gram.shape[0], k))
    return lo, hi


def leading_block_bounds(grams):
    """Stage 1's bounds (lo, hi) on each matrix G of a (B, k, k) batch,
    carried down its leading blocks as the enumeration carries a support's
    down its prefixes: level l borders G's leading (l-1)-block with row and
    column l."""
    batch, k, _ = grams.shape
    flat = np.ascontiguousarray(grams, dtype=float).ravel()
    with np.errstate(over="ignore"):
        quad = 4.0 * flat * flat
    first, same = np.arange(batch) * k * k, np.arange(batch)
    bounds = np.zeros((2, batch))  # level 0, never read
    for level in range(1, k + 1):
        pairs = first + (np.arange(level)[:, None] * k + level - 1)  # G_iv, i < v, then G_vv
        bounds = rip._bordered(flat, quad, pairs, same, bounds)
    return bounds[0], bounds[1]


def determinant(m):
    """Laplace expansion along the first row, exact on Fractions."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * determinant([row[:j] + row[j + 1:] for row in m[1:]]) for j in range(len(m)))


def stage1_open(grams, low, high):
    """Which sides of each matrix stage 1 leaves open: (low side, high side)."""
    lo, hi = leading_block_bounds(grams)
    return ~(lo > low), ~(hi < high)


def assert_stage1_sound(grams, low, high):
    """Stage 1 certifies a side of G only where eigvalsh puts every
    eigenvalue of G strictly inside the band on that side; returns how many
    sides it certified."""
    eigs = np.linalg.eigvalsh(grams)
    low_open, high_open = stage1_open(grams, low, high)
    assert np.all(low_open | (eigs[:, 0] > low)), (low, high)
    assert np.all(high_open | (eigs[:, -1] < high)), (low, high)
    return int(np.count_nonzero(~low_open) + np.count_nonzero(~high_open))


def spread_families(k):
    """Batches (48, k, k) where a stage-1 bound is easiest to get wrong:
    eigenvalues 1e4 (1 +- 1e-12), whose spread cancels to rounding noise;
    rank-one spikes I + beta v v^T; and spectra in (0.5, 1.5) scaled by 1e6
    and 1e150."""
    rng = np.random.default_rng(101 + k)
    batch = 48
    q = orthogonal_factor(rng.standard_normal((batch, k, k)))

    def with_spectra(eigs):
        g = (q * eigs[:, None, :]) @ q.transpose(0, 2, 1)
        return (g + g.transpose(0, 2, 1)) / 2.0

    v = q[:, :, 0]
    beta = rng.choice([-1.0, 1.0], batch) * rng.uniform(0.1, 0.9, batch)
    return {
        "near-zero-spread": with_spectra(1e4 * (1.0 + 1e-12 * rng.uniform(-1.0, 1.0, (batch, k)))),
        "rank-one-spike": np.eye(k) + beta[:, None, None] * (v[:, :, None] * v[:, None, :]),
        "max|G|-1e6": 1e6 * with_spectra(rng.uniform(0.5, 1.5, (batch, k))),
        "max|G|-1e150": 1e150 * with_spectra(rng.uniform(0.5, 1.5, (batch, k))),
    }


class TestTwoStageScreen:
    """Stage 1 (bounds bordered level by level, run here on each matrix's
    leading blocks) is sound, stage 2 (one-sided LDL^T) is the reference's
    arithmetic side by side, and LDL^T sees few side tests. The tests named
    for the trace bound, stage 1 before the bordered bound, keep their
    families and assertions."""

    @pytest.mark.parametrize("k", range(1, 13))
    def test_trace_bound_on_scaled_identity_at_the_band_edges(self, k):
        low, high = 0.75, 1.25
        steps = np.arange(-4, 5)
        c = np.concatenate((low + steps * np.spacing(low), high + steps * np.spacing(high), [1.0]))
        grams = c[:, None, None] * np.eye(k)
        low_open, high_open = stage1_open(grams, low, high)
        assert_stage1_sound(grams, low, high)
        if k == 1:  # the bound is G_11 itself, exact: a side clears just inside its edge
            assert np.array_equal(low_open[:9], c[:9] <= low) and np.array_equal(high_open[9:18], c[9:18] >= high)
        else:  # a few ulps never clear an edge
            assert low_open[:9].all() and high_open[9:18].all()
        # the far side and the centre clear
        assert not low_open[9:].any() and not high_open[:9].any() and not high_open[-1]

    @pytest.mark.parametrize("k", range(1, 13))
    def test_trace_bound_is_sound_near_the_extremes(self, k):
        for name, grams in spread_families(k).items():
            eigs = np.linalg.eigvalsh(grams)
            certified = 0
            for b in range(0, len(grams), 6):
                lo, hi = eigs[b, 0], eigs[b, -1]
                scale = max(abs(lo), abs(hi))
                offsets = [j * np.spacing(scale) for j in (-4, -1, 0, 1, 4)]
                offsets += [r * scale for r in (-1e-9, 1e-12, 1e-9, 1e-6, 1e-3, 0.1)]
                for d in offsets:
                    certified += assert_stage1_sound(grams, lo - d, hi + d)
            assert certified > 0, name

    @pytest.mark.parametrize("k", range(1, 5))
    def test_trace_bound_is_sound_where_squares_underflow(self, k):
        # entries near 1e-161 square to subnormals or to 0
        rng = np.random.default_rng(131 + k)
        certified = 0
        for scale in 10.0 ** rng.uniform(-163.0, -158.0, size=8):
            grams = rng.standard_normal((64, k, k)) * scale
            grams = (grams + grams.transpose(0, 2, 1)) / 2.0
            eigs = np.linalg.eigvalsh(grams)
            steps = [d * np.spacing(0.0) for d in (-2, 0, 1, 4, 16, 64, 1024)] + [1e6 * scale, 1e12 * scale]
            for step in steps:
                certified += assert_stage1_sound(grams, eigs[0, 0] - step, eigs[0, -1] + step)
        assert certified > 0

    def test_trace_bound_leaves_overflow_open(self):
        # off-diagonal entries whose squares overflow (stage 1 squares no diagonal entry)
        grams = np.stack([1e200 * np.ones((3, 3)), np.full((3, 3), np.nan), np.full((3, 3), np.inf)])
        low_open, high_open = stage1_open(grams, -1.0, 1.0)  # and warns of nothing
        assert low_open.all() and high_open.all()

    @pytest.mark.parametrize("k", [2, 3])
    def test_bounds_hold_in_exact_arithmetic(self, k):
        # G - lo I and hi I - G have no negative principal minor in rationals,
        # independently of eigvalsh's rounding. Zero-trace blocks [[-c, b], [b, c]]
        # make p + c cancel, so the root alone must carry the outward term.
        rng = np.random.default_rng(149 + k)
        grams = rng.standard_normal((300, k, k)) * 10.0 ** rng.integers(-3, 4, (300, 1, 1))
        grams = (grams + grams.transpose(0, 2, 1)) / 2.0
        grams[::2, 1, 1] = -grams[::2, 0, 0]
        lo, hi = leading_block_bounds(grams)
        for g, low, high in zip(grams.tolist(), lo.tolist(), hi.tolist()):
            g = [[Fraction(x) for x in row] for row in g]
            for shift, sign in ((Fraction(low), 1), (Fraction(high), -1)):
                shifted = [[sign * (x - shift * (i == j)) for j, x in enumerate(row)] for i, row in enumerate(g)]
                assert all(determinant([[shifted[i][j] for j in s] for i in s]) >= 0
                           for size in range(1, k + 1) for s in combinations(range(k), size)), (g, low, high)

    def test_gram_entries_whose_squares_overflow_give_the_unscreened_value(self):
        # |G| ~ 1e200: stage 1's squares overflow, which must leave sides open quietly
        a = np.random.default_rng(131).standard_normal((6, 12)) * 1e100
        assert exact_ric(a, 4).value == unscreened_ric(a, 4)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_one_sided_ldl_equals_each_reference_side(self, k):
        rng = np.random.default_rng(113 + k)
        stack = np.ascontiguousarray(classification_grams(k)[0].transpose(1, 2, 0))
        low_ok, high_ok = reference_sides(stack, 0.5, 1.5)
        lower = lower_triangles(stack)
        batch = lower.shape[1]
        assert np.array_equal(rip._inside_band(lower, np.full(batch, 0.5)), low_ok)
        assert np.array_equal(rip._inside_band(-lower, np.full(batch, -1.5)), high_ok)
        # a mixed stack [G_low | -G_high] with per-column shifts, as the screen builds it
        lows, highs = rng.permutation(batch)[:120], rng.permutation(batch)[:90]
        sides = np.concatenate((lower[:, lows], -lower[:, highs]), axis=1)
        shift = np.repeat((0.5, -1.5), (lows.size, highs.size))
        got = rip._inside_band(sides, shift)
        assert np.array_equal(got, np.concatenate((low_ok[lows], high_ok[highs])))

    @pytest.mark.parametrize("k", range(1, 13))
    def test_screen_clears_only_supports_inside_the_band(self, k):
        rng = np.random.default_rng(127 + k)
        _, du = du_matrix(rng, 16, 0.6)
        gram = du.T @ du
        lo, hi = (bound[:512] for bound in table_bounds(gram, k))
        cols = rip._plan(16, k)[-1][0][:512].T.astype(np.intp)
        stack = gram[cols[:, None, :], cols[None, :, :]]
        eigs = np.linalg.eigvalsh(np.moveaxis(stack, 2, 0))
        deviation = np.maximum(eigs[:, -1] - 1.0, 1.0 - eigs[:, 0])
        for quantile in (0.1, 0.5, 0.9):
            w = float(np.quantile(deviation, quantile))
            # _screen returns the failing supports; mark them by their rows
            failing = {tuple(s) for s in rip._screen(gram.ravel(), cols, lo, hi, 1.0 - w, 1.0 + w).T.tolist()}
            outside = np.array([tuple(s) in failing for s in cols.T.tolist()])
            assert not np.any(outside & reference_inside_band(stack, 1.0 - w, 1.0 + w))
            assert np.all(outside | (deviation < w))
            assert outside.any() and not outside.all()

    def test_ldl_sees_under_a_third_of_the_side_tests(self, monkeypatch):
        columns = []
        inside_band = rip._inside_band
        monkeypatch.setattr(rip, "_inside_band", lambda lower, shift: columns.append(lower.shape[1]) or inside_band(lower, shift))
        exact_ric(gen_instance(8, 3, False, 4100000).matrix, 6)
        assert 0 < sum(columns) < 2 * math.comb(25, 6) / 3


def column_floor(a, order):
    """The second value of ``rip._lower_bounds``, after 0.0."""
    zero, floor = islice(rip._lower_bounds(a, order), 2)
    assert zero == 0.0
    return floor


class TestColumnFloor:
    """The floor max(0, max_i |G_ii - 1| - tau) that ``rip._lower_bounds``
    yields before enumerating is at most the exact constant at every order."""

    @pytest.mark.parametrize("a,orders", _screen_cases())
    def test_below_the_exact_value_at_every_order(self, a, orders):
        for order in range(1, a.shape[1] + 1):
            assert column_floor(a, order) <= exact_ric(a, order).value, order

    @pytest.mark.parametrize("d", [
        [1.0, 0.9, 1.2, 0.7, 1.05],
        [1.0, 1.0, 1.0 + 1e-13, 1.0, 1.0],  # |d^2 - 1| below tau: the floor is 0.0
        [0.3, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        [1.4, 0.999, 1.0, 1.001],
    ])
    def test_within_tau_of_the_value_on_diagonal_matrices(self, d):
        # the constant of diag(d) is max_i |d_i^2 - 1| at every order
        a = np.diag(d)
        for order in range(1, len(d) + 1):
            tau = rip._screen_tolerance(a.T @ a, order)
            floor, value = column_floor(a, order), exact_ric(a, order).value
            assert floor <= value <= floor + tau, order

    def test_tau_covers_eigvalsh_rounding_on_scaled_orthogonal_columns(self):
        # A = Q diag(d): G is diag(d^2) up to rounding, and eigvalsh may put an
        # extreme an ulp inside G_ii, so max_i |G_ii - 1| alone can exceed the
        # computed constant; the floor's tau keeps it below
        rng = np.random.default_rng(5)
        bare_above = 0
        for _ in range(100):
            n = int(rng.integers(3, 7))
            a = orthogonal_factor(rng.standard_normal((n, n))) * rng.uniform(0.5, 1.5, n)
            bare = float(np.max(np.abs(np.diag(a.T @ a) - 1.0)))
            for order in range(1, n + 1):
                value = exact_ric(a, order).value
                assert column_floor(a, order) <= value, order
                bare_above += bare > value
        assert bare_above > 0

    @pytest.mark.parametrize("scale", [1e-100, 1e100])
    def test_below_the_exact_value_on_scaled_matrices(self, scale):
        a = scale * np.random.default_rng(59).standard_normal((7, 9))
        for order in range(1, 10):
            assert column_floor(a, order) <= exact_ric(a, order).value, order


class TestDuBound:
    def test_unit_diagonal(self):
        assert du_ric_bound(np.ones(4)).value == 0.0

    def test_symmetric_range(self):
        est = du_ric_bound(np.array([math.sqrt(0.5), math.sqrt(1.5)]))
        assert abs(est.value - 0.5) <= 1e-15
        assert est.kind is RicKind.ANALYTIC_DU

    def test_has_the_bits_of_the_two_sided_formula(self):
        # _du_delta takes max |d_i^2 - 1|; the stated formula, bit for bit
        rng = np.random.default_rng(47)
        d = np.sqrt(1.0 + rng.uniform(-0.7, 0.7, (500, 9)))
        d[:5] = np.array([1.0, math.sqrt(0.5), math.sqrt(1.5), 1.0 + 2.0**-52, 1.0 - 2.0**-53])[:, None]
        sq = d * d
        want = [max(1.0 - min(row), max(row) - 1.0) for row in sq.tolist()]
        assert [du_ric_bound(row).value for row in d] == want
        assert rip._du_delta(d).tolist() == want

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="^diagonal entries must be strictly positive$"):
            du_ric_bound(np.array([1.0, 0.0]))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                du_ric_bound(np.array([1.0, bad]))

    def test_construction_interval_stays_under_bound(self):
        rng = np.random.default_rng(37)
        bound = 0.99 / math.sqrt(2.0)  # sparsity 2, two picks per iteration
        d, _ = du_matrix(rng, 5, bound)
        est = du_ric_bound(d)
        assert est.value <= bound + 1e-12
        assert est.value < 1.0 / math.sqrt(2.0)

    def test_dominates_enumeration_at_every_order(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            n = int(rng.integers(3, 8))
            d, a = du_matrix(rng, n, 0.6)
            cap = du_ric_bound(d).value
            for order in range(1, n + 1):
                assert exact_ric(a, order).value <= cap + 1e-9

    def test_tight_at_full_order(self):
        rng = np.random.default_rng(43)
        d, a = du_matrix(rng, 6, 0.5)
        assert abs(exact_ric(a, 6).value - du_ric_bound(d).value) <= 1e-10


class TestSpectralBound:
    def test_dominates_enumeration(self):
        rng = np.random.default_rng(47)
        for _ in range(5):
            a = rng.standard_normal((6, 6)) / math.sqrt(6.0)
            cap = spectral_ric_bound(a)
            assert cap.kind is RicKind.UPPER_BOUND_SPECTRAL
            for order in range(1, 7):
                assert exact_ric(a, order).value <= cap.value + 1e-12


    def test_refuses_an_overflowing_gram(self):
        a = np.random.default_rng(137).standard_normal((6, 12)) * 1e160
        for estimate in (spectral_ric_bound, functools.partial(exact_ric, order=4)):
            with pytest.raises(ValueError, match=r"^A\^T A is not finite"):
                estimate(a)
        with pytest.raises(ValueError, match=r"^A\^T A is not finite"):
            rip._lower_bounds(a, 4)  # eagerly, with the order and budget checks


class TestConditionThresholds:
    def test_primary_values(self):
        assert abs(condition_threshold(4, 1, Condition.SHARP) - 0.4472135954999579) <= 1e-16
        assert abs(condition_threshold(4, 1, Condition.SATPATHI2013B) - 1.0 / 3.0) <= 1e-16
        # ratio one: threshold is exactly 1/sqrt(2) for any equal pair
        for k in (1, 3, 9):
            assert condition_threshold(k, k, Condition.SHARP) == 1.0 / math.sqrt(2.0)

    def test_prior_work_formulas(self):
        k, nsel = 9, 2
        root = math.sqrt(k / nsel)
        assert condition_threshold(k, nsel, Condition.WANG2012) == 1.0 / (root + 3.0)
        assert condition_threshold(k, nsel, Condition.LIU2012) == 1.0 / ((2.0 + math.sqrt(2.0)) * root)
        assert condition_threshold(k, nsel, Condition.SATPATHI2013A) == 1.0 / (root + 2.0)
        assert condition_threshold(k, nsel, Condition.SHEN2014) == 1.0 / (root + 1.27)

    def test_accepts_string_names(self):
        assert condition_threshold(4, 1, "sharp") == condition_threshold(4, 1, Condition.SHARP)
        with pytest.raises(ValueError, match="^'bogus' is not a valid Condition$"):
            condition_threshold(4, 1, "bogus")

    def test_least_restrictive_of_the_family(self):
        for k in range(1, 20):
            for nsel in range(1, k + 1):
                sharp = condition_threshold(k, nsel, Condition.SHARP)
                for other in (Condition.WANG2012, Condition.LIU2012,
                              Condition.SATPATHI2013A, Condition.SATPATHI2013B,
                              Condition.SHEN2014):
                    assert sharp > condition_threshold(k, nsel, other)


class TestCheckRecoveryCondition:
    def test_zero_constant_passes(self):
        est = RicEstimate(order=11, value=0.0, kind=RicKind.EXACT_ENUMERATION)
        assert check_recovery_condition(est, 5, 2)

    def test_half_fails_for_k4_n1(self):
        est = RicEstimate(order=5, value=0.5, kind=RicKind.EXACT_ENUMERATION)
        assert not check_recovery_condition(est, 4, 1)

    def test_under_inv_sqrt3_passes_for_k4_n2(self):
        est = RicEstimate(order=9, value=0.57, kind=RicKind.EXACT_ENUMERATION)
        assert check_recovery_condition(est, 4, 2)

    @pytest.mark.parametrize("k,nsel", [(4, 1), (3, 2), (1, 3)])
    def test_a_constant_at_the_threshold_does_not_certify(self, k, nsel):
        # the condition is delta < 1/sqrt(K/N + 1), strict
        est = RicEstimate(nsel * k + 1, condition_threshold(k, nsel), RicKind.EXACT_ENUMERATION)
        assert not check_recovery_condition(est, k, nsel)
        below = RicEstimate(est.order, math.nextafter(est.value, 0.0), est.kind)
        assert check_recovery_condition(below, k, nsel)

    def test_insufficient_order_rejected(self):
        est = RicEstimate(order=4, value=0.1, kind=RicKind.EXACT_ENUMERATION)
        with pytest.raises(ValueError, match="^estimate of order 4 cannot certify order 5$"):
            check_recovery_condition(est, 4, 1)

    def test_analytic_bound_covers_all_orders(self):
        est = du_ric_bound(np.full(3, 0.9))
        assert check_recovery_condition(est, 4, 1) in (True, False)  # no raise
