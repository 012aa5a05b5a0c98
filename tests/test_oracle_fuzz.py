"""Seeded differential fuzz of the isometry oracle's fast path (numpy only).

``exact_ric`` sends most supports through a screen instead of
``eigvalsh``; it must return the constant that ``eigvalsh`` on every
support gives, bit for bit, and refuse the same inputs, and the screen's
stage-1 bounds must bracket ``eigvalsh``'s extremes on every support. The
matrices come from four families: integer, duplicate-column, tie-heavy and
1e+-150-scaled.
"""

from itertools import combinations

import numpy as np
import pytest

from gompkit import exact_ric, rip

FAMILIES = ("integer", "duplicate-column", "tie-heavy", "scaled")


def draw(rng, family, shape):
    """One seeded matrix of ``family``."""
    if family == "integer":
        return rng.integers(-3, 4, size=shape).astype(float)
    if family == "tie-heavy":
        return rng.choice([-1.0, 0.0, 1.0], size=shape)
    a = rng.standard_normal(shape)
    if family == "duplicate-column":
        n = shape[-1]
        a[..., rng.integers(0, n)] = a[..., rng.integers(0, n)]
        return a
    return a * 10.0 ** float(rng.choice([-150, 150]))


def unscreened_ric(a, order):
    """``eigvalsh`` on every support of the same A^T A, floored at 0.0; None
    stands for the refusal of a Gram matrix that is not finite."""
    gram = gram_or_none(a)
    if gram is None:
        return None
    sets = np.array(list(combinations(range(a.shape[1]), order)))
    eigs = np.linalg.eigvalsh(gram[sets[:, :, None], sets[:, None, :]])
    return max(0.0, float(np.max(eigs) - 1.0), float(1.0 - np.min(eigs)))


def ric_outcome(a, order):
    try:
        return exact_ric(a, order).value
    except ValueError as exc:
        assert str(exc).startswith("A^T A is not finite"), exc
        return None


def gram_or_none(a):
    """A^T A, or None where it is not finite (``exact_ric`` refuses it)."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = a.T @ a
    return gram if np.isfinite(gram).all() else None


@pytest.mark.parametrize("family", FAMILIES)
def test_exact_ric_equals_eigvalsh_on_every_support(family, monkeypatch):
    rng = np.random.default_rng([2301, FAMILIES.index(family)])
    screened = []
    bordered = rip._bordered
    monkeypatch.setattr(rip, "_bordered", lambda *args: screened.append(1) or bordered(*args))
    for case in range(80):
        m, n = int(rng.integers(3, 10)), int(rng.integers(9, 14))
        a = draw(rng, family, (m, n))
        for order in {1, int(rng.integers(2, 7)), n - 1}:
            assert ric_outcome(a, order) == unscreened_ric(a, order), (case, order)
    assert screened  # not only unscreened first chunks


@pytest.mark.parametrize("family", FAMILIES)
def test_stage1_bounds_bracket_eigvalsh_on_every_support(family):
    # every support of every order of n <= 12 columns, through the plan's
    # prefix levels as the enumeration carries them
    rng = np.random.default_rng([2303, FAMILIES.index(family)])
    checked = 0
    for case in range(8):
        m, n = int(rng.integers(3, 10)), int(rng.integers(6, 13))
        gram = gram_or_none(draw(rng, family, (m, n)))
        if gram is None:
            continue
        flat = gram.ravel()
        for order in range(1, n + 1):
            plan = rip._cached_plan(n, order)
            _, (lo, hi) = rip._level_bounds(flat, plan)
            table = plan[-1][0].astype(np.intp)
            eigs = np.linalg.eigvalsh(flat[table[:, :, None] * n + table[:, None, :]])
            # a bound never certifies a side that an eigenvalue reaches
            assert not np.any(lo > eigs[:, 0]) and not np.any(hi < eigs[:, -1]), (case, order)
            checked += np.count_nonzero(np.isfinite(lo) & np.isfinite(hi))
    assert checked > 1000
