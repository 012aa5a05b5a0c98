"""Seeded differential fuzz of the two oracles' fast paths (numpy only).

``exact_ric`` sends most supports through a screen instead of
``eigvalsh``; it must return the constant that ``eigvalsh`` on every
support gives, bit for bit, and refuse the same inputs. ``orthogonal_factor``
clears most inputs with a Cholesky certificate instead of its SVD guard; it
must refuse as Singular exactly the inputs the guard refuses and return the
guard path's factor bit for bit otherwise. The matrices come from four
families: integer, duplicate-column, tie-heavy and 1e+-150-scaled.
"""

from itertools import combinations

import numpy as np
import pytest

from gompkit import Singular, exact_ric, orthogonal_factor
from gompkit import linops, rip
from gompkit.linops import RANK_RTOL

FAMILIES = ("integer", "duplicate-column", "tie-heavy", "scaled")


def draw(rng, family, shape):
    """One seeded matrix (or stack) of ``family``."""
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
    with np.errstate(over="ignore", invalid="ignore"):
        gram = a.T @ a
    if not np.isfinite(gram).all():
        return None
    sets = np.array(list(combinations(range(a.shape[1]), order)))
    eigs = np.linalg.eigvalsh(gram[sets[:, :, None], sets[:, None, :]])
    return max(0.0, float(np.max(eigs) - 1.0), float(1.0 - np.min(eigs)))


def guard_factor(m):
    """The orthogonal factor decided by the SVD guard alone; None stands
    for a Singular refusal."""
    s = np.linalg.svd(m, compute_uv=False)
    if ((s[..., 0] <= 0.0) | (s[..., -1] < RANK_RTOL * s[..., 0])).any():
        return None
    q, r = np.linalg.qr(m)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return q * signs[..., None, :]


def ric_outcome(a, order):
    try:
        return exact_ric(a, order).value
    except ValueError as exc:
        assert str(exc).startswith("A^T A is not finite"), exc
        return None


def factor_outcome(m):
    try:
        return orthogonal_factor(m)
    except Singular:
        return None


@pytest.mark.parametrize("family", FAMILIES)
def test_exact_ric_equals_eigvalsh_on_every_support(family, monkeypatch):
    rng = np.random.default_rng([2301, FAMILIES.index(family)])
    screened = []
    screen = rip._screen
    monkeypatch.setattr(rip, "_screen", lambda *args: screened.append(1) or screen(*args))
    for case in range(80):
        m, n = int(rng.integers(3, 10)), int(rng.integers(9, 14))
        a = draw(rng, family, (m, n))
        for order in {1, int(rng.integers(2, 7)), n - 1}:
            assert ric_outcome(a, order) == unscreened_ric(a, order), (case, order)
    assert screened  # not only unscreened first chunks


@pytest.mark.parametrize("family", FAMILIES)
def test_orthogonal_factor_certificate_equals_the_svd_guard(family, monkeypatch):
    rng = np.random.default_rng([2302, FAMILIES.index(family)])
    certified, refused = [], []
    certify = linops._certified_nonsingular
    monkeypatch.setattr(linops, "_certified_nonsingular", lambda m: certified.append(certify(m)) or certified[-1])
    for case in range(200):
        n = int(rng.integers(2, 14))
        count = 128 // (n * n) + int(rng.integers(1, 9))  # a stack always meets the certificate
        m = draw(rng, family, (count, n, n) if case % 2 else (n, n))
        got, want = factor_outcome(m), guard_factor(m)
        if want is None:
            assert got is None, case
        else:
            assert got is not None and got.tobytes() == want.tobytes(), case
        refused.append(want is None)
    assert True in certified
    if family != "scaled":  # scaled Gaussian draws are nonsingular
        assert False in certified and any(refused) and not all(refused)
