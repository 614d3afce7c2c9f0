"""The exponential calibration's closed-form screen keeps every bit.

``_calibrated_exponential_array`` decides each halving by the geometric
series' closed-form orness, and measures the midpoint's row with
``core._orness_rows`` only within ``_SCREEN_MARGIN`` of the target.  The
reference below is the loop it replaced, written with numpy only: 40
halvings, each summing the whole row matrix, whose rows it builds itself
as running products, one column at a time, with a libm last column.
Every parameter and weight must match it bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owakit import baselines
from owakit.baselines import _SCREEN_MARGIN, _calibrated_exponential_array, _or_like_orness
from owakit.core import _orness_rows


def _reference_rows(a, n, and_like=None):
    """The exponential rows at the parameters ``a``, written out: column j
    < n - 1 holds the running product (1 - a)^j, one multiplication at a
    time, scaled by ``a``; the last column is Python's (1 - a) ** (n - 1)."""
    base = 1.0 - a
    w = np.empty((n, a.size))  # column j of the rows is w[j]
    w[0] = 1.0
    for j in range(1, n - 1):
        np.multiply(w[j - 1], base, out=w[j])
    w = w.T.copy()
    w[:, : n - 1] *= a[:, np.newaxis]
    w[:, n - 1] = [b ** (n - 1) for b in base.tolist()]
    if and_like is not None:
        w[and_like] = w[and_like, ::-1]
    return w


def _reference(orness, n):
    """Weights, parameters and, per halving, the midpoints and their
    summed orness, from 40 halvings over the whole row matrix."""
    or_like = orness > 0.5
    coef = np.arange(n - 1, -1, -1, dtype=float)
    coefs = np.where(or_like[:, np.newaxis], coef, coef[::-1])
    lo, width = np.zeros(orness.size), 1.0
    visited = []
    for _ in range(40):
        mid = lo + 0.5 * width
        products = _reference_rows(mid, n)
        products *= coefs
        val = np.add.reduce(products, axis=1) / (n - 1)
        visited.append((mid, val))
        lo = np.where((val < orness) == or_like, mid, lo)
        width *= 0.5
    a = lo + 0.5 * width
    return _reference_rows(a, n, ~or_like), a, visited


def _assert_same(orness, n):
    w_ref, a_ref, _ = _reference(orness, n)
    w, a = _calibrated_exponential_array(orness, n)
    assert a.tobytes() == a_ref.tobytes()
    assert w.tobytes() == w_ref.tobytes()
    for i, target in enumerate(orness.tolist()):
        w1, a1 = _calibrated_exponential_array(np.array([target]), n)
        assert a1.tobytes() == a_ref[i : i + 1].tobytes(), target
        assert w1.tobytes() == w_ref[i : i + 1].tobytes(), target


@pytest.mark.parametrize("n", [2, 3, 5, 10, 37, 100, 1000])
def test_grid_of_1001_matches_the_reference(n):
    _assert_same(np.arange(1001) / 1000, n)


def test_grid_of_101_at_n_10000_matches_the_reference():
    _assert_same(np.arange(101) / 100, 10**4)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(n=st.integers(2, 2000), orness=st.floats(0.0, 1.0))
def test_one_element_matches_the_reference(n, orness):
    target = np.array([orness])
    w_ref, a_ref, _ = _reference(target, n)
    w, a = _calibrated_exponential_array(target, n)
    assert (a.tobytes(), w.tobytes()) == (a_ref.tobytes(), w_ref.tobytes())


@pytest.mark.parametrize("n", [2, 3, 10, 100, 1000])
def test_closed_form_is_far_inside_the_margin(n):
    # Over every midpoint the bisection visits, the closed form agrees
    # 100 times more closely than the margin needs with the row sum and
    # with _orness_rows of the oriented row, the value that now decides.
    orness = np.arange(101) / 100
    or_like = orness > 0.5
    for mid, val in _reference(orness, n)[2]:
        closed = np.array([_or_like_orness(a, n) for a in mid.tolist()])
        closed = np.where(or_like, closed, 1.0 - closed)
        assert np.max(np.abs(closed - val)) <= _SCREEN_MARGIN / 100
        measured = _orness_rows(_reference_rows(mid, n, ~or_like))
        assert np.max(np.abs(closed - measured)) <= _SCREEN_MARGIN / 100


@pytest.mark.parametrize("or_like, n", [(True, 3), (True, 100), (False, 2), (False, 100)])
def test_target_at_a_midpoints_row_sum_takes_the_exact_branch(monkeypatch, or_like, n):
    # The first halving visits a = 0.5; a target equal to that row's sum
    # is within the margin of the closed form, so the sum must decide.
    coef = np.arange(n - 1, -1, -1, dtype=float)
    row = _reference_rows(np.array([0.5]), n)
    row *= coef if or_like else coef[::-1]
    target = np.add.reduce(row, axis=1) / (n - 1)
    assert (target[0] > 0.5) == or_like
    built = []
    rows = baselines._exponential_rows

    def counting(a, n, and_like=None):
        built.append(a.tolist())
        return rows(a, n, and_like)

    monkeypatch.setattr(baselines, "_exponential_rows", counting)
    w, a = _calibrated_exponential_array(target, n)
    assert [0.5] in built[:-1]
    w_ref, a_ref, _ = _reference(target, n)
    assert (a.tobytes(), w.tobytes()) == (a_ref.tobytes(), w_ref.tobytes())


def test_at_most_one_exact_row_per_target(monkeypatch):
    # A halving builds a row only within the margin: a grid of 1001
    # targets at n = 1000 needs 176, where summing every halving built
    # 40 rows per target.  The grid's halvings build the rows of all its
    # targets within the margin in one call, and exactly the rows the
    # targets need one at a time.
    built = []
    rows = baselines._exponential_rows

    def counting(a, n, and_like=None):
        built.append(a.size)
        return rows(a, n, and_like)

    monkeypatch.setattr(baselines, "_exponential_rows", counting)
    orness = np.arange(1001) / 1000
    _calibrated_exponential_array(orness, 1000)
    assert built[-1] == orness.size
    grid_rows = sum(built[:-1])
    assert grid_rows <= orness.size
    one_by_one = 0
    for target in orness:
        built.clear()
        _calibrated_exponential_array(np.array([target]), 1000)
        assert set(built) <= {1}
        one_by_one += len(built) - 1
    assert grid_rows == one_by_one == 176
