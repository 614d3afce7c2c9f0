"""Tests of the benchmark's output checker.

Run from the root of a checkout:  python3 -m pytest perfbench/tests
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

from owakit import (  # noqa: E402
    CalibrationError,
    MaxentInstabilityError,
    OrnessTarget,
    UnsupportedOrnessError,
    exponential_weights,
    exponential_weights_no_preset,
    linear_weights,
    maxent_weights,
)
from owakit.reports import MethodReport  # noqa: E402

from checker import (  # noqa: E402
    CERTIFIED,
    FAILED,
    FLAGGED,
    aggregate_mismatch,
    classify_exception,
    classify_sweep_row,
    classify_weights,
)


def _orness(w):
    n = len(w)
    return float(np.arange(n - 1, -1, -1) @ np.asarray(w) / (n - 1))


@pytest.mark.parametrize(
    "method, w, requested",
    [
        ("linear", linear_weights(OrnessTarget(0.3, 1.25), 10).w, 0.3),
        ("linear", linear_weights(OrnessTarget(1.0, 1.5), 50).w, 1.0),
        ("exponential", exponential_weights(0.8, 20)[0].w, 0.8),
        ("exponential-no-preset", exponential_weights_no_preset(0.8, 20).w, 0.8),
        ("maxent", maxent_weights(0.7, 30).w, 0.7),
    ],
)
def test_correct_vector_is_certified(method, w, requested):
    assert classify_weights(method, w, requested) == (CERTIFIED, None)


def test_orness_off_by_1e6_is_failed():
    w = linear_weights(0.3 + 1e-6, 10).w
    cls, reason = classify_weights("linear", w, 0.3)
    assert cls == FAILED and "orness" in reason


def test_no_preset_is_checked_on_the_simplex_only():
    w = exponential_weights_no_preset(0.8, 20).w
    assert abs(_orness(w) - 0.8) > 1e-3
    assert classify_weights("exponential-no-preset", w, 0.8)[0] == CERTIFIED


def test_negative_weight_is_failed():
    w = [0.6, 0.5, -0.1]
    cls, reason = classify_weights("exponential-no-preset", w, _orness(w))
    assert cls == FAILED and "[0, 1]" in reason


def test_sum_off_is_failed():
    w = [0.5, 0.3, 0.2 + 1e-10]
    assert classify_weights("exponential-no-preset", w, 0.5)[0] == FAILED


def test_non_geometric_maxent_is_failed():
    # Simplex and orness are exact; only the entropy optimum's form is off.
    w = [0.5, 0.3, 0.2]
    cls, reason = classify_weights("maxent", w, _orness(w))
    assert cls == FAILED and "geometric" in reason


@pytest.mark.parametrize(
    "exc",
    [
        UnsupportedOrnessError("orness 0"),
        MaxentInstabilityError("unstable", orness=0.99, n=100),
        CalibrationError("no convergence", parameter=0.5, residual=1e-3),
    ],
)
def test_documented_exception_is_flagged(exc):
    assert classify_exception(exc)[0] == FLAGGED


def test_library_refusal_is_flagged():
    with pytest.raises(UnsupportedOrnessError) as info:
        maxent_weights(0.0, 5)
    assert classify_exception(info.value)[0] == FLAGGED


@pytest.mark.parametrize("exc", [ValueError("bad"), ZeroDivisionError(), AssertionError()])
def test_undocumented_exception_is_failed(exc):
    assert classify_exception(exc)[0] == FAILED


@pytest.mark.parametrize("status", ["unstable", "unsupported"])
def test_sweep_refusal_status_is_flagged(status):
    row = MethodReport("maxent", None, 5, 1.0, None, None, None, status)
    assert classify_sweep_row(row)[0] == FLAGGED


def test_sweep_ok_row_is_checked():
    w = tuple(maxent_weights(0.7, 5).w)
    good = MethodReport("maxent", None, 5, 0.7, 0.7, 1.0, w, "ok")
    bad = MethodReport("maxent", None, 5, 0.7, 0.7, 1.0, (0.5, 0.2, 0.1, 0.1, 0.1), "ok")
    assert classify_sweep_row(good)[0] == CERTIFIED
    assert classify_sweep_row(bad)[0] == FAILED


def test_aggregate_mismatch():
    w = linear_weights(0.6, 5).w
    x = np.array([[3.0, 9.0, 5.0, 1.0, 7.0], [2.0, 2.0, 2.0, 0.0, 0.0]])
    y = np.sort(x, axis=1)[:, ::-1] @ w
    assert not aggregate_mismatch(w, x, y).any()
    y[1] *= 1 + 1e-9
    assert aggregate_mismatch(w, x, y).tolist() == [False, True]
    assert aggregate_mismatch(w, x[0], [np.nan]).tolist() == [True]
