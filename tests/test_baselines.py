import dataclasses

import numpy as np
import pytest

from owakit import (
    MaxentInstabilityError,
    OrnessTarget,
    UnsupportedOrnessError,
    dispersion,
    exponential_raw,
    exponential_weights,
    exponential_weights_no_preset,
    linear_weights,
    maxent_weights,
    orness,
)
from owakit.baselines import CalibrationResult, _maxent_rows
from owakit.oracle import maxent_oracle
from owakit.reports import METHOD_EXPONENTIAL, evaluate_method


class TestExponentialRaw:
    def test_parameter_one_collapses_to_max(self):
        np.testing.assert_allclose(exponential_raw(1.0, 4, "or-like").w, [1, 0, 0, 0])

    def test_parameter_zero_collapses_to_min(self):
        np.testing.assert_allclose(exponential_raw(0.0, 4, "or-like").w, [0, 0, 0, 1])

    def test_geometric_values(self):
        np.testing.assert_allclose(
            exponential_raw(0.5, 3, "or-like").w, [0.5, 0.25, 0.25], atol=1e-15
        )

    def test_and_like_is_reverse(self):
        a = 0.37
        np.testing.assert_allclose(
            exponential_raw(a, 6, "and-like").w,
            exponential_raw(a, 6, "or-like").w[::-1],
        )

    def test_sums_telescope_to_one(self):
        for a in np.linspace(0.0, 1.0, 21):
            for n in (2, 5, 40):
                assert exponential_raw(a, n).w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            exponential_raw(1.2, 5)
        with pytest.raises(ValueError):
            exponential_raw(0.5, 1)
        with pytest.raises(ValueError):
            exponential_raw(0.5, 5, "sideways")

    def test_orness_monotone_in_parameter(self):
        # The property that makes bisection calibration correct.
        grid = np.linspace(0.0, 1.0, 101)
        for n in (3, 5, 20):
            or_like = [orness(exponential_raw(a, n, "or-like")) for a in grid]
            assert np.all(np.diff(or_like) >= -1e-12)
            and_like = [orness(exponential_raw(a, n, "and-like")) for a in grid]
            assert np.all(np.diff(and_like) <= 1e-12)


class TestExponentialCalibration:
    def test_extremes(self):
        w, res = exponential_weights(1.0, 5)
        np.testing.assert_allclose(w.w, [1, 0, 0, 0, 0], atol=1e-9)

    def test_n2_midpoint(self):
        w, _ = exponential_weights(0.5, 2)
        np.testing.assert_allclose(w.w, [0.5, 0.5], atol=1e-9)

    def test_achieves_requested_orness(self):
        for n in (2, 5, 30):
            for a in np.linspace(0.0, 1.0, 41):
                w, res = exponential_weights(a, n)
                assert abs(orness(w) - a) <= 1e-9
                assert abs(res.achieved_orness - a) <= 1e-9

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 37, 100, 1000])
    def test_achieved_orness_is_the_returned_vectors(self, n):
        # One orness per vector, bit for bit: the calibration result, the
        # public orness and the report row all measure the same weights.
        for k in range(201):
            a = k / 200
            w, res = exponential_weights(a, n)
            row = evaluate_method(METHOD_EXPONENTIAL, a, n)
            assert res.achieved_orness == orness(w) == row.achieved_orness, a

    def test_result_fields(self):
        names = [f.name for f in dataclasses.fields(CalibrationResult)]
        assert names == ["parameter", "achieved_orness", "iterations"]

    def test_increasing_distribution_above_half(self):
        # The calibrated and-like shape at orness 0.6 for n = 5 is an
        # increasing weight sequence, unlike the decreasing linear/maxent
        # shapes; record the comparison fact, assert orness only.
        w, _ = exponential_weights(0.6, 5)
        assert abs(orness(w) - 0.6) <= 1e-9

    def test_no_preset_drifts_except_endpoints(self):
        np.testing.assert_allclose(
            exponential_weights_no_preset(1.0, 5).w, [1, 0, 0, 0, 0]
        )
        np.testing.assert_allclose(
            exponential_weights_no_preset(0.0, 5).w, [0, 0, 0, 0, 1]
        )
        drift = orness(exponential_weights_no_preset(0.6, 5)) - 0.6
        assert abs(drift) > 0.1


class TestMaxent:
    def test_uniform_at_half(self):
        np.testing.assert_allclose(maxent_weights(0.5, 5).w, 0.2, atol=1e-12)

    def test_n2_is_determined(self):
        np.testing.assert_allclose(maxent_weights(0.75, 2).w, [0.75, 0.25], atol=1e-12)

    def test_rejects_extreme_orness(self):
        for bad in (0.0, 1.0):
            with pytest.raises(UnsupportedOrnessError):
                maxent_weights(bad, 5)

    def test_dominates_linear_at_06(self):
        w = maxent_weights(0.6, 5)
        # 1.56908458 computed independently by grid search and SLSQP.
        assert dispersion(w) >= 1.5690
        assert dispersion(w) >= dispersion(linear_weights(OrnessTarget(0.6, 1.5), 5))

    def test_entropy_dominance_over_other_methods(self):
        for n in (3, 5, 10):
            for a in np.linspace(0.05, 0.95, 19):
                d = dispersion(maxent_weights(a, n))
                for beta in (1.0, 1.25, 1.5):
                    assert d >= dispersion(linear_weights(OrnessTarget(a, beta), n)) - 1e-9
                w_exp, _ = exponential_weights(a, n)
                assert d >= dispersion(w_exp) - 1e-9

    def test_geometric_ratio_constant(self):
        for n in (4, 7, 20):
            for a in (0.25, 0.4, 0.6, 0.8):
                w = maxent_weights(a, n).w
                ratios = w[1:] / w[:-1]
                np.testing.assert_allclose(ratios, ratios[0], atol=1e-8)

    def test_symmetry(self):
        for n in (3, 5, 12):
            for a in (0.1, 0.3, 0.45, 0.62, 0.9):
                lhs = maxent_weights(a, n).w
                rhs = maxent_weights(1.0 - a, n).w[::-1]
                np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_achieved_orness(self):
        for n in (3, 5, 10):
            for a in np.linspace(0.02, 0.98, 25):
                assert abs(orness(maxent_weights(a, n)) - a) <= 1e-9
        # Larger n: the first-weight equation is only trustworthy away
        # from the extremes; the breakdown there is flagged, not silent.
        for n in (50, 100):
            for a in np.linspace(0.05, 0.95, 19):
                assert abs(orness(maxent_weights(a, n)) - a) <= 1e-9

    def test_instability_flagged_at_large_n_extreme_orness(self):
        # Known breakdown region of the first-weight equation; must raise
        # rather than return a silently wrong vector.
        with pytest.raises(MaxentInstabilityError):
            maxent_weights(0.99, 100)

    def test_rows_are_nan_outside_the_domain(self):
        w = _maxent_rows(np.array([0.0, 0.3, 1.0]), 5)
        assert np.isnan(w[[0, 2]]).all()
        np.testing.assert_array_equal(w[1], maxent_weights(0.3, 5).w)

    def test_oracle_crosscheck(self):
        for n in (2, 3, 4, 5):
            for a in (0.3, 0.6, 0.75):
                w_oracle = maxent_oracle(a, n)
                d_oracle = float(-(w_oracle[w_oracle > 0] * np.log(w_oracle[w_oracle > 0])).sum())
                d = dispersion(maxent_weights(a, n))
                assert abs(d - d_oracle) <= 1e-4
                # The analytic solver claims optimality; the brute search
                # must never beat it by more than its own resolution.
                assert d_oracle <= d + 1e-6


WEIGHT_CALLS = {
    "linear": linear_weights,
    "exponential": exponential_weights,
    "exponential-no-preset": exponential_weights_no_preset,
    "maxent": maxent_weights,
    "exponential-raw": exponential_raw,
}


@pytest.mark.parametrize("n", [5.0, 5.5, float("nan")])
@pytest.mark.parametrize("call", WEIGHT_CALLS.values(), ids=WEIGHT_CALLS.keys())
def test_n_must_be_an_integer(call, n):
    # One contract for every weight call: a ValueError naming n, never a
    # TypeError from numpy, a flagged breakdown or a silent result.
    with pytest.raises(ValueError, match="^n must be an integer"):
        call(0.3, n)


@pytest.mark.parametrize("call", WEIGHT_CALLS.values(), ids=WEIGHT_CALLS.keys())
def test_numpy_integer_n_is_accepted(call):
    def weights(n):
        out = call(0.3, n)
        return (out[0] if isinstance(out, tuple) else out).w

    np.testing.assert_array_equal(weights(np.int64(5)), weights(5))


def test_exponential_raw_parameter_error_names_a():
    # Checked before n, so a bad ``a`` is reported even with a bad n.
    with pytest.raises(ValueError, match="^parameter a must be in"):
        exponential_raw(float("nan"), 5.0)


@pytest.mark.parametrize("call", WEIGHT_CALLS.values(), ids=WEIGHT_CALLS.keys())
def test_numpy_integer_n_gives_identical_bits(call):
    # n is used as a plain int: numpy's power of a float to an int64
    # rounds differently from Python's in the last bit.
    def weights(a, n):
        out = call(a, n)
        return (out[0] if isinstance(out, tuple) else out).w

    for n in (5, 40):
        for a in np.linspace(0.05, 0.95, 19):
            np.testing.assert_array_equal(weights(float(a), np.int64(n)), weights(float(a), n))


def _outcome(call, *args):
    """The weights' bytes, or the exception's type and message."""
    try:
        out = call(*args)
    except (ValueError, MaxentInstabilityError) as exc:
        return type(exc), str(exc)
    return (out[0] if isinstance(out, tuple) else out).w.tobytes()


def _linear_target(a, n):
    return linear_weights(OrnessTarget(a, type(a)(1.25)), n)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "call",
    [linear_weights, _linear_target, exponential_weights, exponential_weights_no_preset,
     maxent_weights],
    ids=["linear", "linear-target", "exponential", "exponential-no-preset", "maxent"],
)
def test_numpy_float_requests_give_the_bits_of_the_float(call, dtype):
    # The request is used as a plain float: numpy float32 arithmetic would
    # build the weights in single precision.
    for n in (3, 5, 10, 100):
        for k in range(101):
            a = dtype(k / 100)
            assert _outcome(call, a, n) == _outcome(call, float(a), n), (n, k)
