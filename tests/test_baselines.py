import dataclasses
import itertools
import math
import tracemalloc
import warnings

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
from owakit import baselines
from owakit.baselines import CalibrationError, CalibrationResult, _maxent_rows
from oracle import maxent_oracle
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

    def test_last_cell_keeps_its_square_term_for_a_ratio_near_one(self):
        # At a = 2^-40 each step of the running product (1 - a)^j rounds the
        # a^2 term away, leaving the last cell low by about (n a)^2 / 2.  The
        # last cell is libm's, so the row still sums to 1 and its and-like
        # orness, where that cell has coefficient 1, meets the closed form.
        a, n = 2.0**-40, 4 * 10**6
        w = exponential_raw(a, n, "and-like")
        expected = 1.0 - baselines._or_like_orness(a, n)
        assert abs(orness(w) - expected) <= baselines._SCREEN_MARGIN

    def test_row_telescopes_where_one_minus_a_is_not_a_double(self):
        # The row is built from q = fl(1 - a); scaled by a instead of 1 - q it
        # summed to 0.99999999999478117 here and was refused.
        a, n = 2.1414570031423787e-12, 10**5
        assert 1.0 - (1.0 - a) != a
        assert abs(exponential_raw(a, n).w.sum() - 1.0) <= 1e-15

    @pytest.mark.parametrize("fill", [np.inf, -np.inf, "signaling NaN"])
    @pytest.mark.parametrize("a", [0.0, 0.3, 1.0])
    def test_no_arithmetic_on_unwritten_memory(self, monkeypatch, fill, a):
        # The last column of the fresh matrix is written, not scaled: the
        # memory it held before (inf * 0 is invalid) takes no part.
        expected = {(n, kind): exponential_raw(a, n, kind).w.tobytes()
                    for n in (2, 4, 5, 10, 50) for kind in ("or-like", "and-like")}
        empty = np.empty

        def filled(*args, **kwargs):
            out = empty(*args, **kwargs)
            if fill == "signaling NaN":
                out.view(np.uint64).fill(0x7FF0000000000001)
            else:
                out.fill(fill)
            return out

        monkeypatch.setattr(np, "empty", filled)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = {key: exponential_raw(a, *key).w.tobytes() for key in expected}
        assert got == expected

    @pytest.mark.parametrize("flag", [False, True, np.True_], ids=repr)
    def test_a_bool_is_not_a_number(self, flag):
        with pytest.raises(ValueError, match="^parameter a must be a number; got "):
            exponential_raw(flag, 5)

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

    def test_a_miss_raises_calibration_error(self, monkeypatch):
        # With no tolerance every inexact preset is a miss; the error
        # carries the parameter and residual of the unpatched call.
        _, res = exponential_weights(0.3, 5)
        residual = abs(res.achieved_orness - 0.3)
        assert residual > 0.0
        monkeypatch.setattr(baselines, "ORNESS_TOL", 0.0)
        with pytest.raises(CalibrationError) as info:
            exponential_weights(0.3, 5)
        assert str(info.value) == (
            f"exponential preset did not converge: best parameter {res.parameter:.17g} "
            f"leaves orness residual {residual:.3g}"
        )
        assert info.value.parameter == res.parameter
        assert info.value.residual == residual

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
        for n in (2, 5):
            w = _maxent_rows(np.array([0.0, 0.3, 1.0, 1e-300]), n)
            assert np.isnan(w[[0, 2]]).all()
            np.testing.assert_array_equal(w[1], maxent_weights(0.3, n).w)
            # 1 - 1e-300 rounds to 1.0, the folded value of orness 0 and 1
            # too, outside the solver's domain: NaN, but for n = 2's closed form.
            assert np.isnan(w[3]).all() == (n > 2)
            assert w[3].tobytes() == _maxent_rows(np.array([1e-300]), n)[0].tobytes()

    @pytest.mark.parametrize("n", [3, 5, 100])
    def test_the_solver_sees_only_its_domain(self, monkeypatch, n):
        # Orness 0, 1 and every orness <= 2^-54 fold to 1.0 and are not
        # solved; orness 0.5 has its closed form.  What is left folds into
        # [0.5, 1), in a grid or alone.
        seen = []
        solve = baselines._maxent_solve

        def spied(a, n, bracket):
            seen.append(a)
            return solve(a, n, bracket)

        monkeypatch.setattr(baselines, "_maxent_solve", spied)
        values = [0.0, 1e-300, 1e-17, 2**-54, 2**-53, 0.49999999999999994, 0.5, 1 - 2**-53, 1.0]
        _maxent_rows(np.array(values), n)
        for value in values:
            _maxent_rows(np.array([value]), n)
        assert all(0.5 <= a < 1.0 for a in seen)
        assert sorted(set(seen)) == [0.5, 1 - 2**-53]

    @pytest.mark.parametrize("n", [3, 5, 100])
    @pytest.mark.parametrize("value", [1e-300, 1e-17, 2**-54])
    def test_tiny_orness_is_refused_as_no_root(self, value, n):
        with pytest.raises(MaxentInstabilityError, match="no valid root of the first-weight"):
            maxent_weights(value, n)

    def test_tiny_orness_at_n2_keeps_its_closed_form(self):
        for value in (1e-300, 1e-17, 2**-54):
            assert maxent_weights(value, 2).w.tolist() == [value, 1.0]

    def test_a_rebuild_holds_one_row(self):
        # The geometric row is divided by its sum in place, so the traced
        # peak is one row of n doubles, not the row and a normalised copy.
        n = 10**6
        tracemalloc.start()
        try:
            w = baselines._rebuild_from_first_weight(1.5e-6, 0.7 * (n - 1), n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert w.shape == (n,)
        assert peak < 1.25 * w.nbytes

    @pytest.mark.parametrize("steps", [7, 101, 1001])
    @pytest.mark.parametrize("n", [2, 3, 5, 10, 100])
    def test_rows_equal_one_solve_per_value(self, n, steps):
        # Mirror rows reuse one solve reversed.  1 - k/6 is often not
        # (6 - k)/6; 1 - 0.49999999999999994 rounds to 0.5, which is not
        # the uniform row that orness 0.5 itself gets.  1001 steps fold to
        # more values than one bracket scan takes.
        a = np.concatenate(
            [np.linspace(0.0, 1.0, steps), [0.5, 0.49999999999999994, 1 - 1 / 6, 1 / 6]]
        )
        expected = np.array([_maxent_rows(np.array([value]), n)[0] for value in a.tolist()])
        assert _maxent_rows(a, n).tobytes() == expected.tobytes()

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


# Edge ratios, then ratios the families build rows of: 1 - a for the
# calibrated parameter at orness 0.83 and n = 100, the no-preset ratio at
# orness 0.7, and a maximum-entropy ratio from its polish at 0.3, n = 1000.
GEOMETRIC_RATIOS = [0.0, 5e-324, 0.01, 0.5, 0.97, 1.0 - 2.0**-53, 1.0]
GEOMETRIC_RATIOS += [
    1.0 - float.fromhex("0x1.c9fe17a150000p-5"),
    1.0 - 0.7,
    float.fromhex("0x1.fea2a99457c00p-1"),
]


def _running_product(q, n):
    """q^j for j < n as a Python loop: each cell the previous one times q."""
    row, p = [], 1.0
    for _ in range(n):
        row.append(p)
        p *= q
    return np.array(row)


class TestGeometricRows:
    """``_geometric_rows`` is a running product: each cell is the previous
    cell times q, rounded once, so its bits follow no SIMD loop."""

    @pytest.mark.parametrize("n", [2, 3, 17, 1000])
    def test_rows_are_the_running_product(self, n):
        w = baselines._geometric_rows(GEOMETRIC_RATIOS, n)
        assert w.shape == (len(GEOMETRIC_RATIOS), n)
        for q, row in zip(GEOMETRIC_RATIOS, w):
            expected = _running_product(q, n).tobytes()
            assert row.tobytes() == expected, q
            assert baselines._geometric_rows([q], n)[0].tobytes() == expected, q

    def test_an_underflowing_row_is_positive_zero_from_its_first_zero(self):
        (row,) = baselines._geometric_rows([0.01], 1000)
        first = int(np.flatnonzero(row == 0.0)[0])
        assert 0 < first < 1000
        assert np.all(row[:first] > 0.0)
        assert row[first:].tobytes() == bytes(8 * (1000 - first))
        assert not np.isnan(row).any()


_SIGN_CASES = [0.0, -0.0, 1.0, -1.0, float("inf"), float("-inf"), float("nan")]


def _bisection_mismatches():
    """(flo, fmid, df, got, expected) for each function on [0, 1] whose ends
    are of opposite nonzero finite sign, ``flo`` at 0, and that is ``fmid``
    inside, with a slope ``df`` that allows no Newton step, where
    ``_newton_bisection`` does not decide as ``np.sign`` does: the midpoint
    where ``fmid`` is 0 or not finite, else bisection up (``fmid`` of
    ``flo``'s sign) or down."""
    bad = []
    for flo, fmid, df in itertools.product(
        [1.0, -1.0], _SIGN_CASES, [0.0, float("inf"), float("nan")]
    ):
        got = baselines._newton_bisection(lambda x: fmid, lambda x: df, 0.0, 1.0, flo)
        if fmid == 0.0 or not np.isfinite(fmid):
            expected = "mid"
        else:
            expected = "up" if np.sign(fmid) == np.sign(flo) else "down"
        where = "mid" if got == 0.5 else "up" if got > 0.5 else "down"
        if where != expected:
            bad.append((flo, fmid, df, got, expected))
    return bad


class TestNewtonBisection:
    def test_decisions_follow_the_signs(self):
        assert _bisection_mismatches() == []

    def test_returns_after_the_iteration_cap(self):
        # A zero derivative forces bisection, and 120 halvings of a
        # 1.3e300 bracket stay far from the root at 0: the loop runs out.
        calls = []

        def f(x):
            calls.append(x)
            return x

        got = baselines._newton_bisection(f, lambda x: 0.0, -1e300, 3e299, -1e300)
        # The first midpoint, then one per iteration; never an end.
        assert len(calls) == 1 + baselines._NEWTON_MAX_ITER
        assert got == calls[-1]


class TestMaxentBracket:
    def test_scan_hands_newton_f_at_its_low_end(self, monkeypatch):
        # The grid's scan and a Python-float call of the polynomial at each
        # value take the same IEEE operations, so every bracket's value is
        # F(lo) bit for bit, and its ends are finite, nonzero and of
        # opposite sign.
        ends = []
        scan = baselines._maxent_brackets

        def spied(A, n):
            got = scan(A, n)
            assert len(got) == len(A)
            for value, bracket in zip(A, got):
                if bracket is not None:
                    F, _ = baselines._maxent_polynomial(value, n)
                    ends.append((bracket[2], F(bracket[0]), F(bracket[1])))
            return got

        monkeypatch.setattr(baselines, "_maxent_brackets", spied)
        for n in range(3, 151):
            _maxent_rows(np.arange(101) / 100, n)
        bad = [
            (flo, f_lo, f_hi)
            for flo, f_lo, f_hi in ends
            if not (
                f_lo.hex() == flo.hex()
                and math.isfinite(flo)
                and math.isfinite(f_hi)
                and flo != 0.0
                and f_hi != 0.0
                and (flo > 0.0) != (f_hi > 0.0)
            )
        ]
        assert len(ends) > 1000
        assert bad == []

    @pytest.mark.parametrize("n", [3, 5, 7, 100])
    def test_grid_scan_is_the_one_value_scan_on_linspace_points(self, n):
        # A bracket's ends are consecutive points of np.linspace over the
        # admissible interval, its last point that interval's end, whether
        # the value is scanned alone or in a grid.  At these n some
        # brackets end at that last point.
        folded = [(n - 1) * (1 - k / 100 if k < 50 else k / 100) for k in range(1, 100)]
        with np.errstate(over="ignore", invalid="ignore"):
            grid = baselines._maxent_brackets(folded, n)
            alone = [baselines._maxent_brackets([A], n)[0] for A in folded]
        assert grid == alone
        ends = 0
        for A, bracket in zip(folded, grid):
            if bracket is not None:
                points = np.linspace(1.0 / n, 1.0 / (n - A), 400).tolist()
                i = points.index(bracket[0])
                assert points[i + 1] == bracket[1]
                ends += i + 1 == len(points) - 1
        assert ends > 0


WEIGHT_CALLS = {
    "linear": linear_weights,
    "exponential": exponential_weights,
    "exponential-no-preset": exponential_weights_no_preset,
    "maxent": maxent_weights,
    "exponential-raw": exponential_raw,
}


@pytest.mark.parametrize("n", [5.0, 5.5, float("nan"), True])
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


PUBLIC_CALLS = {
    "linear": linear_weights,
    "exponential": exponential_weights,
    "exponential-no-preset": exponential_weights_no_preset,
    "maxent": maxent_weights,
    "evaluate_method": lambda orness, n: evaluate_method("linear", orness, n),
}


@pytest.mark.parametrize(
    "orness_value", ["0.3", None, True, np.True_], ids=["0.3", "None", "True", "np.True_"]
)
@pytest.mark.parametrize("call", PUBLIC_CALLS.values(), ids=PUBLIC_CALLS.keys())
def test_orness_must_be_a_number(call, orness_value):
    # One type rule: a ValueError naming the value, never a TypeError from
    # the range comparison and never a string parsed by one call alone.
    with pytest.raises(ValueError, match="^orness must be a number; got "):
        call(orness_value, 5)
