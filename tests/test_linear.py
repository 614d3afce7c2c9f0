import numpy as np
import pytest

from owakit import OrnessTarget, f_alpha, linear_coefficients, linear_weights, orness
from owakit.linear import _weight_array
from owakit.reports import STATUS_UNSTABLE, evaluate_method
from oracle import solve_system_oracle

BETAS = (1.0, 1.25, 1.5)

GOLDEN_06_N5_B15 = [0.27155414, 0.24844584, 0.20422292, 0.16, 0.11577708]


class TestFAlpha:
    def test_endpoints(self):
        assert f_alpha(0.0, 1.5) == 0.0
        assert f_alpha(0.5, 1.25) == 1.0

    def test_interior_value(self):
        # 1 - 0.2**1.5 by independent calculator.
        assert f_alpha(0.4, 1.5) == pytest.approx(0.91055728, abs=1e-8)

    def test_alpha_domain(self):
        with pytest.raises(ValueError, match="alpha"):
            f_alpha(0.6)
        with pytest.raises(ValueError, match="alpha"):
            f_alpha(-0.01)

    def test_beta_domain(self):
        with pytest.raises(ValueError, match="beta"):
            f_alpha(0.3, 0.9)
        with pytest.raises(ValueError, match="beta"):
            f_alpha(0.3, 1.6)

    @pytest.mark.parametrize("flag", [False, True, np.False_, np.True_], ids=repr)
    def test_a_bool_is_not_a_number(self, flag):
        with pytest.raises(ValueError, match="^alpha must be a number; got "):
            f_alpha(flag, 1.5)
        with pytest.raises(ValueError, match="^alpha must be a number; got "):
            linear_coefficients(flag, 5)
        with pytest.raises(ValueError, match="^beta must be a number; got "):
            f_alpha(0.25, flag)
        with pytest.raises(ValueError, match="^beta must be a number; got "):
            linear_coefficients(0.25, 5, flag)

    @pytest.mark.parametrize("beta", BETAS)
    def test_monotone_and_bounded(self, beta):
        alphas = np.linspace(0.0, 0.5, 501)
        vals = np.array([f_alpha(a, beta) for a in alphas])
        assert np.all(np.diff(vals) >= 0.0)
        # Non-negativity of all weights hinges on 2a <= f(a) <= 3a.
        assert np.all(vals >= 2 * alphas - 1e-12)
        assert np.all(vals <= 3 * alphas + 1e-12)


class TestLinearCoefficients:
    def test_uniform_case(self):
        c = linear_coefficients(0.5, 5)
        assert c.K == pytest.approx(0.0, abs=1e-15)
        assert c.b == pytest.approx(0.2, abs=1e-15)
        assert c.delta == pytest.approx(0.8, abs=1e-15)

    def test_zero_mass_case(self):
        c = linear_coefficients(0.0, 5, 1.5)
        assert c.K == 0.0
        assert c.b == 0.0
        assert c.delta == 0.0

    def test_derived_case(self):
        c = linear_coefficients(0.4, 5, 1.5)
        assert c.K == pytest.approx(0.04422292, abs=1e-7)
        assert c.b == pytest.approx(0.07155416, abs=1e-7)
        assert c.delta == pytest.approx(0.72844582, abs=1e-7)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="linear_weights"):
            linear_coefficients(0.3, 2)

    @pytest.mark.parametrize("n", [5.0, 5.5, float("nan")])
    def test_n_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="^n must be an integer"):
            linear_coefficients(0.3, n)

    def test_numpy_integer_n(self):
        assert linear_coefficients(0.3, np.int64(5)) == linear_coefficients(0.3, 5)

    def test_beta_one_is_the_flat_line(self):
        for alpha in np.linspace(0.0, 0.5, 51):
            assert f_alpha(alpha, 1.0) == 2 * alpha
            for n in (3, 5, 100):
                assert linear_coefficients(alpha, n, 1.0).K == 0.0

    @pytest.mark.parametrize("beta", BETAS)
    def test_constraint_rows_hold(self, beta):
        # Both defining constraints of the 2x2 system, rebuilt literally.
        for n in (3, 5, 17, 64):
            m = n - 1
            for alpha in np.linspace(0.0, 0.5, 26):
                c = linear_coefficients(alpha, n, beta)
                assert c.K * m * (m + 1) / 2 + m * c.b == pytest.approx(
                    c.delta, abs=1e-12
                )
                assert c.K * (m + 1) * (m + 2) / 6 + c.b * (m + 1) / 2 == pytest.approx(
                    alpha, abs=1e-12
                )

    def test_slope_nonnegative(self):
        for beta in BETAS:
            for n in (3, 5, 20):
                for alpha in np.linspace(0.0, 0.5, 51):
                    assert linear_coefficients(alpha, n, beta).K >= -1e-15


class TestLinearWeights:
    def test_simple_average(self):
        for beta in BETAS:
            w = linear_weights(OrnessTarget(0.5, beta), 5)
            np.testing.assert_allclose(w.w, 0.2, atol=1e-15)

    def test_min_and_max_operators(self):
        w0 = linear_weights(0.0, 5)
        np.testing.assert_allclose(w0.w, [0, 0, 0, 0, 1], atol=1e-15)
        w1 = linear_weights(1.0, 5)
        np.testing.assert_allclose(w1.w, [1, 0, 0, 0, 0], atol=1e-15)

    def test_golden_vector(self):
        w = linear_weights(OrnessTarget(0.6, 1.5), 5)
        np.testing.assert_allclose(w.w, GOLDEN_06_N5_B15, atol=1e-6)
        assert orness(w) == pytest.approx(0.6, abs=1e-12)

    def test_beta_one_spreads_mass_evenly(self):
        # beta = 1 forces f(a) = 2a, so the line is flat: K = 0, b = 2a/n.
        w = linear_weights(OrnessTarget(0.3, 1.0), 5)
        np.testing.assert_allclose(w.w[:4], 0.12, atol=1e-12)
        assert w.w[4] == pytest.approx(1.0 - 0.48, abs=1e-12)

    def test_special_sizes(self):
        np.testing.assert_allclose(linear_weights(0.7, 1).w, [1.0])
        np.testing.assert_allclose(linear_weights(0.7, 2).w, [0.7, 0.3], atol=1e-15)

    def test_an_orness_miss_is_refused(self, monkeypatch):
        # With no tolerance, the row at orness 0.003 misses by a few 1e-19:
        # the public call raises and the report row is unstable, one rule.
        target = OrnessTarget(0.003, 1.5)
        residual = abs(orness(linear_weights(target, 5)) - 0.003)
        assert 0.0 < residual < 1e-18
        monkeypatch.setattr("owakit.core.ORNESS_TOL", 0.0)
        with pytest.raises(RuntimeError) as info:
            linear_weights(target, 5)
        assert str(info.value) == f"achieved orness misses the request by {residual:.3g}"
        assert evaluate_method("linear", 0.003, 5, 1.5).status == STATUS_UNSTABLE

    def test_accepts_bare_float(self):
        w = linear_weights(0.6, 5)
        np.testing.assert_allclose(w.w, GOLDEN_06_N5_B15, atol=1e-6)

    def test_exactness_grid(self):
        for n in range(3, 101):
            for beta in BETAS:
                for a in np.linspace(0.0, 1.0, 101):
                    w = linear_weights(OrnessTarget(a, beta), n)
                    assert abs(orness(w) - a) <= 1e-10

    def test_symmetry_about_half(self):
        for n in (3, 5, 10, 50):
            for beta in BETAS:
                for a in np.linspace(0.0, 1.0, 41):
                    lhs = linear_weights(OrnessTarget(a, beta), n).w
                    rhs = linear_weights(OrnessTarget(1.0 - a, beta), n).w[::-1]
                    np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_straight_line_structure(self):
        for n in (4, 7, 30):
            for beta in BETAS:
                for a in np.linspace(0.0, 0.5, 21, endpoint=False):
                    w = linear_weights(OrnessTarget(a, beta), n).w
                    diffs = np.diff(w[: n - 1])
                    np.testing.assert_allclose(diffs, diffs[0], atol=1e-12)

    def test_monotone_mass_transfer(self):
        for n in (3, 5, 25):
            for beta in BETAS:
                last = [
                    linear_weights(OrnessTarget(a, beta), n).w[-1]
                    for a in np.linspace(0.0, 0.5, 51)
                ]
                assert last[0] == pytest.approx(1.0)
                assert last[-1] == pytest.approx(1.0 / n)
                assert np.all(np.diff(last) <= 1e-15)


class TestOracleAgreement:
    @pytest.mark.parametrize("beta", BETAS)
    def test_closed_form_matches_cramer(self, beta):
        for n in range(3, 51):
            for alpha in np.arange(0.0, 0.5001, 0.05):
                c = linear_coefficients(alpha, n, beta)
                K_ref, b_ref = solve_system_oracle(alpha, n, beta)
                assert c.K == pytest.approx(K_ref, abs=1e-10)
                assert c.b == pytest.approx(b_ref, abs=1e-10)


class TestOneClosedForm:
    @pytest.mark.parametrize("beta", BETAS)
    def test_weights_are_built_from_the_coefficients(self, beta):
        # Criterion 1's grid: every weight vector is, bit for bit, the
        # line K*i + b plus 1 - delta that linear_coefficients reports.
        grid = np.linspace(0.0, 1.0, 101)
        for n in (3, 5, 10, 50, 100):
            for a, w in zip(grid, _weight_array(grid, n, beta)):
                c = linear_coefficients(min(a, 1.0 - a), n, beta)
                rebuilt = np.append(c.K * np.arange(1, n) + c.b, 1.0 - c.delta)
                if a > 0.5:
                    rebuilt = rebuilt[::-1]
                assert w.tobytes() == rebuilt.tobytes(), (a, n)

    def test_numpy_float_alpha_is_used_as_a_plain_float(self):
        # float32 arithmetic would put the line off the weights in the 8th digit.
        c = linear_coefficients(np.float32(0.3), 5, np.float32(1.25))
        assert [type(v) for v in (c.K, c.b, c.delta)] == [float] * 3
        rebuilt = np.append(c.K * np.arange(1, 5) + c.b, 1.0 - c.delta)
        w = linear_weights(OrnessTarget(np.float32(0.3), np.float32(1.25)), 5).w
        assert w.tobytes() == rebuilt.tobytes()
        assert type(f_alpha(np.float32(0.3), np.float32(1.25))) is float
