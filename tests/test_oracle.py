import numpy as np
import pytest

from oracle import System2x2, maxent_oracle, solve_system_oracle


class TestSystem2x2:
    def test_solves_simple_system(self):
        x, y = System2x2(2, 1, 1, 3, 5, 10).solve()
        assert x == pytest.approx(1.0)
        assert y == pytest.approx(3.0)

    def test_singular_raises(self):
        with pytest.raises(ArithmeticError, match="singular"):
            System2x2(1, 2, 2, 4, 1, 2).solve()


class TestSolveSystemOracle:
    def test_uniform_case(self):
        K, b = solve_system_oracle(0.5, 5)
        assert K == pytest.approx(0.0, abs=1e-14)
        assert b == pytest.approx(0.2, abs=1e-14)

    def test_zero_case(self):
        K, b = solve_system_oracle(0.0, 5, 1.5)
        assert K == pytest.approx(0.0, abs=1e-14)
        assert b == pytest.approx(0.0, abs=1e-14)

    def test_reference_point(self):
        K, b = solve_system_oracle(0.4, 5, 1.5)
        assert K == pytest.approx(0.04422292, abs=1e-7)
        assert b == pytest.approx(0.07155416, abs=1e-7)

    def test_domain(self):
        with pytest.raises(ValueError):
            solve_system_oracle(0.3, 2)
        with pytest.raises(ValueError):
            solve_system_oracle(0.7, 5)


class TestMaxentOracle:
    def test_uniform_at_half(self):
        w = maxent_oracle(0.5, 3)
        np.testing.assert_allclose(w, 1 / 3, atol=1e-6)

    def test_n2_unique_point(self):
        np.testing.assert_allclose(maxent_oracle(0.75, 2), [0.75, 0.25], atol=1e-12)

    def test_constraints_hold(self):
        for n in (3, 4, 5):
            for a in (0.3, 0.6, 0.75):
                w = maxent_oracle(a, n)
                assert w.sum() == pytest.approx(1.0, abs=1e-9)
                achieved = float((np.arange(n - 1, -1, -1) * w).sum() / (n - 1))
                assert achieved == pytest.approx(a, abs=1e-6)
                assert w.min() >= -1e-12

    def test_determinism(self):
        w1 = maxent_oracle(0.62, 4)
        w2 = maxent_oracle(0.62, 4)
        np.testing.assert_array_equal(w1, w2)

    def test_domain(self):
        with pytest.raises(ValueError):
            maxent_oracle(0.0, 4)
        with pytest.raises(ValueError):
            maxent_oracle(0.5, 6)
        with pytest.raises(ValueError):
            maxent_oracle(0.5, 4, grid_steps=50)

    def test_no_feasible_grid_point_raises(self):
        with pytest.raises(ArithmeticError, match="no feasible grid point"):
            maxent_oracle(0.97, 4)
