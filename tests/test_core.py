import ast
import itertools
import math
import pathlib

import numpy as np
import pytest

import owakit
from owakit import (
    DimensionMismatchError,
    InputVector,
    OrnessTarget,
    WeightVector,
    aggregate,
    dispersion,
    linear_weights,
    orness,
    uniform_weights,
)
from owakit.core import _simplex_rows


def random_weight_vectors(count, rng):
    for _ in range(count):
        n = int(rng.integers(2, 12))
        w = rng.dirichlet(np.ones(n) * rng.uniform(0.3, 3.0))
        yield WeightVector(w)


class TestWeightVector:
    def test_valid_construction(self):
        v = WeightVector([0.2, 0.3, 0.5])
        assert v.n == 3
        assert math.isclose(v.w.sum(), 1.0, abs_tol=1e-15)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            WeightVector([0.5, 0.6])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            WeightVector([1.2, -0.2])

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            WeightVector([])
        with pytest.raises(ValueError):
            WeightVector([np.nan, 1.0])

    def test_immutable(self):
        v = WeightVector([0.5, 0.5])
        with pytest.raises(ValueError):
            v.w[0] = 0.9


class TestSimplexRows:
    def test_each_bad_row_is_reported(self):
        rows = np.array([[0.5, 0.5], [0.5, 0.6], [1.2, -0.2]])
        assert _simplex_rows(rows)[1] == [
            None,
            "weights must sum to 1; got 1.1000000000000001",
            "weights must lie in [0, 1]; got range [-0.20000000000000001, 1.2]",
        ]

    def test_nan_fails_the_range_check(self):
        _, problems = _simplex_rows(np.array([[0.5, 0.5], [np.nan, 1.0]]))
        assert problems[0] is None
        assert problems[1] == "weights must lie in [0, 1]; got range [nan, nan]"

    def test_clips_within_tolerance(self):
        rows, problems = _simplex_rows(np.array([[1.0 + 5e-13, -5e-13], [0.25, 0.75]]))
        np.testing.assert_array_equal(rows, [[1.0, 0.0], [0.25, 0.75]])
        assert problems == [None, None]


class TestUniformWeights:
    @pytest.mark.parametrize("n", [0, -3, 2.5, float("nan"), "3"])
    def test_n_must_be_an_integer_of_at_least_one(self, n):
        with pytest.raises(ValueError, match="^n must be"):
            uniform_weights(n)

    def test_numpy_integer_n(self):
        np.testing.assert_array_equal(uniform_weights(np.int64(4)).w, [0.25] * 4)


class TestOrnessTarget:
    def test_defaults(self):
        t = OrnessTarget(0.7)
        assert t.beta == 1.5

    @pytest.mark.parametrize("orness_val", [-0.1, 1.1])
    def test_orness_bounds(self, orness_val):
        with pytest.raises(ValueError):
            OrnessTarget(orness_val)

    @pytest.mark.parametrize("beta", [0.99, 1.51])
    def test_beta_bounds(self, beta):
        with pytest.raises(ValueError):
            OrnessTarget(0.5, beta)


class TestOrness:
    def test_maximum_operator(self):
        assert orness(WeightVector([1, 0, 0, 0, 0])) == 1.0

    def test_simple_average(self):
        assert orness(uniform_weights(5)) == pytest.approx(0.5, abs=1e-15)

    def test_linear_family_vector(self):
        # Frozen from the independent 2x2-system oracle.
        raw = np.array([0.27155414, 0.24844584, 0.20422292, 0.16, 0.11577708])
        w = WeightVector(raw / raw.sum())
        assert orness(w) == pytest.approx(0.6, abs=1e-8)

    def test_degenerate_n1(self):
        with pytest.warns(UserWarning, match="degenerate"):
            assert orness(WeightVector([1.0])) == 0.5

    def test_reverse_identity(self):
        rng = np.random.default_rng(7)
        for v in random_weight_vectors(200, rng):
            assert orness(v.reversed()) == pytest.approx(1.0 - orness(v), abs=1e-12)


class TestDispersion:
    def test_single_atom(self):
        assert dispersion(WeightVector([1, 0, 0, 0, 0])) == 0.0

    @pytest.mark.parametrize("w", [[1.0], [0.0, 0.0, 1.0]])
    def test_single_atom_is_positive_zero(self, w):
        assert math.copysign(1.0, dispersion(WeightVector(w))) == 1.0

    def test_uniform_n5(self):
        assert dispersion(uniform_weights(5)) == pytest.approx(math.log(5), abs=1e-12)

    def test_uniform_n2(self):
        assert dispersion(WeightVector([0.5, 0.5])) == pytest.approx(math.log(2), abs=1e-12)

    def test_reverse_invariant(self):
        rng = np.random.default_rng(11)
        for v in random_weight_vectors(200, rng):
            assert dispersion(v.reversed()) == pytest.approx(dispersion(v), abs=1e-12)

    def test_bounded_by_log_n(self):
        rng = np.random.default_rng(13)
        for v in random_weight_vectors(200, rng):
            assert -1e-12 <= dispersion(v) <= math.log(v.n) + 1e-12


class TestAggregate:
    def test_max_operator(self):
        assert aggregate(WeightVector([1, 0, 0]), [3, 9, 5]) == 9

    def test_min_operator(self):
        assert aggregate(WeightVector([0, 0, 1]), [3, 9, 5]) == 3

    def test_linear_family_vector(self):
        raw = np.array([0.27155414, 0.24844584, 0.20422292, 0.16, 0.11577708])
        w = WeightVector(raw / raw.sum())
        # Sorted descending [5,4,3,2,1]; for this equally spaced input the
        # dot product reduces to 1 + (n-1)*orness = 3.4 (hand-checked).
        assert aggregate(w, [1, 2, 3, 4, 5]) == pytest.approx(3.4, abs=5e-5)

    def test_length_mismatch_names_both(self):
        with pytest.raises(DimensionMismatchError, match="3.*4|4.*3"):
            aggregate(WeightVector([0.5, 0.25, 0.25]), [1, 2, 3, 4])

    def test_compensative_bounds(self):
        rng = np.random.default_rng(17)
        for v in random_weight_vectors(150, rng):
            x = rng.normal(0, 10, size=v.n)
            y = aggregate(v, x)
            assert x.min() - 1e-12 <= y <= x.max() + 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(19)
        for v in random_weight_vectors(100, rng):
            x = rng.normal(0, 5, size=v.n)
            y = aggregate(v, x)
            perm = rng.permutation(v.n)
            assert aggregate(v, x[perm]) == pytest.approx(y, abs=1e-12)

    def test_uniform_weights_give_mean(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 15))
            x = rng.normal(0, 3, size=n)
            assert aggregate(uniform_weights(n), x) == pytest.approx(
                float(x.mean()), abs=1e-12
            )

    def test_accepts_input_vector(self):
        xv = InputVector([2.0, 1.0])
        assert aggregate(WeightVector([1, 0]), xv) == 2.0

    def test_leaves_caller_array_writeable(self):
        x = np.array([1.0, 2.0, 3.0])
        aggregate(uniform_weights(3), x)
        xv = InputVector(x)
        x[0] = 5.0
        assert not xv.x.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            xv.x[0] = 0.0

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 20, 100])
    def test_bit_identical_to_stable_argsort(self, n):
        # The reference is the stable argsort gather.  A sort that merely
        # orders the same values is not enough: the dot product must see a
        # contiguous array so its summation order, and every last bit, stay.
        rng = np.random.default_rng(n)
        signs = np.array([-1.0, -0.0, 0.0, 1.0])
        if 4**n <= 1024:
            patterns = signs[np.array(list(itertools.product(range(4), repeat=n)))]
        else:
            patterns = np.vstack(
                [np.repeat(signs[:, None], n, axis=1), rng.choice(signs, (1000, n))]
            )
        rows = np.vstack(
            [
                rng.integers(0, 10, (200, n)).astype(float),
                rng.standard_normal((200, n)),
                patterns,
            ]
        )
        for a in (0.0, 0.3, 0.8, 1.0):
            w = linear_weights(OrnessTarget(a), n)
            got = np.array([aggregate(w, x) for x in rows])
            ref = np.array([float(w.w @ x[np.argsort(-x, kind="stable")]) for x in rows])
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), (n, a)


def test_library_has_no_assert_statements():
    # ``python -O`` strips asserts, so none may carry library behaviour.
    sources = sorted(pathlib.Path(owakit.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name} has assert statements at lines {lines}"
