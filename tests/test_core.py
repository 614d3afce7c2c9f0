import array
import ast
import itertools
import math
import pathlib
import pickle
import warnings
from fractions import Fraction

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
from owakit.core import (
    _SUM_COLUMNS,
    _dispersion_rows,
    _orness_rows,
    _real_array,
    _simplex_rows,
)


def random_weight_vectors(count, rng):
    for _ in range(count):
        n = int(rng.integers(2, 12))
        w = rng.dirichlet(np.ones(n) * rng.uniform(0.3, 3.0))
        yield WeightVector(w)


class TestWeightVector:
    def test_valid_construction(self):
        v = WeightVector([0.2, 0.3, 0.5])
        assert v.n == len(v) == 3
        assert list(v) == [0.2, 0.3, 0.5]
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

    @pytest.mark.parametrize(
        "w", [[np.nan, 1.0], [np.inf, 0.0], [0.0, -np.inf], [np.inf, -np.inf], [np.nan]]
    )
    def test_nonfinite_weights_are_named_before_range_and_sum(self, w):
        # The range test catches them; the message still names finiteness.
        with pytest.raises(ValueError, match="^weights must be finite$"):
            WeightVector(w)
        with pytest.raises(ValueError, match="^weights must be finite$"):
            WeightVector(np.array(w))

    def test_immutable(self):
        v = WeightVector([0.5, 0.5])
        with pytest.raises(ValueError):
            v.w[0] = 0.9

    @pytest.mark.parametrize(
        "call",
        [
            lambda: linear_weights(0.3, 5),
            lambda: owakit.exponential_weights(0.3, 5)[0],
            lambda: owakit.exponential_weights_no_preset(0.3, 5),
            lambda: owakit.maxent_weights(0.3, 5),
        ],
        ids=["linear", "exponential", "exponential-no-preset", "maxent"],
    )
    def test_a_public_call_keeps_its_kernel_row_read_only(self, call):
        # The row is kept with no copy: the kernel matrix it views is
        # read-only too, so no write through ``w.base`` reaches it.
        v = call()
        assert v.w.base is not None
        for a in (v.w, v.w.base):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.9

    def test_clips_a_copy_and_keeps_negative_zero(self):
        raw = np.array([1.0 + 5e-13, -5e-13, -0.0])
        v = WeightVector(raw)
        assert v.w.tobytes() == np.array([1.0, 0.0, -0.0]).tobytes()
        assert raw.flags.writeable and raw[1] == -5e-13
        raw[0] = 0.5
        assert v.w[0] == 1.0


class TestSimplexRows:
    def test_each_bad_row_is_reported(self):
        rows = np.array([[0.5, 0.5], [0.5, 0.6], [1.2, -0.2]])
        assert _simplex_rows(rows) == [
            None,
            "weights must sum to 1; got 1.1000000000000001",
            "weights must lie in [0, 1]; got range [-0.20000000000000001, 1.2]",
        ]

    def test_nan_fails_the_range_check(self):
        problems = _simplex_rows(np.array([[0.5, 0.5], [np.nan, 1.0]]))
        assert problems[0] is None
        assert problems[1] == "weights must lie in [0, 1]; got range [nan, nan]"

    def test_clips_within_tolerance(self):
        rows = np.array([[1.0 + 5e-13, -5e-13], [0.25, 0.75]])
        assert _simplex_rows(rows) == [None, None]
        np.testing.assert_array_equal(WeightVector(rows[0]).w, [1.0, 0.0])
        np.testing.assert_array_equal(WeightVector(rows[1]).w, [0.25, 0.75])


class TestUniformWeights:
    @pytest.mark.parametrize("n", [0, -3, 2.5, float("nan"), "3"])
    def test_n_must_be_an_integer_of_at_least_one(self, n):
        with pytest.raises(ValueError, match="^n must be"):
            uniform_weights(n)

    @pytest.mark.parametrize("n", [True, False])
    def test_bool_n_is_not_an_integer(self, n):
        with pytest.raises(ValueError, match="^n must be an integer; got "):
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

    @pytest.mark.parametrize(
        "value",
        ["0.3", None, np.array([0.3]), np.array([0.3, 0.4]), True, False, np.True_],
        ids=repr,
    )
    def test_non_numbers_are_value_errors(self, value):
        with pytest.raises(ValueError, match="^orness must be a number; got "):
            OrnessTarget(value)
        with pytest.raises(ValueError, match="^beta must be a number; got "):
            OrnessTarget(0.3, value)


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

    def test_degenerate_n1_rows_warn_once(self):
        with pytest.warns(UserWarning, match="degenerate") as record:
            assert _orness_rows(np.ones((3, 1))) == [0.5, 0.5, 0.5]
        assert len(record) == 1

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


def _row_sum_grid(n):
    """Eight weight rows of size ``n``: log-uniform cells, uniform, a +0.0
    cell, every third cell -0.0, and single atoms among +0.0 and -0.0 cells."""
    if n == 1:
        return np.ones((2, 1))
    rng = np.random.default_rng(n)
    cells = 10 ** rng.uniform(-12, 0, (8, n))
    cells[1] = 1.0
    cells[2, rng.integers(n)] = 0.0
    cells[3, ::3] = -0.0
    w = cells / cells.sum(axis=1, keepdims=True)
    w[4:6] = np.where(np.arange(n) == n // 2, 1.0, 0.0)
    w[6:8] = np.where(np.arange(n) == n - 1, 1.0, -0.0)
    w[5], w[7] = w[5, ::-1], w[7, ::-1]
    return w


class TestOneRowSum:
    """Orness and dispersion sum each row's terms by one rule: pairwise
    within column chunks of ``_SUM_COLUMNS``, the chunk sums added left to
    right.  A row's value is the same alone or in a grid."""

    SIZES = (1, 2, 7, _SUM_COLUMNS - 1, _SUM_COLUMNS, _SUM_COLUMNS + 1, 2 * _SUM_COLUMNS + 3)

    @pytest.mark.filterwarnings("ignore:orness of a length-1")
    @pytest.mark.parametrize("n", SIZES)
    def test_rows_equal_their_one_row_calls(self, n):
        w = _row_sum_grid(n)
        for rows, one in ((_orness_rows, orness), (_dispersion_rows, dispersion)):
            got = rows(w)
            for k, row in enumerate(w):
                alone = rows(row[np.newaxis])[0]
                assert repr(got[k]) == repr(alone) == repr(one(WeightVector(row))), (n, k)

    @pytest.mark.parametrize("n", SIZES[1:])
    def test_orness_is_the_chunked_pairwise_sum(self, n):
        w = _row_sum_grid(n)
        coef = np.arange(n - 1, -1, -1, dtype=float)
        for got, row in zip(_orness_rows(w), w):
            total = 0.0
            for k in range(0, n, _SUM_COLUMNS):
                total += float((row[k : k + _SUM_COLUMNS] * coef[k : k + _SUM_COLUMNS]).sum())
            assert repr(got) == repr(total / (n - 1)), n

    @pytest.mark.parametrize("n", SIZES)
    def test_single_atoms_have_positive_zero_dispersion(self, n):
        atoms = _row_sum_grid(n)[-4:]
        assert [repr(d) for d in _dispersion_rows(atoms)] == ["0.0"] * len(atoms)


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
        assert xv.n == 2
        assert aggregate(WeightVector([1, 0]), xv) == 2.0

    def test_leaves_caller_array_writeable(self):
        x = np.array([1.0, 2.0, 3.0])
        aggregate(uniform_weights(3), x)
        xv = InputVector(x)
        x[0] = 5.0
        assert xv.x[0] == 1.0
        assert not xv.x.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            xv.x[0] = 0.0
        # np.asarray shares an array.array('d') buffer; the vector must not.
        buf = array.array("d", [1.0, 2.0, 3.0])
        bv = InputVector(buf)
        buf[0] = 5.0
        assert bv.x.tolist() == [1.0, 2.0, 3.0]

    def test_real_numbers_of_any_type(self):
        # Integers beyond 64 bits and fractions come as an object array,
        # whose items are all real numbers.
        w = WeightVector([Fraction(1, 2), Fraction(1, 2)])
        assert aggregate(w, [2**70, 0]) == 2.0**69
        with pytest.raises(ValueError, match="^inputs must be real numbers, not bools$"):
            aggregate(w, np.array([True, False]))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 20, 100, 1000])
    def test_bit_identical_to_stable_argsort(self, n):
        # The reference is ``@`` over the stable argsort gather.  aggregate
        # takes 0.0 - dot(w, sort(-x)): each product is the exact negation
        # of the reference's and rounding to nearest is sign-symmetric, so
        # the sum in the same order is the exact negation too.  ``0.0 -``
        # turns it back and maps a zero sum of either sign to +0.0, which
        # ``@`` gives; ``dot`` alone gives -0.0 for w = [1.0], x = [-0.0].
        # A tie of -0.0 and 0.0 may sort either way without showing.
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
                rng.choice(EXTREMES, (200, n)),
            ]
        )
        for a in (0.0, 0.3, 0.8, 1.0):
            assert_matches_reference(linear_weights(OrnessTarget(a), n), rows)

    @pytest.mark.parametrize(
        "w", [[-0.0, 1.0], [1.0, -0.0, -0.0], [0.25, -0.0, 0.75]], ids=repr
    )
    def test_bit_identical_with_negative_zero_weights(self, w):
        # Every row over the extremes at this n, against the same reference.
        w = WeightVector(w)
        assert np.signbit(w.w).any()
        rows = np.array(list(itertools.product(EXTREMES, repeat=w.n)))
        assert_matches_reference(w, rows)

    def test_never_writes_its_input(self):
        # _real_array shares a float64 ndarray's buffer and an
        # array.array('d')'s; the sort must happen in a copy.
        values = [3.0, -0.0, 1.0, 0.0, -2.0]
        w = linear_weights(OrnessTarget(0.7), len(values))
        for x in (
            np.array(values),
            list(values),
            array.array("d", values),
            np.array(values[::-1])[::-1],
            np.repeat(values, 2)[::2],
            np.array(values, dtype=">f8"),
        ):
            before = np.array(x, dtype=float).tobytes()
            aggregate(w, x)
            assert np.array(x, dtype=float).tobytes() == before, type(x).__name__


class _Subclass(np.ndarray):
    pass


# Exact in float32, with a tie of -0.0 and 0.0.
FORM_VALUES = [3.0, -0.0, 1.5, 0.0, -2.0, 7.25]
# (values, how to build the form from them)
INPUT_FORMS = {
    "float64": (FORM_VALUES, np.array),
    "reversed view": (FORM_VALUES, lambda v: np.array(v[::-1])[::-1]),
    "step-2 view": (FORM_VALUES, lambda v: np.repeat(v, 2)[::2]),
    "big-endian": (FORM_VALUES, lambda v: np.array(v, dtype=">f8")),
    "float32": (FORM_VALUES, lambda v: np.array(v, dtype=np.float32)),
    "int64": ([3, 0, 1, 0, -2, 7], lambda v: np.array(v, dtype=np.int64)),
    "bool": ([True, False, True, True, False, False], lambda v: np.array(v, dtype=bool)),
    "list": (FORM_VALUES, list),
    "tuple": (FORM_VALUES, tuple),
    "array.array": (FORM_VALUES, lambda v: array.array("d", v)),
    "pickled": (FORM_VALUES, lambda v: pickle.loads(pickle.dumps(np.array(v)))),
    "subclass": (FORM_VALUES, lambda v: np.array(v).view(_Subclass)),
    "0-d": (3.0, np.array),
    "empty": ([], lambda v: np.array(v, dtype=float)),
    "1 x n": ([FORM_VALUES], np.array),
}


def _outcome(call, x):
    """call(x) as comparable data: the result's bits, or the error's type and message."""
    try:
        result = call(x)
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(result, InputVector):
        return result.x.dtype, result.x.view(np.uint64).tolist()
    return np.float64(result).view(np.uint64)


def _unchained(exc):
    """Whether ``exc`` shows no other exception in its traceback."""
    return exc.__cause__ is None and (exc.__context__ is None or exc.__suppress_context__)


class TestInputForms:
    # Every form of the same values takes either the fast path of
    # _real_array or the general one; both must give what the list gives.
    @pytest.mark.parametrize("form", INPUT_FORMS, ids=str)
    def test_same_outcome_as_the_list(self, form):
        values, make = INPUT_FORMS[form]
        w = linear_weights(OrnessTarget(0.7), len(FORM_VALUES))
        for call in (lambda x: aggregate(w, x), InputVector):
            assert _outcome(call, make(values)) == _outcome(call, values)

    @pytest.mark.parametrize("form", INPUT_FORMS, ids=str)
    def test_length_mismatch_matches_the_list(self, form):
        # The dot product refuses another length: every form must raise what
        # the list raises, with no numpy error chained onto it.
        values, make = INPUT_FORMS[form]
        w = linear_weights(OrnessTarget(0.7), len(FORM_VALUES) + 1)
        x = make(values)
        call = lambda v: aggregate(w, v)
        assert _outcome(call, x) == _outcome(call, values)
        with pytest.raises(ValueError) as raised:
            aggregate(w, x)
        if isinstance(raised.value, DimensionMismatchError):
            with pytest.raises(DimensionMismatchError) as as_vector:
                aggregate(w, InputVector(x))
            assert str(as_vector.value) == "weight vector has length 7 but input vector has length 6"
            assert _unchained(as_vector.value)
        assert _unchained(raised.value)

    @pytest.mark.parametrize("form", ["float64", "reversed view", "step-2 view"])
    def test_exact_float64_array_is_returned_as_is(self, form):
        values, make = INPUT_FORMS[form]
        x = make(values)
        assert _real_array(x, "inputs") is x


# Signed zeros, ones, the largest and smallest magnitudes.
EXTREMES = np.array([-1e308, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0, 2.0, 1e308])


def assert_matches_reference(w, rows):
    """aggregate(w, x) equals ``@`` over the stable descending gather, bit
    for bit, for every row x of ``rows``."""
    got = np.array([aggregate(w, x) for x in rows])
    ref = np.array([float(w.w @ x[np.argsort(-x, kind="stable")]) for x in rows])
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), w.w


# Each non-finite value first, in the middle, last and alone.
NONFINITE_ROWS = [
    row
    for bad in (np.nan, np.inf, -np.inf)
    for row in ([bad, 1.0, 2.0], [1.0, bad, 2.0], [1.0, 2.0, bad], [bad])
]


class TestFiniteInputs:
    # aggregate reads finiteness off its sort, InputVector checks it
    # outright; both give one message, before any length check.
    @pytest.mark.parametrize("row", NONFINITE_ROWS, ids=repr)
    @pytest.mark.parametrize(
        "form",
        [list, np.array, lambda row: np.array(row[::-1])[::-1]],
        ids=["list", "ndarray", "reversed view"],
    )
    def test_one_message_everywhere(self, row, form):
        for w in (uniform_weights(len(row)), uniform_weights(len(row) + 1)):
            with pytest.raises(ValueError, match="^inputs must be finite$"):
                aggregate(w, form(row))
        with pytest.raises(ValueError, match="^inputs must be finite$"):
            InputVector(form(row))

    # An inf paired with a zero weight makes the dot product warn "invalid
    # value", so the finite check must come before it, not from its result.
    @pytest.mark.parametrize(
        "w, row",
        [
            ([0.0, 1.0], [np.inf, 1.0]),
            ([1.0, 0.0], [1.0, -np.inf]),
            ([0.0, 0.5, 0.5], [1.0, np.inf, 2.0]),
            ([0.5, 0.5, 0.0], [-np.inf, 1.0, 2.0]),
        ],
        ids=repr,
    )
    def test_inf_at_a_zero_weight(self, w, row):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^inputs must be finite$"):
                aggregate(WeightVector(w), row)


def test_library_has_no_assert_statements():
    # ``python -O`` strips asserts, so none may carry library behaviour.
    sources = sorted(pathlib.Path(owakit.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name} has assert statements at lines {lines}"


def test_library_calls_blas_only_in_aggregate():
    # Orness and dispersion sum in numpy, so the host's BLAS core reaches no
    # pinned number; aggregate keeps its dot product.
    blas = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum"}
    found = []
    for path in sorted(pathlib.Path(owakit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        nodes = list(ast.walk(tree))
        funcs = [f for f in nodes if isinstance(f, ast.FunctionDef) and f.name == "aggregate"]
        allowed = {id(node) for f in funcs for node in ast.walk(f)}
        for node in nodes:
            matmul = isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
            if matmul or (isinstance(node, ast.Attribute) and node.attr in blas):
                found.append((path.name, node.lineno, id(node) in allowed))
    # The one call left is aggregate's ``ww.dot``.
    assert [f for f in found if not f[2]] == [] and len(found) == 1
