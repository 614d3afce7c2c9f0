import dataclasses
import inspect

import numpy as np
import pytest

import owakit

NUMBER, ARRAY, WEIGHTS, OTHER = "number", "array", "weights", "other"
BAD = {
    NUMBER: ["0.3", None, np.array([0.3, 0.4])],
    ARRAY: [
        ["0.5", "0.5"],
        [0.5 + 1j, 0.5],
        [0.5, None],
        [True, False],
        np.array([True, False]),
        [0.5, True],
    ],
    WEIGHTS: [[0.5, 0.5], None, np.array([0.5, 0.5])],
}
W2 = owakit.WeightVector([0.5, 0.5])

# Every parameter of every public call: its kind, a valid value and the
# name its ValueError gives.  A public call that is missing here, or that
# gains a parameter, fails the test below until it is listed.
ARGUMENTS = {
    "InputVector": {"x": (ARRAY, [1.0, 2.0], "inputs")},
    "OrnessTarget": {"orness": (NUMBER, 0.3, "orness"), "beta": (NUMBER, 1.25, "beta")},
    "WeightVector": {"w": (ARRAY, [0.5, 0.5], "weights")},
    "aggregate": {"w": (WEIGHTS, W2, "w"), "x": (ARRAY, [1.0, 2.0], "inputs")},
    "dispersion": {"w": (WEIGHTS, W2, "w")},
    "orness": {"w": (WEIGHTS, W2, "w")},
    "uniform_weights": {"n": (NUMBER, 2, "n")},
    "f_alpha": {"alpha": (NUMBER, 0.3, "alpha"), "beta": (NUMBER, 1.25, "beta")},
    "linear_coefficients": {
        "alpha": (NUMBER, 0.3, "alpha"),
        "n": (NUMBER, 3, "n"),
        "beta": (NUMBER, 1.25, "beta"),
    },
    "linear_weights": {"target": (NUMBER, 0.3, "orness"), "n": (NUMBER, 2, "n")},
    "exponential_raw": {
        "a": (NUMBER, 0.3, "parameter a"),
        "n": (NUMBER, 2, "n"),
        "kind": (OTHER, "and-like", None),
    },
    "exponential_weights": {"orness": (NUMBER, 0.3, "orness"), "n": (NUMBER, 2, "n")},
    "exponential_weights_no_preset": {"orness": (NUMBER, 0.3, "orness"), "n": (NUMBER, 2, "n")},
    "maxent_weights": {"orness": (NUMBER, 0.3, "orness"), "n": (NUMBER, 2, "n")},
}
# Result types and exceptions take no caller input.
EXEMPT = {
    "CalibrationError",
    "CalibrationResult",
    "DimensionMismatchError",
    "LinearCoefficients",
    "MaxentInstabilityError",
    "UnsupportedOrnessError",
    "__version__",
}


@pytest.mark.parametrize("name", sorted(owakit.__all__))
def test_every_public_argument_follows_the_input_rule(name):
    # One input rule for the whole package: a number that is not one, or
    # an array of strings, complex values or other objects, is a ValueError
    # naming the argument, never a TypeError, a parsed string or a value
    # with its imaginary part dropped.
    obj = getattr(owakit, name)
    if name in EXEMPT:
        assert name == "__version__" or dataclasses.is_dataclass(obj) or issubclass(obj, Exception)
        return
    assert name in ARGUMENTS, f"{name} has no entry in the table of argument kinds"
    table = ARGUMENTS[name]
    assert list(inspect.signature(obj).parameters) == list(table)
    valid = {arg: value for arg, (_, value, _) in table.items()}
    obj(**valid)
    for arg, (kind, _, label) in table.items():
        for bad in BAD.get(kind, []):
            with pytest.raises(ValueError, match=f"^{label} must be"):
                obj(**{**valid, arg: bad})
