"""Pinned kernel bits where the sweep pins do not reach.

``test_arrays.SWEEP_CSV_SHA256`` covers n <= 1000, and maximum entropy
only up to n = 100.  These digests pin the kernels at the sizes where
the exponential calibration starts to miss its tolerance, where the
maximum-entropy polish runs without a bracket, and where the linear
line is longest: SHA-256 over the float64 bytes of each kernel's output
on the orness grid k/100.  Every row here comes from IEEE arithmetic and
libm, which numpy's SIMD dispatch does not reach (maximum entropy's
polynomial takes its powers by multiplication alone, and its polish
rebuilds rows by running products), so one set holds on every numpy
SIMD family.
The calibrated rows that meet ``ORNESS_TOL`` and the rows that miss it
have separate digests, so a change to one set cannot hide in the other.
"""

import hashlib

import numpy as np
import pytest

from owakit import exponential_weights, maxent_weights
from owakit.baselines import (
    ORNESS_TOL,
    _calibrated_exponential_array,
    _calibrated_grid,
    _maxent_rows,
    _no_preset_exponential_array,
)
from owakit.core import _orness_rows
from owakit.linear import _weight_array
from test_arrays import _log_loop, _on_emulated_avx2_host

K100 = np.arange(101) / 100
# The floats either side of 0.5, where the maximum-entropy row is nearly uniform.
NEAR_HALF = np.array([0.49999999999999994, 0.5000000000000001])


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def _exponential(n):
    """The k of the calibrated rows that miss ``ORNESS_TOL`` (as the
    report status rule measures it), and one digest of the parameters and
    weights of the rows that meet it and one of the rows that miss it."""
    w, a = _calibrated_exponential_array(K100, n)
    miss = np.abs(np.array(_orness_rows(w)) - K100) > ORNESS_TOL
    return {
        "misses": np.flatnonzero(miss).tolist(),
        "pass": _sha256(a[~miss], w[~miss]),
        "miss": _sha256(a[miss], w[miss]),
    }


PINS = {
    "exponential 10000": lambda: _exponential(10**4),
    "exponential 20000": lambda: _exponential(2 * 10**4),
    "exponential 100000": lambda: _exponential(10**5),
    "no-preset 1000": lambda: _sha256(_no_preset_exponential_array(K100, 1000)),
    "no-preset 10000": lambda: _sha256(_no_preset_exponential_array(K100, 10**4)),
    "maxent 1000": lambda: _sha256(_maxent_rows(np.concatenate([K100, NEAR_HALF]), 1000)),
    "maxent 10000": lambda: _sha256(_maxent_rows(np.concatenate([K100, NEAR_HALF]), 10**4)),
    "linear 100000": lambda: _sha256(_weight_array(K100, 10**5, 1.5)),
}

MISSES_20000 = [39, 42, 44, 47, 48, 49, 51, 52, 53, 56, 58, 61]
MISSES_100000 = [
    17, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 35, 36, 37, 38, 39,
    41, 43, 44, 45, 46, 47, 48, 49, 51, 52, 53, 54, 55, 56, 57, 59,
    61, 62, 63, 64, 65, 69, 70, 71, 72, 73, 74, 75, 76, 77, 78, 83,
]  # fmt: skip
NO_ROWS = hashlib.sha256(b"").hexdigest()

KERNEL_SHA256 = {
    "exponential 10000": {
        "misses": [],
        "pass": "29d31d4a0d587451f0dc82b9d42d194fdac02fde36cfaaa810e6cb5a1c3b6e6b",
        "miss": NO_ROWS,
    },
    "exponential 20000": {
        "misses": MISSES_20000,
        "pass": "28dc6a8824c18f74378031d68a2b1f45bf75f7f54b61730052ca8b3ef7ae86a5",
        "miss": "727d5892cb9957be131a882ea939ad050958dd50cd7b0d9e89390b648ebf1db7",
    },
    "exponential 100000": {
        "misses": MISSES_100000,
        "pass": "8d5d6efba089fe61e1da120153ddca611312b5ec54d82897a6ddb0b5cd674c00",
        "miss": "c780e215ba3baa06dbf7d01a5bfadcc58daa13c4bbae6f335ae738e57cb84274",
    },
    "no-preset 1000": "4583783a0b6e3947a4d2e4a10c73fb70ea43f571f7b040eebe0ea621f55d642c",
    "no-preset 10000": "2896007e757fe0546b3ed9a5d9876d45576820b3c7d698a6029df614ed218c33",
    "maxent 1000": "bd35290c4e1f202933567e780ebf412458c7ee5422f1e114be77065fe5d1172e",
    "maxent 10000": "5152fef57c4bcb558f79cef4a8e5d1f7f81988f1e034bd34b83c6b9e5b327c43",
    "linear 100000": "6de521939b67f63c3d073d7dc218043d7aa2a56d4d13e73b289990d8ec8062ab",
}

# The refusals' messages.  The calibration's parameter is printed to 17 digits.
MESSAGES = {
    ("exponential", 0.48, 2 * 10**4): (
        "exponential preset did not converge: best parameter "
        "8.5215876879374264e-05 leaves orness residual 1.47e-09"
    ),
    ("maxent", 0.99, 100): (
        "maximum-entropy solve unstable at orness=0.99 n=100: "
        "no valid root of the first-weight equation"
    ),
    ("maxent", 0.01, 1000): (
        "maximum-entropy solve unstable at orness=0.01 n=1000: "
        "achieved-orness residual 0.0152 exceeds 1e-09"
    ),
}


def _message(method, orness, n):
    call = {"exponential": exponential_weights, "maxent": maxent_weights}[method]
    try:
        call(orness, n)
    except (RuntimeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


@pytest.mark.parametrize("name", sorted(PINS))
def test_kernel_digest(name):
    assert PINS[name]() == KERNEL_SHA256[name]


@pytest.mark.parametrize("key", sorted(MESSAGES))
def test_refusal_message(key):
    error = "CalibrationError" if key[0] == "exponential" else "MaxentInstabilityError"
    assert _message(*key) == f"{error}: {MESSAGES[key]}"


def test_kernel_digests_without_avx512():
    # An AVX-512 host checks that the other family gives the same pins and messages.
    if _log_loop() != "X86_V4":
        pytest.skip("numpy has no AVX-512 dispatch here")
    script = (
        "import json, test_kernel_pins as t; "
        "print(json.dumps([t._log_loop(), {k: f() for k, f in t.PINS.items()}, "
        "[t._message(*key) for key in t.MESSAGES]]))"
    )
    dispatch, digests, messages = _on_emulated_avx2_host(script)
    assert dispatch == "X86_V3"
    assert digests == KERNEL_SHA256
    assert messages == [_message(*key) for key in MESSAGES]


def _maxent_bracketed_digests():
    """SHA-256 of the maximum-entropy rows on k/100 at each n = 3...150,
    the sizes where the polynomial's bracket and Newton solve the rows."""
    return [_sha256(_maxent_rows(K100, n)) for n in range(3, 151)]


def test_maxent_rows_without_avx512():
    # The polynomial's powers are multiplications, which every SIMD family
    # rounds alike, so the other family solves the same rows bit for bit.
    if _log_loop() != "X86_V4":
        pytest.skip("numpy has no AVX-512 dispatch here")
    script = (
        "import json, test_kernel_pins as t; "
        "print(json.dumps([t._log_loop(), t._maxent_bracketed_digests()]))"
    )
    dispatch, digests = _on_emulated_avx2_host(script)
    assert dispatch == "X86_V3"
    assert digests == _maxent_bracketed_digests()


def _calibrated_parameter_digests():
    """SHA-256 of the calibrated exponential parameters on k/1000 at each
    n, found by the grid's halvings, whose closed form is numpy's."""
    k1000 = np.arange(1001) / 1000
    return [_sha256(_calibrated_grid(k1000, n)) for n in (3, 10, 100, 1000, 10**4)]


def test_calibrated_parameters_without_avx512():
    # numpy's log1p and expm1 follow the SIMD family (libm's do not), so the
    # grid's closed form may move by a few ulps; that is far inside the
    # screen's margin, so the other family finds the same parameters.
    if _log_loop() != "X86_V4":
        pytest.skip("numpy has no AVX-512 dispatch here")
    script = (
        "import json, test_kernel_pins as t; "
        "print(json.dumps([t._log_loop(), t._calibrated_parameter_digests()]))"
    )
    dispatch, digests = _on_emulated_avx2_host(script)
    assert dispatch == "X86_V3"
    assert digests == _calibrated_parameter_digests()
