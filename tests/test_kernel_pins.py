"""Pinned kernel bits where the sweep pins do not reach.

``test_arrays.SWEEP_CSV_SHA256`` covers n <= 1000, and maximum entropy
only up to n = 100.  These digests pin the kernels at the sizes where
the exponential calibration starts to miss its tolerance, where the
maximum-entropy polish runs without a bracket, and where the linear
line is longest: SHA-256 over the float64 bytes of each kernel's output
on the orness grid k/100, one set per SIMD family as in ``test_arrays``.
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
    _maxent_rows,
    _no_preset_exponential_array,
)
from owakit.core import _orness_rows
from owakit.linear import _weight_array
from test_arrays import DISPATCH_AVX512, DISPATCH_X86_V3, _dispatch, _on_emulated_avx2_host

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

# The misses are the same on both SIMD families.
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
        "pass": "fdbcaf5eb101eac2cbdcb536fc48c1d8514d10513eabd52b862cb08c2f88311c",
        "miss": NO_ROWS,
    },
    "exponential 20000": {
        "misses": MISSES_20000,
        "pass": "552220bdd4ce1284e3c73056c02f2d449854d86faa13decdd25b93d219e68568",
        "miss": "4af60ee4e61a3e3c2f968adafd5742480788beb8190c4f6fef7e3c2fa979e542",
    },
    "exponential 100000": {
        "misses": MISSES_100000,
        "pass": "55fbaf4bd66da14c99ec56385a89eb4f6cff0d0a1ccd6cffe88e13abe0c82a50",
        "miss": "4c72413b9ba389279bfb19878c07a38822e2a1ef6d1d20c925358e6c9e141a4d",
    },
    "no-preset 1000": "1e392936345ef409b1da095c81f6871cc37e28429da6f4b7b048d5e58827c372",
    "no-preset 10000": "d9d67360f2b0b7948617d15733bcdef511ec3d6c74402ea5c2f69e420fb20d1b",
    "maxent 1000": "c36d8f40894dbd099e40424c6bbbc30b8d9d34d9140a36bf61cc8124157848ca",
    "maxent 10000": "a524e5c871b1f7cba1342b6d22aa4aa51ec094f28433dc38019fc118095bf436",
    "linear 100000": "6de521939b67f63c3d073d7dc218043d7aa2a56d4d13e73b289990d8ec8062ab",
}

# The same digests recorded under NO_AVX512_ENV (see test_arrays).
KERNEL_SHA256_X86_V3 = {
    "exponential 10000": {
        "misses": [],
        "pass": "fdf0a1052dff6b953e9a8947df6094b94d78a65dadb086b0fdcd5bb91f23071b",
        "miss": NO_ROWS,
    },
    "exponential 20000": {
        "misses": MISSES_20000,
        "pass": "0c8e6788c4d02b0b6f230704c7d0250cda9cd34b830cf07e33876b3012037aec",
        "miss": "45412df45943a3607188b9cf930646f8680604041d7de8af239979b8cc02b6c4",
    },
    "exponential 100000": {
        "misses": MISSES_100000,
        "pass": "9a385aa170922f82e74d51356a5c393749fbf3041b1120b3a4f8e38a6c1e349e",
        "miss": "eb32bce5bfb5330c5ead7eb48b886bf3900df336e5d6c245dcbfd01709574e56",
    },
    "no-preset 1000": "73b22a600227ad9675781c1f8bf67e8c6fe8d88ac336c155ca6957b618c9a6d2",
    "no-preset 10000": "5d0d40b91abbc9b439cc8fdf15e3a52800d6d3e156b26ae0e67792385b11d063",
    "maxent 1000": "80f952febb3e6596c1bada7e01f4df053d2404bea9b447c378da8c3536879a2f",
    "maxent 10000": "e8f8b42a7aa9b3ca561f6de4ead8a5d493d3041e340dec34472b203fc808b6f0",
    "linear 100000": "6de521939b67f63c3d073d7dc218043d7aa2a56d4d13e73b289990d8ec8062ab",
}

# The refusals' messages, the same on both SIMD families.  The
# calibration's parameter is printed to 17 digits.
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


def _expected():
    dispatch = _dispatch()
    if dispatch == DISPATCH_AVX512:
        return KERNEL_SHA256
    if dispatch == DISPATCH_X86_V3:
        return KERNEL_SHA256_X86_V3
    pytest.fail(f"no kernel digests are recorded for the numpy dispatch {dispatch}")


@pytest.mark.parametrize("name", sorted(PINS))
def test_kernel_digest(name):
    assert PINS[name]() == _expected()[name]


@pytest.mark.parametrize("key", sorted(MESSAGES))
def test_refusal_message(key):
    error = "CalibrationError" if key[0] == "exponential" else "MaxentInstabilityError"
    assert _message(*key) == f"{error}: {MESSAGES[key]}"


def test_kernel_digests_without_avx512():
    # An AVX-512 host checks the other family's pins too, and its messages.
    if _dispatch() != DISPATCH_AVX512:
        pytest.skip("numpy has no AVX-512 dispatch here")
    script = (
        "import json, test_kernel_pins as t; "
        "print(json.dumps([t._dispatch(), {k: f() for k, f in t.PINS.items()}, "
        "[t._message(*key) for key in t.MESSAGES]]))"
    )
    dispatch, digests, messages = _on_emulated_avx2_host(script)
    assert dispatch == DISPATCH_X86_V3
    assert digests == KERNEL_SHA256_X86_V3
    assert messages == [_message(*key) for key in MESSAGES]
