"""The array-first kernels: pinned outputs and row independence.

The pins were recorded before the kernels were batched, so a change to
any sweep row or calibrated parameter fails here even when the CSV
writer still agrees with its reference writer on the changed rows.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from owakit import (
    OrnessTarget,
    exponential_weights,
    exponential_weights_no_preset,
    linear_coefficients,
    linear_weights,
    orness,
)
from owakit.baselines import _calibrated_exponential_array, _no_preset_exponential_array
from owakit.linear import _weight_array
from owakit import reports
from owakit.reports import (
    ALL_METHODS,
    METHOD_EXPONENTIAL,
    METHOD_EXPONENTIAL_NO_PRESET,
    METHOD_LINEAR,
    METHODS,
    STATUS_OK,
    STATUS_UNSTABLE,
    evaluate_method,
    sweep,
    write_sweep_csv,
)

LINEAR_ONLY_AT_1000 = (METHOD_LINEAR, METHOD_EXPONENTIAL, METHOD_EXPONENTIAL_NO_PRESET)

# SHA-256 of each sweep CSV (betas 1, 1.25, 1.5; 101 steps) below its
# ``#`` provenance line, which carries the package version.
SWEEP_CSV_SHA256 = {
    2: "2d9b5d22c8bb04bc2bd710c219497bd612baab64d3714b344a54fbdda18756d1",
    3: "726e4f88ebcebd6bc9836adbcd1d7c8952c85c702095adc7ade4ad028ec6c99c",
    5: "f25c8148ff88b3e2ce83033c32272b3a814f2fd9e5c5f92f0f04e03aa2942b02",
    10: "638bb7a09a6b617601f497f6a76166b0b05ee66b4b646a5e3f80a130823fd96d",
    100: "c616d96a16a693e2f2e63b10469cbfa2a4d1a0a778950b0957829e98de08d954",
    1000: "bc7c8c709ef8ef7bccdd7271d272c14f99e6b91d217d8d593dd2dda9c0194b20",
}

# The same sweeps where numpy runs its float64 exp and log loops on
# X86_V3 and power on its baseline (no AVX-512), recorded from the same
# code under NO_AVX512_ENV.  The exponential and maximum-entropy kernels
# call these loops, so their last bits follow the SIMD family.  No pinned
# number calls BLAS, so neither set depends on OpenBLAS's core type.
SWEEP_CSV_SHA256_X86_V3 = {
    2: "2d9b5d22c8bb04bc2bd710c219497bd612baab64d3714b344a54fbdda18756d1",
    3: "75748bb469c273749027c6d67f14e23a0d949c80a6e1807b790b8096d9aac3f8",
    5: "cdc44f360a6abd745e4d5631d5b50a8940718618e1670a7fcbf01d1d0d0b43eb",
    10: "d1f8d04c3a287f4ac5262402e3c736a6f59932e032ec1dda6d2128a5d1c6b6f4",
    100: "7a2ac01c993b013b262a5f6ded21b88486c21facbcf754d824dd2b4abded0997",
    1000: "00621a2fb36e7a81892118880789cae7524e618288d8eee4359c1a03d5787d0b",
}

# The expected digests by the SIMD target of numpy's exp, log and power.
DISPATCH_AVX512 = {"exp": "X86_V4", "log": "X86_V4", "power": "X86_V4"}
DISPATCH_X86_V3 = {"exp": "X86_V3", "log": "X86_V3", "power": "baseline(X86_V2)"}
NO_AVX512_ENV = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def _on_emulated_avx2_host(script, *args):
    """What ``python -c script *args`` prints, read as JSON, on an emulated
    AVX2-only x86 host: numpy's loops without AVX-512 (``NO_AVX512_ENV``)
    and OpenBLAS on its Haswell kernels, with ``owakit`` and these tests
    importable.  Fails the calling test if the script fails."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(reports.__file__))
    path = os.pathsep.join(filter(None, [src, here, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE="Haswell", **NO_AVX512_ENV)
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, check=False
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _dispatch():
    """The SIMD target numpy runs its float64 exp, log and power loops on."""
    from numpy.lib.introspect import opt_func_info

    info = opt_func_info(func_name="^(exp|log|power)$", signature="float64")
    return {f: t["current"] for f, sigs in info.items() for t in sigs.values()}


def _expected_sweep_digests():
    dispatch = _dispatch()
    if dispatch == DISPATCH_AVX512:
        return SWEEP_CSV_SHA256
    if dispatch == DISPATCH_X86_V3:
        return SWEEP_CSV_SHA256_X86_V3
    pytest.fail(f"no sweep digests are recorded for the numpy dispatch {dispatch}")


def _sweep_csv_digest(n, directory):
    """SHA-256 of the pinned sweep at size ``n`` below its ``#`` line."""
    methods = LINEAR_ONLY_AT_1000 if n == 1000 else ALL_METHODS
    rows = sweep(n, methods, betas=(1.0, 1.25, 1.5), steps=101)
    path = os.path.join(directory, f"s{n}.csv")
    write_sweep_csv(rows, n, path, f"sweep --n {n}")
    with open(path, "rb") as fh:
        body = fh.read().split(b"\n", 1)[1]
    return hashlib.sha256(body).hexdigest()


# float.hex of the calibrated exponential parameter, by (orness, n).
EXPONENTIAL_PARAMETER_HEX = {
    (0.0, 2): "0x1.ffffffffff000p-1",
    (0.3, 2): "0x1.6666666667000p-1",
    (0.7, 2): "0x1.6666666667000p-1",
    (0.1, 5): "0x1.6d003672db000p-1",
    (0.5, 5): "0x1.08f0474692000p-2",
    (0.9, 5): "0x1.6d003672db000p-1",
    (0.17, 10): "0x1.91f976fdae000p-2",
    (0.83, 100): "0x1.c9fe17a150000p-5",
    (0.25, 1000): "0x1.0027a68780000p-8",
    (0.75, 1000): "0x1.0027a68780000p-8",
    (1.0, 1000): "0x1.ffffffffff000p-1",
    (0.001, 1000): "0x1.0020c8cded000p-1",
}


class TestPinned:
    @pytest.mark.parametrize("n", sorted(SWEEP_CSV_SHA256))
    def test_sweep_csv_digest(self, tmp_path, n):
        assert _sweep_csv_digest(n, str(tmp_path)) == _expected_sweep_digests()[n]

    def test_sweep_csv_digest_without_avx512(self, tmp_path):
        # An AVX-512 host checks the other family's pins too.
        if _dispatch() != DISPATCH_AVX512:
            pytest.skip("numpy has no AVX-512 dispatch here")
        script = (
            "import json, sys, test_arrays as t; "
            "print(json.dumps([t._dispatch(), "
            "{n: t._sweep_csv_digest(n, sys.argv[1]) for n in t.SWEEP_CSV_SHA256_X86_V3}]))"
        )
        dispatch, digests = _on_emulated_avx2_host(script, str(tmp_path))
        assert dispatch == DISPATCH_X86_V3
        assert {int(n): d for n, d in digests.items()} == SWEEP_CSV_SHA256_X86_V3

    @pytest.mark.parametrize("orness, n", sorted(EXPONENTIAL_PARAMETER_HEX))
    def test_exponential_parameter(self, orness, n):
        result = exponential_weights(orness, n)[1]
        assert result.parameter.hex() == EXPONENTIAL_PARAMETER_HEX[orness, n]
        assert result.iterations == 40


# (orness, n) where the linear line at beta 1.5 rounds one weight a hair
# below zero, so linear_weights clips the row and renormalizes it.  At
# n = 8 and n = 1000 the renormalization changes bits; the last point is
# the mirror of the one before it.
FIXUP_POINTS = (
    (1.8047028633845219e-09, 3),
    (2.9988474274225153e-09, 8),
    (9.72563252155112e-10, 1000),
    (0.9999999990274367, 1000),
)
GRID = np.concatenate([np.linspace(0.0, 1.0, 101), [a for a, _ in FIXUP_POINTS]])
SIZES = (1, 2, 3, 10, 100, 1000)
BETAS = (1.0, 1.25, 1.5)


def _one(a):
    return np.array([a])


class TestRowsAreIndependent:
    """Row i of a grid call equals the one-element call at grid[i], bit
    for bit, and the scalar public call is that one-element call."""

    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize("n", SIZES)
    def test_linear(self, n, beta):
        w = _weight_array(GRID, n, beta)
        assert w.shape == (GRID.size, n)
        for a, row in zip(GRID, w):
            assert row.tobytes() == _weight_array(_one(a), n, beta)[0].tobytes(), a
            assert row.tobytes() == linear_weights(OrnessTarget(a, beta), n).w.tobytes(), a

    @pytest.mark.parametrize("n", SIZES[1:])
    def test_exponential(self, n):
        w, params = _calibrated_exponential_array(GRID, n)
        for i, a in enumerate(GRID):
            w1, p1 = _calibrated_exponential_array(_one(a), n)
            assert w[i].tobytes() == w1[0].tobytes(), a
            assert params[i] == p1[0]
            vec, result = exponential_weights(a, n)
            assert vec.w.tobytes() == w[i].tobytes(), a
            assert (result.parameter, result.iterations) == (params[i], 40)
            assert result.achieved_orness == orness(vec)

    @pytest.mark.parametrize("n", SIZES[1:])
    def test_no_preset(self, n):
        w = _no_preset_exponential_array(GRID, n)
        for a, row in zip(GRID, w):
            assert row.tobytes() == _no_preset_exponential_array(_one(a), n)[0].tobytes(), a
            assert row.tobytes() == exponential_weights_no_preset(a, n).w.tobytes(), a

    @pytest.mark.parametrize("orness, n", FIXUP_POINTS)
    def test_fixup_rows_are_clipped_and_renormalized(self, orness, n):
        c = linear_coefficients(min(orness, 1.0 - orness), n, 1.5)
        line = np.append(c.K * np.arange(1, n) + c.b, 1.0 - c.delta)
        if orness > 0.5:
            line = line[::-1]
        assert -1e-12 < line.min() < 0.0
        clipped = np.maximum(line, 0.0)
        w = linear_weights(OrnessTarget(orness, 1.5), n).w
        assert w.tobytes() == (clipped / clipped.sum()).tobytes()


class TestBatchedSweep:
    @pytest.mark.filterwarnings("ignore:orness of a length-1")
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 100])
    def test_rows_match_evaluate_method(self, n):
        methods = [METHOD_LINEAR] if n == 1 else list(ALL_METHODS)
        betas = (1.0, 1.25, 1.5)
        rows = sweep(n, methods, betas=betas, steps=21)
        expected = [
            evaluate_method(m.name, k / 20, n, beta)
            for m in sorted(METHODS, key=lambda m: m.name)
            if m.name in methods
            for k in range(21)
            for beta in (betas if m.takes_beta else (None,))
        ]
        assert rows == expected

    def test_length_one_rows_warn(self):
        with pytest.warns(UserWarning, match="degenerate"):
            rows = sweep(1, [METHOD_LINEAR], steps=3)
        assert [(r.achieved_orness, r.w) for r in rows] == [(0.5, (1.0,))] * 3

    def test_exponential_residual_over_tolerance_is_unstable(self, monkeypatch):
        monkeypatch.setattr(reports, "ORNESS_TOL", 0.0)
        rows = sweep(10, [METHOD_EXPONENTIAL], steps=11)
        unstable = [r for r in rows if r.status == STATUS_UNSTABLE]
        assert unstable
        assert all(r.w is None and r.achieved_orness is None for r in unstable)
        for r in rows:
            if r.status == STATUS_OK:
                assert r.achieved_orness == r.requested_orness
