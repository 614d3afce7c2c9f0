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
    MaxentInstabilityError,
    OrnessTarget,
    UnsupportedOrnessError,
    exponential_weights,
    exponential_weights_no_preset,
    linear_coefficients,
    linear_weights,
    maxent_weights,
    orness,
)
from owakit.baselines import (
    ORNESS_TOL,
    _calibrated_exponential_array,
    _maxent_rows,
    _no_preset_exponential_array,
)
from owakit.core import _orness_rows, _simplex_rows
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
    3: "74fb09ddef4abff7f87a700e06fef2b8306dce70fd6f21c2d686c5d99b202f7c",
    5: "fe7f3b4dc0896a0e726bc030d08faa362b4309264ae10a2204d2ba02d2b45bcc",
    10: "e30715ede368cde53aec88c911cec9325ad48978eb1ae98eb9de4cd1f784a14c",
    100: "0912f9456cb37666d18c0f929ddf247d5056338607837f6bc335189afbec063a",
    1000: "27e41bc82dbaa498ad9b7309f40e089219bf698d2560916c5f51d2ed600b08ff",
}

# The same sweeps where numpy runs its float64 exp and log loops on
# X86_V3 and power on its baseline (no AVX-512), recorded from the same
# code under NO_AVX512_ENV.  Every weight row comes from IEEE arithmetic
# and libm, which no SIMD loop rounds; what still follows the family is
# the np.log in the dispersion column, and it moves one pinned cell: at
# n = 5 the maxent row at orness 0.11 (same weights on both families).
# No pinned number calls BLAS, so neither set depends on OpenBLAS's core type.
SWEEP_CSV_SHA256_X86_V3 = {
    **SWEEP_CSV_SHA256,
    5: "515cfad2fb58c4d9052378ff2f6f8d3dfb1b9bc3dcb9eada542b01cebcc4b887",
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

    @pytest.mark.parametrize("n", [2, 3, 10, 100, 150, 200])
    def test_maxent(self, n):
        # The grid's values share one bracket scan; at n = 200 it brackets
        # none of them, so every row comes from the polish.  Each row is
        # still the one-value row, and the public call returns it, or all
        # three refuse: the public call raises and the row is NaN, off the
        # simplex or off its orness by more than ORNESS_TOL.
        w = _maxent_rows(GRID, n)
        for a, row in zip(GRID.tolist(), w):
            assert row.tobytes() == _maxent_rows(_one(a), n)[0].tobytes(), a
            try:
                public = maxent_weights(a, n).w
            except (UnsupportedOrnessError, MaxentInstabilityError):
                refused = (
                    np.isnan(row).all()
                    or _simplex_rows(row[np.newaxis])[0] is not None
                    or abs(_orness_rows(row[np.newaxis])[0] - a) > ORNESS_TOL
                )
                assert refused, a
            else:
                assert public.tobytes() == row.tobytes(), a

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
