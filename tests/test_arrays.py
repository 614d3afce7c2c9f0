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
from numpy.lib.introspect import opt_func_info

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

# SHA-256 of each sweep CSV (betas 1, 1.25, 1.5; 101 steps) below its ``#`` line, which carries
# the package version, with the dispersion cell cut from every line.  The weights come from IEEE
# arithmetic and libm, which no SIMD loop rounds, and only dispersion takes a log: one set.
SWEEP_CSV_SHA256 = {
    2: "d9e28d6a6b0c14d4e63d50e9d6a7f78848911c73c71cf6e228f60622186c5ab1",
    3: "c14a8e9cf5aec157873498ab5f327f58021cd80185be8cae0fa25be9dff82974",
    5: "780c5586b12dda227475babf724951827ee3c7a16688fa09547bcfb4a03c43b8",
    10: "b19f0685a144ab5b0f07d92ef675b7f446cf34acf463e70d5770a8ad3dd125eb",
    100: "8f8471bb0140b74d990f3b50015b8194c3b35647c33420d90256a4f3f5885aa5",
    1000: "01dd74b4a71463f1f28213194179da13d675ca2df2f0b7faf1fe47c7a575ac28",
}

# SHA-256 of the cut cells, in n order and one a line, by the SIMD target of numpy's
# float64 log, which they follow: X86_V4 differs from the others at n = 5, in the maxent
# row at orness 0.11.  No pinned number calls BLAS or depends on its core type.
DISPERSION_SHA256 = {
    "X86_V4": "27fc59534245e1150ce3c11d3e01742dd1cd90d993394de76b9bbdc50ef5452d",
    "X86_V3": "4ee143c3976e1a474a6a8235ee5659f8eb1e8c39e9a48e18cb06fb11804b099b",
    "baseline(X86_V2)": "4ee143c3976e1a474a6a8235ee5659f8eb1e8c39e9a48e18cb06fb11804b099b",
}
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


def _log_loop():
    """The SIMD target numpy runs its float64 log loop on."""
    (loop,) = opt_func_info(func_name="^log$", signature="float64")["log"].values()
    return loop["current"]


def _sweep_csv_digest(n, directory):
    """SHA-256 of sweep ``n`` below its ``#`` line with its dispersion cells cut, and the cells."""
    methods = LINEAR_ONLY_AT_1000 if n == 1000 else ALL_METHODS
    rows = sweep(n, methods, betas=(1.0, 1.25, 1.5), steps=101)
    path = os.path.join(directory, f"s{n}.csv")
    write_sweep_csv(rows, n, path, f"sweep --n {n}")
    with open(path, "rb") as fh:
        lines = [line.split(b",", 6) for line in fh.read().split(b"\n", 1)[1].split(b"\r\n")]
    cut = b"\r\n".join(b",".join(c[:5] + c[6:]) for c in lines)
    return hashlib.sha256(cut).hexdigest(), [c[5] for c in lines if len(c) > 5]


def _check_sweeps(log_loop, directory):
    """Check every host-free sweep digest, then the dispersion digest for ``log_loop``."""
    cells = []
    for n in sorted(SWEEP_CSV_SHA256):
        digest, dispersions = _sweep_csv_digest(n, directory)
        assert digest == SWEEP_CSV_SHA256[n], n
        cells += dispersions
    assert log_loop in DISPERSION_SHA256, f"no dispersion digest for numpy's np.log on {log_loop}"
    assert hashlib.sha256(b"\n".join(cells)).hexdigest() == DISPERSION_SHA256[log_loop]


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
        assert _sweep_csv_digest(n, str(tmp_path))[0] == SWEEP_CSV_SHA256[n]

    def test_dispersion_digest(self, tmp_path):
        _check_sweeps(_log_loop(), str(tmp_path))

    def test_unknown_log_loop_fails_after_the_host_free_digests(self, tmp_path, monkeypatch):
        with pytest.raises(AssertionError, match=r"np\.log on NEON\n"):
            _check_sweeps("NEON", str(tmp_path))
        monkeypatch.setitem(SWEEP_CSV_SHA256, 1000, "0" * 64)
        with pytest.raises(AssertionError, match=r"^1000\n"):
            _check_sweeps("NEON", str(tmp_path))

    def test_sweep_csv_digest_without_avx512(self, tmp_path):
        # An AVX-512 host checks the other log loop's pins too, which differ from its own.
        if _log_loop() != "X86_V4":
            pytest.skip("numpy has no AVX-512 dispatch here")
        script = "import sys, test_arrays as t; t._check_sweeps('X86_V3', sys.argv[1]); print(1)"
        assert _on_emulated_avx2_host(script, str(tmp_path)) == 1

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
        monkeypatch.setattr("owakit.core.ORNESS_TOL", 0.0)
        rows = sweep(10, [METHOD_EXPONENTIAL], steps=11)
        unstable = [r for r in rows if r.status == STATUS_UNSTABLE]
        assert unstable
        assert all(r.w is None and r.achieved_orness is None for r in unstable)
        for r in rows:
            if r.status == STATUS_OK:
                assert r.achieved_orness == r.requested_orness
