"""The array-first kernels: pinned outputs and row independence.

The pins were recorded before the kernels were batched, so a change to
any sweep row or calibrated parameter fails here even when the CSV
writer still agrees with its reference writer on the changed rows.
"""

import hashlib

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
    5: "259b192ec4ab45329f24b3b311d6713b45f1e434b25ec3e08c5ce68f0745a716",
    10: "c4fcd41526844ded9e16d6d082bdd4f5f220986e792e515c36e8ef75d3678ed8",
    100: "0639395dc1d71bb38d1b92e910d89c8dc4aec9570664c24545f54382c5fb509c",
    1000: "796af0e0203912e3b0b2143cdb6972f6b535b338088305beb9f9d863818c20b8",
}

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
        methods = LINEAR_ONLY_AT_1000 if n == 1000 else ALL_METHODS
        rows = sweep(n, methods, betas=(1.0, 1.25, 1.5), steps=101)
        path = tmp_path / "s.csv"
        write_sweep_csv(rows, n, str(path), f"sweep --n {n}")
        body = path.read_bytes().split(b"\n", 1)[1]
        assert hashlib.sha256(body).hexdigest() == SWEEP_CSV_SHA256[n]

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
