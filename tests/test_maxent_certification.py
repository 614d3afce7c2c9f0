"""Every maximum-entropy result labelled ok must be the true optimum.

The optimum is geometric, w_i proportional to exp(-t*i), so an ok vector
must (1) reproduce the requested orness, (2) have constant steps in
log w and (3) match the dispersion of the independent geometric oracle
at the orness it achieved.  Results may instead be flagged with
MaxentInstabilityError; they may not come back wrong.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owakit import MaxentInstabilityError, baselines, maxent_weights
from owakit.baselines import ORNESS_TOL
from owakit.reports import METHOD_MAXENT, STATUS_OK, STATUS_UNSTABLE, sweep
from oracle import maxent_geometric_oracle, maxent_oracle

GEOMETRIC_TOL = 1e-9
DISPERSION_TOL = 1e-9

NS = list(range(3, 61)) + [100, 150, 300, 1000, 10**4]
ORNESS_GRID = np.linspace(0.01, 0.99, 49)

# Points where a solve without a bracket once returned a non-optimal
# vector labelled ok: near orness 0 (spread of diff(log w) 31 and 12)
# and within ~3e-4 of 0.5 (spread ~1e-7).
NAMED_POINTS = [
    (40, 0.011156888444406765),
    (35, 0.01),
    (64, 0.5003081952937841),
    (70, 0.49993014249152934),
]


def _dispersion(w):
    pos = w[w > 0.0]  # 0 ln 0 = 0; the oracle's tail can underflow
    return float(-(pos * np.log(pos)).sum())


def _orness(w):
    n = w.size
    return float(np.arange(n - 1, -1, -1, dtype=float) @ w / (n - 1))


def certification_problem(orness, n):
    """None if ``maxent_weights(orness, n)`` is flagged or certified;
    otherwise a description of how the ok result is wrong."""
    try:
        w = maxent_weights(orness, n).w
    except MaxentInstabilityError:
        return None
    return weights_problem(w, orness)


def weights_problem(w, orness):
    """None if ``w`` is the maximum-entropy optimum at ``orness``."""
    achieved = _orness(w)
    if not abs(achieved - orness) <= ORNESS_TOL:
        return f"orness residual {abs(achieved - orness):.3g}"
    if w.min() <= 0.0:
        return "a weight is not strictly positive"
    steps = np.diff(np.log(w))
    spread = float(steps.max() - steps.min())
    if not spread <= GEOMETRIC_TOL:
        return f"not geometric: spread of diff(log w) is {spread:.3g}"
    # Compared at the achieved orness: a correct result may sit up to
    # ORNESS_TOL off the request, which moves the optimum's dispersion.
    gap = _dispersion(w) - _dispersion(maxent_geometric_oracle(achieved, w.size))
    if not abs(gap) <= DISPERSION_TOL:
        return f"dispersion off the optimum by {gap:.3g}"
    return None


@pytest.mark.parametrize("n, orness", NAMED_POINTS)
def test_named_points_are_certified_or_flagged(n, orness):
    assert certification_problem(orness, n) is None


def test_every_ok_result_is_the_optimum():
    problems = [
        (n, float(a), problem)
        for n in NS
        for a in ORNESS_GRID
        if (problem := certification_problem(float(a), n)) is not None
    ]
    assert problems == []


@pytest.mark.parametrize("n", [1000, 10**4])
def test_moderate_orness_is_solved_without_a_bracket(n):
    # At these n the first-weight polynomial overflows everywhere, so no
    # bracket is found; the orness bisection must deliver, not flag.
    for a in (0.1, 0.3, 0.45, 0.55, 0.7, 0.9):
        assert weights_problem(maxent_weights(a, n).w, a) is None


def test_polish_stops_once_the_bracket_cannot_shrink(monkeypatch):
    # At (0.97, 50) the polish bisection reaches adjacent floats long
    # before its 200-step cap; each further step repeats the same midpoint.
    calls = []
    residual = baselines._constraint_residual

    def counted(*args):
        calls.append(args)
        return residual(*args)

    monkeypatch.setattr(baselines, "_constraint_residual", counted)
    assert weights_problem(maxent_weights(0.97, 50).w, 0.97) is None
    assert 0 < len(calls) <= 64


# Without a bracket, the polish used to stop once its ends were within 1e-17,
# whatever the residual there, and these rows were refused.  It halves on until a
# midpoint meets ORNESS_TOL, so they are solved and must be the optimum.
@pytest.mark.parametrize("n, orness", [(10**4, 0.04), (10**5, 0.04), (10**5, 0.05), (10**6, 0.05)])
def test_polish_halves_on_to_the_tolerance(n, orness):
    assert weights_problem(maxent_weights(orness, n).w, orness) is None


def test_polish_passes_over_failed_rebuilds(monkeypatch):
    # A step whose rebuild fails (residual None) moves the upper end down: it
    # neither stops the loop nor raises, also within 1e-17.
    calls, residuals = [], iter([-1.0])  # the lower end undershoots; then every rebuild fails

    def residual(*args):
        calls.append(args)
        return next(residuals, None)

    monkeypatch.setattr(baselines, "_constraint_residual", residual)
    lo = 0.01 * (1.0 + 1e-15)
    assert lo <= baselines._polish_first_weight(0.9, 0.9 * 99, 100, 0.01, 0.02) <= np.nextafter(lo, 1)
    assert len(calls) < 200


# Above the admissible interval's end 1/(n - A) the last weight's numerator is negative, so
# the real rebuild fails and the residual is None: from an upper end of 2/(n - A) the polish
# must halve down past those steps to the root.
@pytest.mark.parametrize("n", [10, 100, 1000])
@pytest.mark.parametrize("a", [0.55, 0.7, 0.9])
def test_polish_halves_down_past_real_failed_rebuilds(monkeypatch, a, n):
    residuals, residual = [], baselines._constraint_residual

    def recorded(*args):
        residuals.append(residual(*args))
        return residuals[-1]

    monkeypatch.setattr(baselines, "_constraint_residual", recorded)
    A = (n - 1) * a
    w1 = baselines._polish_first_weight(a, A, n, 1 / n, 2 / (n - A))
    assert None in residuals
    assert 1 / n < w1 < 1 / (n - A)
    assert abs(residual(w1, a, A, n)) <= ORNESS_TOL


# On k/1000, the k below 500 whose orness maximum entropy refuses, by n; above 500 it
# refuses their mirrors 1000 - k.  The refused region is not an interval: 0.035 is solved
# between refused 0.034 and 0.036.
REFUSED_ON_K_1000 = {150: [*range(1, 35), 36], 1000: [*range(1, 35), 36, 37, 38]}


@pytest.mark.parametrize("n", sorted(REFUSED_ON_K_1000))
def test_refused_region_on_k_1000(n):
    rows = sweep(n, [METHOD_MAXENT], steps=1001)
    assert {r.status for r in rows[1:-1]} == {STATUS_OK, STATUS_UNSTABLE}
    refused = {k for k, r in enumerate(rows[1:-1], 1) if r.status != STATUS_OK}
    low = REFUSED_ON_K_1000[n]
    assert refused == {*low, *(1000 - k for k in low)}
    assert 35 not in refused and {34, 36} <= refused


# By n, the k of the orness values (2k + 1)/200 that maximum entropy refused
# when the polish stopped at 1e-17 whatever the residual, and the SHA-256 of the
# other rows: a row that met ORNESS_TOL then keeps its bits.
OK_ROWS = {
    300: ([0, 1, 2, 3, 96, 97, 98, 99], "5601950e9a4943504757316d06093b3a3c18b0b7e8198ee962a316f965ae982b"),
    1000: ([0, 1, 2, 97, 98, 99], "fd0af0f76a83de9b78b4cd1068ab481e457f1a5570184271139a6da05fec7c7d"),
    10**4: ([0, 1, 2, 3, 96, 97, 98, 99], "4984998318d983e8890fd6efa9e0cc8a298c1d2b390ba245d1e4d14092adda6b"),
}


@pytest.mark.parametrize("n", sorted(OK_ROWS))
def test_rows_that_met_the_tolerance_keep_their_bits(n):
    refused, digest = OK_ROWS[n]
    ok = np.ones(100, bool)
    ok[refused] = False
    w = baselines._maxent_rows((2 * np.arange(100) + 1) / 200, n)[ok]
    assert hashlib.sha256(w.tobytes()).hexdigest() == digest


# Points near 0.5, where the polynomial's interior root nearly meets the
# uniform root at 1/n and F sits at rounding scale around both: here the
# scan finds no sign change and the orness polish solves, or the Newton
# root misses the orness and is polished.  Regression points: each must
# come back certified.
SIGN_FLIP_POINTS = [
    (5, 0.500087),
    (5, 0.499913),
    (5, 0.4999999962747097),
    (5, 0.5000000037252903),
    (17, 0.500055),
    (17, 0.499945),
    (19, 0.500183),
    (19, 0.499817),
    (3, 0.499678),
    (3, 0.499721),
    (5, 0.499634),
    (5, 0.499638),
    (5, 0.500362),
    (5, 0.500366),
    (9, 0.500215),
    (12, 0.499753),
    (12, 0.500247),
]


@pytest.mark.parametrize("n, orness", SIGN_FLIP_POINTS)
def test_ends_without_a_sign_change_are_certified(n, orness):
    assert weights_problem(maxent_weights(orness, n).w, orness) is None


class TestGeometricOracle:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_grid_search_oracle(self, n):
        for a in np.linspace(0.1, 0.9, 17):
            w = maxent_geometric_oracle(float(a), n)
            w_grid = maxent_oracle(float(a), n)
            assert abs(_dispersion(w) - _dispersion(w_grid)) <= 1e-6
            # The grid search can only approach the optimum from below.
            assert _dispersion(w_grid) <= _dispersion(w) + 1e-12

    @pytest.mark.parametrize("n", [2, 7, 300, 10**4])
    def test_simplex_and_orness(self, n):
        for a in (1e-6, 0.2, 0.5, 0.8, 1.0 - 1e-6):
            w = maxent_geometric_oracle(a, n)
            assert abs(w.sum() - 1.0) <= 1e-12
            assert abs(_orness(w) - a) <= 1e-14

    def test_domain(self):
        for bad in (0.0, 1.0):
            with pytest.raises(ValueError, match="orness"):
                maxent_geometric_oracle(bad, 5)
        with pytest.raises(ValueError, match="n must be"):
            maxent_geometric_oracle(0.3, 1)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    n=st.integers(3, 300),
    orness=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_property_certified_or_flagged(n, orness):
    assert certification_problem(orness, n) is None
