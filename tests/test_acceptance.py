"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report lines.
"""

import time

import numpy as np
import pytest

from owakit import (
    OrnessTarget,
    dispersion,
    exponential_weights,
    linear_coefficients,
    linear_weights,
    maxent_weights,
    orness,
)
from owakit.baselines import MaxentInstabilityError
from owakit.linear import _weight_array
from oracle import maxent_oracle, solve_system_oracle
from owakit.reports import (
    ALL_METHODS,
    METHOD_MAXENT,
    STATUS_OK,
    bench,
    evaluate_method,
    read_sweep_csv,
    sweep,
    write_sweep_csv,
)

SIZES = (3, 5, 10, 50, 100)
BETAS = (1.0, 1.25, 1.5)
ORNESS_GRID = np.linspace(0.0, 1.0, 101)


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_1_exactness_sweep():
    start = time.perf_counter()
    worst_orness = 0.0
    worst_sum = 0.0
    for n in SIZES:
        for beta in BETAS:
            for a, w in zip(ORNESS_GRID, _weight_array(ORNESS_GRID, n, beta)):
                assert w.min() >= -1e-12
                s = abs(w.sum() - 1.0)
                err = abs(float(np.arange(n - 1, -1, -1) @ w / (n - 1)) - a)
                worst_sum = max(worst_sum, s)
                worst_orness = max(worst_orness, err)
                assert s <= 1e-12
                assert err <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(
        1,
        f"exactness over {len(SIZES)}x101x{len(BETAS)} grid in {elapsed:.3f}s "
        f"(max sum error {worst_sum:.2e}, max orness error {worst_orness:.2e})",
    )


def test_criterion_2_boundary_operators():
    for n in SIZES:
        for beta in BETAS:
            w_min = linear_weights(OrnessTarget(0.0, beta), n).w
            expected_min = np.zeros(n)
            expected_min[-1] = 1.0
            np.testing.assert_allclose(w_min, expected_min, atol=1e-15)
            w_max = linear_weights(OrnessTarget(1.0, beta), n).w
            np.testing.assert_allclose(w_max, expected_min[::-1], atol=1e-15)
            w_avg = linear_weights(OrnessTarget(0.5, beta), n).w
            np.testing.assert_allclose(w_avg, np.full(n, 1.0 / n), atol=1e-15)
    _report(2, "min/uniform/max vectors exact at orness 0 / 0.5 / 1 for all n")


def test_criterion_3_symmetry():
    worst = 0.0
    for n in SIZES:
        for beta in BETAS:
            lhs = _weight_array(ORNESS_GRID, n, beta)
            rhs = _weight_array(1.0 - ORNESS_GRID, n, beta)[:, ::-1]
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst <= 1e-12
    _report(3, f"mirror symmetry about orness 0.5, max deviation {worst:.2e}")


def test_criterion_4_golden_vector():
    golden = np.array([0.27155414, 0.24844584, 0.20422292, 0.16, 0.11577708])
    # Re-derive from the independent 2x2 solve before comparing.
    K, b = solve_system_oracle(0.4, 5, 1.5)
    f = 1.0 - (1.0 - 2.0 * 0.4) ** 1.5
    rebuilt = np.array([K * i + b for i in (1, 2, 3, 4)] + [1.0 - f * 4 / 5])[::-1]
    np.testing.assert_allclose(rebuilt, golden, atol=1e-6)
    w = linear_weights(OrnessTarget(0.6, 1.5), 5).w
    np.testing.assert_allclose(w, golden, atol=1e-6)
    _report(4, "golden vector at n=5, orness=0.6, beta=1.5 matches oracle rebuild")


def test_criterion_5_oracle_equivalence():
    failures = 0
    checked = 0
    for n in range(3, 51):
        for beta in BETAS:
            for alpha in np.arange(0.0, 0.5001, 0.05):
                c = linear_coefficients(alpha, n, beta)
                K_ref, b_ref = solve_system_oracle(alpha, n, beta)
                checked += 1
                if abs(c.K - K_ref) > 1e-10 or abs(c.b - b_ref) > 1e-10:
                    failures += 1
    assert failures == 0
    _report(5, f"closed form vs Cramer oracle on {checked} grid points, 0 failures")


def test_criterion_6_entropy_near_optimality():
    grid = np.arange(0.05, 0.951, 0.05)
    max_gap = 0.0
    for a in grid:
        d_max = dispersion(maxent_weights(float(a), 5))
        d_lin = dispersion(linear_weights(OrnessTarget(float(a), 1.5), 5))
        assert d_max >= d_lin - 1e-9
        max_gap = max(max_gap, d_max - d_lin)
    d_lin_06 = dispersion(linear_weights(OrnessTarget(0.6, 1.5), 5))
    w_exp, _ = exponential_weights(0.6, 5)
    assert d_lin_06 >= dispersion(w_exp)
    _report(
        6,
        f"maxent dominates linear(beta=1.5) at n=5 (max entropy gap {max_gap:.5f}); "
        "linear beats calibrated exponential at orness 0.6",
    )


def test_criterion_7_maxent_cross_validation():
    for n in (2, 3, 4, 5):
        for a in (0.3, 0.6, 0.75):
            w_ref = maxent_oracle(a, n)
            pos = w_ref[w_ref > 0]
            d_ref = float(-(pos * np.log(pos)).sum())
            d = dispersion(maxent_weights(a, n))
            assert abs(d - d_ref) <= 1e-4
    _report(7, "analytic maxent matches grid-search oracle dispersion within 1e-4")


def test_criterion_8_instability_reproduction():
    rows = [
        evaluate_method(METHOD_MAXENT, float(a), 100)
        for a in np.linspace(0.9, 1.0, 101)
    ]
    non_ok_near = [
        r.requested_orness
        for r in rows
        if r.status != STATUS_OK and 0.95 <= r.requested_orness <= 1.0
    ]
    assert non_ok_near, "expected flagged breakdowns approaching orness 0.98"
    for r in rows:
        if r.status == STATUS_OK:
            assert abs(r.achieved_orness - r.requested_orness) <= 1e-6
    _report(
        8,
        f"n=100 sweep over [0.9, 1.0]: {len(non_ok_near)} flagged points "
        f"(first at orness {min(non_ok_near):.3f}); no silent bad rows",
    )


def test_criterion_9_timing_ordering():
    reports = bench([10, 100], reps=20)
    for n in (10, 100):
        by_method = {}
        for r in reports:
            if r.n == n:
                key = r.method if r.beta is None else f"{r.method}:{r.beta}"
                by_method[key] = r.best_time
        t_linear = min(v for k, v in by_method.items() if k.startswith("linear"))
        assert t_linear <= by_method["exponential-no-preset"]
        assert t_linear < by_method["maxent"]
    _report(
        9,
        "linear is at most as slow as exponential-no-preset and strictly "
        "faster than maxent at n=10 and n=100 (20 reps)",
    )


def test_criterion_10_property_suite(tmp_path):
    # The per-module invariants run throughout the rest of the suite; this
    # criterion spot-checks the cross-cutting ones end to end.
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(2, 10))
        from owakit import WeightVector, aggregate

        v = WeightVector(rng.dirichlet(np.ones(n)))
        assert orness(v.reversed()) == pytest.approx(1.0 - orness(v), abs=1e-12)
        assert dispersion(v.reversed()) == pytest.approx(dispersion(v), abs=1e-12)
        x = rng.normal(0, 5, n)
        y = aggregate(v, x)
        assert x.min() - 1e-12 <= y <= x.max() + 1e-12

    rows = sweep(5, list(ALL_METHODS), betas=(1.25,), steps=21)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(rows, 5, str(p1), "gate")
    write_sweep_csv(sweep(5, list(ALL_METHODS), betas=(1.25,), steps=21), 5, str(p2), "gate")
    assert p1.read_bytes() == p2.read_bytes()
    back = read_sweep_csv(str(p1))
    for a, b in zip(rows, back):
        assert (a.achieved_orness, a.dispersion, a.w) == (
            b.achieved_orness,
            b.dispersion,
            b.w,
        )
    _report(10, "cross-cutting property checks green (identities, CSV round-trip, determinism)")
