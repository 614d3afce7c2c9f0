"""Property tests for the invariants every weight vector must keep.

Examples are drawn deterministically (``derandomize=True``, no example
database), so the suite gives the same verdict on every run.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from owakit import OrnessTarget, aggregate, exponential_weights, linear_weights
from owakit.cli import _FLAG_METHODS, EXIT_METHOD_DOMAIN, EXIT_OK, main
from owakit.reports import STATUS_OK, evaluate_method, read_sweep_csv, report_to_dict, sweep

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

ornesses = st.floats(0.0, 1.0)
betas = st.floats(1.0, 1.5)


def _orness(w):
    n = w.size
    return math.fsum(np.arange(n - 1, -1, -1, dtype=float) * w) / (n - 1)


@settings(PROPERTY, max_examples=40)
@given(n=st.integers(2, 10**6), orness=ornesses, beta=betas)
@example(n=10**6, orness=0.99, beta=1.5)
def test_linear_simplex_and_exact_orness(n, orness, beta):
    w = linear_weights(OrnessTarget(orness, beta), n).w
    assert w.min() >= 0.0 and w.max() <= 1.0
    assert abs(math.fsum(w) - 1.0) <= 1e-12
    assert abs(_orness(w) - orness) <= 1e-12


@pytest.mark.parametrize("orness", [0.0, 0.3, 0.5, 0.7, 1.0])
def test_linear_simplex_and_exact_orness_at_largest_n(orness):
    # The top of the documented size range, one vector at a time (80 MB).
    # numpy's pairwise sums err by about 1e-15 here, far inside 1e-12.
    n = 10**7
    w = linear_weights(OrnessTarget(orness, 1.5), n).w
    assert w.min() >= 0.0 and w.max() <= 1.0
    assert abs(w.sum() - 1.0) <= 1e-12
    coef = np.arange(n - 1, -1, -1, dtype=float)
    coef *= w
    assert abs(coef.sum() / (n - 1) - orness) <= 1e-12


@PROPERTY
@given(n=st.integers(2, 2000), orness=ornesses, beta=betas)
def test_linear_mirror_symmetry(n, orness, beta):
    lhs = linear_weights(OrnessTarget(orness, beta), n).w
    rhs = linear_weights(OrnessTarget(1.0 - orness, beta), n).w[::-1]
    np.testing.assert_allclose(lhs, rhs, rtol=0.0, atol=1e-12)


@PROPERTY
@given(
    x=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40),
    orness=ornesses,
    beta=betas,
)
def test_aggregate_lies_between_min_and_max(x, orness, beta):
    scale = max(1.0, max(abs(v) for v in x))
    for w in (
        linear_weights(OrnessTarget(orness, beta), len(x)),
        exponential_weights(orness, len(x))[0],
    ):
        y = aggregate(w, x)
        assert min(x) - 1e-12 * scale <= y <= max(x) + 1e-12 * scale


def _run_cli(args):
    """``owakit`` exit code and stdout; stdout captured by redirection
    because Hypothesis rejects the function-scoped ``capsys`` fixture."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    return code, out.getvalue()


method_flags = st.sampled_from(sorted(_FLAG_METHODS))


@settings(PROPERTY, max_examples=60)
@given(n=st.integers(2, 40), orness=ornesses, beta=betas, flag=method_flags)
def test_cli_gen_json_round_trips(n, orness, beta, flag):
    reports = [evaluate_method(m, orness, n, beta) for m in _FLAG_METHODS[flag]]
    code, out = _run_cli(
        ["gen", "--n", str(n), "--orness", repr(orness), "--beta", repr(beta),
         "--method", flag, "--format", "json"]
    )
    if any(r.status != STATUS_OK for r in reports):
        assert code == EXIT_METHOD_DOMAIN and out == ""
        return
    assert code == EXIT_OK
    expected = [report_to_dict(r) for r in reports]
    assert json.loads(out) == (expected[0] if len(expected) == 1 else expected)


@settings(PROPERTY, max_examples=25)
@given(n=st.integers(2, 40), steps=st.integers(2, 12), beta=betas, flag=method_flags)
def test_cli_sweep_csv_round_trips(n, steps, beta, flag):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sweep.csv")
        code, _ = _run_cli(
            ["sweep", "--n", str(n), "--steps", str(steps), "--beta", repr(beta),
             "--method", flag, "--out", path]
        )
        assert code == EXIT_OK
        back = read_sweep_csv(path)
    assert back == sweep(n, _FLAG_METHODS[flag], betas=[beta], steps=steps)
