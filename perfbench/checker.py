"""Output checker: classes every benchmark op as certified, flagged or failed.

- certified: the output passed every check below;
- flagged: the library answered with a documented refusal (one of its
  documented exceptions, or sweep status ``unstable``/``unsupported``);
- failed: an undocumented exception, or an output that fails a check.

The reference formulas are written out here and share no code with
owakit, so a library bug cannot make its own output pass.  The
tolerances are fixed here, not read from the library, so loosening the
library's tolerance does not loosen the check.
"""

import math

import numpy as np

from owakit import CalibrationError, MaxentInstabilityError, UnsupportedOrnessError

CERTIFIED = "certified"
FLAGGED = "flagged"
FAILED = "failed"
CLASSES = (CERTIFIED, FLAGGED, FAILED)

DOCUMENTED_REFUSALS = (UnsupportedOrnessError, MaxentInstabilityError, CalibrationError)
FLAGGED_STATUSES = ("unstable", "unsupported")

SUM_TOL = 1e-12
ORNESS_TOL = 1e-9
# The maximum-entropy optimum is geometric, w_i proportional to exp(-t*i),
# so log w has constant steps.  Correct solves leave a spread of ~1e-14.
GEOMETRIC_TOL = 1e-9
AGGREGATE_RTOL = 1e-12

# Methods whose result must reproduce the requested orness.  The
# no-preset exponential drifts by design and is checked on the simplex only.
ORNESS_CHECKED = ("linear", "exponential", "maxent")


def classify_exception(exc: BaseException):
    """``(class, reason)`` for an op that raised ``exc``."""
    reason = f"{type(exc).__name__}: {exc}"
    if isinstance(exc, DOCUMENTED_REFUSALS):
        return FLAGGED, reason
    return FAILED, reason


def _weights_problem(method: str, w: np.ndarray, requested: float):
    if w.ndim != 1 or w.size < 1 or not np.all(np.isfinite(w)):
        return "weights are not a finite non-empty vector"
    if w.min() < 0.0 or w.max() > 1.0:
        return f"weight outside [0, 1]: range [{w.min():.17g}, {w.max():.17g}]"
    total = math.fsum(w)
    if abs(total - 1.0) > SUM_TOL:
        return f"weights sum to {total:.17g}"
    n = w.size
    if method in ORNESS_CHECKED and n > 1:
        achieved = math.fsum(np.arange(n - 1, -1, -1, dtype=float) * w) / (n - 1)
        if abs(achieved - requested) > ORNESS_TOL:
            return f"orness residual {abs(achieved - requested):.3g}"
    if method == "maxent" and n > 2:
        if w.min() <= 0.0:
            return "maximum-entropy weight not strictly positive"
        steps = np.diff(np.log(w))
        spread = float(steps.max() - steps.min())
        if spread > GEOMETRIC_TOL:
            return f"not geometric: spread of diff(log w) is {spread:.3g}"
    return None


def classify_weights(method: str, w, requested: float):
    """``(class, reason)`` for weights ``w`` returned by ``method`` at
    orness ``requested``; reason is ``None`` when certified."""
    problem = _weights_problem(method, np.asarray(w, dtype=float), requested)
    return (CERTIFIED, None) if problem is None else (FAILED, problem)


def classify_sweep_row(row):
    """``(class, reason)`` for one sweep row (a ``MethodReport``)."""
    if row.status in FLAGGED_STATUSES:
        return FLAGGED, f"status {row.status}"
    if row.status != "ok" or row.w is None:
        return FAILED, f"status {row.status!r} with weights {row.w is not None}"
    return classify_weights(row.method, row.w, row.requested_orness)


def aggregate_mismatch(w, x, y):
    """Boolean mask of the rows of ``x`` whose OWA value ``y`` differs from
    ``np.sort(row)[::-1] @ w`` by more than ``AGGREGATE_RTOL`` relative to
    the magnitude of the products summed."""
    w = np.asarray(w, dtype=float)
    ordered = np.sort(np.atleast_2d(np.asarray(x, dtype=float)), axis=1)[:, ::-1]
    ref = ordered @ w
    scale = np.abs(ordered) @ np.abs(w)
    return ~(np.abs(np.asarray(y, dtype=float) - ref) <= AGGREGATE_RTOL * scale)
