"""Sweeps over orness grids and the timing benchmark, with CSV emission.

:data:`METHODS` is the one place that lists the weight methods;
evaluation, sweeps, the benchmark and the CLI all iterate it.

A sweep evaluates one or more weight-determination methods at every point
of an orness grid and records achieved orness, dispersion and the full
weight vector per point; this is the data behind the comparison plots.
Points where a method cannot deliver (maximum entropy at orness 0/1, or
its unstable region) are recorded with an explanatory status rather than
dropped.  CSV files are written atomically and deterministically: no
timestamps, numbers at 17 significant digits so parsing them back is
lossless.
"""

import csv
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .baselines import (
    CalibrationError,
    MaxentInstabilityError,
    UnsupportedOrnessError,
    _calibrated_exponential_array,
    _maxent_array,
    _no_preset_exponential_array,
    exponential_weights,
    exponential_weights_no_preset,
    maxent_weights,
)
from .core import DEFAULT_BETA, OrnessTarget, _check_n, dispersion, orness
from .linear import _weight_array, linear_weights

METHOD_LINEAR = "linear"
METHOD_EXPONENTIAL = "exponential"
METHOD_EXPONENTIAL_NO_PRESET = "exponential-no-preset"
METHOD_MAXENT = "maxent"


@dataclass(frozen=True)
class Method:
    """One weight method: its name, its CLI ``--method`` flag, the
    validated call ``weights(orness, n, beta)`` returning a WeightVector,
    the bare array ``kernel(orness, n, beta)`` the benchmark times,
    whether it takes the linear-family ``beta`` (the others ignore it) and
    whether orness 0 and 1 are in its domain (``endpoints``).
    """

    name: str
    flag: str
    weights: Callable
    kernel: Callable
    takes_beta: bool = False
    endpoints: bool = True


# The validated calls are looked up in this module's namespace at call
# time (hence the lambdas), so rebinding e.g. ``reports.maxent_weights``
# reaches every sweep.
METHODS = (
    Method(
        METHOD_LINEAR,
        "linear",
        weights=lambda a, n, beta: linear_weights(OrnessTarget(a, beta), n),
        kernel=lambda a, n, beta: _weight_array(a, n, beta),
        takes_beta=True,
    ),
    Method(
        METHOD_EXPONENTIAL,
        "exp",
        weights=lambda a, n, beta: exponential_weights(a, n)[0],
        kernel=lambda a, n, beta: _calibrated_exponential_array(a, n),
    ),
    Method(
        METHOD_EXPONENTIAL_NO_PRESET,
        "exp-nopreset",
        weights=lambda a, n, beta: exponential_weights_no_preset(a, n),
        kernel=lambda a, n, beta: _no_preset_exponential_array(a, n),
    ),
    Method(
        METHOD_MAXENT,
        "maxent",
        weights=lambda a, n, beta: maxent_weights(a, n),
        kernel=lambda a, n, beta: _maxent_array(a, n),
        endpoints=False,
    ),
)

ALL_METHODS = tuple(m.name for m in METHODS)

STATUS_OK = "ok"
STATUS_UNSTABLE = "unstable"
STATUS_UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class MethodReport:
    """One method evaluated at one orness request."""

    method: str
    beta: Optional[float]
    n: int
    requested_orness: float
    achieved_orness: Optional[float]
    dispersion: Optional[float]
    w: Optional[tuple]
    status: str


@dataclass(frozen=True)
class BenchReport:
    """Wall time for one method over the benchmark grid.

    ``best_time`` is the minimum over reps -- the usual noise-robust
    statistic for microbenchmarks -- and is what ``relative_time`` is
    normalized from; ``mean_time`` is kept for context.
    """

    method: str
    beta: Optional[float]
    n: int
    reps: int
    mean_time: float
    best_time: float
    relative_time: float


def _method(name: str) -> Method:
    """The :data:`METHODS` entry called ``name``."""
    for m in METHODS:
        if m.name == name:
            return m
    raise ValueError(f"unknown method {name!r}")


def evaluate_method(
    method: str, requested: float, n: int, beta: Optional[float] = None
) -> MethodReport:
    """Run one method at one grid point, capturing failures as statuses.
    ``beta`` (default ``DEFAULT_BETA``) is dropped for methods that do not take it."""
    m = _method(method)
    beta = (DEFAULT_BETA if beta is None else beta) if m.takes_beta else None
    try:
        vec = m.weights(requested, n, beta)
    except UnsupportedOrnessError:
        return MethodReport(method, beta, n, requested, None, None, None, STATUS_UNSUPPORTED)
    except (MaxentInstabilityError, CalibrationError):
        return MethodReport(method, beta, n, requested, None, None, None, STATUS_UNSTABLE)
    return MethodReport(
        method=method,
        beta=beta,
        n=n,
        requested_orness=requested,
        achieved_orness=orness(vec),
        dispersion=dispersion(vec),
        w=tuple(vec.w.tolist()),
        status=STATUS_OK,
    )


def sweep(
    n: int,
    methods: Sequence[str],
    betas: Sequence[float] = (DEFAULT_BETA,),
    steps: int = 101,
) -> list:
    """Evaluate ``methods`` on the grid orness = k/(steps-1), k = 0..steps-1.

    Methods that take beta produce rows once per beta; the others ignore
    betas.  Rows come back sorted by (method, requested_orness, beta).
    """
    grid = _grid(steps, "steps")
    if not methods:
        raise ValueError("at least one method is required")
    rows = []
    for method in methods:
        method_betas = betas if _method(method).takes_beta else (None,)
        for requested in grid:
            for beta in method_betas:
                rows.append(evaluate_method(method, requested, n, beta))
    rows.sort(
        key=lambda r: (r.method, r.requested_orness, r.beta if r.beta is not None else -1.0)
    )
    return rows


def _grid(points, name: str) -> list:
    """Orness grid k/(points-1), k = 0..points-1, for an integer ``points`` >= 2."""
    points = _check_n(points, 2, name)
    return [k / (points - 1) for k in range(points)]


def _fmt(value) -> str:
    if value is None:
        return ""
    return format(value, ".17g")


def sweep_header(n: int) -> list:
    return (
        ["method", "beta", "n", "requested_orness", "achieved_orness", "dispersion", "status"]
        + [f"w{i}" for i in range(1, n + 1)]
    )


def sweep_rows_as_records(rows, n: int):
    """Rows as flat string records matching :func:`sweep_header`."""
    records = []
    for r in rows:
        weights = list(r.w) if r.w is not None else [None] * n
        records.append(
            [
                r.method,
                _fmt(r.beta),
                str(r.n),
                _fmt(r.requested_orness),
                _fmt(r.achieved_orness),
                _fmt(r.dispersion),
                r.status,
            ]
            + [_fmt(v) for v in weights]
        )
    return records


def write_sweep_csv(rows, n: int, path: str, provenance: str = "") -> None:
    """Write a sweep to ``path`` atomically (temp file, then rename).

    The first line is a ``#`` comment carrying the tool version and the
    flags that produced the file; the data below it never varies between
    identical runs.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(f"# owakit {__version__} {provenance}".rstrip() + "\n")
            writer = csv.writer(fh)
            writer.writerow(sweep_header(n))
            writer.writerows(sweep_rows_as_records(rows, n))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_sweep_csv(path: str) -> list:
    """Parse a sweep CSV back into :class:`MethodReport` rows."""

    def opt_float(s):
        return None if s == "" else float(s)

    rows = []
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{path}: no header line")
    n = len(header) - 7
    for rec in reader:
        if len(rec) != len(header) or int(rec[2]) != n:
            raise ValueError(
                f"{path} line {reader.line_num}: row does not match the header's n={n}"
            )
        weights = [opt_float(v) for v in rec[7:]]
        rows.append(
            MethodReport(
                method=rec[0],
                beta=opt_float(rec[1]),
                n=int(rec[2]),
                requested_orness=float(rec[3]),
                achieved_orness=opt_float(rec[4]),
                dispersion=opt_float(rec[5]),
                w=None if weights[0] is None else tuple(weights),
                status=rec[6],
            )
        )
    return rows


def report_to_dict(r: MethodReport) -> dict:
    return {
        "method": r.method,
        "beta": r.beta,
        "n": r.n,
        "requested_orness": r.requested_orness,
        "achieved_orness": r.achieved_orness,
        "dispersion": r.dispersion,
        "status": r.status,
        "w": list(r.w) if r.w is not None else None,
    }


# ---------------------------------------------------------------------------
# Benchmark
# ---------------------------------------------------------------------------

# The linear family is timed at its three reference shapes.
_BENCH_BETAS = (1.0, 1.25, 1.5)


def _timed_pass(kernel: Callable, beta: Optional[float], n: int, grid) -> float:
    """One timed traversal of the grid.  Only weight generation is inside
    the timed region; failures at unreachable points count as work done."""
    start = time.perf_counter()
    for a in grid:
        kernel(a, n, beta)
    return time.perf_counter() - start


def bench(n_list: Sequence[int], reps: int = 20, grid_points: int = 101) -> list:
    """Time every method over ``reps`` traversals of a fixed orness grid.

    Returns one :class:`BenchReport` per (method, n); within each n the
    relative time is normalized so the fastest method reads 1.0.
    """
    reps = _check_n(reps, 1, "reps")
    n_list = [_check_n(n, 3) for n in n_list]
    grid = _grid(grid_points, "grid_points")
    interior = [a for a in grid if 0.0 < a < 1.0]
    reports = []
    for n in n_list:
        measured = []
        for m in METHODS:
            points = grid if m.endpoints else interior
            for beta in _BENCH_BETAS if m.takes_beta else (None,):
                _timed_pass(m.kernel, beta, n, points)  # warm-up, untimed
                times = [_timed_pass(m.kernel, beta, n, points) for _ in range(reps)]
                measured.append((m.name, beta, float(np.mean(times)), float(np.min(times))))
        fastest = min(best for _, _, _, best in measured)
        for method, beta, mean_time, best_time in measured:
            reports.append(
                BenchReport(
                    method=method,
                    beta=beta,
                    n=n,
                    reps=reps,
                    mean_time=mean_time,
                    best_time=best_time,
                    relative_time=best_time / fastest,
                )
            )
    return reports
