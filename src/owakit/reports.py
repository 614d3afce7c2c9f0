"""Sweeps over orness grids and the timing benchmark, with CSV emission.

:data:`METHODS` is the one place that lists the weight methods;
evaluation, sweeps, the benchmark and the CLI all iterate it, and this
module reaches the kernels only through it.

A sweep evaluates one or more weight-determination methods at every point
of an orness grid and records achieved orness, dispersion and the full
weight vector per point; this is the data behind the comparison plots.
:func:`evaluate_method` is a sweep of one point, so every report comes
from one code path.
Every method builds a whole grid in one kernel call per (method, beta),
and the weight matrix is validated once; :func:`_rows` alone decides each
row's status.  Points where a method cannot deliver (maximum entropy at
orness 0/1, or an unstable solve) are recorded with an explanatory status
rather than dropped.  CSV files are written atomically and
deterministically: no timestamps, numbers at 17 significant digits so
parsing them back is lossless.
"""

import csv
import dataclasses
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .baselines import (
    ORNESS_TOL,
    _calibrated_exponential_array,
    _maxent_rows,
    _no_preset_exponential_array,
)
from .core import (
    DEFAULT_BETA,
    WeightVector,
    _check_beta,
    _check_n,
    _check_orness,
    _dispersion_array,
    _orness_rows,
    _simplex_rows,
    orness,
)
from .linear import _weight_array

METHOD_LINEAR = "linear"
METHOD_EXPONENTIAL = "exponential"
METHOD_EXPONENTIAL_NO_PRESET = "exponential-no-preset"
METHOD_MAXENT = "maxent"


@dataclass(frozen=True)
class Method:
    """One weight method.

    - ``name`` and ``flag``: its name and its CLI ``--method`` flag.
    - ``kernel(orness, n, beta)``: the bare weights for a 1-d array of
      orness values, one row per value (NaN where the method has no
      vector).  Reports make one call per grid; the benchmark times it on
      one value at a time.
    - ``takes_beta``: whether it takes the linear-family ``beta`` (the
      others ignore it).
    - ``endpoints``: whether orness 0 and 1 are in its domain.
    - ``min_n``: the smallest size it accepts.
    - ``calibrated``: whether its weights come from a numerical search, so
      a row whose orness misses the request by more than ``ORNESS_TOL``
      is unstable.
    """

    name: str
    flag: str
    kernel: Callable
    takes_beta: bool = False
    endpoints: bool = True
    min_n: int = 2
    calibrated: bool = False


METHODS = (
    Method(METHOD_LINEAR, "linear", kernel=_weight_array, takes_beta=True, min_n=1),
    Method(
        METHOD_EXPONENTIAL,
        "exp",
        kernel=lambda a, n, beta: _calibrated_exponential_array(a, n)[0],
        calibrated=True,
    ),
    Method(
        METHOD_EXPONENTIAL_NO_PRESET,
        "exp-nopreset",
        kernel=lambda a, n, beta: _no_preset_exponential_array(a, n),
    ),
    Method(
        METHOD_MAXENT,
        "maxent",
        kernel=lambda a, n, beta: _maxent_rows(a, n),
        endpoints=False,
        calibrated=True,
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
    """Run one method at one grid point, capturing failures as statuses:
    a sweep of one point.  ``beta`` (default ``DEFAULT_BETA``) is dropped
    for methods that do not take it."""
    m = _method(method)
    return _rows(m, [_check_orness(requested)], n, beta)[0]


def sweep(
    n: int,
    methods: Sequence[str],
    betas: Sequence[float] = (DEFAULT_BETA,),
    steps: int = 101,
) -> list:
    """Evaluate ``methods`` on the grid orness = k/(steps-1), k = 0..steps-1.

    Methods that take beta produce rows once per beta; the others ignore
    betas, but at least one is required.  Rows come back sorted by
    (method, requested_orness, beta).
    """
    grid = _grid(steps, "steps")
    if not methods:
        raise ValueError("at least one method is required")
    if not betas:
        raise ValueError("at least one beta is required")
    rows = []
    for method in methods:
        m = _method(method)
        for beta in betas if m.takes_beta else (None,):
            rows.extend(_rows(m, grid, n, beta))
    rows.sort(
        key=lambda r: (r.method, r.requested_orness, r.beta if r.beta is not None else -1.0)
    )
    return rows


def _rows(m: Method, grid: list, n, beta: Optional[float]) -> list:
    """One report per orness in ``grid``, all in [0, 1], after checking
    ``beta`` (see :func:`evaluate_method`) and then ``n``: one kernel call
    and one validation of the whole weight matrix.  A row is unsupported
    at orness 0 and 1 for a method without ``endpoints``, and unstable
    when it fails the simplex check or, for a calibrated method, misses
    its orness by more than ``ORNESS_TOL``."""
    beta = _check_beta(DEFAULT_BETA if beta is None else beta) if m.takes_beta else None
    n = _check_n(n, m.min_n)
    w, problems = _simplex_rows(m.kernel(np.array(grid, dtype=float), n, beta))
    if n == 1:
        # Every valid row is [1.0], whose orness is the warned 0.5 convention.
        achieved = [orness(WeightVector(np.ones(1)))] * len(grid)
    else:
        achieved = _orness_rows(w)

    def failed(requested, status):
        return MethodReport(m.name, beta, n, requested, None, None, None, status)

    rows = []
    for requested, got, row, problem in zip(grid, achieved, w, problems):
        if not m.endpoints and requested in (0.0, 1.0):
            rows.append(failed(requested, STATUS_UNSUPPORTED))
        elif problem is not None or (m.calibrated and abs(got - requested) > ORNESS_TOL):
            rows.append(failed(requested, STATUS_UNSTABLE))
        else:
            disp, values = _dispersion_array(row), tuple(row.tolist())
            rows.append(MethodReport(m.name, beta, n, requested, got, disp, values, STATUS_OK))
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


def sweep_lines(rows, n: int, end: str = "\r\n"):
    """The header line, then one line per row, each ending in ``end``.

    Numbers are written at 17 significant digits; a row without weights
    gets ``n`` empty weight cells.  Method and status names contain no
    comma, quote or line break, so no cell needs CSV quoting.  ValueError
    for a row of another size than ``n``.
    """
    weights = ",".join(["%.17g"] * n) + end
    no_weights = "," * (n - 1) + end
    yield ",".join(sweep_header(n)) + end
    for r in rows:
        if r.n != n:
            raise ValueError(f"row has n={r.n} but the header has n={n}")
        yield (
            f"{r.method},{_fmt(r.beta)},{r.n},{_fmt(r.requested_orness)},"
            f"{_fmt(r.achieved_orness)},{_fmt(r.dispersion)},{r.status},"
        ) + (no_weights if r.w is None else weights % tuple(r.w))


def write_sweep_csv(rows, n: int, path: str, provenance: str = "") -> None:
    """Write a sweep to ``path`` atomically (temp file, then rename).

    The first line is a ``#`` comment carrying the tool version and the
    flags that produced the file, ending in ``\\n``; the header and rows
    below it end in ``\\r\\n`` and never vary between identical runs.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(f"# owakit {__version__} {provenance}".rstrip() + "\n")
            fh.writelines(sweep_lines(rows, n))
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
    if n < 1 or header != sweep_header(n):
        raise ValueError(f"{path}: the header is not a sweep header")
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
    """``r`` as a JSON-ready dict, its fields in order but ``w`` last, as a list."""
    d = dataclasses.asdict(r)
    w = d.pop("w")
    d["w"] = None if w is None else list(w)
    return d


# ---------------------------------------------------------------------------
# Benchmark
# ---------------------------------------------------------------------------

# The linear family is timed at its three reference shapes.
_BENCH_BETAS = (1.0, 1.25, 1.5)


def _timed_pass(kernel: Callable, beta: Optional[float], n: int, grid) -> float:
    """One timed traversal of the grid, one kernel call per one-element
    array in ``grid``.  Only weight generation is inside the timed region;
    failures at unreachable points count as work done."""
    start = time.perf_counter()
    for a in grid:
        kernel(a, n, beta)
    return time.perf_counter() - start


def bench(n_list: Sequence[int], reps: int = 20, grid_points: int = 101) -> list:
    """Time every method over ``reps`` traversals of a fixed orness grid.

    Returns one :class:`BenchReport` per (method, n); within each n the
    relative time is normalized so the fastest method reads 1.0.  After
    one untimed warm-up pass of every (method, beta), each rep times one
    pass of each in turn, so a burst of host load slows one rep of every
    method rather than every rep of one.
    """
    reps = _check_n(reps, 1, "reps")
    n_list = [_check_n(n, 3) for n in n_list]
    grid = [np.array([a]) for a in _grid(grid_points, "grid_points")]
    interior = [a for a in grid if 0.0 < a[0] < 1.0]
    jobs = [
        (m, beta, grid if m.endpoints else interior)
        for m in METHODS
        for beta in (_BENCH_BETAS if m.takes_beta else (None,))
    ]
    reports = []
    for n in n_list:
        for m, beta, points in jobs:
            _timed_pass(m.kernel, beta, n, points)
        times = [[] for _ in jobs]
        for _ in range(reps):
            for job_times, (m, beta, points) in zip(times, jobs):
                job_times.append(_timed_pass(m.kernel, beta, n, points))
        best = [min(t) for t in times]
        for (m, beta, _), t, best_time in zip(jobs, times, best):
            reports.append(
                BenchReport(
                    method=m.name,
                    beta=beta,
                    n=n,
                    reps=reps,
                    mean_time=float(np.mean(t)),
                    best_time=best_time,
                    relative_time=best_time / min(best),
                )
            )
    return reports
