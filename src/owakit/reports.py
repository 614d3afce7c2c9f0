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
parsing them back is lossless.  An ``ok`` row's weights are a
:class:`Weights`, a read-only view of its row of the kernel matrix that
compares, hashes and iterates as the tuple of its floats; a row read back
holds one over the floats it parsed.  The families are mirror-symmetric
(the vector at orness 1 - a is the one at a reversed), so the writer
reuses the weight cells of a repeated or mirrored row and writes a long
row of few runs of equal bits from its run heads; :mod:`owakit._digits`
formats the others, byte for byte as ``%.17g``.
"""

import dataclasses
import errno
import os
import stat
import struct
import time
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import __version__, _digits
from .baselines import _calibrated_exponential_array, _maxent_rows, _no_preset_exponential_array
from .core import (
    DEFAULT_BETA,
    _check_beta,
    _check_n,
    _check_orness,
    _dispersion_rows,
    _orness_rows,
    _simplex_rows,
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
    - ``claims_orness``: whether it promises the requested orness, so a
      row at n >= 2 that misses it by more than ``ORNESS_TOL`` is unstable
      (at n = 1 orness is 0.5 by convention).  Only the no-preset
      exponential, whose drift is documented, makes no such claim.
    """

    name: str
    flag: str
    kernel: Callable
    takes_beta: bool = False
    endpoints: bool = True
    min_n: int = 2
    claims_orness: bool = True


METHODS = (
    Method(METHOD_LINEAR, "linear", kernel=_weight_array, takes_beta=True, min_n=1),
    Method(
        METHOD_EXPONENTIAL,
        "exp",
        kernel=lambda a, n, beta: _calibrated_exponential_array(a, n)[0],
    ),
    Method(
        METHOD_EXPONENTIAL_NO_PRESET,
        "exp-nopreset",
        kernel=lambda a, n, beta: _no_preset_exponential_array(a, n),
        claims_orness=False,
    ),
    Method(
        METHOD_MAXENT,
        "maxent",
        kernel=lambda a, n, beta: _maxent_rows(a, n),
        endpoints=False,
    ),
)

ALL_METHODS = tuple(m.name for m in METHODS)

STATUS_OK = "ok"
STATUS_UNSTABLE = "unstable"
STATUS_UNSUPPORTED = "unsupported"

# A row read back holds these name objects, as sweep() rows do, not its own copies.
_NAMES = {name: name for name in (*ALL_METHODS, STATUS_OK, STATUS_UNSTABLE, STATUS_UNSUPPORTED)}


class Weights(Sequence):
    """A report's weights: an immutable sequence over a read-only float64 row.

    ``len``, indexing and iteration give Python floats, and a slice is a
    ``Weights`` over the row's slice.  It is equal to, and hashes as, the
    tuple of its floats.  ``np.asarray(w)`` is the row itself, with no
    copy: for a sweep row, a view of its kernel matrix.  A pickle or deep
    copy is read-only too.
    """

    __slots__ = ("_row",)

    def __init__(self, row):
        self._row = np.asarray(row, float).view()  # its own view: the caller's array keeps its flag
        self._row.flags.writeable = False

    def __len__(self):
        return len(self._row)

    def __getitem__(self, k):
        return Weights(self._row[k]) if isinstance(k, slice) else self._row.item(k)

    def __iter__(self):
        return iter(self._row.tolist())

    def __eq__(self, other):
        if isinstance(other, Weights):
            return bool(np.array_equal(self._row, other._row))
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return f"Weights({tuple(self)!r})"

    def __array__(self, dtype=None, copy=None):
        return self._row.astype(dtype or float, copy=bool(copy))

    def __reduce__(self):  # numpy's pickle drops the read-only flag; __init__ sets it again
        return Weights, (self._row,)


@dataclass(frozen=True)
class MethodReport:
    """One method evaluated at one orness request."""

    method: str
    beta: Optional[float]
    n: int
    requested_orness: float
    achieved_orness: Optional[float]
    dispersion: Optional[float]
    w: Optional[Weights]
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
    """Run one method at one grid point, capturing failures as statuses: a sweep of one
    point.  ``beta`` (default ``DEFAULT_BETA``) is dropped for methods that do not take it."""
    m = _method(method)
    grid = [_check_orness(requested)]
    beta = _check_beta(DEFAULT_BETA if beta is None else beta) if m.takes_beta else None
    return next(_rows(m, grid, _check_n(n, m.min_n), beta))


def sweep(
    n: int, methods: Sequence[str], betas: Sequence[float] = (DEFAULT_BETA,), steps: int = 101
) -> list:
    """Evaluate ``methods`` on the grid orness = k/(steps-1), k = 0..steps-1.

    ``methods`` and ``betas`` each hold at least one item and no repeat.
    Methods that take beta produce rows once per beta; the others ignore
    betas, whose items go unchecked when no listed method takes them.
    Every argument is checked before the first kernel runs.  Rows are made in
    (method, requested_orness, beta) order, so ``owakit sweep`` writes each as it is made
    (:func:`_sweep_rows`): it holds one method's kernel matrices and the kept rows of the
    writer.

    An ``ok`` row's ``w`` is a :class:`Weights` view of its row of the kernel matrix, so
    the rows hold the matrices and no float per weight.
    """
    return list(_sweep_rows(n, methods, betas, steps))


def _sweep_rows(n, methods, betas, steps):
    """:func:`sweep`'s rows as they are taken, its arguments checked first.  zip takes
    a point's row of every beta, so all of a method's kernels run at its first row."""
    grid = _grid(steps)
    ms = _checked_list(methods, "methods", "method names", "method", _method)
    takes_beta = any(m.takes_beta for m in ms)
    betas = _checked_list(betas, "betas", "numbers", "beta", _check_beta if takes_beta else None)
    n = _check_n(n, max(m.min_n for m in ms))
    ms.sort(key=lambda m: m.name)
    runs = [(m, sorted(betas) if m.takes_beta else [None]) for m in ms]
    return (r for m, bs in runs for p in zip(*(_rows(m, grid, n, b) for b in bs)) for r in p)


def _checked_list(seq, name: str, what: str, item: str, check: Optional[Callable]) -> list:
    """``check`` of each item of ``seq`` (the items themselves if ``check``
    is None); ValueError naming ``name`` unless ``seq`` is a 1-d sequence
    of ``what``, not a string, with at least one ``item`` and, once
    checked, no item twice."""
    try:
        flat = np.ndim(seq) == 1
    except ValueError:  # numpy refuses to make an array of a ragged nesting
        flat = False
    if not flat:
        kind = "a string: " if isinstance(seq, str) else ""
        raise ValueError(f"{name} is a sequence of {what}, not {kind}{seq!r}")
    if len(seq) == 0:
        raise ValueError(f"at least one {item} is required")
    items = seq.tolist() if isinstance(seq, np.ndarray) else list(seq)
    if check is None:
        return items
    checked = []
    for x in items:
        value = check(x)
        if value in checked:
            raise ValueError(f"{name} repeats {x!r}")
        checked.append(value)
    return checked


def _rows(m: Method, grid: list, n: int, beta: Optional[float]):
    """One report per orness in ``grid``, all in [0, 1], for ``n`` and ``beta`` already
    checked, yielded in grid order: one kernel call, one pass each for every row's orness and
    dispersion, their scratch freed before the first row, and the public calls' rule on the
    read-only matrix, whose rows need no clip.  A row is unsupported at orness 0 and 1 for a
    method without ``endpoints``, and unstable when ``core._simplex_rows`` refuses it: off the
    simplex or, at n >= 2 for a method that ``claims_orness``, off by more than ``ORNESS_TOL``.

    An ``ok`` row's ``w`` is a :class:`Weights` view of its row of the weight matrix, which
    is made read-only first."""
    w = m.kernel(np.array(grid, dtype=float), n, beta)
    w.flags.writeable = False  # each ok row's weights are a view of it
    achieved, dispersions = _orness_rows(w), _dispersion_rows(w)  # 0.5 at n = 1, by convention
    verdicts = _simplex_rows(w, grid, achieved if m.claims_orness and n > 1 else None)
    for requested, got, row, verdict, disp in zip(grid, achieved, w, verdicts, dispersions):
        if not m.endpoints and requested in (0.0, 1.0):
            yield MethodReport(m.name, beta, n, requested, None, None, None, STATUS_UNSUPPORTED)
        elif verdict is not None:
            yield MethodReport(m.name, beta, n, requested, None, None, None, STATUS_UNSTABLE)
        else:
            yield MethodReport(m.name, beta, n, requested, got, disp, Weights(row), STATUS_OK)


def _grid(steps) -> list:
    """Orness grid k/(steps-1), k = 0..steps-1, for an integer ``steps`` >= 2."""
    steps = _check_n(steps, 2, "steps")
    return [k / (steps - 1) for k in range(steps)]


def _fmt(value) -> str:
    if value is None:
        return ""
    return format(value, ".17g")


# The names of a sweep header's cells before its weights' w1..wn.
_HEAD_NAMES = ["method", "beta", "n", "requested_orness", "achieved_orness", "dispersion", "status"]


def sweep_header(n: int) -> list:
    return _HEAD_NAMES + [f"w{i}" for i in range(1, n + 1)]


def sweep_lines(rows, n: int, end: str = "\r\n"):
    """The header line, then one line per row, each ending in ``end``.

    Numbers are written at 17 significant digits; a row without weights
    gets ``n`` empty weight cells.  Method and status names contain no
    comma, quote or line break, so no cell needs CSV quoting.  ValueError
    naming ``n`` unless it is an integer >= 1, and for a row of another
    size than ``n``; TypeError for a row whose weights are not ``n``
    numbers.

    The weight cells of a row at orness <= 0.5 are kept until the method
    changes.  A later row of that method whose float64 bytes equal a kept
    row, or, at orness > 0.5, equal it reversed (the mirror at orness
    1 - a), reuses its cells instead of formatting them again.  A cell is a
    function of its value's bytes alone, so the output is the same as
    formatting every row.

    A row to format with at least ``_RUN_ROW_CELLS`` cells and at most n // 32 runs of
    neighbouring cells with the same float64 bits (the flat beta = 1 linear rows, a
    one-hot row) is written from its run heads' ``%.17g`` as it is taken, and kept for its
    mirror as any other row.  The others are formatted as the lines are reached by
    :func:`owakit._digits.cells`, at most ``_BLOCK_CELLS`` cells a call (a block of rows
    or a column chunk of one).  The lines are the bytes of :func:`_sweep_parts`, which
    :func:`write_sweep_csv` writes, decoded.
    """
    for parts in _sweep_parts(rows, n, b""):
        for k in range(0, len(parts), 3):  # head, cells, b""
            yield parts[k].decode() + parts[k + 1].decode("ascii") + end
        del parts  # not held while the next batch is made


def _sweep_parts(rows, n: int, end: bytes):
    """:func:`sweep_lines`' lines as bytes, in lists of at most ``_BLOCK_CELLS // n``
    lines (at least one): each line's UTF-8 head (up to its first weight cell; a row
    read back keeps the names it read), its ASCII weight cells and ``end``.  A row's
    key is its weights' float64 bytes: a :class:`Weights` row's own, else packed."""
    n = _check_n(n, 1)
    no_weights = [b"," * (n - 1)]  # the cells of a row without weights, already text
    pack = struct.Struct(f"{n}d").pack
    per_block = max(1, _BLOCK_CELLS // n)
    most = n // 32 if n >= _RUN_ROW_CELLS else 0  # the most runs of a row written from its heads
    # The header: its fixed names as the head, w1..wn as its cells, named a block at a time
    # (one str a name, as sweep_header(n) makes them, holds about 640 MB at n = 10^7).
    w = range(1, n + 1)
    blocks = (w[k : k + _BLOCK_CELLS] for k in range(0, n, _BLOCK_CELLS))
    names = (b",".join([b"w%d" % i for i in block]) for block in blocks)
    yield [(",".join(_HEAD_NAMES) + ",").encode(), b",".join(names), end]
    method, kept = None, {}  # row bytes -> the cells of a kept row
    lines, new = [], []  # the lines since the last block; its rows to format
    for r in rows:
        if r.n != n:
            raise ValueError(f"row has n={r.n} but the header has n={n}")
        head = (
            f"{r.method},{_fmt(r.beta)},{r.n},{_fmt(r.requested_orness)},"
            f"{_fmt(r.achieved_orness)},{_fmt(r.dispersion)},{r.status},"
        ).encode()
        if r.w is None:
            lines.append((head, no_weights, False))
            continue
        if r.method != method:
            method, kept = r.method, {}
        try:
            # Bytes, not floats: 0.0 == -0.0, but they print differently.
            key = r.w._row.tobytes() if isinstance(r.w, Weights) and len(r.w) == n else pack(*r.w)
        except struct.error as exc:
            raise TypeError(f"row weights are not {n} numbers: {exc}") from None
        cells, flip = kept.get(key), False
        if cells is None and r.requested_orness > 0.5:
            cells = kept.get(np.frombuffer(key)[::-1].tobytes())  # a kept row's mirror
            flip = cells is not None
        if cells is None:
            text = _run_line(key, most) if most else None
            if text is None:
                cells = [key]  # becomes [text] once its block is formatted
                new.append(cells)
            else:
                cells = [text]
            if r.requested_orness <= 0.5:
                kept[key] = cells
        lines.append((head, cells, flip))
        if len(new) == per_block:
            yield from _block_parts(lines, new, n, end, per_block)
            lines, new = [], []
    yield from _block_parts(lines, new, n, end, per_block)


def _run_line(key: bytes, most: int):
    """The weight cells, as bytes, of the row packed in ``key`` if it has at most ``most`` runs
    of neighbouring cells with the same float64 bits, each its run head's ``%.17g``; else None."""
    bits = np.frombuffer(key, np.uint64)
    same = bits[1:] == bits[:-1]
    if len(same) - np.count_nonzero(same) >= most:
        return None
    starts = [0, *(np.flatnonzero(~same) + 1).tolist(), len(bits)]
    heads = np.frombuffer(key)[starts[:-1]].tolist()
    return b"".join([(b"%.17g," % v) * (b - a) for v, a, b in zip(heads, starts, starts[1:])])[:-1]


def _block_parts(lines, new, n: int, end: bytes, per_block: int):
    """Format the ``[key]`` cells of each row in ``new`` in place, as ``[text]``, in column
    chunks of at most ``_BLOCK_CELLS`` cells joined by commas, then yield the parts of
    ``lines``, ``per_block`` lines at a time, flipping each mirror's."""
    if new:
        x = np.frombuffer(b"".join(cells[0] for cells in new)).reshape(-1, n)
        chunks = [_digits.cells(x[:, k : k + _BLOCK_CELLS]) for k in range(0, n, _BLOCK_CELLS)]
        for cells, *texts in zip(new, *chunks):
            cells[0] = b",".join(texts)
    for k in range(0, len(lines), per_block):
        parts = []
        for head, cells, flip in lines[k : k + per_block]:
            parts += (head, b",".join(reversed(cells[0].split(b","))) if flip else cells[0], end)
        yield parts


# Rows are formatted at most this many cells a call: a block of rows or a column chunk.
_BLOCK_CELLS = 8192
# Rows of at least this many cells are checked for runs.  Below it the check, about 1 us
# a row, costs more than the run rows save: checking made the write of a three-beta,
# 101-step sweep of every method at n = 100 0.35 ms slower (7.6 ms, 2-vCPU x86-64 host).
_RUN_ROW_CELLS = 256


def write_sweep_csv(rows, n: int, path: str, provenance: str = "") -> None:
    """Write a sweep to ``path`` atomically (temp file, then rename), with
    the mode ``open(path, "w")`` gives a new file: 0o666 less the umask.

    The first line is a ``#`` comment carrying the tool version and the
    flags that produced the file, ending in ``\\n``; the header and rows
    below it end in ``\\r\\n``, their bytes written a batch of lines at a time
    (:func:`_sweep_parts`).  The file is UTF-8 whatever the locale, so it
    never varies between identical runs.  Before any file is made or row
    taken: ValueError for a provenance with a line break or an ``n`` that is
    not an integer >= 1, and an OSError naming ``path`` if it is empty, ends
    in a separator or is no regular file after symlinks (a FIFO is kept).
    """
    if "\r" in provenance or "\n" in provenance:
        raise ValueError(f"provenance must be one line; got {provenance!r}")
    n = _check_n(n, 1)
    try:
        mode = os.stat(path).st_mode
    except OSError:
        mode = stat.S_IFREG  # nothing there yet: a new file
    if not os.path.basename(path) or stat.S_ISDIR(mode):
        open(path, "w").close()  # no file can be made at such a path: this raises its error
    if not stat.S_ISREG(mode):  # a FIFO, a device or a socket is left as it is
        raise OSError(errno.EEXIST, "exists and is not a regular file", path)
    # O_EXCL on a random name, as in tempfile.mkstemp, whose files are always 0600.
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f"tmp{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    except OSError as exc:  # name the path given, not the temp file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(f"# owakit {__version__} {provenance}".rstrip().encode() + b"\n")
            fh.writelines(map(b"".join, _sweep_parts(rows, n, b"\r\n")))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_sweep_csv(path: str) -> list:
    """Parse a UTF-8 sweep CSV back into :class:`MethodReport` rows in one pass, split at commas.

    ValueError naming the path and the file line (``#`` lines counted) for a byte that is not
    UTF-8, a row with a ``"`` (no cell is quoted), a row that does not match the header or a
    non-number cell.

    A row's weights are a :class:`Weights` over one float64 array of its cells, each parsed
    by ``float``, so a row holds 8 bytes a weight.  A known method or status name is this
    module's constant; an unknown one is kept as read.
    """

    def opt_float(s):
        return None if s == "" else float(s)

    rows, header, fixed = [], None, len(sweep_header(0))
    # surrogateescape reads a byte that is not UTF-8 as U+DC80..U+DCFF, found on its line.
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        for k, line in enumerate(fh, 1):
            bad = not line.isascii() and next((c for c in line if "\udc80" <= c <= "\udcff"), "")
            if bad:
                raise ValueError(f"{path} line {k}: byte {ord(bad) - 0xDC00:#04x} is not UTF-8")
            if line.startswith("#"):
                continue
            rec = line.rstrip("\r\n").split(",")
            if header is None:
                header, n = rec, len(rec) - fixed
                if n < 1 or header != sweep_header(n):
                    raise ValueError(f"{path}: the header is not a sweep header")
                continue
            where = f"{path} line {k}"
            if '"' in line:
                raise ValueError(f"{where}: a cell is quoted, but sweep files quote no cell")
            if len(rec) != len(header):
                raise ValueError(f"{where}: row does not match the header's n={n}")
            cells = rec[fixed:]
            if "" in cells and any(cells):
                raise ValueError(f"{where}: weight cells must be all empty or all numbers")
            try:
                row = MethodReport(
                    method=_NAMES.get(rec[0], rec[0]), beta=opt_float(rec[1]), n=int(rec[2]),
                    requested_orness=float(rec[3]), achieved_orness=opt_float(rec[4]),
                    dispersion=opt_float(rec[5]), status=_NAMES.get(rec[6], rec[6]),
                    w=None if cells[0] == "" else Weights(np.fromiter(map(float, cells), float, n)),
                )
            except ValueError as exc:
                raise ValueError(f"{where}: a cell is not a number ({exc})") from None
            if row.n != n:
                raise ValueError(f"{where}: row does not match the header's n={n}")
            rows.append(row)
    if header is None:
        raise ValueError(f"{path}: no header line")
    return rows


def report_to_dict(r: MethodReport) -> dict:
    """``r`` as a JSON-ready dict, its fields in order but ``w`` last, as a list of floats."""
    d = {f.name: getattr(r, f.name) for f in dataclasses.fields(r) if f.name != "w"}
    d["w"] = None if r.w is None else np.asarray(r.w).tolist()
    return d


# ---------------------------------------------------------------------------
# Benchmark
# ---------------------------------------------------------------------------

# The linear family is timed at its three reference shapes.
_BENCH_BETAS = (1.0, 1.25, 1.5)
_BENCH_GRID_POINTS = 101


def _timed_pass(kernel: Callable, beta: Optional[float], n: int, grid) -> float:
    """One timed traversal of the grid, one kernel call per one-element
    array in ``grid``.  Only weight generation is inside the timed region;
    failures at unreachable points count as work done."""
    start = time.perf_counter()
    for a in grid:
        kernel(a, n, beta)
    return time.perf_counter() - start


def bench(n_list: Sequence[int], reps: int = 20) -> list:
    """Time every method over ``reps`` traversals of the orness grid k/100.

    ``n_list`` holds at least one size and no repeat, and is checked
    before any pass is timed.  Returns one :class:`BenchReport` per
    (method, n); within each n the relative time is normalized so the
    fastest method reads 1.0.  After one untimed warm-up pass of every
    (method, beta), each rep times one pass of each in turn, so a burst
    of host load slows one rep of every method rather than every rep of
    one.
    """
    reps = _check_n(reps, 1, "reps")
    n_list = _checked_list(n_list, "n_list", "sizes", "n", lambda n: _check_n(n, 3))
    grid = [np.array([a]) for a in _grid(_BENCH_GRID_POINTS)]
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
