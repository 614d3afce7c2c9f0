"""The benchmark's workloads: op lists made from a seed, and their runners.

Each workload runs closed-loop: one caller in one single-threaded process
sends the next op only after the previous one returns.  Only calls into
the library sit inside the timed region; input generation and the output
checks run between ops, untimed.  The library receives only the generated
inputs, never the seed.
"""

import ctypes
import hashlib
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import cycle
from time import perf_counter_ns
from types import SimpleNamespace

import numpy as np

import owakit
from owakit import reports

from checker import (
    CERTIFIED,
    CLASSES,
    FAILED,
    aggregate_mismatch,
    classify_exception,
    classify_sweep_row,
    classify_weights,
)
from hostspeed import HostSpeed
from instruments import Histogram

LINEAR, EXPONENTIAL, NO_PRESET, MAXENT = reports.ALL_METHODS
METHOD_LABEL = {
    LINEAR: "linear",
    EXPONENTIAL: "exponential",
    NO_PRESET: "no-preset",
    MAXENT: "maxent",
}
BETAS = (1.0, 1.25, 1.5)
MAX_FAILURES_KEPT = 20

try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim  # glibc only
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int
except AttributeError:
    _malloc_trim = None

# Public functions timed by the benchmark, by span name <layer>.<function>.
PUBLIC = {
    "linear.linear_weights": (owakit.linear, "linear_weights"),
    "baselines.exponential_weights": (owakit.baselines, "exponential_weights"),
    "baselines.exponential_weights_no_preset": (owakit.baselines, "exponential_weights_no_preset"),
    "baselines.maxent_weights": (owakit.baselines, "maxent_weights"),
    "core.orness": (owakit.core, "orness"),
    "core.dispersion": (owakit.core, "dispersion"),
    "core.aggregate": (owakit.core, "aggregate"),
    "reports.sweep": (reports, "sweep"),
    "reports.write_sweep_csv": (reports, "write_sweep_csv"),
}
# Per-call values read off results in the traced run.
OBSERVE = {"baselines.exponential_weights": lambda result: result[1].iterations}


def make_api(tracer=None) -> SimpleNamespace:
    """The public functions the workloads call, wrapped in spans if traced."""
    api = SimpleNamespace(OrnessTarget=owakit.OrnessTarget)
    for name, (module, attr) in PUBLIC.items():
        fn = getattr(module, attr)
        if tracer is not None:
            fn = tracer.wrap(name, fn, OBSERVE.get(name))
        setattr(api, attr, fn)
    return api


@contextmanager
def traced_api(tracer):
    """A traced api, with the names ``reports`` calls rebound to the same
    traced functions so a sweep's calls into the other layers get spans."""
    api = make_api(tracer)
    rebound = [
        attr for module, attr in PUBLIC.values() if module is not reports and hasattr(reports, attr)
    ]
    saved = {name: getattr(reports, name) for name in rebound}
    try:
        for name in rebound:
            setattr(reports, name, getattr(api, name))
        yield api
    finally:
        for name, fn in saved.items():
            setattr(reports, name, fn)


@dataclass
class Run:
    """Counts and latencies of one closed-loop run.

    The run ends at ``deadline_ns`` (wall clock, checks included) or after
    ``max_ops`` ops, whichever comes first.  ``timed_ns`` sums only the
    timed regions.
    """

    deadline_ns: int = None
    max_ops: int = None
    tracer: object = None
    speed: HostSpeed = None
    attempted: int = 0
    timed_ns: int = 0
    latency: Histogram = field(default_factory=Histogram)
    by_method: dict = field(default_factory=dict)
    classes: dict = field(default_factory=lambda: dict.fromkeys(CLASSES, 0))
    maxent_classes: dict = field(default_factory=lambda: dict.fromkeys(CLASSES, 0))
    counts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    # Scaled ops/s per window (a pass, a round or a run of requests).
    window_rates: list = field(default_factory=list)
    _window_start: tuple = (0, 0, 0, 0)

    def more(self) -> bool:
        if self.max_ops is not None and self.attempted >= self.max_ops:
            return False
        return self.deadline_ns is None or perf_counter_ns() < self.deadline_ns

    def begin(self, name: str):
        """Open a request/job span (traced runs only)."""
        tr = self.tracer
        if tr is None:
            return None
        tr.request_id += 1
        return tr.begin(tr.name_id(name))

    def end(self, span) -> None:
        if span is not None:
            self.tracer.finish(span)

    def done(self, ns: int, ops: int = 1, method: str = None) -> None:
        self.attempted += ops
        self.timed_ns += ns
        self.latency.add(ns // ops)
        if method is not None:
            self.by_method.setdefault(METHOD_LABEL[method], Histogram()).add(ns)
        if self.speed is not None:
            self.speed.keep_up()

    def record(self, cls: str, reason, inputs, method: str = None, ops: int = 1) -> None:
        self.classes[cls] += ops
        if method == MAXENT:
            self.maxent_classes[cls] += ops
        if cls == FAILED and len(self.failures) < MAX_FAILURES_KEPT:
            self.failures.append({"inputs": inputs, "reason": reason})

    def count(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def window(self) -> None:
        """Close a window; one without reference work yet stays open.

        Freed heap memory goes back to the system first, so every window
        starts from the same heap: otherwise fragmentation left by earlier
        windows moves peak_rss_mb by several MB from run to run.
        """
        if _malloc_trim is not None:
            _malloc_trim(0)
        sp = self.speed
        if sp is None:
            return
        ops, timed_ns, units, ref_ns = self._window_start
        if self.attempted == ops or sp.units == units:
            return
        rate = (self.attempted - ops) / ((self.timed_ns - timed_ns) / 1e9)
        self.window_rates.append(rate / sp.factor_since(units, ref_ns))
        self._window_start = (self.attempted, self.timed_ns, sp.units, sp.ref_ns)


def _log_uniform(rng, lo, hi, size):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size))


def _stratified(rng, k):
    """k points in [0, 1), one in each of k equal strata, in random order."""
    return (rng.permutation(k) + rng.random(k)) / k


# ---------------------------------------------------------------------------
# Requests: gen and maxent-wide
# ---------------------------------------------------------------------------

GEN_OPS = 20_000
REQUEST_WINDOW = 1000
EXACT_ORNESS_SHARE = 0.03
MAXENT_WIDE_OPS = 12


def gen_ops(rng):
    """Equal shares of the four methods; n log-uniform over [5, 1e4]
    ([5, 100] for maxent); orness uniform on [0, 1] with a few percent
    exactly 0, 0.5 or 1; linear beta drawn from BETAS."""
    methods = rng.permutation(np.repeat(np.arange(4), GEN_OPS // 4))
    n_wide = _log_uniform(rng, 5, 10_000, GEN_OPS)
    n_maxent = _log_uniform(rng, 5, 100, GEN_OPS)
    orness = rng.random(GEN_OPS)
    exact = rng.random(GEN_OPS) < EXACT_ORNESS_SHARE
    orness[exact] = rng.choice([0.0, 0.5, 1.0], int(exact.sum()))
    betas = rng.choice(BETAS, GEN_OPS)
    row_seeds = rng.integers(0, 2**63, GEN_OPS)
    ops = []
    for i, m in enumerate(methods):
        method = reports.ALL_METHODS[m]
        n = n_maxent[i] if method == MAXENT else n_wide[i]
        beta = float(betas[i]) if method == LINEAR else None
        ops.append((method, int(round(n)), float(orness[i]), beta, int(row_seeds[i])))
    return ops


def gen_warmup_ops():
    return [(m, n, 0.3, 1.5, 0) for n in (10, 100) for m in reports.ALL_METHODS]


def maxent_wide_ops(rng):
    """About a dozen maxent requests: n log-uniform over [150, 300] and
    orness over (0, 1), both stratified so every seed covers the range."""
    n = np.exp(np.log(150) + _stratified(rng, MAXENT_WIDE_OPS) * np.log(2))
    orness = _stratified(rng, MAXENT_WIDE_OPS)
    return [(MAXENT, int(round(k)), float(o), None, None) for k, o in zip(n, orness)]


def maxent_wide_warmup_ops():
    # 0.99 at n=40 takes the fallback path; 0.3 at n=150 the polynomial one.
    return [(MAXENT, 40, 0.99, None, None), (MAXENT, 150, 0.3, None, None)]


def _weights(api, method, orness, n, beta):
    if method == LINEAR:
        return api.linear_weights(api.OrnessTarget(orness, beta), n)
    if method == EXPONENTIAL:
        return api.exponential_weights(orness, n)[0]
    if method == NO_PRESET:
        return api.exponential_weights_no_preset(orness, n)
    return api.maxent_weights(orness, n)


def run_requests(ops, run: Run, api, workdir) -> None:
    """One request per op: a validated weight call and, when the op has a
    row, ``orness``, ``dispersion`` and ``aggregate`` on that row."""
    for i, (method, n, orness, beta, row_seed) in enumerate(cycle(ops)):
        if i % min(len(ops), REQUEST_WINDOW) == 0:
            run.window()
        if not run.more():
            return
        x = None if row_seed is None else np.random.default_rng(row_seed).random(n)
        span = run.begin("bench.request")
        t0 = perf_counter_ns()
        try:
            w = _weights(api, method, orness, n, beta)
            if x is not None:
                api.orness(w)
                api.dispersion(w)
                y = api.aggregate(w, x)
        except Exception as exc:  # classed below; the run goes on
            error = exc
        else:
            error = None
        t1 = perf_counter_ns()
        run.end(span)
        run.done(t1 - t0, method=method)

        if error is not None:
            cls, reason = classify_exception(error)
        else:
            cls, reason = classify_weights(method, w.w, orness)
            if cls == CERTIFIED and x is not None and aggregate_mismatch(w.w, x, y)[0]:
                cls, reason = FAILED, f"aggregate {y!r} disagrees with the sorted dot product"
        inputs = {"method": method, "n": n, "orness": orness, "beta": beta}
        run.record(cls, reason, inputs, method=method)


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

SCORE_SIZES = (5, 10, 20)
SCORE_VECTORS_PER_SIZE = 2
SCORE_ROWS = 30_000
SCORE_VALUES = 10  # row values are integers 0..9, so rows have ties


def score_ops(rng, rows=SCORE_ROWS, sizes=SCORE_SIZES, per_size=SCORE_VECTORS_PER_SIZE):
    """A handful of linear weight specs, and per spec a matrix of rows.

    Row i uses spec i % k, so every seed has the same mix of sizes.
    """
    specs = [
        (n, float(rng.random()), float(rng.choice(BETAS))) for n in sizes for _ in range(per_size)
    ]
    k = len(specs)
    matrices = [
        rng.integers(0, SCORE_VALUES, (len(range(j, rows, k)), n)).astype(float)
        for j, (n, _, _) in enumerate(specs)
    ]
    return specs, matrices


def score_warmup_ops():
    return score_ops(np.random.default_rng(0), rows=100, sizes=(10,), per_size=1)


def run_score(ops, run: Run, api, workdir) -> None:
    """Passes over the rows; each pass builds the weight vectors, then
    aggregates every row with its vector.  Pass 1 is checked against the
    sorted dot product; later passes must repeat it exactly."""
    specs, matrices = ops
    k = len(specs)
    total = sum(len(m) for m in matrices)
    first_y = None
    first_w = None
    while run.more():
        span = run.begin("bench.weights")
        t0 = perf_counter_ns()
        weights = [api.linear_weights(api.OrnessTarget(o, b), n) for n, o, b in specs]
        run.timed_ns += perf_counter_ns() - t0
        run.end(span)

        y = np.full(total, np.nan)
        done = 0
        for i in range(total):
            if not run.more():
                break
            j = i % k
            wv, x = weights[j], matrices[j][i // k]
            span = run.begin("bench.row")
            t0 = perf_counter_ns()
            try:
                y[i] = api.aggregate(wv, x)
            except Exception:  # a NaN result fails the check below
                pass
            t1 = perf_counter_ns()
            run.end(span)
            run.done(t1 - t0)
            done = i + 1
        _check_score_pass(run, specs, matrices, weights, y, done, first_w, first_y)
        run.window()
        if first_y is None:
            first_w, first_y = weights, y


def _check_score_pass(run, specs, matrices, weights, y, done, first_w, first_y):
    k = len(specs)
    for j, ((n, o, b), wv) in enumerate(zip(specs, weights)):
        rows = len(range(j, done, k))
        inputs = {"n": n, "orness": o, "beta": b, "rows": rows}
        cls, reason = classify_weights(LINEAR, wv.w, o)
        if cls != CERTIFIED:
            run.record(FAILED, f"weight vector: {reason}", inputs, ops=rows)
            continue
        yj = y[j:done:k]
        if first_y is None:
            bad = aggregate_mismatch(wv.w, matrices[j][:rows], yj)
            reason = "aggregate disagrees with the sorted dot product"
        else:
            same_w = np.array_equal(wv.w, first_w[j].w)
            bad = ~(yj == first_y[j:done:k]) | (not same_w)
            reason = "pass differs from the first pass"
        failed = int(bad.sum())
        run.record(CERTIFIED, None, inputs, ops=rows - failed)
        if failed:
            run.record(FAILED, reason, inputs, ops=failed)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEP_STEPS = 101
# Jobs as ``owakit sweep`` runs them: (n, methods, steps).
SWEEP_JOBS = (
    (10, reports.ALL_METHODS, SWEEP_STEPS),
    (100, reports.ALL_METHODS, SWEEP_STEPS),
    (1000, (LINEAR, EXPONENTIAL, NO_PRESET), SWEEP_STEPS),
)
SWEEP_ROUNDS = 1000


def sweep_ops(rng):
    """The jobs, and per round a seeded order to run them in."""
    return SWEEP_JOBS, [rng.permutation(len(SWEEP_JOBS)) for _ in range(SWEEP_ROUNDS)]


def sweep_warmup_ops():
    return ((10, reports.ALL_METHODS, 11),), [np.arange(1)]


def _job_rows(methods, steps):
    return steps * sum(len(BETAS) if m == LINEAR else 1 for m in methods)


def run_sweep(ops, run: Run, api, workdir) -> None:
    """Each job is ``reports.sweep`` then ``reports.write_sweep_csv``.  The
    first run of a job is checked row by row and its CSV parsed back;
    repeats must write a byte-identical file."""
    jobs, orders = ops
    first = {}
    # Runs end on a round boundary, so every run holds each job equally often.
    for order in cycle(orders):
        run.window()
        if not run.more():
            return
        for j in order:
            n, methods, steps = jobs[j]
            path = os.path.join(workdir, f"sweep-n{n}-steps{steps}.csv")
            provenance = (
                f"sweep --n {n} --steps {steps} methods={','.join(methods)}"
                " betas=1,1.25,1.5"
            )
            span = run.begin("bench.job")
            t0 = perf_counter_ns()
            try:
                rows = api.sweep(n, methods, betas=BETAS, steps=steps)
                api.write_sweep_csv(rows, n, path, provenance)
            except Exception as exc:  # the whole job counts as failed
                error = exc
            else:
                error = None
            t1 = perf_counter_ns()
            run.end(span)
            expected = _job_rows(methods, steps)
            run.done(t1 - t0, ops=expected)
            inputs = {"n": n, "methods": list(methods), "steps": steps}
            if error is not None:
                run.record(*classify_exception(error), inputs, ops=expected)
                continue
            _check_sweep_job(run, first, j, rows, path, expected, inputs)


def _check_sweep_job(run, first, j, rows, path, expected, inputs):
    with open(path, "rb") as fh:
        digest = hashlib.file_digest(fh, "sha256").hexdigest()
    if j not in first:
        tally = []
        for r in rows:
            cls, reason = classify_sweep_row(r)
            tally.append((cls, reason, r.method, r.requested_orness, r.beta, r.status))
        problem = None
        if len(rows) != expected:
            problem = f"{len(rows)} rows, expected {expected}"
        elif reports.read_sweep_csv(path) != rows:
            problem = "CSV parsed back differs from the rows in memory"
        first[j] = (digest, tally, problem)
    ref_digest, tally, problem = first[j]
    if problem is None and digest != ref_digest:
        problem = "CSV differs from the first write of this job"
    for cls, reason, method, requested, beta, status in tally:
        row_inputs = dict(inputs, method=method, orness=requested, beta=beta)
        if problem is not None:
            cls, reason = FAILED, problem
        run.record(cls, reason, row_inputs, method=method)
        run.count(f"reports.sweep.status.{status}", 1)
    run.count("reports.sweep.rows", len(rows))
    run.count("reports.write_sweep_csv.bytes", os.path.getsize(path))


@dataclass(frozen=True)
class Workload:
    make_ops: object
    warmup_ops: object
    run: object
    size: object  # ops in one pass over an op list
    op: str


WORKLOADS = {
    "gen": Workload(gen_ops, gen_warmup_ops, run_requests, len, "request"),
    "score": Workload(
        score_ops, score_warmup_ops, run_score, lambda ops: sum(map(len, ops[1])), "row"
    ),
    "sweep": Workload(
        sweep_ops,
        sweep_warmup_ops,
        run_sweep,
        lambda ops: sum(_job_rows(m, s) for _, m, s in ops[0]),
        "CSV row",
    ),
    "maxent-wide": Workload(maxent_wide_ops, maxent_wide_warmup_ops, run_requests, len, "request"),
}
