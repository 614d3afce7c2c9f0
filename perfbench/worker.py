"""One workload in one fresh process; started by run.py, not by hand.

Prints one JSON object on stdout: the set-up time, the counts, and every
metric by name with its unit and a note giving its sample count or base.
"""

import sys
import time

from hostspeed import HostSpeed, python_unit

# Reference units timed before and after set-up to scale it (~50 ms each).
SETUP_SPEED_UNITS = 200
_SETUP_SPEED = HostSpeed(python_unit).sample(SETUP_SPEED_UNITS)
_T0 = time.perf_counter()
import os  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
import owakit  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter_ns  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from checker import FAILED, FLAGGED  # noqa: E402
from instruments import Tracer  # noqa: E402
from workloads import MAX_FAILURES_KEPT, PUBLIC, WORKLOADS, Run, make_api, traced_api  # noqa: E402

# Layers in span names; "bench" is this benchmark's own code around the calls.
LAYERS = ("bench", "core", "linear", "baselines", "reports")
SWEEP_COUNTS = {
    "reports.sweep.rows": "count",
    "reports.sweep.status.ok": "count",
    "reports.sweep.status.unstable": "count",
    "reports.sweep.status.unsupported": "count",
    "reports.write_sweep_csv.bytes": "B",
}


def metric(value, unit, note=""):
    return {"value": value, "unit": unit, "note": note}


def end_to_end(run: Run, op: str) -> dict:
    """Times are scaled to the nominal host speed (see HostSpeed); the raw
    figures behind the headline ones are printed as raw.*."""
    m = {}
    factor = run.speed.factor
    timed_s = run.timed_ns / 1e9
    raw_rate = run.attempted / timed_s
    m["ops_per_s"] = metric(
        float(np.median(run.window_rates)),
        "1/s",
        f"median of {len(run.window_rates)} windows; "
        f"{run.attempted} {op}s in {timed_s:.3f} s timed, scaled",
    )
    m["raw.ops_per_s"] = metric(raw_rate, "1/s", "wall clock")
    m["host.speed_factor"] = metric(
        factor, "ratio", f"{run.speed.units} reference units, {run.speed.ref_ns / 1e9:.3f} s"
    )
    hists = [("op", run.latency)] + sorted(run.by_method.items())
    for label, h in hists:
        if h.n == 0:
            continue
        prefix = "op_" if label == "op" else f"{label}."
        p50 = h.percentile_ns(50) / 1e3
        m[f"{prefix}p50_us"] = metric(p50 * factor, "us", f"samples={h.n}, scaled")
        if label == "op":
            m["raw.op_p50_us"] = metric(p50, "us", "wall clock")
        tail = h.tail()
        if tail is not None:
            p, ns = tail
            beyond = round(h.n * (100 - p) / 100)
            m[f"{prefix}tail_us"] = metric(
                ns / 1e3 * factor, "us", f"p{p:g} samples={h.n} beyond={beyond}, scaled"
            )
    for cls in (FAILED, FLAGGED):
        m[f"{cls}_ratio"] = metric(
            run.classes[cls] / run.attempted,
            "ratio",
            f"{run.classes[cls]} of base {run.attempted} attempted",
        )
    m["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "ru_maxrss"
    )
    return m


def per_layer(tracer: Tracer, traced: Run, plain: Run) -> dict:
    m = {}
    names, dur, self_ns = tracer.durations()
    for name in [*PUBLIC, *(n for n in tracer.names if n.startswith("bench."))]:
        d = dur[names == tracer.name_id(name)]
        m[f"{name}.calls"] = metric(d.size, "count")
        m[f"{name}.busy_s"] = metric(float(d.sum()) / 1e9, "s")
        m[f"{name}.p50_us"] = metric(float(np.median(d)) / 1e3 if d.size else 0.0, "us")
    iterations = tracer.observed.get("baselines.exponential_weights", [])
    m["baselines.exponential_weights.iterations"] = metric(
        float(np.mean(iterations)) if iterations else 0.0, "count", "mean per call"
    )
    for cls, count in traced.maxent_classes.items():
        m[f"baselines.maxent_weights.{cls}"] = metric(count, "count")
    for key, unit in SWEEP_COUNTS.items():
        m[key] = metric(traced.counts.get(key, 0), unit)

    span_layer = np.array([name.split(".")[0] for name in tracer.names])[names]
    total = float(self_ns.sum())
    for layer in LAYERS:
        ns = float(self_ns[span_layer == layer].sum())
        m[f"{layer}.self_s"] = metric(ns / 1e9, "s", "span time not covered by child spans")
        m[f"{layer}.self_pct"] = metric(100.0 * ns / total if total else 0.0, "%")

    # Rates scaled by each phase's own host speed, so drift between the
    # phases does not read as tracing overhead.
    traced_rate = traced.attempted / (traced.timed_ns / 1e9) / traced.speed.factor
    plain_rate = plain.attempted / (plain.timed_ns / 1e9) / plain.speed.factor
    m["trace.ops_per_s"] = metric(traced_rate, "1/s", f"{traced.attempted} ops traced, scaled")
    m["trace.untraced_ops_per_s"] = metric(
        plain_rate, "1/s", f"{plain.attempted} ops untraced, scaled"
    )
    m["trace.overhead_ratio"] = metric(
        plain_rate / traced_rate, "ratio", "untraced / traced ops_per_s"
    )
    return m


def summary(*runs: Run) -> dict:
    """Op counts and the first failed inputs over all runs of a mode."""
    return {
        "attempted": sum(r.attempted for r in runs),
        "classes": {c: sum(r.classes[c] for r in runs) for c in runs[0].classes},
        "failures": [f for r in runs for f in r.failures][:MAX_FAILURES_KEPT],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True, help="directory for work files and spans")
    args = parser.parse_args(argv)

    if os.path.dirname(os.path.abspath(owakit.__file__)) != os.path.join(SRC, "owakit"):
        print(f"owakit imported from {owakit.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    os.makedirs(args.out, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=args.out)
    try:
        t0 = time.perf_counter()
        warmup = workload.warmup_ops()
        workload.run(warmup, Run(max_ops=workload.size(warmup)), make_api(), workdir)
        setup_s = IMPORT_S + time.perf_counter() - t0
        factor = _SETUP_SPEED.sample(SETUP_SPEED_UNITS).factor
        out = {"import_s": IMPORT_S, "setup_s": setup_s, "setup_speed_factor": factor}
        if args.setup_only:
            print(json.dumps(out))
            return 0
        out["versions"] = {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "owakit": owakit.__version__,
        }
        ops = workload.make_ops(np.random.default_rng(args.seed))
        seconds_ns = int(args.seconds * 1e9)
        if not args.trace:
            run = Run(deadline_ns=perf_counter_ns() + seconds_ns, speed=HostSpeed())
            workload.run(ops, run, make_api(), workdir)
            run.window()
            out["metrics"] = end_to_end(run, workload.op)
            out.update(summary(run))
        else:
            # A third of the time warms up and fixes the op count; then the
            # same ops run traced and untraced, so the two rates compare
            # identical work from the same warm state.
            warm = Run(deadline_ns=perf_counter_ns() + seconds_ns // 3)
            workload.run(ops, warm, make_api(), workdir)
            tracer = Tracer()
            traced = Run(max_ops=warm.attempted, tracer=tracer, speed=HostSpeed())
            with traced_api(tracer) as api:
                workload.run(ops, traced, api, workdir)
            run = Run(max_ops=warm.attempted, speed=HostSpeed())
            workload.run(ops, run, make_api(), workdir)
            out["metrics"] = per_layer(tracer, traced, run)
            spans = os.path.join(args.out, f"spans-{args.workload}.npz")
            tracer.write(spans)
            out["spans"] = {"path": os.path.relpath(spans, ROOT), "count": len(tracer.name)}
            out.update(summary(warm, traced, run))
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
