"""owakit benchmark: one workload, end to end (--trace 0) or per layer (--trace 1).

Run from the root of a checkout:

    python3 perfbench/run.py --workload score --seed 1 --seconds 20 --trace 0

Workloads: gen, score, sweep, maxent-wide (see workloads.py and
BENCHMARK.json).  Set-up is measured in several fresh processes and
reported as their median; the workload itself runs in one more fresh
process with BLAS/OpenMP threads set to 1.  Every metric is printed by
name with its unit and sample count or ratio base; the last line is one
JSON object with the metrics BENCHMARK.json declares for the mode.
A full record, with versions and failed inputs, goes to .bench_out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("gen", "score", "sweep", "maxent-wide")
# Fresh processes that only set up; the workload process is one more.
SETUP_PROBES = 4
# Everything, set-up included, must end within this many seconds.
TIME_LIMIT_S = 170
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def git_sha(root: str) -> str:
    """The commit of a git checkout, read without running git; "unknown"
    for an exported tree."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(args, deadline) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--out", OUT, *args],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {TIME_LIMIT_S} s limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(seconds: float, note: str) -> dict:
    return {"value": seconds, "unit": "s", "note": note}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    init = os.path.join(ROOT, "src", "owakit", "__init__.py")
    if not os.path.isfile(init):
        print(f"no owakit sources at {os.path.dirname(init)}: run from a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        probes = [
            run_worker([*common, "--seconds", "0", "--setup-only"], deadline)
            for _ in range(SETUP_PROBES)
        ]
        result = run_worker(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
        )
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    processes = probes + [result]
    setups = [p["setup_s"] for p in processes]
    imports = [p["import_s"] for p in processes]
    metrics = result["metrics"]
    note = f"median of {len(processes)} fresh processes"
    if args.trace:
        metrics["owakit.import_s"] = metric(statistics.median(imports), note)
    else:
        scaled = [p["setup_s"] * p["setup_speed_factor"] for p in processes]
        metrics["setup_s"] = metric(statistics.median(scaled), note + ", scaled")
        metrics["raw.setup_s"] = metric(statistics.median(setups), "wall clock")

    attempted = result["attempted"]
    classes = result["classes"]
    env = dict(result["versions"], git=git_sha(ROOT), nproc=os.cpu_count(),
               affinity=len(os.sched_getaffinity(0)))

    print(f"# owakit benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# ops attempted={attempted} certified={classes['certified']} "
          f"flagged={classes['flagged']} failed={classes['failed']}")
    for name in sorted(metrics):
        m = metrics[name]
        print(f"{name:<48} {m['value']:>16.6g} {m['unit']:<6} {m.get('note', '')}")
    for failure in result["failures"]:
        print(f"# failed op {json.dumps(failure['inputs'])}: {failure['reason']}")
    if args.trace:
        print(f"# spans: {result['spans']['count']} written to {result['spans']['path']}")

    record = dict(result, env=env, args=vars(args), setup_samples=setups, import_samples=imports)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    line = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print(f"benchmark failed: metric {m['name']} [{m['unit']}] not measured",
                  file=sys.stderr)
            return 1
        line[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({
        "correct": classes["failed"] == 0,
        "attempted": attempted,
        "failed": classes["failed"],
        "metrics": line,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
