"""Command-line front end: gen, sweep and bench.

The ``--method`` choices come from :data:`owakit.reports.METHODS`, the
one place that lists the methods, plus ``all``.

Exit codes: 0 success, 2 usage error (including any ``ValueError`` the
library raises for an invalid request), 3 method-domain error (e.g.
maximum entropy at orness 0 or 1), 4 I/O error (also a closed stdout).
"""

import argparse
import dataclasses
import json
import os
import sys
import warnings

from . import __version__
from .core import DEFAULT_BETA
from .reports import (
    METHODS,
    STATUS_OK,
    bench,
    evaluate_method,
    report_to_dict,
    sweep,
    sweep_lines,
    write_sweep_csv,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_METHOD_DOMAIN = 3
EXIT_IO = 4

# ``--method`` value -> the method names it selects, in table order.
_FLAG_METHODS = {m.flag: [m.name] for m in METHODS} | {"all": [m.name for m in METHODS]}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="owakit",
        description="OWA operator weight determination for a desired orness",
    )
    parser.add_argument("--version", action="version", version=f"owakit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate one weight vector and its metrics")
    gen.add_argument("--n", type=int, required=True, help="operator size")
    gen.add_argument("--orness", type=float, required=True, help="desired orness in [0, 1]")
    gen.add_argument(
        "--method", choices=sorted(_FLAG_METHODS), default="linear", help="weight method"
    )
    gen.add_argument(
        "--beta", type=float, default=DEFAULT_BETA, help="linear-family shape in [1, 1.5]"
    )
    gen.add_argument(
        "--format", choices=["plain", "json", "csv"], default="plain", help="output format"
    )

    sw = sub.add_parser("sweep", help="evaluate methods over an orness grid, write CSV")
    sw.add_argument("--n", type=int, required=True, help="operator size")
    sw.add_argument(
        "--method", choices=sorted(_FLAG_METHODS), default="all", help="method(s) to sweep"
    )
    sw.add_argument(
        "--beta",
        type=float,
        action="append",
        help=f"linear-family shape; repeat the flag for several (default {DEFAULT_BETA:g})",
    )
    sw.add_argument("--steps", type=int, default=101, help="grid points over [0, 1]")
    sw.add_argument("--out", required=True, help="output CSV path (written atomically)")

    be = sub.add_parser("bench", help="time every method over a fixed orness grid")
    be.add_argument(
        "--n", type=int, action="append", required=True, help="operator size; repeatable"
    )
    be.add_argument("--reps", type=int, default=20, help="timed repetitions per method")
    be.add_argument(
        "--format", choices=["plain", "csv", "json"], default="plain", help="output format"
    )
    return parser


def _cmd_gen(args) -> int:
    reports = []
    for method in _FLAG_METHODS[args.method]:
        try:
            report = evaluate_method(method, args.orness, args.n, args.beta)
        except ValueError as exc:
            raise ValueError(f"{method}: {exc}") from exc
        if report.status != STATUS_OK:
            print(
                f"{method}: no valid weights at orness {args.orness} "
                f"(status {report.status})",
                file=sys.stderr,
            )
            return EXIT_METHOD_DOMAIN
        reports.append(report)

    if args.format == "json":
        payload = [report_to_dict(r) for r in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload, indent=2))
    elif args.format == "csv":
        sys.stdout.writelines(sweep_lines(reports, args.n, "\n"))
    else:
        for r in reports:
            print(f"method: {r.method}" + (f" (beta={r.beta})" if r.beta is not None else ""))
            print("weights: " + " ".join(format(v, ".10g") for v in r.w))
            print(f"orness: {r.achieved_orness:.10g}")
            print(f"dispersion: {r.dispersion:.10g}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    betas = args.beta if args.beta else [DEFAULT_BETA]
    rows = sweep(args.n, _FLAG_METHODS[args.method], betas=betas, steps=args.steps)
    provenance = (
        f"sweep --n {args.n} --method {args.method} "
        f"--steps {args.steps} betas={','.join(format(b, 'g') for b in betas)}"
    )
    try:
        write_sweep_csv(rows, args.n, args.out, provenance)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _cmd_bench(args) -> int:
    reports = bench(args.n, reps=args.reps)
    if args.format == "json":
        print(json.dumps([dataclasses.asdict(r) for r in reports], indent=2))
    elif args.format == "csv":
        print("method,beta,n,reps,mean_time,best_time,relative_time")
        for r in reports:
            beta = "" if r.beta is None else format(r.beta, "g")
            print(
                f"{r.method},{beta},{r.n},{r.reps},"
                f"{r.mean_time:.17g},{r.best_time:.17g},{r.relative_time:.17g}"
            )
    else:
        print(
            f"{'method':<24} {'n':>5} {'reps':>5} {'mean [s]':>12} "
            f"{'best [s]':>12} {'relative':>9}"
        )
        for r in reports:
            label = r.method if r.beta is None else f"{r.method} (beta={r.beta:g})"
            print(
                f"{label:<24} {r.n:>5} {r.reps:>5} "
                f"{r.mean_time:>12.6f} {r.best_time:>12.6f} {r.relative_time:>9.2f}"
            )
    return EXIT_OK


_COMMANDS = {"gen": _cmd_gen, "sweep": _cmd_sweep, "bench": _cmd_bench}


def main(argv=None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit:
            sys.stdout.flush()  # --help and --version print, then exit here
            raise
        with warnings.catch_warnings():
            # The orness of an n = 1 vector is the documented 0.5
            # convention; the library's warning about it is noise here.
            warnings.filterwarnings("ignore", "orness of a length-1", UserWarning)
            code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # E.g. ``| head``; devnull keeps the interpreter's last flush quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
