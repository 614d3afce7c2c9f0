"""Command-line front end: gen, sweep and bench.

The ``--method`` choices come from :data:`owakit.reports.METHODS`, the
one place that lists the methods, plus ``all``.

Exit codes: 0 success, 2 usage error (including any ``ValueError`` the
library raises for an invalid request), 3 method-domain error (e.g.
maximum entropy at orness 0 or 1), 4 I/O error: any ``OSError``, which
:func:`main` alone maps to exit 4 (a full or closed stdout too).
"""

import argparse
import dataclasses
import json
import os
import sys
import warnings
from itertools import chain

from . import __version__
from .core import DEFAULT_BETA
from .reports import (
    METHODS,
    STATUS_OK,
    bench,
    report_to_dict,
    _point,
    _sweep_parts,
    _sweep_rows,
    write_sweep_csv,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_METHOD_DOMAIN = 3
EXIT_IO = 4

# ``--method`` value -> the method names it selects, in table order.
_FLAG_METHODS = {m.flag: [m.name] for m in METHODS} | {"all": [m.name for m in METHODS]}


class _Parser(argparse.ArgumentParser):
    """argparse swallows a failed write; this one lets stdout's (``--help``,
    ``--version``) raise, for :func:`main` to map to exit 4."""

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
            report = _point(method, args.orness, args.n, args.beta, arrays=True)
        except ValueError as exc:
            raise ValueError(f"{method}: {exc}") from exc
        if report.status != STATUS_OK:
            why = f"no valid weights at orness {args.orness} (status {report.status})"
            print(f"{method}: {why}", file=sys.stderr)
            return EXIT_METHOD_DOMAIN
        reports.append(report)

    if args.format == "json":
        payload = [report_to_dict(r) for r in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload, indent=2))
    elif args.format == "csv":
        sys.stdout.flush()  # anything in the text layer goes first
        # The writer's bytes, with no str copy, each part let go once written.
        sys.stdout.buffer.writelines(chain.from_iterable(_sweep_parts(reports, args.n, b"\n")))
    else:
        for r in reports:
            print(f"method: {r.method}" + (f" (beta={r.beta})" if r.beta is not None else ""))
            print("weights: " + " ".join(format(v, ".10g") for v in r.w.tolist()))
            print(f"orness: {r.achieved_orness:.10g}")
            print(f"dispersion: {r.dispersion:.10g}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    betas = args.beta if args.beta else [DEFAULT_BETA]
    rows = _sweep_rows(args.n, _FLAG_METHODS[args.method], betas, args.steps, True)  # arrays
    provenance = (
        f"sweep --n {args.n} --method {args.method} "
        f"--steps {args.steps} betas={','.join(format(b, '.17g') for b in betas)}"
    )
    write_sweep_csv(rows, args.n, args.out, provenance)
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
    args = None
    try:
        if sys.stdout is None:  # fd 1 was closed at start
            raise OSError("fd 1 is closed")
        try:
            args = _build_parser().parse_args(argv)  # --help and --version exit here
            with warnings.catch_warnings():
                # n = 1 has the documented orness 0.5: the library's warning is noise here.
                warnings.filterwarnings("ignore", "orness of a length-1", UserWarning)
                return _COMMANDS[args.command](args)
        finally:
            sys.stdout.flush()  # a closed or full stdout fails here, not at exit
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # the one place a failed write becomes exit 4
        target = getattr(args, "out", "stdout")  # sweep writes its --out, the others stdout
        if target == "stdout" and sys.stdout:  # devnull quiets the interpreter's last flush
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):  # a reader gone, e.g. ``| head``: no message
            print(f"cannot write {target}: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
