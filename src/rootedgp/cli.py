"""Command-line front end.

Exit codes: 0 success, 1 program failure (or aborted run), 2 usage or
syntax error, 3 validation error or differential mismatch.  Outputs go
to stdout, diagnostics to stderr.  RG_MAX_ITERS overrides the loop cap.
"""
from __future__ import annotations

import argparse
import os
import sys

from .bench import measure, scaling_report
from .bst import (
    counterexample_text, format_tree, run_bst, run_check, validate_output,
)
from .errors import DivergenceError, GraphError, ParseError, ValidationError
from .interp import DEFAULT_MAX_ITERS, Status, run
from .oracle import CONSTRAINTS
from .rules import MatchStats
from .text import parse_host, parse_opscript, parse_program, print_host

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_MISMATCH = 3


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _max_iters(args) -> int:
    if getattr(args, "max_iters", None) is not None:
        return args.max_iters
    env = os.environ.get("RG_MAX_ITERS")
    if env:
        return int(env)
    return DEFAULT_MAX_ITERS


def _print_stats(stats: MatchStats) -> None:
    print(f"anchors_tried {stats.anchors_tried}")
    print(f"extension_steps {stats.extension_steps}")
    print(f"matches_found {stats.matches_found}")
    print(f"applications {stats.applications}")
    for name in sorted(stats.by_rule):
        print(f"rule {name} {stats.by_rule[name]}")


def cmd_run(args) -> int:
    prog = parse_program(_read(args.program))
    g = parse_host(_read(args.host))
    stats = MatchStats()
    trace = []
    status = run(prog, g, max_iters=_max_iters(args), stats=stats,
                 on_apply=trace.append if args.trace else None)
    for name in trace:
        print(name)
    print(print_host(g))
    if args.stats:
        _print_stats(stats)
    return EXIT_OK if status is Status.SUCCESS else EXIT_FAILURE


def cmd_bst(args) -> int:
    ops = parse_opscript(_read(args.ops))
    result = run_bst(ops, variant=args.variant, max_iters=_max_iters(args))
    if args.print == "graph":
        print(print_host(result.graph))
    elif args.print == "tree":
        print(format_tree(result.tree))
    else:
        report = validate_output(result.graph, ops)
        for v in report.violations:
            print(f"violation: {v}")
        for n in report.notes:
            print(f"note: {n}")
        print(f"violations {len(report.violations)}")
        print(f"garbage {len(report.garbage)}")
        print(f"tree {format_tree(report.tree)}")
    return EXIT_OK if result.status is Status.SUCCESS else EXIT_FAILURE


def cmd_check(args) -> int:
    if args.variant == "faithful" and args.constraints != "faithful-safe":
        print("faithful variant requires --constraints faithful-safe", file=sys.stderr)
        return EXIT_USAGE
    mm = run_check(range(args.seeds), args.size, args.constraints, args.variant)
    if mm is not None:
        print(counterexample_text(mm))
        return EXIT_MISMATCH
    print(f"check ok: seeds={args.seeds} size={args.size} "
          f"constraints={args.constraints} variant={args.variant}")
    return EXIT_OK


def _parse_sizes(text: str, shape: str) -> list:
    if shape == "balanced":
        if text.startswith("h="):
            lo, _, hi = text[2:].partition("..")
            return list(range(int(lo), int(hi) + 1))
        return [int(t) for t in text.split(",")]
    return [int(t) for t in text.split(",")]


def cmd_bench(args) -> int:
    sizes = _parse_sizes(args.sizes, args.shape)
    rows = measure(args.shape, sizes, reps=args.reps, variant=args.variant)
    report = scaling_report(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(report.csv())
        for line in report.lines():
            print(line)
    else:
        sys.stdout.write(report.csv())
        for line in report.lines():
            print(line, file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_MISMATCH


def cmd_validate(args) -> int:
    prog = parse_program(_read(args.program), validate=False)
    from .interp import validate_program
    warnings = validate_program(prog)
    for w in warnings:
        print(f"warning: {w}")
    print(f"ok: {len(prog.rules)} rules, {len(prog.procs)} procedures")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rootedgp",
        description="Rooted graph-rewriting interpreter and BST workbench",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("run", help="run a program on a host graph")
    sp.add_argument("program")
    sp.add_argument("host")
    sp.add_argument("--max-iters", type=int, default=None)
    sp.add_argument("--trace", action="store_true")
    sp.add_argument("--stats", action="store_true")
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("bst", help="run the BST program on an op script")
    sp.add_argument("ops")
    sp.add_argument("--variant", choices=("faithful", "sanitized"),
                    default="sanitized")
    sp.add_argument("--print", choices=("graph", "tree", "report"),
                    default="graph")
    sp.add_argument("--max-iters", type=int, default=None)
    sp.set_defaults(func=cmd_bst)

    sp = sub.add_parser("check", help="differential check against the oracle")
    sp.add_argument("--seeds", type=int, default=100)
    sp.add_argument("--size", type=int, default=120)
    sp.add_argument("--constraints", choices=CONSTRAINTS, default="sanitized-safe")
    sp.add_argument("--variant", choices=("faithful", "sanitized"),
                    default="sanitized")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("bench", help="timing and counter benchmarks")
    sp.add_argument("--shape", choices=("degenerate", "balanced"),
                    default="degenerate")
    sp.add_argument("--sizes", default="1000,2000,4000,8000",
                    help="comma list of node counts, or h=LO..HI of heights")
    sp.add_argument("--reps", type=int, default=300)
    sp.add_argument("--variant", choices=("faithful", "sanitized"),
                    default="sanitized")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("validate", help="parse and validate a program")
    sp.add_argument("program")
    sp.set_defaults(func=cmd_validate)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    if getattr(args, "variant", None) == "faithful":
        print("warning: the faithful variant leaves stale roots behind; "
              "only restricted workloads behave like a plain BST",
              file=sys.stderr)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"syntax error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_MISMATCH
    except DivergenceError as e:
        print(f"aborted: {e}", file=sys.stderr)
        return EXIT_FAILURE
    except (GraphError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def main_exit() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_exit()
