"""Command-line front end: gen, verify, search, prove, info."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from ._version import VERSION
from .catalog import (
    FORMATS,
    NonexistentDimensionError,
    ParseError,
    construction_route,
    exists,
    format_sequence,
    generate,
    load,
    write_text_atomic,
)
from .search import (
    MAX_SEARCH_DIM,
    BudgetExhaustedError,
    SearchConfig,
    SearchMode,
    prove_impossibility,
    search,
    search_parallel,
)

# Distinct codes so scripts can tell "proved impossible" from "failed".
EXIT_OK = 0
EXIT_FAILURE = 1        # runtime or I/O failure; also: verify found the file invalid
EXIT_INVALID_INPUT = 2  # bad arguments (argparse uses the same code)
EXIT_NONEXISTENT = 3    # the mathematical answer: no such sequence
EXIT_PARSE_ERROR = 4    # malformed sequence file
EXIT_BUDGET = 5         # node budget exhausted before an answer

#: The exit code for each error a command may raise; the first match wins.
_ERROR_EXITS = (
    (NonexistentDimensionError, EXIT_NONEXISTENT),
    (ParseError, EXIT_PARSE_ERROR),
    (BudgetExhaustedError, EXIT_BUDGET),
    (ValueError, EXIT_INVALID_INPUT),
    (OSError, EXIT_FAILURE),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ternaryperm",
        description=(
            "Construct, verify, search for, and catalog ternary permutations: "
            "orderings of all nonzero n-bit words in which every even-position "
            "word XORs with its two neighbours to zero."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="construct a sequence for a dimension and print it")
    gen.add_argument("--dim", type=int, required=True, help="target dimension n (n >= 2)")
    gen.add_argument("--format", choices=FORMATS, default="decimal")
    gen.add_argument("--out", type=Path, help="write to a file instead of standard output")

    ver = sub.add_parser("verify", help="check a sequence file against the defining conditions")
    ver.add_argument("path", type=Path, help="a sequence file in either format; the file says which")

    sea = sub.add_parser("search", help="backtracking search over candidate sequences")
    sea.add_argument(
        "--dim",
        type=int,
        required=True,
        help=f"dimension in [2, {MAX_SEARCH_DIM}]; n = {MAX_SEARCH_DIM} needs --budget",
    )
    sea.add_argument("--mode", choices=[m.value for m in SearchMode], default=SearchMode.FIRST.value)
    sea.add_argument(
        "--reduce",
        action="store_true",
        help="pin the first two entries to (1, 2); fixes the node totals, no longer saves time",
    )
    sea.add_argument("--budget", type=int, help="node budget; exhaustion is an error")
    sea.add_argument(
        "--parallel",
        type=int,
        metavar="WORKERS",
        help="use at most WORKERS processes; only a count without --budget is split",
    )
    sea.add_argument(
        "--format",
        choices=FORMATS,
        default="decimal",
        help="the format of the sequence found in first mode; a count prints one decimal line",
    )
    sea.add_argument("--out", type=Path)

    pro = sub.add_parser("prove", help="exhaustive nonexistence certificate for n = 3 or 4")
    pro.add_argument("--dim", type=int, required=True, choices=(3, 4))

    inf = sub.add_parser("info", help="existence, length, and construction route for a dimension")
    inf.add_argument("--dim", type=int, required=True)

    return parser


def _emit(text: str, out: Optional[Path]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        write_text_atomic(out, text)


def _cmd_gen(args: argparse.Namespace) -> int:
    seq = generate(args.dim)
    _emit(format_sequence(seq, args.format), args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    result = load(args.path)
    if result.report.valid:
        print("valid")
        return EXIT_OK
    print(f"invalid: {result.report.failure}")
    return EXIT_FAILURE


def _cmd_search(args: argparse.Namespace) -> int:
    config = SearchConfig(args.dim, args.mode, args.reduce, args.budget)
    if args.parallel is None:
        outcome = search(config)
    else:
        outcome = search_parallel(config, args.parallel)
    if config.mode is SearchMode.FIRST:
        if outcome.sequence is None:
            print(
                f"no ternary permutation exists for n={args.dim} (search exhausted)",
                file=sys.stderr,
            )
            return EXIT_NONEXISTENT
        _emit(format_sequence(outcome.sequence, args.format), args.out)
    else:
        _emit(f"{outcome.count}\n", args.out)
    return EXIT_OK


def _cmd_prove(args: argparse.Namespace) -> int:
    certificate = prove_impossibility(args.dim)
    sys.stdout.write(certificate.to_text())
    return EXIT_OK


_ROUTE_SEPARATOR = " ← "  # left arrow between construction steps


def _cmd_info(args: argparse.Namespace) -> int:
    n = args.dim
    present = exists(n)  # raises ValueError for n < 2
    route = _ROUTE_SEPARATOR.join(construction_route(n)) if present else "none"
    lines = [
        f"dim={n}",
        f"exists={'true' if present else 'false'}",
        f"length={(1 << n) - 1}",
        f"route={route}",
    ]
    print("\n".join(lines))
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "verify": _cmd_verify,
    "search": _cmd_search,
    "prove": _cmd_prove,
    "info": _cmd_info,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except tuple(error for error, _ in _ERROR_EXITS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in _ERROR_EXITS if isinstance(exc, error))
