"""Command-line interface.

Exit codes: 0 success, 1 verification failure or rejected swap, 2 bad
input (parameters, files, paths), always with an `error:` line on stderr.
A malformed command line gets argparse's usage message and also exits 2.

Each command imports the modules it runs (`io`, `families`, `sweep`), so
importing this module loads only `graph`, `matrices` and `oracle`, which
the parser's choices and the error boundary name.
"""
from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .graph import GraphError, verify_local_antimagic
from .matrices import Family, FamilyParams, ParamError, build_matrix
from .oracle import (
    BudgetError,
    book_graph,
    book_size,
    check_budget,
    exhaustive_chi_la,
    path_p2,
)

FAMILIES = [f.value for f in Family]


def _write(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        sys.stdout.flush()


def _params(
    family: str, n: int, k: int, r: Optional[int] = None, s: Optional[int] = None,
    stage: str = "crossed",
) -> FamilyParams:
    if (r is None) != (s is None):
        raise ParamError("-r and -s must be given together")
    params = FamilyParams(family, n, k, None if r is None else (r, s))
    if stage == "merged" and params.factorization is None:
        raise ParamError("--stage merged requires -r and -s")
    return params


def _parse_range(text: str) -> List[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(text)]
    except ValueError as exc:
        raise ParamError(f"bad range {text!r}") from exc
    if not values:
        raise ParamError(f"empty range {text!r}")
    return values


def _join_ranges(argv: List[str]) -> List[str]:
    """argparse takes an argument that starts with "-" for an option unless
    it is a plain negative number, so a range such as -1..2 is joined to
    its option (-n=-1..2) to reach _parse_range."""
    out: List[str] = []
    for arg in argv:
        if out and out[-1] in ("-n", "-k", "--rs") and arg.startswith("-") and ".." in arg:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def matrix(args: argparse.Namespace) -> None:
    """Emit the edge-label matrix for a family."""
    from . import io
    mat = build_matrix(_params(args.family, args.n, args.k))
    text = io.matrix_to_csv(mat) if args.format == "csv" else io.matrix_to_json(mat)
    _write(text, args.out)


def build(args: argparse.Namespace) -> None:
    """Build a family graph, optionally applying a swap-move file."""
    from . import io
    from .families import build_family
    params = _params(args.family, args.n, args.k, args.r, args.s, args.stage)
    moves = io.swaps_from_json(io.read_text(args.swaps)) if args.swaps else None
    g = build_family(params, stage=args.stage, swaps=moves)
    if args.format == "json":
        _write(io.graph_to_json(g), args.out)
    elif args.format == "dot":
        _write(io.graph_to_dot(g), args.out)
    else:
        _write(io.graph_to_graph6(g), args.out)
        sidecar = (args.out + ".labels") if args.out else None
        _write(io.labels_sidecar(g), sidecar)


def verify(args: argparse.Namespace) -> None:
    """Verify a JSON graph file; exit 0 iff it is local antimagic."""
    from . import io
    g = io.graph_from_json(io.read_text(args.graph_file))
    report = verify_local_antimagic(g)
    _write(io.certificate_to_json(g, report), args.out)
    sys.exit(0 if report.is_local_antimagic else 1)


def sweep(args: argparse.Namespace) -> None:
    """Verify every family instance over a parameter grid."""
    from . import io
    from .sweep import grid_cells, run_sweep
    if args.rs is not None and args.k is not None:
        raise ParamError("-k does not apply with --rs; k = 2rs + r + s")
    cells = grid_cells(
        list(dict.fromkeys(args.family or FAMILIES)),  # a repeated family runs once
        _parse_range(args.n),
        _parse_range("1..8" if args.k is None else args.k),
        None if args.rs is None else _parse_range(args.rs),
    )
    report = run_sweep(cells)
    _write(io.sweep_report_to_json(report), args.out)
    if report.failed:
        for cell in report.cells:
            p = cell.params
            rs = f" r={p.factorization[0]} s={p.factorization[1]}" if p.factorization else ""
            for failure in cell.failures:
                print(f"FAIL {p.family.value} {cell.stage} n={p.n} k={p.k}{rs}: {failure}",
                      file=sys.stderr)
        sys.exit(1)


def oracle(args: argparse.Namespace) -> None:
    """Exhaustively compute chi_la of a tiny graph."""
    from . import io
    if args.graph:
        g = io.graph_from_json(io.read_text(args.graph))
    elif args.preset == "book":
        a, m = 1 if args.a is None else args.a, 1 if args.m is None else args.m
        check_budget(book_size(a, m), args.budget)  # before building, which costs O(am)
        g = book_graph(a, m)
    else:
        g = path_p2()
    result = exhaustive_chi_la(g, edge_budget=args.budget)
    _write(io.oracle_to_json(result), args.out)
    if result.chi_la is None:
        print("no local antimagic labeling", file=sys.stderr)


def swaps(args: argparse.Namespace) -> None:
    """List component-reducing swap moves for a family graph."""
    from . import io
    from .families import build_family, iter_connecting_swaps
    params = _params(args.family, args.n, args.k, args.r, args.s, args.stage)
    g = build_family(params, stage=args.stage)
    _write(io.swaps_to_json(list(iter_connecting_swaps(g)), g), args.out)


def main(argv: Optional[List[str]] = None) -> None:
    """Construct, label, and verify the tripartite graph families."""
    parser = argparse.ArgumentParser(
        prog="antimagic", description=main.__doc__, allow_abbrev=False
    )
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(fn, *family_options: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(
            fn.__name__, help=fn.__doc__, description=fn.__doc__, allow_abbrev=False
        )
        sub.set_defaults(run=fn)
        if family_options:
            sub.add_argument("--family", choices=FAMILIES, required=True)
        for name in family_options:
            sub.add_argument(name, type=int, required=name in ("-n", "-k"))
        return sub

    sub = command(matrix, "-n", "-k")
    sub.add_argument("--format", choices=["csv", "json"], default="csv")
    sub.add_argument("--out")

    sub = command(build, "-n", "-k", "-r", "-s")
    sub.add_argument("--stage", choices=["base", "crossed", "merged"], default="crossed")
    sub.add_argument("--format", choices=["json", "dot", "graph6"], default="json")
    sub.add_argument("--swaps")
    sub.add_argument("--out")

    sub = command(verify)
    sub.add_argument("graph_file", metavar="GRAPH_FILE")
    sub.add_argument("--out")

    sub = command(sweep)
    sub.add_argument("-n", default="1..6", help="[default: %(default)s]")
    sub.add_argument("-k", help="not with --rs [default: 1..8]")
    sub.add_argument("--rs", help="merged sweep over r,s")
    sub.add_argument(
        "--family", action="append", choices=FAMILIES,
        help="repeatable [default: m2 and m3]",
    )
    sub.add_argument("--out")

    sub = oracle_parser = command(oracle)
    graph = sub.add_mutually_exclusive_group(required=True)
    graph.add_argument("--preset", choices=["book", "p2"])
    graph.add_argument("--graph")
    sub.add_argument("-a", type=int, help="number of P_2 copies, book only [default: 1]")
    sub.add_argument("-m", type=int, help="number of joined leaves, book only [default: 1]")
    sub.add_argument("--budget", type=int, default=10, help="[default: %(default)s]")
    sub.add_argument("--out")

    sub = command(swaps, "-n", "-k", "-r", "-s")
    sub.add_argument("--stage", choices=["crossed", "merged"], default="merged")
    sub.add_argument("--out")

    args = parser.parse_args(_join_ranges(sys.argv[1:] if argv is None else argv))
    if args.run is oracle and args.preset != "book" and (args.a, args.m) != (None, None):
        oracle_parser.error("-a and -m apply only to --preset book")
    # The one error boundary: bad input exits 2, a rejected swap exits 1,
    # each with an `error:` line; anything else is a bug and raises.  A
    # command that raised ParseError or SwapError has loaded its module.
    try:
        if args.out:  # an unwritable path fails before any work; "a" truncates nothing
            open(args.out, "a").close()
        args.run(args)
    except Exception as exc:
        from .families import SwapError
        from .io import ParseError
        if isinstance(exc, (ParamError, ParseError, BudgetError, GraphError, OSError)):
            code = 2
        elif isinstance(exc, SwapError):
            code = 1
        else:
            raise
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(code)


if __name__ == "__main__":
    main()
