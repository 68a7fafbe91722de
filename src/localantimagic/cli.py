"""Command-line interface.

Exit codes: 0 success, 1 verification failure or rejected swap, 2 bad
input (parameters, files, paths), always with an `error:` line on stderr.
"""
from __future__ import annotations

import sys
from typing import List, Optional

import click

from . import io
from .families import SwapError, build_family, iter_connecting_swaps
from .graph import GraphError, verify_local_antimagic
from .matrices import Family, FamilyParams, ParamError, build_matrix
from .oracle import PRESETS, BudgetError, exhaustive_chi_la
from .sweep import grid_cells, report_to_json, run_sweep


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise io.ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _write(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _params(
    family: str, n: int, k: int, r: Optional[int] = None, s: Optional[int] = None,
    stage: str = "crossed",
) -> FamilyParams:
    if (r is None) != (s is None):
        raise ParamError("-r and -s must be given together")
    params = FamilyParams(Family(family), n, k, None if r is None else (r, s))
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


class _Main(click.Group):
    """The one error boundary: bad input exits 2, a rejected swap exits 1,
    each with an `error:` line; anything else is a bug and raises."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ParamError, io.ParseError, BudgetError, GraphError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except SwapError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_Main)
def main() -> None:
    """Construct, label, and verify the tripartite graph families."""


def _family_options(fn):
    fn = click.option("--family", type=click.Choice(["m2", "m3"]), required=True)(fn)
    fn = click.option("-n", "n", type=int, required=True)(fn)
    fn = click.option("-k", "k", type=int, required=True)(fn)
    fn = click.option("-r", "r", type=int, default=None)(fn)
    fn = click.option("-s", "s", type=int, default=None)(fn)
    return fn


@main.command()
@click.option("--family", type=click.Choice(["m2", "m3"]), required=True)
@click.option("-n", "n", type=int, required=True)
@click.option("-k", "k", type=int, required=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--out", type=click.Path(), default=None)
def matrix(family: str, n: int, k: int, fmt: str, out: Optional[str]) -> None:
    """Emit the edge-label matrix for a family."""
    mat = build_matrix(_params(family, n, k))
    text = io.matrix_to_csv(mat) if fmt == "csv" else io.matrix_to_json(mat)
    _write(text, out)


@main.command()
@_family_options
@click.option(
    "--stage", type=click.Choice(["base", "crossed", "merged"]), default="crossed"
)
@click.option(
    "--format", "fmt", type=click.Choice(["json", "dot", "graph6"]), default="json"
)
@click.option("--swaps", "swaps_file", type=click.Path(), default=None)
@click.option("--out", type=click.Path(), default=None)
def build(
    family: str,
    n: int,
    k: int,
    r: Optional[int],
    s: Optional[int],
    stage: str,
    fmt: str,
    swaps_file: Optional[str],
    out: Optional[str],
) -> None:
    """Build a family graph, optionally applying a swap-move file."""
    params = _params(family, n, k, r, s, stage)
    moves = io.swaps_from_json(_read(swaps_file)) if swaps_file else None
    g = build_family(params, stage=stage, swaps=moves)
    if fmt == "json":
        _write(io.graph_to_json(g), out)
    elif fmt == "dot":
        _write(io.graph_to_dot(g), out)
    else:
        _write(io.graph_to_graph6(g), out)
        sidecar = (out + ".labels") if out else None
        _write(io.labels_sidecar(g), sidecar)


@main.command()
@click.argument("graph_file", type=click.Path())
@click.option("--out", type=click.Path(), default=None)
def verify(graph_file: str, out: Optional[str]) -> None:
    """Verify a JSON graph file; exit 0 iff it is local antimagic."""
    g = io.graph_from_json(_read(graph_file))
    report = verify_local_antimagic(g)
    _write(io.certificate_to_json(g, report), out)
    sys.exit(0 if report.is_local_antimagic else 1)


@main.command()
@click.option("-n", "n_range", default="1..6", show_default=True)
@click.option("-k", "k_range", default="1..8", show_default=True)
@click.option("--rs", "rs_range", default=None, help="merged sweep over r,s")
@click.option(
    "--family",
    "families",
    type=click.Choice(["m2", "m3"]),
    multiple=True,
    default=("m2", "m3"),
)
@click.option("--out", type=click.Path(), default=None)
def sweep(
    n_range: str,
    k_range: str,
    rs_range: Optional[str],
    families: tuple,
    out: Optional[str],
) -> None:
    """Verify every family instance over a parameter grid."""
    fams = [Family(f) for f in families]
    cells = grid_cells(
        fams,
        _parse_range(n_range),
        _parse_range(k_range),
        _parse_range(rs_range) if rs_range else None,
    )
    report = run_sweep(cells)
    _write(report_to_json(report), out)
    if not report.all_pass:
        for cell in report.cells:
            for failure in cell.failures:
                click.echo(f"FAIL {cell.params}: {failure}", err=True)
        sys.exit(1)


@main.command()
@click.option("--preset", type=click.Choice(sorted(PRESETS)), default=None)
@click.option("-a", "a", type=int, default=1, help="number of P_2 copies")
@click.option("-m", "m", type=int, default=1, help="number of joined leaves")
@click.option("--graph", "graph_file", type=click.Path(), default=None)
@click.option("--budget", type=int, default=10, show_default=True)
@click.option("--no-prune", is_flag=True, default=False)
@click.option("--out", type=click.Path(), default=None)
def oracle(
    preset: Optional[str],
    a: int,
    m: int,
    graph_file: Optional[str],
    budget: int,
    no_prune: bool,
    out: Optional[str],
) -> None:
    """Exhaustively compute chi_la of a tiny graph."""
    if graph_file:
        g = io.graph_from_json(_read(graph_file))
    elif preset:
        g = PRESETS[preset](a, m)
    else:
        raise ParamError("need --preset or --graph")
    result = exhaustive_chi_la(g, edge_budget=budget, prune=not no_prune)
    payload = {
        "format_version": io.FORMAT_VERSION,
        "chi_la": result.chi_la,
        "witness": (
            {f"{e[0]} {e[1]}": lab for e, lab in sorted(result.witness.items())}
            if result.witness
            else None
        ),
        "labelings_tried": result.labelings_tried,
        "valid_labelings": result.valid_labelings,
    }
    _write(io._dumps(payload), out)
    if result.chi_la is None:
        click.echo("no local antimagic labeling", err=True)


@main.command()
@_family_options
@click.option(
    "--stage", type=click.Choice(["crossed", "merged"]), default="merged"
)
@click.option("--out", type=click.Path(), default=None)
def swaps(
    family: str,
    n: int,
    k: int,
    r: Optional[int],
    s: Optional[int],
    stage: str,
    out: Optional[str],
) -> None:
    """List component-reducing swap moves for a family graph."""
    g = build_family(_params(family, n, k, r, s, stage), stage=stage)
    moves = list(iter_connecting_swaps(g))
    _write(io.swaps_to_json(moves, g), out)


if __name__ == "__main__":
    main()
