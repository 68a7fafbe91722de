"""Write every CLI output for a fixed set of family cells into a directory,
so two checkouts can be compared byte for byte.

Usage:
    PYTHONPATH=src python3 benchmarks/dump_outputs.py OUTDIR

Then compare the directories written from two checkouts with `diff -r`.
Covers `matrix` CSV and JSON, `build` in json/dot/graph6 (+ labels
sidecar), `verify` certificates, `swaps` JSON, `build --swaps`, `oracle`
JSON on small presets, and `sweep` JSON with the `runtime_ms` timing field
removed.
"""
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from localantimagic.cli import main as cli

CROSSED = [(fam, n, k) for fam in ("m2", "m3") for n in (1, 2, 3) for k in (1, 2, 4)]
MERGED = [
    (fam, n, r, s)
    for fam in ("m2", "m3")
    for n in (1, 2, 4)
    for r, s in ((1, 1), (1, 2), (2, 1))
]


def run(args, expect=(0,)):
    """The command's stdout and stderr, in write order."""
    out, code = StringIO(), 0
    try:
        with redirect_stdout(out), redirect_stderr(out):
            cli([str(a) for a in args])
    except SystemExit as exc:
        code = exc.code or 0
    if code not in expect:
        raise SystemExit(f"{args}: exit {code}\n{out.getvalue()}")
    return out.getvalue()


def dump_graph(out: Path, name: str, args) -> None:
    for fmt in ("json", "dot", "graph6"):
        run([*args, "--format", fmt, "--out", out / f"{name}.{fmt}"])
    # exit 1 is a certificate that says "not local antimagic" (base stage)
    run(["verify", out / f"{name}.json", "--out", out / f"{name}.cert.json"], (0, 1))


def main(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for fam, n, k in CROSSED:
        fnk = ["--family", fam, "-n", n, "-k", k]
        (out / f"{fam}-n{n}-k{k}.csv").write_text(run(["matrix", *fnk]))
        run(["matrix", *fnk, "--format", "json", "--out", out / f"{fam}-n{n}-k{k}.matrix.json"])
        for stage in ("base", "crossed"):
            dump_graph(out, f"{fam}-n{n}-k{k}-{stage}", ["build", *fnk, "--stage", stage])
        run(["swaps", *fnk, "--stage", "crossed", "--out", out / f"{fam}-n{n}-k{k}.swaps.json"])
    for fam, n, r, s in MERGED:
        k = ((2 * r + 1) * (2 * s + 1) - 1) // 2
        args = ["--family", fam, "-n", n, "-k", k, "-r", r, "-s", s]
        name = f"{fam}-n{n}-r{r}-s{s}"
        dump_graph(out, f"{name}-merged", ["build", *args, "--stage", "merged"])
        swaps = out / f"{name}.swaps.json"
        run(["swaps", *args, "--out", swaps])
        data = json.loads(swaps.read_text())
        first = out / f"{name}.first-move.json"
        first.write_text(json.dumps({**data, "moves": data["moves"][:1]}))
        dump_graph(
            out, f"{name}-swapped", ["build", *args, "--stage", "merged", "--swaps", first]
        )
    for a, m in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (2, 2)):
        args = ["oracle", "--preset", "book", "-a", a, "-m", m]
        run([*args, "--out", out / f"oracle-book-a{a}-m{m}.json"])
    run(["oracle", "--preset", "p2", "--out", out / "oracle-p2.json"])
    for name, args in (
        ("crossed", ["-n", "1..3", "-k", "1..4"]),
        ("merged", ["-n", "1..3", "--rs", "1..2"]),
    ):
        data = json.loads(run(["sweep", *args]))
        for cell in data["grid"]:
            del cell["runtime_ms"]
        (out / f"sweep-{name}.json").write_text(json.dumps(data, indent=2) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    main(Path(sys.argv[1]))
