"""Seed known faults into the package, one at a time, and check that the
Tier-1 tests catch each of them.

Usage, from the repository root:

    python3 benchmarks/mutants.py

The script first runs the Tier-1 command on an unmutated copy of the
tracked files (as they are in the working tree) and exits 1 if it fails,
since on a failing tree every fault would read as killed.  Then, for each
entry of MUTANTS, it copies the tracked files into a fresh temporary
directory, applies the entry's one text edit, and runs the Tier-1 command
there with `-x`.  It prints `killed` with the first failing test when
pytest reports failed tests (exit code 1), `survived` when every test
passes, and exits 1 if any fault survives or pytest ends any other way.
`tests/test_mutants.py` is left out of these runs: it checks the fault
list against the files, so in a mutated copy it would fail for every
fault, whatever the other tests do.  Each killed fault takes a few
seconds, a surviving one a full Tier-1 run.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = "src/localantimagic/"

# (name, file, old text, new text).  Each old text occurs exactly once in
# its file, so each edit is one fault.
MUTANTS = [
    ("mirrored u_block", PKG + "families.py",
     "u_block = [*range(1, k + 1), 0, *range(2 * k, k, -1)]",
     "u_block = [*range(2 * k, k, -1), 0, *range(1, k + 1)]"),
    ("m2 j = 2 u start - 1", PKG + "matrices.py",
     "u, v, d = (w + 6 * k + 2, w + 6 * k + 3)",
     "u, v, d = (w + 6 * k + 1, w + 6 * k + 3)"),
    ("m3 c_v + 1", PKG + "formulas.py",
     "c_v = (n + 1) ** 2 * (4 * k + 2) + n + 1",
     "c_v = (n + 1) ** 2 * (4 * k + 2) + n + 2"),
    ("orbit bound dropped", PKG + "oracle.py",
     "            low[o] = p\n",
     "            pass\n"),
    ("connecting pairs inside one component", PKG + "families.py",
     "if comp[ca] != comp[cb] and",
     "if comp[ca] == comp[cb] and"),
    ("BFS never finds an odd cycle", PKG + "graph.py",
     "bipartite = False",
     "bipartite = True"),
    ("regularity check is False", PKG + "sweep.py",
     "and regular != 2 * params.n + 2",
     "and False"),
    ("validity check is False", PKG + "sweep.py",
     "if not report.is_local_antimagic:",
     "if False:"),
    ("graph6 (0, 1) bit flipped", PKG + "io.py",
     "        data[bit // 6] += 32 >> bit % 6\n",
     "        data[bit // 6] += 32 >> bit % 6\n"
     "    if n > 1:\n"
     "        data[0] = 63 + ((data[0] - 63) ^ 32)\n"),
    ("m3 ux row 1 cells 1 and 2 exchanged", PKG + "matrices.py",
     "            ux.append(list(range(a, a - c, -1)))",
     "            ux.append([a - 1, a, *range(a - 2, a - c, -1)] if j == 1"
     " else list(range(a, a - c, -1)))"),
    ("uv row reversed", PKG + "matrices.py",
     "uv = list(range(1, params.copies + 1))",
     "uv = list(range(params.copies, 0, -1))"),
]

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]


def tracked_files() -> list[str]:
    out = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout
    return [name for name in out.split("\0") if name]


def apply(tree: Path, file: str, old: str, new: str) -> None:
    path = tree / file
    text = path.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{file}: the old text occurs {text.count(old)} times, not once")
    path.write_text(text.replace(old, new))


def first_failure(output: str) -> str:
    """The node id of the first FAILED or ERROR line of pytest's summary."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split()[1]
    return "(no failing test named; see pytest's output)"


def run_tier1(files: list[str], edit: tuple[str, str, str] | None = None
              ) -> subprocess.CompletedProcess:
    """Run TIER1 on a fresh copy of `files`, with `edit` (file, old text,
    new text) applied if given."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        for f in files:
            (tree / f).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / f, tree / f)
        if edit is not None:
            apply(tree, *edit)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
        return subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)


def run(name: str, file: str, old: str, new: str, files: list[str]) -> bool:
    """True iff the Tier-1 tests fail with the edit applied."""
    result = run_tier1(files, (file, old, new))
    if result.returncode == 0:
        print(f"survived  {name}", flush=True)
        return False
    if result.returncode != 1:
        print(result.stdout[-2000:] + result.stderr[-2000:])
        raise SystemExit(f"{name}: pytest exited {result.returncode}, not 0 or 1")
    print(f"killed    {name}: {first_failure(result.stdout)}", flush=True)
    return True


def main() -> None:
    files = tracked_files()
    clean = run_tier1(files)
    if clean.returncode != 0:
        print(clean.stdout[-2000:] + clean.stderr[-2000:])
        raise SystemExit(f"the unmutated tree fails Tier-1 (pytest exit "
                         f"{clean.returncode}); no fault can be judged")
    survived = [m[0] for m in MUTANTS if not run(*m, files)]
    print(f"{len(MUTANTS) - len(survived)} of {len(MUTANTS)} faults killed")
    sys.exit(1 if survived else 0)


if __name__ == "__main__":
    main()
