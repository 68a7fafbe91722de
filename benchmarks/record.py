"""Run the benchmark on one or more checkouts and append each run to the
committed trajectory file.

Usage, from the repository root:

    python3 benchmarks/record.py --workload sweep_connect --seeds 401-410 \
        --checkout parent=../parent --checkout change=.

For each seed and workload, every checkout runs `perfbench/run.py` from its
own directory, so each measures its own source with its own benchmark
code.  With two checkouts the runs form alternating pairs: the first
seed runs them in the listed order, the next reversed, and so on, so a
drift of the host's speed over time favours neither side.  Each run
appends one entry to BENCH_trajectory.json (see --out): the checkout's
label, the run's exit code, its environment stamp (the `env` line, with
the Python version, CPU count, numba and the git commit) and its contract
line (the last line: correct, attempted, failed and every metric).  The
file is rewritten after every run, so an interrupted series keeps what it
ran.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["sweep_connect", "oracle_small"]


def seeds(text: str) -> List[int]:
    """'401-410' or '401,405' or '401'; a reversed range is an error."""
    out: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        span = range(int(lo), int(hi or lo) + 1)
        if not span:
            raise argparse.ArgumentTypeError(f"empty seed range {part!r}")
        out += span
    return out


def checkout(text: str) -> tuple:
    label, sep, path = text.partition("=")
    if not sep or not label:
        raise argparse.ArgumentTypeError(f"expected LABEL=PATH, got {text!r}")
    root = Path(path).resolve()
    if not (root / "perfbench" / "run.py").is_file():
        raise argparse.ArgumentTypeError(f"no perfbench/run.py under {root}")
    return label, root


def run(root: Path, workload: str, seed: int, seconds: float, trace: int) -> Dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    env = [json.loads(s[4:]) for s in lines if s.startswith("env ")]
    try:
        contract = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        contract = None
    return {"exit_code": proc.returncode, "env": env[0] if env else None,
            "contract": contract, "stderr": proc.stderr[-2000:] or None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        required=True)
    parser.add_argument("--seeds", type=seeds, required=True)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--checkout", type=checkout, action="append",
                        help="LABEL=PATH of a checkout (default: this one)")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_trajectory.json")
    args = parser.parse_args(argv)
    checkouts = args.checkout or [("this", ROOT)]

    entries = json.loads(args.out.read_text()) if args.out.is_file() else []
    for i, seed in enumerate(args.seeds):
        for workload in args.workload:
            for label, root in checkouts[:: -1 if i % 2 else 1]:
                result = run(root, workload, seed, args.seconds, args.trace)
                entries.append({
                    "label": label,
                    "workload": workload,
                    "seed": seed,
                    "seconds": args.seconds,
                    "trace": args.trace,
                    "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                                  time.gmtime()),
                    **result,
                })
                args.out.write_text(json.dumps(entries, indent=1) + "\n")
                metrics = (result["contract"] or {}).get("metrics", {})
                run_s = metrics.get("run_s", {}).get("value")
                print(f"{workload} seed {seed} {label}: exit {result['exit_code']}"
                      f", run_s {run_s}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
