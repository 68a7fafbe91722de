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

With two checkouts, the first is the base.  After the last run, one line
per workload and metric of BENCHMARK.json (its `end_to_end` and
`per_layer` lists) compares this series' runs: each side's median and
quartiles, the second side's wins over the pairs (the direction taken
from the metric's `better`; a tie is no one's win), and whether the gap
between the medians exceeds the base's interquartile range.  A metric
with a `bound` (each `end_to_end` one) also gives how much worse the
second side's median is, relative to a nonzero base median, and whether
that exceeds the bound: the benchmark's gate rejects a change on that
rule.  A metric that no run of the workload reports gets no line,
so an untraced series prints the end-to-end metrics and a traced one
(`--trace 1`) the per-layer ones.

A run is bad if it exited nonzero, printed no contract line, or reported
`correct: false` or failed operations.  After the runs, each bad run of
this series gets one line (workload, seed, label, exit code, failed of
attempted ops) and the script exits 1.
"""
from __future__ import annotations

import argparse
import json
import statistics
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


def _quartiles(values: List[float]) -> List[float]:
    """Q1, median, Q3, each interpolated between closest ranks."""
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summary(entries: List[Dict], metrics: List[Dict], base: str, change: str) -> List[str]:
    """One line per workload and metric ({"name", "better"[, "bound"]})
    comparing the runs of `change` with those of `base`.  A pair is the
    two runs of one workload and seed; a run without the metric is left
    out, and a metric that no run of the workload reports gets no line."""
    lines = []
    for workload in dict.fromkeys(e["workload"] for e in entries):
        for metric in metrics:
            name = metric["name"]
            value: Dict[str, Dict[int, float]] = {}
            for e in entries:
                got = ((e["contract"] or {}).get("metrics", {}).get(name) or {}).get("value")
                if e["workload"] == workload and got is not None:
                    value.setdefault(e["label"], {})[e["seed"]] = got
            if not value:
                continue
            if base not in value or change not in value:
                lines.append(f"{workload} {name}: no runs of both sides")
                continue
            sign = 1 if metric["better"] == "lower" else -1
            seeds = value[base].keys() & value[change].keys()
            wins = sum(sign * (value[base][s] - value[change][s]) > 0 for s in seeds)
            q_base = _quartiles(list(value[base].values()))
            q_change = _quartiles(list(value[change].values()))
            gap = q_change[1] - q_base[1]
            iqr = q_base[2] - q_base[0]
            line = (
                f"{workload} {name} ({metric['better']} is better): "
                f"{base} {q_base[1]:.6g} [{q_base[0]:.6g}, {q_base[2]:.6g}], "
                f"{change} {q_change[1]:.6g} [{q_change[0]:.6g}, {q_change[2]:.6g}]; "
                f"{change} wins {wins}/{len(seeds)} pairs; median gap {gap:+.6g} "
                f"{'exceeds' if abs(gap) > iqr else 'within'} {base}'s IQR {iqr:.6g}"
            )
            if "bound" in metric and q_base[1]:
                worse = sign * gap / abs(q_base[1])
                over = worse > metric["bound"]
                line += (f"; {abs(worse):.1%} {'worse' if worse > 0 else 'better'}, "
                         f"{'OVER' if over else 'within'} the {metric['bound']:.0%} bound")
            lines.append(line)
    return lines


def bad_runs(entries: List[Dict]) -> List[str]:
    """One line per run that exited nonzero, printed no contract line, or
    reported `correct: false` or failed operations."""
    lines = []
    for e in entries:
        contract = e["contract"] or {}
        if e["exit_code"] or not contract.get("correct") or contract.get("failed"):
            lines.append(
                f"BAD RUN {e['workload']} seed {e['seed']} {e['label']}: "
                f"exit {e['exit_code']}, failed {contract.get('failed')}"
                f"/{contract.get('attempted')} ops"
            )
    return lines


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
    first = len(entries)
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
    if len(checkouts) == 2:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics = bench["end_to_end"] + bench["per_layer"]
        for line in summary(entries[first:], metrics, checkouts[0][0], checkouts[1][0]):
            print(line)
    bad = bad_runs(entries[first:])
    for line in bad:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
