"""Benchmark of the localantimagic package.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from ./src; nothing is built or installed.  The
seed makes every sampled input (op order, random oracle graphs), so the
same seed gives the same inputs.  Ops run one at a time for about S
seconds, in whole passes over the workload's items, each op's output
checked outside its timed region.  An op's latency is the fastest of its
passes; run_s is one pass at those latencies, and op_p50_ms and
op_tail_ms are percentiles over the ops (see Phase.best_op_s).

--trace 0 reports the end-to-end metrics with the package unpatched.
--trace 1 reports the per-layer metrics from untraced and traced passes in
turn (and, on sweep_connect, passes of the grid through the process pool);
in a traced pass the benchmark wraps each layer's public functions (see
tracing.py).  The spans go to perfbench/out/spans-<workload>-seed<N>.jsonl.

Every run prints an environment stamp and one line per metric, then, as
the last line of stdout, a JSON object with the keys correct, attempted,
failed and metrics.  Exit code 0 when every check passed, 1 when any
failed, 2 when the package cannot be imported from ./src.
"""
from __future__ import annotations

import argparse
import gc
import importlib.util
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
INIT = SRC / "localantimagic" / "__init__.py"
OUT = BENCH / "out"

NAMES = ["sweep_connect", "oracle_small"]
SETUP_REPEATS = 7

# Timed in a fresh interpreter: importing the package (cli included, for
# its import cost) and the first oracle call, where a JIT compile lands.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import localantimagic, localantimagic.cli
from localantimagic import book_graph, exhaustive_chi_la
exhaustive_chi_la(book_graph(1, 1))
elapsed = time.perf_counter() - t0
print(localantimagic.__file__)
print(elapsed)
"""


def percentile(values: List[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    pos = (len(s) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def import_package() -> Optional[str]:
    """Import localantimagic from ./src; return an error message or None."""
    if not INIT.is_file():
        return f"package source not found at {INIT.relative_to(ROOT)}"
    sys.path.insert(0, str(SRC))
    try:
        import localantimagic
    except ImportError as exc:
        return f"cannot import localantimagic: {exc}"
    if Path(localantimagic.__file__).resolve() != INIT:
        return f"localantimagic imported from {localantimagic.__file__}, not ./src"
    return None


def git_commit() -> str:
    """Commit of the checkout, read from .git without leaving it."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def env_stamp(args, pool_workers: int) -> Dict[str, object]:
    import numpy
    from localantimagic import _kernels

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels_using_numba": _kernels.USING_NUMBA,
        "sweep_workers": 1,  # sweep_connect cells run one at a time
        "sweep_pool_workers": pool_workers,  # traced run's pooled pass
        "git_commit": git_commit(),
    }


class Phase:
    """Timings and failures of consecutive passes over a workload."""

    def __init__(self) -> None:
        self.pass_s: List[float] = []
        self.op_s: Dict[str, List[float]] = {}  # latencies of each op, by label
        self.attempted = 0
        self.failures: List[str] = []
        self.pass_spans: List[tuple] = []  # (first, end) span index per pass

    def mean_pass_s(self) -> float:
        return statistics.fmean(self.pass_s)

    def best_op_s(self) -> List[float]:
        """Each op's fastest latency over the phase's passes.

        The host's speed drifts by up to ~50% in phases of seconds to
        minutes, and only ever slows an op down.  An op's
        fastest repeat is its cost with the least of that interference;
        means, medians and high percentiles over the raw latencies follow
        the host's phases instead.
        """
        return [min(times) for times in self.op_s.values()]

    def best_pass_s(self) -> float:
        """One pass with every op at its fastest latency."""
        return sum(self.best_op_s())


def run_op(wl, item, ph: Phase, tracer=None, op_id: str = "") -> float:
    """Time one op, then check its output; return the op's latency."""
    ph.attempted += 1
    out, error = None, None
    # Every op starts with every generation empty and all that is alive
    # frozen (inputs, imports, spans so far), so the collections inside it
    # depend on the op alone: not on the op the seed ran before it, nor on
    # how many spans a traced run holds.
    gc.collect()
    gc.freeze()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = wl.run(item)
        else:
            tracer.active = True
            try:
                with tracer.span("op", op_id):
                    out = wl.run(item)
            finally:
                tracer.active = False
    except Exception as exc:  # an op that raises is a failed op, not a crash
        error = f"raised {type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if error is None:
        try:
            error = wl.check(item, out)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    if error is not None:
        ph.failures.append(f"{wl.label(item)}: {error}")
    return dt


def run_pass(wl, ph: Phase, tracer=None) -> None:
    first = len(tracer.spans) if tracer else 0
    total = 0.0
    for item in wl.items:
        op_id = f"{len(ph.pass_s)}:{wl.label(item)}"
        dt = run_op(wl, item, ph, tracer, op_id)
        ph.op_s.setdefault(wl.label(item), []).append(dt)
        total += dt
    ph.pass_s.append(total)
    if tracer:
        ph.pass_spans.append((first, len(tracer.spans)))


def run_phase(wl, seconds: float) -> Phase:
    """Whole passes until `seconds` are used up; a pass starts only if
    about half of it still fits, so runs overshoot by little."""
    ph = Phase()
    start = time.perf_counter()
    while not ph.pass_s or (time.perf_counter() - start
                            + ph.mean_pass_s() / 2 < seconds):
        run_pass(wl, ph)
    return ph


def run_rounds(runs: List[tuple], seconds: float) -> List[Phase]:
    """One pass of each (workload, tracer) in turn, round after round,
    until `seconds` are used up.  Interleaved, the phases see the same
    drifts of the host's speed, so their differences (tracing overhead,
    parallel efficiency) are not differences between moments; each round
    starts with the next phase, so none always follows the same one."""
    import tracing

    phases = [Phase() for _ in runs]
    start = time.perf_counter()
    for first in itertools.cycle(range(len(runs))):
        for i in list(range(first, len(runs))) + list(range(first)):
            (wl, tracer), ph = runs[i], phases[i]
            if tracer is None:
                run_pass(wl, ph)
            else:
                with tracing.patched(tracer):
                    run_pass(wl, ph, tracer)
        round_s = sum(ph.pass_s[-1] for ph in phases)
        if time.perf_counter() - start + round_s / 2 >= seconds:
            return phases


def warmup(wl) -> Phase:
    ph = Phase()
    for item in wl.warmup_items():
        run_op(wl, item, ph)
    return ph


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def measure_setup() -> float:
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    module_file, elapsed = proc.stdout.split()
    if Path(module_file).resolve() != INIT:
        raise RuntimeError(f"setup imported {module_file}, not ./src")
    return float(elapsed)


def tail_pct(n: int) -> float:
    """The highest of p95/p90/p75 that keeps at least ten of n samples
    beyond it; 100 (the maximum) when n is too small for any of them."""
    for pct in (95.0, 90.0, 75.0):
        if n * (100 - pct) / 100 >= 10:
            return pct
    return 100.0


def end_to_end(wl, args, ph: Phase) -> Dict[str, tuple]:
    rss = peak_rss_mb()  # before the setup children, which would count too
    repeats = 1 if args.smoke else SETUP_REPEATS
    setups = [measure_setup() for _ in range(repeats)]
    best = ph.best_op_s()
    pct = tail_pct(len(best))
    tail = percentile(best, pct)
    beyond = sum(1 for x in best if x > tail)
    passes = len(ph.pass_s)
    return {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {repeats} fresh-interpreter setups"),
        "run_s": (ph.best_pass_s(), "s",
                  f"sum over {len(best)} ops of each op's best of "
                  f"{passes} passes; mean pass {ph.mean_pass_s():.4f} s"),
        "op_p50_ms": (percentile(best, 50) * 1e3, "ms",
                      f"p50 over {len(best)} ops, each its best of {passes}"),
        "op_tail_ms": (tail * 1e3, "ms",
                       f"p{pct:g} over {len(best)} ops, each its best of "
                       f"{passes}, {beyond} beyond it"),
        "peak_rss_mb": (rss, "MB", "own peak RSS + largest child peak RSS"),
    }


SELF_LAYERS = [
    "matrices.build", "matrices.column_sums", "formulas.color_triple",
    "families.build_family", "families.base", "families.crossing",
    "families.merge", "families.swap_enum", "families.apply_swap",
    "graph.verify", "graph.stats", "sweep.run_sweep",
    "io.graph_json_write", "io.graph_json_read", "io.dot", "io.graph6",
    "io.labels_sidecar", "io.matrix_csv", "io.certificate", "io.swaps_write",
    "io.swaps_read", "oracle.prep", "kernels.search",
]
# Exact per-pass counts: (metric, layer, key in the layer's counts).
COUNTS = [
    ("matrices.build.calls", "matrices.build", "calls"),
    ("families.swap_enum.moves", "families.swap_enum", "moves"),
    ("families.apply_swap.calls", "families.apply_swap", "calls"),
    ("graph.verify.edges", "graph.verify", "edges"),
    ("graph.verify.vertices", "graph.verify", "vertices"),
    ("oracle.labelings_tried", "oracle.prep", "tried"),
    ("oracle.valid_labelings", "oracle.prep", "valid"),
]


def pass_counts(tracer, first: int, end: int) -> Dict[str, int]:
    from tracing import JSON_WRITERS

    totals = tracer.layer_totals(first, end)
    counts = {m: int(totals.get(layer, {}).get(key, 0)) for m, layer, key in COUNTS}
    counts["io.json_bytes"] = int(
        sum(totals.get(layer, {}).get("bytes", 0) for layer in JSON_WRITERS)
    )
    return counts


def per_layer(wl, tracer, plain: Phase, traced: Phase,
              pooled: Optional[Phase]) -> Dict[str, tuple]:
    from tracing import PARSERS

    passes = len(traced.pass_s)
    totals = tracer.layer_totals()

    def self_s(layer: str) -> float:
        return totals.get(layer, {}).get("self_s", 0.0) / passes

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    m: Dict[str, tuple] = {}
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = (self_s(layer), "s", "self time per pass")
    counts = pass_counts(tracer, *traced.pass_spans[0])
    for name, value in counts.items():
        m[name] = (value, "B" if name == "io.json_bytes" else "count",
                   "exact, per pass")
    m["families.swap_enum.moves_per_s"] = (
        rate(counts["families.swap_enum.moves"], self_s("families.swap_enum")),
        "1/s", "moves / swap_enum self time")
    m["graph.verify.edges_per_s"] = (
        rate(counts["graph.verify.edges"], self_s("graph.verify")),
        "1/s", "edges / verify self time")
    tried = counts["oracle.labelings_tried"]
    m["oracle.valid_ratio"] = (
        counts["oracle.valid_labelings"] / tried if tried else 0.0,
        "ratio", "valid / tried")
    m["oracle.labelings_per_s"] = (
        rate(tried, self_s("kernels.search")), "1/s",
        "tried / search self time")
    io_layers = [layer for layer in SELF_LAYERS if layer.startswith("io.")]
    read = [layer for layer in io_layers if layer in PARSERS]
    write = [layer for layer in io_layers if layer not in PARSERS]
    for name, group in (("io.read_MBps", read), ("io.write_MBps", write)):
        amount = sum(totals.get(layer, {}).get("bytes", 0) for layer in group)
        secs = sum(totals.get(layer, {}).get("self_s", 0.0) for layer in group)
        m[name] = (rate(amount, secs) / 1e6, "MB/s", "bytes / self time")
    cells = [
        s[2] - s[1] for s in tracer.spans if s[0] == "sweep.cell"
    ]
    m["sweep.cell_p50_ms"] = (
        percentile(cells, 50) * 1e3 if cells else 0.0, "ms",
        f"traced, in-process, over {len(cells)} cells")
    m["sweep.cell_tail_ms"] = (
        percentile(cells, 90) * 1e3 if cells else 0.0, "ms",
        f"p90, traced, in-process, over {len(cells)} cells")
    if pooled is not None:
        in_process = sum(min(plain.op_s[label]) for label in wl.pool.labels)
        efficiency = in_process / (wl.pool.workers * pooled.best_pass_s())
        note = (f"grid in-process {in_process:.4f} s / "
                f"({wl.pool.workers} workers x pooled pass "
                f"{pooled.best_pass_s():.4f} s), best passes")
    else:
        efficiency, note = 0.0, "no process pool in this workload"
    m["sweep.parallel_efficiency"] = (efficiency, "ratio", note)
    m["trace.overhead_s"] = (
        traced.best_pass_s() - plain.best_pass_s(), "s",
        f"traced pass {traced.best_pass_s():.4f} s - untraced "
        f"{plain.best_pass_s():.4f} s, both in-process, best passes")
    return dict(sorted(m.items()))


def trace_checks(tracer, traced: Phase) -> List[str]:
    """Counts must repeat exactly in every traced pass, and no span may
    have negative self time (children always fit inside their parent)."""
    problems = []
    first = pass_counts(tracer, *traced.pass_spans[0])
    for i, bounds in enumerate(traced.pass_spans[1:], 1):
        if pass_counts(tracer, *bounds) != first:
            problems.append(f"trace: counts of pass {i} differ from pass 0")
    worst = min(tracer.self_times(), default=0.0)
    if worst < -1e-9:
        problems.append(f"trace: a span's children exceed it by {-worst:.3g} s")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one setup, for the smoke test")
    args = parser.parse_args(argv)

    error = import_package()
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    pool_workers = min(2, os.cpu_count() or 1)
    problems: List[str] = []
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = workloads.make(args.workload, args.seed, args.smoke, workdir,
                            pool_workers)
        stamp = env_stamp(args, pool_workers)
        print("env " + json.dumps(stamp))
        phases = [warmup(wl)]
        if args.trace == 0:
            phases.append(run_phase(wl, args.seconds))
            metrics = end_to_end(wl, args, phases[-1])
        else:
            tracer = tracing.Tracer()
            runs = [(wl, None), (wl, tracer)]
            if wl.pool is not None:
                # Spans cannot leave the pool's workers: the traced passes
                # run in-process, and the pooled ones are timed untraced.
                phases.append(warmup(wl.pool))
                runs.append((wl.pool, None))
            measured = run_rounds(runs, args.seconds)
            phases += measured
            plain, traced = measured[:2]
            pooled = measured[2] if wl.pool is not None else None
            problems = trace_checks(tracer, traced)
            metrics = per_layer(wl, tracer, plain, traced, pooled)
            spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_file, stamp)
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    print(f"{args.workload}: {attempted} ops attempted, {len(failures)} failed")
    for failure in failures[:20] + problems:
        print(f"  FAILED {failure}")
    print(f"  {'fail_ratio':32} {len(failures) / attempted:.4f} ratio  "
          f"({len(failures)} of {attempted} ops)")
    for name, (value, unit, note) in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:32} {shown} {unit}  ({note})")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if not failures and not problems else 1


if __name__ == "__main__":
    sys.exit(main())
