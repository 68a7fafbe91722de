"""Benchmark the exhaustive-oracle search kernel: numba JIT vs the pure
interpreted fallback on the same inputs.

Usage:
    python3 benchmarks/bench_oracle.py [--repeat N]

With numba installed (the `[jit]` extra) the JIT path is what
`exhaustive_chi_la` uses; without it both columns run the interpreted
fallback and the first is labelled so.  Both
run the identical function body (see localantimagic._kernels), so results
must agree exactly.
"""
import argparse
import time

from localantimagic import book_graph
from localantimagic._kernels import USING_NUMBA, search, search_fallback
from localantimagic.oracle import _kernel_inputs


CASES = [
    ("triangle (3 edges)", book_graph(1, 1)),
    ("two spokes, one hub (6 edges)", book_graph(2, 1)),
    ("one spoke, three hubs (7 edges)", book_graph(1, 3)),
    ("three spokes, one hub (9 edges)", book_graph(3, 1)),
]


def timed(fn, args, repeat):
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, help="timing repeats")
    args = parser.parse_args()

    if not USING_NUMBA:
        print("warning: numba is not installed; the first column is the "
              "fallback too")
    # compile outside the timed region
    search(*_kernel_inputs(book_graph(1, 1))[1], True)

    first = "jit (s)" if USING_NUMBA else "fallback (s)"
    header = f"{'case':34} {first:>12} {'python (s)':>12} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for name, g in CASES:
        inputs = _kernel_inputs(g)[1]
        t_jit, r_jit = timed(search, (*inputs, True), args.repeat)
        t_py, r_py = timed(search_fallback, (*inputs, True), args.repeat)
        assert r_jit[0] == r_py[0] and r_jit[2] == r_py[2] and r_jit[3] == r_py[3], (
            f"kernel paths disagree on {name}"
        )
        print(f"{name:34} {t_jit:12.4f} {t_py:12.4f} {t_py / t_jit:7.1f}x")


if __name__ == "__main__":
    main()
