"""Benchmark the exhaustive-oracle search kernel on small book graphs.

Usage:
    PYTHONPATH=src python3 benchmarks/bench_oracle.py [--repeat N]

For each case it prints the best-of-N wall time of one
`exhaustive_chi_la` call (pruning on), the complete labelings it
reached, and their rate in labelings per second.
"""
import argparse
import time

from localantimagic import book_graph, exhaustive_chi_la


CASES = [
    ("triangle (3 edges)", book_graph(1, 1)),
    ("two spokes, one hub (6 edges)", book_graph(2, 1)),
    ("one spoke, three hubs (7 edges)", book_graph(1, 3)),
    ("three spokes, one hub (9 edges)", book_graph(3, 1)),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, help="timing repeats")
    args = parser.parse_args()

    header = f"{'case':34} {'best (s)':>10} {'labelings':>10} {'labelings/s':>12}"
    print(header)
    print("-" * len(header))
    for name, g in CASES:
        best = float("inf")
        for _ in range(args.repeat):
            start = time.perf_counter()
            result = exhaustive_chi_la(g)
            best = min(best, time.perf_counter() - start)
        tried = result.labelings_tried
        print(f"{name:34} {best:10.4f} {tried:10d} {tried / best:12.0f}")


if __name__ == "__main__":
    main()
