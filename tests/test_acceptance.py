"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime.  Run with `pytest tests/test_acceptance.py -v -s`.
"""
import random
import time
from collections import Counter
from itertools import chain
from math import comb
from pathlib import Path

import pytest

from localantimagic import (
    Family,
    FamilyParams,
    LabeledGraph,
    Role,
    SwapMove,
    apply_swap,
    book_graph,
    build_family,
    build_matrix,
    exhaustive_chi_la,
    graph_stats,
    induced_colors,
    iter_connecting_swaps,
    matrix_column_sums,
    path_p2,
    verify_local_antimagic,
)
from localantimagic.families import connecting_center_pairs
from localantimagic.formulas import center_constant
from localantimagic.graph import components_of
from localantimagic.sweep import check_cell, grid_cells, run_sweep

GOLDEN = Path(__file__).parent / "golden"


class Criterion:
    def __init__(self, number, description, limit=None):
        self.number = number
        self.description = description
        self.limit = limit

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number}: {status} ({elapsed:.2f}s) {self.description}")
        if exc_type is None and self.limit is not None:
            assert elapsed < self.limit, (
                f"criterion {self.number} took {elapsed:.2f}s, limit {self.limit}s"
            )
        return False


def golden_rows(name):
    text = (GOLDEN / name).read_text()
    return [[int(v) for v in line.split(",")] for line in text.splitlines()]


def test_criterion_1_golden_tables():
    with Criterion(1, "example matrices match the published tables", limit=1.0):
        m2 = build_matrix(FamilyParams(Family.M2, 2, 4))
        rows = m2.rows
        golden = golden_rows("m2_n2_k4.csv")
        assert sum(len(r) for r in rows) == 81
        assert rows == golden
        # 45 u-side-plus-partner entries called out separately
        assert sum(len(r) for r in rows[:5]) == 45

        m3 = build_matrix(FamilyParams(Family.M3, 2, 4))
        rows = m3.rows
        assert sum(len(r) for r in rows) == 99
        assert rows == golden_rows("m3_n2_k4.csv")


def _check_crossed_cell(family, n, k):
    """check_cell's verdict, and the verifier's on the same graph: a cell
    that passes is local antimagic without check_cell running the
    verifier."""
    params = FamilyParams(family, n, k)
    cell = check_cell(params, "crossed")
    assert cell.verified, f"{params}: {cell.failures}"
    assert verify_local_antimagic(build_family(params, "crossed")).is_local_antimagic, params
    return cell


def test_criterion_2_crossed_family_m2_grid():
    with Criterion(2, "even family verified on the [1,12]^2 grid", limit=30.0):
        for n in range(1, 13):
            for k in range(1, 13):
                cell = _check_crossed_cell(Family.M2, n, k)
                center, c_u, c_v = cell.colors
                assert center == n * (8 * k + 4) + 4 * k + 3
                assert c_u == 8 * k * n * n + 6 * k * n + 4 * n * n + k + 4 * n + 1
                assert c_v == 8 * k * n * n + 2 * k * n + 4 * n * n + k + 2 * n + 1
                assert cell.components == k + 1


def test_criterion_3_crossed_family_m3_grid():
    with Criterion(3, "odd family verified; u color matches both routes", limit=30.0):
        for n in range(1, 13):
            for k in range(1, 13):
                cell = _check_crossed_cell(Family.M3, n, k)
                center, c_u, c_v = cell.colors
                assert center == (2 * n + 2) * (4 * k + 2) + 1
                # the u color must equal BOTH the direct column sum and the
                # (3n+1) closed form; this adjudicates the published
                # discrepancy between the two printed u-color expressions
                u_sum, _ = matrix_column_sums(build_matrix(FamilyParams(Family.M3, n, k)))
                closed = (n + 1) * (3 * n + 1) * (4 * k + 2) + n + 2 * k + 2
                assert c_u == u_sum == closed
                assert c_v == (n + 1) ** 2 * (4 * k + 2) + n + 1


MERGED_GRID = grid_cells(
    [Family.M2, Family.M3], list(range(1, 7)), [], rs_range=[1, 2, 3]
)


def test_criterion_4_merged_families():
    with Criterion(4, "merged families verified over n in [1,6], r,s in [1,3]", limit=60.0):
        report = run_sweep(MERGED_GRID)
        for cell in report.cells:
            assert cell.verified, f"{cell.params}: {cell.failures}"
            r, s = cell.params.factorization
            assert cell.components == r + 1
            assert cell.colors[0] == (2 * s + 1) * center_constant(cell.params)
            assert len(set(cell.colors)) == 3


def test_criterion_5_paper_merge_examples():
    with Criterion(5, "merged colors 273 and 327; 6-regular with 2 components"):
        g433 = build_family(FamilyParams(Family.M2, 2, 4, (1, 1)), "merged")
        colors = induced_colors(g433)
        merged = [v for v in g433.part if v.role in (Role.MY, Role.MZ, Role.MX)]
        assert merged and all(colors[v] == 273 for v in merged)

        g533 = build_family(FamilyParams(Family.M3, 2, 4, (1, 1)), "merged")
        colors = induced_colors(g533)
        merged = [v for v in g533.part if v.role in (Role.MY, Role.MZ, Role.MX)]
        assert merged and all(colors[v] == 327 for v in merged)
        components, _, regular = graph_stats(g533)
        assert components == 2
        assert regular == 6


def _paper_move(g, labels_a, labels_b):
    want = {tuple(sorted(labels_a)), tuple(sorted(labels_b))}
    hits = [m for m in iter_connecting_swaps(g) if set(m.label_pairs(g)) == want]
    assert len(hits) == 1
    return hits[0]


def test_criterion_6_paper_swaps():
    with Criterion(6, "published 2-swaps connect the graphs, colors intact"):
        g433 = build_family(FamilyParams(Family.M2, 2, 4, (1, 1)), "merged")
        swapped = apply_swap(g433, _paper_move(g433, (13, 78), (81, 10)))
        assert graph_stats(swapped)[0] == 1
        assert induced_colors(swapped) == induced_colors(g433)

        g533 = build_family(FamilyParams(Family.M3, 2, 4, (1, 1)), "merged")
        swapped = apply_swap(g533, _paper_move(g533, (99, 10), (96, 13)))
        components, _, regular = graph_stats(swapped)
        assert components == 1
        assert regular == 6  # (2n+2)-regular at n = 2s = 2
        assert induced_colors(swapped) == induced_colors(g533)


@pytest.fixture(scope="module")
def warm_oracle():
    # one untimed search first, so that no first-call cost of the plain
    # Python kernel counts against criterion 7's limit
    exhaustive_chi_la(book_graph(1, 1))


def test_criterion_7_oracle_base_cases(warm_oracle):
    with Criterion(7, "exhaustive oracle reproduces the cited base cases", limit=5.0):
        r = exhaustive_chi_la(book_graph(1, 1))
        assert r.chi_la == 3
        assert r.labelings_tried == r.valid_labelings == 6

        r = exhaustive_chi_la(book_graph(2, 1))
        assert r.chi_la == 3
        assert r.labelings_tried == r.valid_labelings == 672

        r = exhaustive_chi_la(path_p2())
        assert r.chi_la is None


def _check_cell_swaps(params, rng):
    """Color preservation for every connecting swap of one merged cell,
    checked on the units the moves are made of, not move by move.

    Each center's pair list (as center_a, and as center_b flattened from
    its map by label sum), once: C(deg, 2) distinct pairs, each of two
    distinct edges at the center whose labels add up to the pair's key,
    so the list holds every pair of the center's edges; every far
    endpoint is a part-1/2 vertex of the center's own component.  Each
    center pair, once: both centers are part-3 vertices of equal degree
    in different components.  A move joins a pair of center_a with a pair
    of center_b under the same key, so each center loses and gains the
    same sum and each far endpoint keeps its label; and the far endpoints
    of one pair lie in parts 1/2 outside the other center's component,
    so no loop or parallel edge arises.  The moves are counted per center
    pair, from how many pairs of each sum the two centers have.  A seeded
    sample of move indices is expanded, applied in full and re-verified
    from scratch: a swap keeps the vertex list, so equal `sums` are equal
    colors.
    """
    g = build_family(params, "merged")
    lab, part, comp = g.labels, g.part, components_of(g)
    degree = Counter(chain.from_iterable(lab))
    before = verify_local_antimagic(g)
    assert before.is_local_antimagic
    sums_a = {}  # each checked center_a: how many of its pairs have each sum
    checked_b = set()

    def check_pairs(c, pairs):
        assert len({frozenset(p) for _, p in pairs}) == len(pairs) == comb(degree[c], 2)
        for s, (e1, e2) in pairs:
            assert e1 != e2 and c in e1 and c in e2 and lab[e1] + lab[e2] == s
        for a, b in set(chain.from_iterable(p for _, p in pairs)):
            far = b if a == c else a
            assert part[far] in (1, 2) and comp[far] == comp[c]

    count = 0
    sample = []
    for ca, cb, pairs_a, pairs_b in connecting_center_pairs(g):
        assert part[ca] == part[cb] == 3 and degree[ca] == degree[cb]
        assert comp[ca] != comp[cb]
        if ca not in sums_a:
            check_pairs(ca, pairs_a)
            sums_a[ca] = Counter(s for s, _ in pairs_a)
        if cb not in checked_b:
            checked_b.add(cb)
            check_pairs(cb, [(s, p) for s, ps in pairs_b.items() for p in ps])
        # sum over label sums s of n_a(s) * n_b(s)
        n = sum(k * len(pairs_b.get(s, ())) for s, k in sums_a[ca].items())
        # the same rng calls, in the same order, as a walk over the moves
        picked = [i for i in range(count, count + n) if i < 2 or rng.random() < 0.0005]
        if picked:
            moves = [SwapMove(ca, cb, pa, pb)
                     for s, pa in pairs_a for pb in pairs_b.get(s, ())]
            sample += [moves[i - count] for i in picked]
        count += n
    for move in sample:
        after = verify_local_antimagic(apply_swap(g, move))
        assert after.is_local_antimagic and after.sums == before.sums
    return count


def test_criterion_8_property_suites(cross_check):
    with Criterion(
        8, "handshake, swap, bijection, and oracle-agreement properties", limit=30.0
    ):
        rng = random.Random(8)

        # handshake identity on 200 random constructed instances
        for _ in range(200):
            params = FamilyParams(
                rng.choice([Family.M2, Family.M3]),
                rng.randint(1, 6),
                rng.randint(1, 8),
            )
            g = build_family(params, rng.choice(["base", "crossed"]))
            colors = induced_colors(g)
            assert sum(colors.values()) == g.q * (g.q + 1)

        # bijection preservation under crossing, merge, and swap
        for fam in (Family.M2, Family.M3):
            params = FamilyParams(fam, 2, 4, (1, 1))
            want = list(range(1, params.q + 1))
            merged = build_family(params, "merged")
            assert sorted(build_family(params, "crossed").labels.values()) == want
            assert sorted(merged.labels.values()) == want
            move = next(iter_connecting_swaps(merged))
            assert sorted(apply_swap(merged, move).labels.values()) == want

        # color preservation for every connecting swap over the merged grid
        total = 0
        for params, _stage in MERGED_GRID:
            total += _check_cell_swaps(params, rng)
        assert total == 7_008_884

        # oracle-vs-verifier agreement, 50 random labelings per preset
        for preset in (book_graph(1, 1), book_graph(2, 1), book_graph(1, 2), path_p2()):
            order = sorted(preset.edges)
            g = LabeledGraph(
                part=dict(preset.part),
                edges=set(preset.edges),
                labels=dict(zip(order, range(1, preset.q + 1))),
            )
            assert cross_check(g, samples=50, seed=8)
