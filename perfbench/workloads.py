"""The two benchmark workloads.

Each workload builds its inputs from the seed, runs one op at a time
through the package's public functions, and checks each op's output
outside the timed region.  Every call goes through a module attribute
(`families.build_family`, not a name imported into this file), so a
traced run sees it.

Why these two (each exercises the layers the other bypasses):

- sweep_connect: every layer but the oracle.  Its ops are the sweep
  grid's cells (`run_sweep` on one cell: matrices, formulas, crossed
  and merged construction, verify, graph stats; many tiny cells weigh
  per-cell overhead) and merged cells taken through the swaps -> build
  --swaps -> files -> verify path (swap enumeration dominates those;
  every io emitter and the JSON parser do real work; verify runs on the
  parsed graph).
- oracle_small: all time goes to the oracle's search kernel; none to
  families, sweep or io.

Fewer, longer runs are steadier on a shared host whose speed swings by
up to ~50% over tens of seconds: the issue's four workloads (sweep grid,
connect, oracle, file round trip) became these two.
"""
from __future__ import annotations

import itertools
import json
import os
import random
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from localantimagic import families, formulas, graph, io, matrices, oracle, sweep
from localantimagic.matrices import Family, FamilyParams

FAMILIES = [Family.M2, Family.M3]


def merged_params(family: Family, n: int, r: int, s: int) -> FamilyParams:
    k = ((2 * r + 1) * (2 * s + 1) - 1) // 2
    return FamilyParams(family, n, k, (r, s))


def expected_colors(params: FamilyParams) -> List[int]:
    t = formulas.color_triple(params)
    return sorted({t.c_center, t.c_u, t.c_v})


class Workload:
    """One op per item; a pass runs every item once, in order."""

    # The whole workload through the package's process pool, timed only
    # in the traced run; None when the workload has no pool.
    pool: Optional["Workload"] = None

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.items: List[tuple] = []

    def label(self, item) -> str:
        return str(item[0])

    def warmup_items(self) -> List[tuple]:
        return self.items[:3]

    def run(self, item):
        raise NotImplementedError

    def check(self, item, out) -> Optional[str]:
        """None when the op's output is correct, else what is wrong."""
        raise NotImplementedError


def label_of(params: FamilyParams, stage: str) -> str:
    rs = "-r{}-s{}".format(*params.factorization) if params.factorization else ""
    return f"{params.family.value}-{stage}-n{params.n}-k{params.k}{rs}"


class SweepPool(Workload):
    """One op is the whole grid through `run_sweep` in the package's
    process pool, whose cells cannot be timed from outside."""

    def __init__(self, cells, workdir, workers: int) -> None:
        super().__init__(0, workdir)
        self.workers = workers
        self.items = [("grid", cells)]
        self.labels = [label_of(*cell) for cell in cells]

    def warmup_items(self):
        return [("warmup", self.items[0][1][:8])]

    def run(self, item):
        saved = os.environ.get("ANTIMAGIC_THREADS")
        os.environ["ANTIMAGIC_THREADS"] = str(self.workers)
        try:
            return sweep.run_sweep(item[1])
        finally:
            if saved is None:
                del os.environ["ANTIMAGIC_THREADS"]
            else:
                os.environ["ANTIMAGIC_THREADS"] = saved

    def check(self, item, out):
        cells = item[1]
        if [(c.params, c.stage) for c in out.cells] != cells:
            return "sweep report does not cover the grid in order"
        bad = [c for c in out.cells if not c.verified]
        if bad:
            return f"{len(bad)} cells not verified, first: {bad[0].failures}"
        return None


class SweepGrid(Workload):
    """An op is one cell through `run_sweep`, which checks a lone cell
    in-process.  Timed end to end, the cells run one at a time: a pool
    with as many workers as the machine has CPUs times the scheduler as
    much as the cells.  The traced run still times the whole grid in the
    pool (`self.pool`), for sweep.parallel_efficiency."""

    def __init__(self, seed, smoke, workdir, workers: int) -> None:
        super().__init__(seed, workdir)
        sizes = [1, 2] if smoke else [1, 2, 4, 8, 16]
        merged_n = [1, 2] if smoke else [1, 2, 3, 4, 5, 6]
        merged_rs = [1] if smoke else [1, 2, 3]
        cells = sweep.grid_cells(FAMILIES, sizes, sizes) + sweep.grid_cells(
            FAMILIES, merged_n, [], merged_rs
        )
        if not smoke:
            # q~13k at n=k=32; the rest of the n or k = 32 rows would
            # double the pass for little new: the pass must stay short
            # enough to repeat every cell often in a run.
            cells += sweep.grid_cells(FAMILIES, [32], [32])
        self.items = [(label_of(*cell), cell) for cell in cells]
        # Grid order is not shuffled: it decides how the pool balances its
        # load, and the seed should not move the pooled pass.
        self.pool = SweepPool(cells, workdir, workers)

    def run(self, item):
        return sweep.run_sweep([item[1]])

    def check(self, item, out):
        if [(c.params, c.stage) for c in out.cells] != [item[1]]:
            return "sweep report does not hold the cell"
        if not out.cells[0].verified:
            return f"cell not verified: {out.cells[0].failures}"
        return None


# Connecting-move counts per greedy step, pinned at the commit that added
# this benchmark: (family, n, r, s) -> moves enumerated before each of the
# r swaps.
PINNED_MOVES = {
    ("m2", 1, 1, 1): (98,),
    ("m2", 1, 1, 2): (426,),
    ("m2", 1, 1, 3): (1154,),
    ("m2", 1, 2, 1): (446, 168),
    ("m2", 1, 2, 2): (1940, 758),
    ("m2", 1, 3, 1): (1050, 724, 246),
    ("m2", 2, 1, 1): (382,),
    ("m2", 2, 1, 2): (1664,),
    ("m2", 2, 1, 3): (4516,),
    ("m2", 2, 2, 1): (1838, 704),
    ("m2", 2, 2, 2): (8028, 3156),
    ("m2", 2, 3, 1): (4366, 3118, 1054),
    ("m2", 3, 1, 1): (926,),
    ("m2", 3, 1, 2): (3908,),
    ("m2", 3, 1, 3): (10472,),
    ("m2", 3, 2, 1): (4326, 1742),
    ("m2", 3, 2, 2): (18748, 7500),
    ("m2", 3, 3, 1): (10222, 7446, 2600),
    ("m2", 4, 1, 1): (1582,),
    ("m2", 4, 1, 2): (6768,),
    ("m3", 1, 1, 1): (348,),
    ("m3", 1, 1, 2): (1572,),
    ("m3", 1, 1, 3): (4290,),
    ("m3", 1, 2, 1): (1386, 636),
    ("m3", 1, 2, 2): (6246, 2970),
    ("m3", 1, 3, 1): (3108, 2250, 951),
    ("m3", 2, 1, 1): (960,),
    ("m3", 2, 1, 2): (4320,),
    ("m3", 2, 1, 3): (11770,),
    ("m3", 2, 2, 1): (3830, 1820),
    ("m3", 2, 2, 2): (17210, 8350),
    ("m3", 2, 3, 1): (8600, 6410, 2725),
    ("m3", 3, 1, 1): (1876,),
    ("m3", 3, 1, 2): (8428,),
    ("m3", 3, 1, 3): (22946,),
    ("m3", 3, 2, 1): (7490, 3612),
    ("m3", 3, 2, 2): (33614, 16450),
    ("m3", 3, 3, 1): (16828, 12698, 5411),
    ("m3", 4, 1, 1): (3096,),
    ("m3", 4, 1, 2): (13896,),
}


class ConnectMerged(Workload):
    """The swaps -> build --swaps -> verify path, through files.

    Per cell: enumerate every connecting swap, apply the first, repeat
    until connected; write the move list, read it back and rebuild with
    `build_family(..., swaps=)`; write the graph as JSON, DOT, graph6 with
    its labels sidecar and the matrix as CSV; parse the JSON, verify the
    parsed graph and write its certificate."""

    def __init__(self, seed, smoke, workdir) -> None:
        super().__init__(seed, workdir)
        if smoke:
            cells = [(2, 1, 1)]
        else:
            # 40 cells, so that op_tail_ms can be a p75 with ten cells
            # beyond it, and a pass short enough to repeat every cell
            # often; n=4 only where its enumeration stays small.
            cells = [(n, r, s) for n in (1, 2, 3) for r, s in
                     ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1))]
            cells += [(4, 1, 1), (4, 1, 2)]
        self.items = [
            (f"{fam.value}-n{n}-r{r}-s{s}", merged_params(fam, n, r, s))
            for fam in FAMILIES for n, r, s in cells
        ]

    def write(self, fname: str, text: str) -> None:
        (self.workdir / fname).write_text(text)

    def read(self, fname: str) -> str:
        return (self.workdir / fname).read_text()

    def run(self, item):
        params = item[1]
        g = families.build_family(params, "merged")
        counts, chosen = [], []
        for _ in range(params.factorization[0]):
            moves = list(families.iter_connecting_swaps(g))
            counts.append(len(moves))
            if not moves:
                break
            chosen.append(moves[0])
            g = families.apply_swap(g, moves[0])
        # Without g: label_pairs looks each move up in the original graph,
        # which fails for every move after the first.
        self.write("swaps.json", io.swaps_to_json(chosen))
        read_back = io.swaps_from_json(self.read("swaps.json"))
        rebuilt = families.build_family(params, "merged", swaps=read_back)
        self.write("graph.json", io.graph_to_json(rebuilt))
        self.write("graph.dot", io.graph_to_dot(rebuilt))
        self.write("graph.g6", io.graph_to_graph6(rebuilt))
        self.write("graph.labels", io.labels_sidecar(rebuilt))
        self.write("matrix.csv", io.matrix_to_csv(matrices.build_matrix(params)))
        parsed = io.graph_from_json(self.read("graph.json"))
        report = graph.verify_local_antimagic(parsed)
        cert = io.certificate_to_json(parsed, report)
        self.write("certificate.json", cert)
        return counts, chosen, read_back, g, rebuilt, parsed, cert

    def check(self, item, out):
        fam, params = item[1].family, item[1]
        counts, chosen, read_back, g, rebuilt, parsed, cert = out
        key = (fam.value, params.n, *params.factorization)
        if tuple(counts) != PINNED_MOVES[key]:
            return f"move counts {counts} != pinned {PINNED_MOVES[key]}"
        if read_back != chosen:
            return "swap list did not round-trip"
        if rebuilt != g:
            return "rebuilt graph differs from the greedily swapped one"
        if parsed != rebuilt:
            return "graph_from_json(graph_to_json(g)) != g"
        if graph.graph_stats(parsed)[0] != 1:
            return "swapped graph is not connected"
        data = json.loads(cert)
        if not data["is_local_antimagic"]:
            return "certificate says not local antimagic"
        if data["distinct_colors"] != expected_colors(params):
            return f"certificate colors {data['distinct_colors']} != color_triple"
        return None


class SweepConnect(Workload):
    """The sweep grid's cells and the connected merged cells, as one pass
    in seeded order."""

    def __init__(self, seed, smoke, workdir, workers: int) -> None:
        super().__init__(seed, workdir)
        grid = SweepGrid(seed, smoke, workdir, workers)
        connect = ConnectMerged(seed, smoke, workdir)
        self.pool = grid.pool
        self.items = [(part.label(item), part, item)
                      for part in (grid, connect) for item in part.items]
        self.rng.shuffle(self.items)

    def run(self, item):
        return item[1].run(item[2])

    def check(self, item, out):
        return item[1].check(item[2], out)


def brute_force_chi_la(g) -> Tuple[Optional[int], int]:
    """(chi_la, number of local antimagic bijections) by evaluating every
    bijection at once with numpy; shares no code with the oracle."""
    edges = sorted(g.edges)
    verts = sorted(g.part)
    index = {v: i for i, v in enumerate(verts)}
    q = len(edges)
    perms = np.array(list(itertools.permutations(range(1, q + 1))), dtype=np.int64)
    incidence = np.zeros((q, len(verts)), dtype=np.int64)
    for e, (a, b) in enumerate(edges):
        incidence[e, index[a]] = incidence[e, index[b]] = 1
    sums = perms @ incidence
    eu = [index[a] for a, _ in edges]
    ev = [index[b] for _, b in edges]
    ok = np.all(sums[:, eu] != sums[:, ev], axis=1)
    if not ok.any():
        return None, 0
    ordered = np.sort(sums[ok], axis=1)
    distinct = 1 + np.count_nonzero(np.diff(ordered, axis=1), axis=1)
    return int(distinct.min()), int(ok.sum())


def random_tripartite(rng: random.Random, q: int):
    """Random simple tripartite graph with q edges, all three parts
    non-empty and no isolated vertex."""
    while True:
        nv = rng.randint(4, q)
        parts = [rng.randint(1, 3) for _ in range(nv)]
        if len(set(parts)) < 3:
            continue
        pairs = [
            (a, b) for a, b in itertools.combinations(range(nv), 2)
            if parts[a] != parts[b]
        ]
        if len(pairs) < q:
            continue
        chosen = rng.sample(pairs, q)
        if len({x for e in chosen for x in e}) < nv:
            continue
        vs = [graph.VertexId(graph.Role.X, parts[i], i + 1) for i in range(nv)]
        return graph.LabeledGraph(
            part={v: p for v, p in zip(vs, parts)},
            edges={graph.edge(vs[a], vs[b]) for a, b in chosen},
        )


class OracleSmall(Workload):
    """`exhaustive_chi_la` with default pruning on the book graphs, P_2
    and seeded random tripartite graphs."""

    # Random graphs per size q.  In pure Python one search takes ~10 ms at
    # q=6 and ~0.1 s at q=7 (~1 s at q=8, too slow to repeat every graph
    # often in a run).  With the five fixed graphs that makes 45 ops, so
    # op_tail_ms can be a p75 with ten ops beyond it.
    RANDOM = {6: 20, 7: 20}
    PINNED = {"book(1,1)": 3, "book(1,2)": 3, "book(2,1)": 3,
              "book(1,3)": 3, "path_p2": None}

    def __init__(self, seed, smoke, workdir) -> None:
        super().__init__(seed, workdir)
        fixed = [(f"book({a},{m})", oracle.book_graph(a, m))
                 for a, m in ((1, 1), (1, 2), (2, 1), (1, 3))]
        fixed.append(("path_p2", oracle.path_p2()))
        sizes = {5: 2} if smoke else self.RANDOM
        rand = [(f"random{i:02d}-q{q}", random_tripartite(self.rng, q))
                for q, count in sizes.items() for i in range(count)]
        self.items = fixed + rand
        self.reference = {}
        for lab, g in self.items:
            self.reference[lab] = brute_force_chi_la(g)
            if lab in self.PINNED and self.reference[lab][0] != self.PINNED[lab]:
                raise AssertionError(f"reference chi_la of {lab} is not pinned value")
        self.rng.shuffle(self.items)

    def run(self, item):
        return oracle.exhaustive_chi_la(item[1])

    def check(self, item, out):
        lab, g = item
        chi, valid = self.reference[lab]
        if out.chi_la != chi:
            return f"chi_la {out.chi_la} != reference {chi}"
        # Not pinned, like labelings_tried: a search that prunes harder may
        # visit fewer valid labelings, but never more than exist.
        if out.valid_labelings > valid:
            return f"{out.valid_labelings} valid labelings, only {valid} exist"
        if chi is None:
            return None
        h = graph.LabeledGraph(part=dict(g.part), edges=set(g.edges),
                               labels=dict(out.witness))
        if not oracle._plain_valid(h):
            return "witness is not a local antimagic labeling"
        if len(set(graph.induced_colors(h).values())) != chi:
            return "witness does not use chi_la colors"
        return None


def make(name: str, seed: int, smoke: bool, workdir: Path, workers: int) -> Workload:
    if name == "sweep_connect":
        return SweepConnect(seed, smoke, workdir, workers)
    return OracleSmall(seed, smoke, workdir)

