"""Graph data model, induced colors, and the local antimagic verifier."""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Set, Tuple


class Role(IntEnum):
    """Structural vertex roles. MY/MZ/MX are merged leaf groups."""

    U = 0
    V = 1
    X = 2
    Y = 3
    Z = 4
    MY = 5
    MZ = 6
    MX = 7


class _VertexFields(NamedTuple):
    role: Role
    copy_index: int
    leaf_index: int = 0


# the form VertexId.__str__ prints; int() and Role[] alone would also take a
# sign, "_", spaces, leading zeros, upper case and non-ASCII digits
_CANONICAL_ID = re.compile(r"([a-z]+):([1-9][0-9]*):(0|[1-9][0-9]*)")


class VertexId(_VertexFields):
    """(role, copy_index, leaf_index), validated on construction.  A tuple:
    hashing, equality and ordering run in C and match the plain field
    tuple's, and it compares equal to that tuple."""

    __slots__ = ()

    def __new__(cls, role: Role, copy_index: int, leaf_index: int = 0) -> "VertexId":
        if copy_index < 1:
            raise ValueError(f"copy_index must be >= 1, got {copy_index}")
        if leaf_index < 0:
            raise ValueError(f"leaf_index must be >= 0, got {leaf_index}")
        if type(role) is not Role:
            role = Role(role)
        if role in (Role.U, Role.V) and leaf_index != 0:
            raise ValueError("U/V vertices carry no leaf index")
        return tuple.__new__(cls, (role, copy_index, leaf_index))

    @classmethod
    def _make(cls, fields) -> "VertexId":  # _replace() builds through here too
        return cls(*fields)

    def __str__(self) -> str:
        return f"{self.role.name.lower()}:{self.copy_index}:{self.leaf_index}"

    @classmethod
    def parse(cls, s: str) -> "VertexId":
        if not isinstance(s, str):
            raise ValueError(f"vertex id must be a string, got {s!r}")
        match = _CANONICAL_ID.fullmatch(s)
        if match is None:
            raise ValueError(f"bad vertex id {s!r}")
        role, copy_index, leaf_index = match.groups()
        try:
            return cls(Role[role.upper()], int(copy_index), int(leaf_index))
        except (ValueError, KeyError) as exc:
            raise ValueError(f"bad vertex id {s!r}") from exc


Edge = Tuple[VertexId, VertexId]


def edge(a: VertexId, b: VertexId) -> Edge:
    """Normalized (smaller-first) edge; rejects loops."""
    if a == b:
        raise ValueError(f"loop at {a}")
    return (a, b) if a < b else (b, a)


class GraphError(Exception):
    pass


class GraphIndex(NamedTuple):
    vertices: List[VertexId]  # sorted
    of: Dict[VertexId, int]  # vertex -> position in `vertices`
    adj: List[List[int]]  # neighbour positions, per position
    component: List[int]  # per position, numbered by smallest contained vertex
    components: int
    bipartite: bool


@dataclass
class LabeledGraph:
    """Simple undirected graph with a 3-part class per vertex and
    (optionally) a positive integer label per edge.

    Treated as immutable after construction; transforms return new graphs.
    `index` is built on first use and cached, so mutating `part` or
    `edges` afterwards would leave it stale.
    """

    part: Dict[VertexId, int]
    edges: Set[Edge]
    labels: Dict[Edge, int] = field(default_factory=dict)

    def __post_init__(self):
        for a, b in self.edges:
            if a == b:
                raise GraphError(f"loop at {a}")
            if a not in self.part or b not in self.part:
                raise GraphError(f"edge ({a}, {b}) has endpoint outside vertex set")
            if not a < b:
                raise GraphError(f"edge ({a}, {b}) not normalized")
        for e in self.labels:
            if e not in self.edges:
                raise GraphError(f"label on non-edge {e}")
        for v, c in self.part.items():
            if c not in (1, 2, 3):
                raise GraphError(f"part class of {v} is {c}, expected 1..3")

    @property
    def q(self) -> int:
        return len(self.edges)

    def vertices(self) -> List[VertexId]:
        return sorted(self.part)

    def sorted_edges(self) -> List[Edge]:
        return sorted(self.edges)

    def incident(self) -> Dict[VertexId, List[Edge]]:
        inc: Dict[VertexId, List[Edge]] = {v: [] for v in self.part}
        for e in self.edges:
            inc[e[0]].append(e)
            inc[e[1]].append(e)
        return inc

    def degree(self, v: VertexId) -> int:
        return len(self.index.adj[self.index.of[v]])

    @cached_property
    def index(self) -> GraphIndex:
        """One BFS over one integer adjacency, started from each unvisited
        vertex in sorted order: components and bipartiteness."""
        verts = self.vertices()
        of = {v: i for i, v in enumerate(verts)}
        adj: List[List[int]] = [[] for _ in verts]
        for a, b in self.edges:
            ia, ib = of[a], of[b]
            adj[ia].append(ib)
            adj[ib].append(ia)
        comp = [-1] * len(verts)
        side = [0] * len(verts)
        count, bipartite = 0, True
        for start in range(len(verts)):
            if comp[start] >= 0:
                continue
            comp[start] = count
            queue = [start]
            for v in queue:  # the list grows while it is read: a FIFO queue
                for w in adj[v]:
                    if comp[w] < 0:
                        comp[w] = count
                        side[w] = side[v] ^ 1
                        queue.append(w)
                    elif side[w] == side[v]:
                        bipartite = False
            count += 1
        return GraphIndex(verts, of, adj, comp, count, bipartite)

    def check_tripartite(self) -> None:
        for a, b in self.edges:
            if self.part[a] == self.part[b]:
                raise GraphError(
                    f"edge ({a}, {b}) joins two part-{self.part[a]} vertices"
                )


@dataclass
class ColorReport:
    color_of: Dict[VertexId, int]
    distinct_colors: List[int]
    c_f: int
    is_local_antimagic: bool
    bijection_ok: bool
    bad_labels: List[int]
    conflict_edges: List[Edge]
    chi_lower: int
    chi_la_bracket: Tuple[int, Optional[int]]


def induced_colors(g: LabeledGraph) -> Dict[VertexId, int]:
    """Incident-label sum per vertex. Requires a fully labeled graph."""
    missing = sorted(e for e in g.edges if e not in g.labels)
    if missing:
        a, b = missing[0]
        raise GraphError(f"unlabeled edge ({a}, {b})")
    colors = {v: 0 for v in g.part}
    for (a, b), lab in g.labels.items():
        colors[a] += lab
        colors[b] += lab
    return colors


def _bijection_failures(g: LabeledGraph) -> List[int]:
    """Labels that are duplicated or outside [1, q]."""
    counts = Counter(g.labels.values())
    return sorted(lab for lab, n in counts.items() if n > 1 or not 1 <= lab <= g.q)


def verify_local_antimagic(g: LabeledGraph) -> ColorReport:
    """Full check: edge labels form a bijection onto [1,q] and adjacent
    vertices get distinct incident-label sums."""
    colors = induced_colors(g)
    bad = _bijection_failures(g)
    bijection_ok = not bad and len(g.labels) == g.q
    conflicts = sorted(
        (a, b) for a, b in g.edges if colors[a] == colors[b]
    )
    distinct = sorted(set(colors.values()))
    ok = bijection_ok and not conflicts
    chi_lower = chromatic_lower_bound(g)
    bracket = (chi_lower, len(distinct) if ok else None)
    return ColorReport(
        color_of=colors,
        distinct_colors=distinct,
        c_f=len(distinct),
        is_local_antimagic=ok,
        bijection_ok=bijection_ok,
        bad_labels=bad,
        conflict_edges=conflicts,
        chi_lower=chi_lower,
        chi_la_bracket=bracket,
    )


def chromatic_lower_bound(g: LabeledGraph) -> int:
    """Chromatic number within the {1,2,3} bracket: 1 if edgeless, 2 if
    bipartite with an edge, else 3 certified by the stored tripartition."""
    if not g.edges:
        return 1
    if g.index.bipartite:
        return 2
    g.check_tripartite()
    return 3


def graph_stats(
    g: LabeledGraph,
) -> Tuple[int, List[int], Optional[int]]:
    """(component count, sorted degree sequence, regular degree or None)."""
    degrees = sorted(map(len, g.index.adj))
    regular = degrees[0] if degrees and degrees[0] == degrees[-1] else None
    return g.index.components, degrees, regular


def components_of(g: LabeledGraph) -> Dict[VertexId, int]:
    """Component index per vertex, numbered by smallest contained vertex."""
    return dict(zip(g.index.vertices, g.index.component))
