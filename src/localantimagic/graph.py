"""Graph data model, induced colors, and the local antimagic verifier."""
from __future__ import annotations

import re
from bisect import bisect_left
from collections import Counter
from enum import IntEnum
from functools import cached_property
from itertools import islice
from operator import lt
from types import MappingProxyType
from typing import (AbstractSet, Dict, FrozenSet, List, Mapping, NamedTuple,
                    Optional, Tuple)


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
    """(role, copy_index, leaf_index), validated on construction.  Both
    indices are ints, not bools or floats, so `str` prints only ids that
    `parse` reads back.  A tuple: hashing, equality and ordering run in C
    and match the plain field tuple's, and it compares equal to that
    tuple."""

    __slots__ = ()

    def __new__(cls, role: Role, copy_index: int, leaf_index: int = 0) -> "VertexId":
        if type(copy_index) is not int:
            raise ValueError(f"copy_index must be an int, got {copy_index!r}")
        if type(leaf_index) is not int:
            raise ValueError(f"leaf_index must be an int, got {leaf_index!r}")
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


def _first_unsorted(items: list) -> Tuple[object, str]:
    """The first item not above the one before it, and "listed twice" or
    "out of order"."""
    i = next(i for i in range(1, len(items)) if not items[i - 1] < items[i])
    return items[i], "listed twice" if items[i - 1] == items[i] else "out of order"


class GraphIndex(NamedTuple):
    adj: List[List[int]]  # neighbour positions, per position
    component: List[int]  # per position, numbered by smallest contained vertex
    components: int
    bipartite: bool


class LabeledGraph:
    """Simple undirected graph with a 3-part class per vertex and
    (optionally) a positive integer label per edge.

    Stored as int arrays: `_vertices` is the sorted vertex list, `_part[i]`
    the class of vertex i, and edge e (in sorted order) joins vertices
    `_eu[e] < _ev[e]` with label `_label[e]` (None when unlabeled).
    The package's stages, verifier, swap enumeration, emitters and oracle
    read these arrays directly.  Every graph the package builds (a stage,
    a swap's result, a graph file, an oracle preset) comes from
    `_from_arrays`; `LabeledGraph(part=, edges=, labels=)` takes dict
    input from outside the package.  Both are checked in one place,
    `_set`; the dict constructor adds only the checks that need dicts.
    `part`, `edges` and `labels` are read-only views, built on first
    read.  Immutable: transforms return new graphs.
    """

    def __init__(self, part: Mapping[VertexId, int], edges: AbstractSet[Edge],
                 labels: Optional[Mapping[Edge, int]] = None):
        labels = {} if labels is None else labels
        for a, b in edges:
            if a not in part or b not in part:
                raise GraphError(f"edge ({a}, {b}) has endpoint outside vertex set")
        for e in labels:
            if e not in edges:
                raise GraphError(f"label on non-edge ({e[0]}, {e[1]})")
        vertices = sorted(part)
        of = {v: i for i, v in enumerate(vertices)}
        es = sorted(edges)
        self._set(vertices, [part[v] for v in vertices], [of[a] for a, _ in es],
                  [of[b] for _, b in es], [labels.get(e) for e in es])

    @classmethod
    def _from_arrays(cls, vertices, part, eu, ev, label) -> "LabeledGraph":
        g = cls.__new__(cls)
        g._set(vertices, part, eu, ev, label)
        return g

    def _set(self, vertices, part, eu, ev, label) -> None:
        """Check the invariants in int form, then store the arrays: the
        vertices strictly increase, each part is 1..3, and each edge is
        in range, not a loop, normalized (eu < ev) and above the one
        before it.  A failure names the first offending vertex or edge:
        "listed twice" if it equals the one before it, else "out of
        order"."""
        n = len(vertices)
        if not len(part) == n or not len(eu) == len(ev) == len(label):
            raise GraphError("vertex or edge arrays differ in length")
        if not all(map(lt, vertices, islice(vertices, 1, None))):
            raise GraphError("vertex {} {}".format(*_first_unsorted(vertices)))
        if not {1, 2, 3}.issuperset(part):
            v, c = next((v, c) for v, c in zip(vertices, part) if c not in (1, 2, 3))
            raise GraphError(f"part class of {v} is {c}, expected 1..3")
        if eu and (min(eu) < 0 or max(ev) >= n):
            raise GraphError("edge endpoint outside vertex set")
        if not all(map(lt, eu, ev)):
            a, b = next((a, b) for a, b in zip(eu, ev) if not a < b)
            if not 0 <= b <= a < n:  # the bounds above cover normalized edges only
                raise GraphError("edge endpoint outside vertex set")
            if a == b:
                raise GraphError(f"loop at {vertices[a]}")
            raise GraphError(f"edge ({vertices[a]}, {vertices[b]}) not normalized")
        after = zip(islice(eu, 1, None), islice(ev, 1, None))
        if not all(map(lt, zip(eu, ev), after)):
            (a, b), how = _first_unsorted(list(zip(eu, ev)))
            raise GraphError(f"edge ({vertices[a]}, {vertices[b]}) {how}")
        self.__dict__.update(
            _vertices=vertices, _part=part, _eu=eu, _ev=ev, _label=label
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"LabeledGraph is immutable: cannot set {name}")

    def __eq__(self, other):
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self._arrays() == other._arrays()

    __hash__ = None  # type: ignore[assignment]

    def _arrays(self):
        return self._vertices, self._part, self._eu, self._ev, self._label

    def __reduce__(self):
        return LabeledGraph._from_arrays, self._arrays()

    def __repr__(self) -> str:
        return f"<LabeledGraph: {len(self._vertices)} vertices, {self.q} edges>"

    @cached_property
    def part(self) -> Mapping[VertexId, int]:
        return MappingProxyType(dict(zip(self._vertices, self._part)))

    @cached_property
    def edges(self) -> FrozenSet[Edge]:
        return frozenset(self._edge_list)

    @cached_property
    def labels(self) -> Mapping[Edge, int]:
        return MappingProxyType(
            {e: lab for e, lab in zip(self._edge_list, self._label) if lab is not None}
        )

    @cached_property
    def _edge_list(self) -> List[Edge]:
        """The edges as vertex tuples, in sorted order; made once."""
        vs = self._vertices
        return [(vs[a], vs[b]) for a, b in zip(self._eu, self._ev)]

    @property
    def q(self) -> int:
        return len(self._eu)

    def _incident_positions(self) -> List[List[int]]:
        """Positions of the incident edges, per vertex position."""
        inc: List[List[int]] = [[] for _ in self._vertices]
        for e, (a, b) in enumerate(zip(self._eu, self._ev)):
            inc[a].append(e)
            inc[b].append(e)
        return inc

    def _position(self, v: VertexId) -> int:
        """Index of v in the sorted vertex list; KeyError if absent."""
        i = bisect_left(self._vertices, v)
        if i == len(self._vertices) or self._vertices[i] != v:
            raise KeyError(v)
        return i

    @cached_property
    def index(self) -> GraphIndex:
        """One BFS over one integer adjacency, started from each unvisited
        vertex in sorted order: components and bipartiteness."""
        n = len(self._vertices)
        adj: List[List[int]] = [[] for _ in range(n)]
        for a, b in zip(self._eu, self._ev):
            adj[a].append(b)
            adj[b].append(a)
        comp = [-1] * n
        side = [0] * n
        count, bipartite = 0, True
        for start in range(n):
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
        return GraphIndex(adj, comp, count, bipartite)

    def check_labeled(self) -> None:
        """GraphError naming the first unlabeled edge, if any."""
        if None in self._label:
            a, b = self._edge_list[self._label.index(None)]
            raise GraphError(f"unlabeled edge ({a}, {b})")

    def check_tripartite(self) -> None:
        part = self._part
        for a, b in zip(self._eu, self._ev):
            if part[a] == part[b]:
                vs = self._vertices
                raise GraphError(
                    f"edge ({vs[a]}, {vs[b]}) joins two part-{part[a]} vertices"
                )


class ColorReport(NamedTuple):
    """What verify_local_antimagic finds, each fact once: the labels form a
    bijection iff bad_labels is empty, and the color count c_f is
    len(distinct_colors)."""

    sums: List[int]  # per vertex position
    distinct_colors: List[int]
    is_local_antimagic: bool
    bad_labels: List[int]
    conflict_edges: List[Edge]
    chi_lower: int


def _sums(g: LabeledGraph) -> List[int]:
    """Incident-label sum per vertex position. Requires a fully labeled graph."""
    g.check_labeled()
    sums = [0] * len(g._vertices)
    for a, b, lab in zip(g._eu, g._ev, g._label):
        sums[a] += lab
        sums[b] += lab
    return sums


def induced_colors(g: LabeledGraph) -> Dict[VertexId, int]:
    """Incident-label sum per vertex. Requires a fully labeled graph."""
    return dict(zip(g._vertices, _sums(g)))


def _bijection_failures(labels: List[int]) -> List[int]:
    """Labels that are duplicated or outside [1, q]."""
    q = len(labels)
    counts = Counter(labels)
    return sorted(lab for lab, n in counts.items() if n > 1 or not 1 <= lab <= q)


def verify_local_antimagic(g: LabeledGraph) -> ColorReport:
    """Full check: edge labels form a bijection onto [1,q] and adjacent
    vertices get distinct incident-label sums."""
    sums = _sums(g)
    bad = _bijection_failures(g._label)
    vs = g._vertices
    conflicts = [
        (vs[a], vs[b]) for a, b in zip(g._eu, g._ev) if sums[a] == sums[b]
    ]
    return ColorReport(
        sums=sums,
        distinct_colors=sorted(set(sums)),
        is_local_antimagic=not bad and not conflicts,
        bad_labels=bad,
        conflict_edges=conflicts,
        chi_lower=chromatic_lower_bound(g),
    )


def chromatic_lower_bound(g: LabeledGraph) -> int:
    """Chromatic number within the {0,1,2,3} bracket: 0 for the null graph,
    1 if edgeless, 2 if bipartite with an edge, else 3 certified by the
    stored tripartition."""
    if not g.q:
        return min(len(g._vertices), 1)
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
    return dict(zip(g._vertices, g.index.component))
