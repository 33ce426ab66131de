"""Zero-divisor graphs and recognition of the two target families.

The graph of a table has the nonzero elements as vertices and an edge
between distinct u, v exactly when uv = 0.  Loops (u*u = 0) are not
edges; they only make u a zero divisor.

Two graph families are recognized: the complete graph on n vertices,
and a complete graph on n vertices with one extra pendant (degree-1)
vertex attached to a single clique vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, compress
from operator import not_
from typing import NamedTuple, Optional, Union

from .errors import UsageError
from .tables import MAX_ELEMENTS, MulTable


@lru_cache(maxsize=None)
def _vertex_pairs(n: int) -> tuple[tuple[tuple[int, int], ...], frozenset[tuple[int, int]]]:
    """The pairs (u, v), 1 <= u < v <= n, in lexicographic order and as a set."""
    pairs = tuple(combinations(range(1, n + 1), 2))
    return pairs, frozenset(pairs)


@lru_cache(maxsize=None)
def _upper_triangle(m: int) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Positions of the cells (u, v), 1 <= u < v <= m, in the flattened
    (m+1) x (m+1) grid, and those pairs, in the same order."""
    pairs = _vertex_pairs(m)[0]
    return tuple(u * (m + 1) + v for u, v in pairs), pairs


@dataclass(frozen=True)
class SimpleGraph:
    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        # Graphs of tables are checked against a cached set of the allowed
        # pairs; larger graphs (targets only) and refusals take the loop.
        n = self.vertex_count
        if n <= MAX_ELEMENTS and _vertex_pairs(n)[1].issuperset(self.edges):
            return
        for u, v in self.edges:
            if not (1 <= u < v <= n):
                raise UsageError(f"edge ({u}, {v}) outside 1..{n} or not ordered")


@dataclass(frozen=True)
class CompleteK:
    """Complete graph on n >= 1 vertices."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise UsageError("complete graph needs n >= 1")

    @property
    def element_count(self) -> int:
        return self.n


@dataclass(frozen=True)
class CompletePlusEnd:
    """Complete graph on n >= 2 vertices plus one pendant vertex.

    The pendant is attached to exactly one clique vertex; in tables the
    pendant is element n+1 and its neighbor is element 1.
    """

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise UsageError("a pendant needs a clique of size >= 2")

    @property
    def element_count(self) -> int:
        return self.n + 1


TargetGraph = Union[CompleteK, CompletePlusEnd]


class Recognition(NamedTuple):
    target: TargetGraph
    pendant: Optional[int]
    neighbor: Optional[int]


def build_zd_graph(table: MulTable) -> SimpleGraph:
    """Graph on {1..m} with an edge {u, v} whenever u != v and uv = 0.

    The upper-triangle products are read from the flattened grid at
    positions cached per m, and the pairs whose product is 0 kept.
    """
    m = table.m
    positions, pairs = _upper_triangle(m)
    flat = list(chain.from_iterable(table.entries))
    return SimpleGraph(m, frozenset(compress(pairs, map(not_, map(flat.__getitem__, positions)))))


def recognize_target(graph: SimpleGraph) -> Optional[Recognition]:
    """Recognize a complete graph or a complete graph with one pendant.

    Completeness is checked first, so the two-vertex path reads as the
    complete graph on 2 vertices.  Any other graph is a clique on nv - 1
    vertices plus a pendant exactly when it has C(nv - 1, 2) + 1 edges
    and a vertex of degree 1: removing that vertex leaves C(nv - 1, 2)
    edges on nv - 1 vertices.  The three-vertex path is recognized as a
    2-clique plus pendant; with two degree-1 candidates the smallest
    vertex id is reported as the pendant.
    """
    nv = graph.vertex_count
    edges = graph.edges
    if len(edges) == nv * (nv - 1) // 2:
        return Recognition(CompleteK(nv), None, None)
    if len(edges) != (nv - 1) * (nv - 2) // 2 + 1:
        return None
    degree = [0] * (nv + 1)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    if 1 not in degree:
        return None
    p = degree.index(1)
    neighbor = next(v if u == p else u for u, v in edges if p in (u, v))
    return Recognition(CompletePlusEnd(nv - 1), p, neighbor)


def realizes(table: MulTable, target: TargetGraph) -> Optional[Recognition]:
    """The table's recognition when its zero-divisor graph is ``target``, else None.

    The one place where a recognized graph is compared with a known
    target; the recognition names the pendant and its neighbor.
    """
    rec = recognize_target(build_zd_graph(table))
    return rec if rec is not None and rec.target == target else None


def target_to_graph(target: TargetGraph) -> SimpleGraph:
    """Build the labelled graph a conforming table realizes."""
    if isinstance(target, CompleteK):
        n = target.n
        return SimpleGraph(n, frozenset((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)))
    n = target.n
    clique = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return SimpleGraph(n + 1, frozenset(clique + [(1, n + 1)]))


def graph_to_dot(graph: SimpleGraph, pendant: Optional[int] = None,
                 annotations: tuple[str, ...] = ()) -> str:
    """Render one ``graph`` block, vertices in id order, stable across runs.

    Vertices are labelled a1..an except the pendant (if given), which is
    labelled x1.
    """

    def name(u: int) -> str:
        return "x1" if u == pendant else f"a{u}"

    lines = ["graph zero_divisor_graph {"]
    for note in annotations:
        lines.append(f"  // {note}")
    for u in range(1, graph.vertex_count + 1):
        lines.append(f"  {name(u)};")
    for u, v in sorted(graph.edges):
        lines.append(f"  {name(u)} -- {name(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
