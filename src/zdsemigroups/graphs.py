"""Zero-divisor graphs and recognition of the two target families.

The graph of a table has the nonzero elements as vertices and an edge
between distinct u, v exactly when uv = 0.  Loops (u*u = 0) are not
edges; they only make u a zero divisor.

Two graph families are recognized: the complete graph on n vertices,
and a complete graph on n vertices with one extra pendant (degree-1)
vertex attached to a single clique vertex.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, compress
from operator import not_
from typing import NamedTuple, Optional, Union

from .errors import UsageError
from .tables import MAX_ELEMENTS, MulTable, read_only


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


class SimpleGraph:
    __slots__ = ("vertex_count", "edges")
    vertex_count: int
    edges: frozenset[tuple[int, int]]
    __setattr__ = __delattr__ = read_only

    def __init__(self, vertex_count: int, edges: frozenset[tuple[int, int]]):
        # Graphs of tables are checked against a cached set of the allowed
        # pairs; larger graphs (targets only) and refusals take the loop.
        n = vertex_count
        if not (n <= MAX_ELEMENTS and _vertex_pairs(n)[1].issuperset(edges)):
            for u, v in edges:
                if not (1 <= u < v <= n):
                    raise UsageError(f"edge ({u}, {v}) outside 1..{n} or not ordered")
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", edges)

    def __repr__(self) -> str:
        return f"SimpleGraph(vertex_count={self.vertex_count!r}, edges={self.edges!r})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.vertex_count, self.edges) == (other.vertex_count, other.edges)

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges))

    def __reduce__(self):
        return type(self), (self.vertex_count, self.edges)


class _Target:
    """A target graph, given by its clique size ``n``.  Targets of the two
    families are never equal, so ``CompleteK(3) != CompletePlusEnd(3)``."""

    __slots__ = ("n",)
    n: int
    __setattr__ = __delattr__ = read_only

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n!r})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n

    def __hash__(self) -> int:
        return hash(self.n)

    def __reduce__(self):
        return type(self), (self.n,)


class CompleteK(_Target):
    """Complete graph on n >= 1 vertices."""

    __slots__ = ()

    def __init__(self, n: int):
        if n < 1:
            raise UsageError("complete graph needs n >= 1")
        object.__setattr__(self, "n", n)

    @property
    def element_count(self) -> int:
        return self.n


class CompletePlusEnd(_Target):
    """Complete graph on n >= 2 vertices plus one pendant vertex.

    The pendant is attached to exactly one clique vertex; in tables the
    pendant is element n+1 and its neighbor is element 1.
    """

    __slots__ = ()

    def __init__(self, n: int):
        if n < 2:
            raise UsageError("a pendant needs a clique of size >= 2")
        object.__setattr__(self, "n", n)

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

    The upper-triangle products are read from the table's code at
    positions cached per m, and the pairs whose product is 0 kept.
    """
    positions, pairs = _upper_triangle(table.m)
    zeros = map(not_, map(b"".join(table.entries).__getitem__, positions))
    return SimpleGraph(table.m, frozenset(compress(pairs, zeros)))


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
