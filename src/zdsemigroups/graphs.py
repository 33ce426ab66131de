"""Zero-divisor graphs and recognition of the two target families.

The graph of a table has the nonzero elements as vertices and an edge
between distinct u, v exactly when uv = 0.  Loops (u*u = 0) are not
edges; they only make u a zero divisor.

Two graph families are recognized: the complete graph on n vertices,
and a complete graph on n vertices with one extra pendant (degree-1)
vertex attached to a single clique vertex.

``realizes`` is the graph check of every leaf and generated table.  The
graph depends only on which products are 0, so ``recognition``, which
it calls, recognizes each zero pattern once and looks the recognition
up for every later table with that pattern.  Both it and
``build_zd_graph`` read the table's ``code``, its rows joined once by
the constructor.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Optional, Union

from .errors import UsageError
from .tables import MulTable, read_only


class SimpleGraph:
    __slots__ = ("vertex_count", "edges")
    vertex_count: int
    edges: frozenset[tuple[int, int]]
    __setattr__ = __delattr__ = read_only

    def __init__(self, vertex_count: int, edges: frozenset[tuple[int, int]]):
        n = vertex_count
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
    """Graph on {1..m} with an edge {u, v} whenever u != v and uv = 0,
    read from the upper triangle of the table's code."""
    m = table.m
    code = table.code
    return SimpleGraph(m, frozenset((u, v) for u, v in combinations(range(1, m + 1), 2)
                                    if not code[u * (m + 1) + v]))


def recognize_target(graph: SimpleGraph) -> Optional[Recognition]:
    """Recognize a complete graph or a complete graph with one pendant.

    Completeness is checked first, so the two-vertex path reads as the
    complete graph on 2 vertices; the graph on no vertex is in neither
    family.  Any other graph is a clique on nv - 1 vertices plus a
    pendant exactly when it has C(nv - 1, 2) + 1 edges and a vertex of
    degree 1: removing that vertex leaves C(nv - 1, 2) edges on nv - 1
    vertices.  The three-vertex path is recognized as a
    2-clique plus pendant; with two degree-1 candidates the smallest
    vertex id is reported as the pendant.
    """
    nv = graph.vertex_count
    edges = graph.edges
    if nv and len(edges) == nv * (nv - 1) // 2:
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


# bytes.translate table that maps a product to 1 when it is 0, else to 0
_ZERO_FLAGS = b"\1".ljust(256, b"\0")
RECOGNITION_MEMO_SIZE = 1024
_recognitions: dict[bytes, Optional[Recognition]] = {}


def recognition(table: MulTable) -> Optional[Recognition]:
    """``recognize_target(build_zd_graph(table))``, recognized once per zero pattern.

    The graph is a function of the table's zero flags (its code with
    each product 0 read as 1 and every other product as 0), whose length
    (m+1)**2 fixes m.  So the recognition runs only on a flag pattern
    that the module-level memo does not hold yet.  The memo keeps at
    most ``RECOGNITION_MEMO_SIZE`` patterns and is emptied when full.  An
    entry costs its key, (m+1)**2 bytes, plus about 250 bytes: under
    0.6 MB in all for m <= 16, and about 67 MB at worst, with m = 255.
    """
    flags = table.code.translate(_ZERO_FLAGS)
    rec = _recognitions.get(flags, False)
    if rec is False:
        if len(_recognitions) >= RECOGNITION_MEMO_SIZE:
            _recognitions.clear()
        rec = _recognitions[flags] = recognize_target(build_zd_graph(table))
    return rec


def realizes(table: MulTable, target: TargetGraph) -> Optional[Recognition]:
    """The table's recognition when its zero-divisor graph is ``target``, else None.

    The one place where a recognized graph is compared with a known
    target; the recognition names the pendant and its neighbor.
    """
    rec = recognition(table)
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
