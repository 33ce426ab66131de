import itertools
import pickle
import random

import pytest

from zdsemigroups import graphs
from zdsemigroups.errors import UsageError
from zdsemigroups.graphs import (
    RECOGNITION_MEMO_SIZE,
    CompleteK,
    CompletePlusEnd,
    SimpleGraph,
    build_zd_graph,
    graph_to_dot,
    realizes,
    recognize_target,
    target_to_graph,
)
from zdsemigroups.search import enumerate_labeled
from zdsemigroups.tables import MulTable, permute_table


def graph_of(edges, n):
    return SimpleGraph(n, frozenset(edges))


def table_of(graph):
    """A table whose zero-divisor graph is ``graph``: uv = 0 on an edge, min(u, v) off it."""
    m = graph.vertex_count
    grid = [[0] * (m + 1) for _ in range(m + 1)]
    for u in range(1, m + 1):
        for v in range(u + 1, m + 1):
            if (u, v) not in graph.edges:
                grid[u][v] = grid[v][u] = u
    return MulTable.from_rows(grid)


def recognized(graph, target):
    """The recognition of ``graph``, which ``realizes`` repeats on a table of it."""
    rec = recognize_target(graph)
    assert rec is not None and rec.target == target
    assert realizes(table_of(graph), target) == rec
    return rec


def test_target_invariants():
    with pytest.raises(UsageError):
        CompleteK(0)
    with pytest.raises(UsageError):
        CompletePlusEnd(1)
    assert CompleteK(1).element_count == 1
    assert CompletePlusEnd(3).element_count == 4


def test_targets_are_equal_only_within_one_family():
    assert CompleteK(3) == CompleteK(3)
    assert CompleteK(3) != CompletePlusEnd(3)
    assert CompleteK(3) != CompleteK(4)
    names = {CompleteK(3): "kn", CompletePlusEnd(3): "kn1"}
    assert names[CompleteK(3)] == "kn" and names[CompletePlusEnd(3)] == "kn1"
    assert repr(CompleteK(3)) == "CompleteK(n=3)"
    assert repr(CompletePlusEnd(5)) == "CompletePlusEnd(n=5)"


@pytest.mark.parametrize("value, field", [
    (MulTable.from_rows([[0, 0], [0, 0]]), "entries"),
    (MulTable.from_rows([[0, 0], [0, 0]]), "code"),
    (CompleteK(3), "n"),
    (CompletePlusEnd(3), "n"),
    (SimpleGraph(2, frozenset([(1, 2)])), "edges"),
])
def test_value_fields_are_read_only_and_survive_pickling(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is before
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value) and back == value and hash(back) == hash(value)


@pytest.mark.parametrize("value, fields", [
    (MulTable.from_rows([[0, 0], [0, 0]]), ((0, 0), (0, 0))),
    (SimpleGraph(2, frozenset([(1, 2)])), (2, frozenset([(1, 2)]))),
])
def test_tables_and_graphs_never_equal_a_bare_tuple(value, fields):
    # A NamedTuple would equal the tuple of its fields.
    assert value != fields and fields != value
    assert value != (fields,)


@pytest.mark.parametrize("n, edge", [
    (3, (0, 1)), (3, (2, 1)), (3, (2, 2)), (3, (1, 4)), (0, (1, 2)),
    (300, (299, 301)),  # more vertices than the largest table has elements
])
def test_simple_graph_refuses_each_bad_edge_with_its_message(n, edge):
    with pytest.raises(UsageError) as error:
        SimpleGraph(n, frozenset([edge]))
    assert str(error.value) == f"edge {edge} outside 1..{n} or not ordered"


def test_simple_graph_accepts_ordered_edges_at_any_size():
    assert SimpleGraph(300, frozenset([(1, 300), (299, 300)])).vertex_count == 300
    assert SimpleGraph(3, frozenset()).edges == frozenset()


def test_build_zd_graph_triangle():
    t = MulTable.from_rows(
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    )
    g = build_zd_graph(t)
    assert g.vertex_count == 3
    assert g.edges == frozenset([(1, 2), (1, 3), (2, 3)])


def test_build_zd_graph_single_nilpotent():
    t = MulTable.from_rows([[0, 0], [0, 0]])
    g = build_zd_graph(t)
    assert g.vertex_count == 1 and not g.edges


def test_build_zd_graph_pendant():
    # triangle plus pendant attached to element 1 (x = element 4)
    grid = [[0] * 5 for _ in range(5)]
    for u in range(1, 4):
        for v in range(u + 1, 4):
            grid[u][v] = grid[v][u] = 0
    grid[2][4] = grid[4][2] = 1
    grid[3][4] = grid[4][3] = 1
    t = MulTable.from_rows(grid)
    g = build_zd_graph(t)
    assert g.edges == frozenset([(1, 2), (1, 3), (1, 4), (2, 3)])
    rec = recognize_target(g)
    assert rec.target == CompletePlusEnd(3)
    assert rec.pendant == 4 and rec.neighbor == 1
    assert realizes(t, CompletePlusEnd(3)) == rec
    # an oracle table keeps the pendant at m and the neighbor at 1
    oracle = []
    enumerate_labeled(CompletePlusEnd(3), oracle.append)
    assert realizes(oracle[0], CompletePlusEnd(3)) == (CompletePlusEnd(3), 4, 1)
    # a canonical x*x = 0 representative moves the pendant to 2
    canonical = MulTable.from_rows([[0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 1, 1],
                                    [0, 0, 1, 1, 0], [0, 0, 1, 0, 1]])
    rec = realizes(canonical, CompletePlusEnd(3))
    assert rec == recognize_target(build_zd_graph(canonical))
    assert rec.pendant == 2 and rec.neighbor == 1


def test_graph_label_equivariance():
    rng = random.Random(11)
    grid = [[0] * 5 for _ in range(5)]
    grid[2][4] = grid[4][2] = 1
    grid[3][4] = grid[4][3] = 1
    t = MulTable.from_rows(grid)
    for _ in range(20):
        perm = [0] + rng.sample(range(1, 5), 4)
        pg = build_zd_graph(permute_table(t, perm))
        expected = frozenset(
            tuple(sorted((perm[u], perm[v]))) for u, v in build_zd_graph(t).edges
        )
        assert pg.edges == expected


def test_recognize_complete():
    recognized(graph_of([(1, 2), (1, 3), (2, 3)], 3), CompleteK(3))
    recognized(graph_of([], 1), CompleteK(1))
    recognized(graph_of([(1, 2)], 2), CompleteK(2))


def test_recognize_pendant():
    rec = recognized(graph_of([(1, 2), (1, 3), (2, 3), (2, 4)], 4), CompletePlusEnd(3))
    assert rec.pendant == 4 and rec.neighbor == 2


def test_recognize_path3_boundary():
    # P3 is the 2-clique with a pendant; the smallest degree-1 vertex wins.
    rec = recognized(graph_of([(1, 2), (2, 3)], 3), CompletePlusEnd(2))
    assert rec.pendant == 1 and rec.neighbor == 2


def test_recognize_rejects_other_graphs():
    # 4-path and 4-cycle are neither family
    assert recognize_target(graph_of([(1, 2), (2, 3), (3, 4)], 4)) is None
    assert recognize_target(graph_of([(1, 2), (2, 3), (3, 4), (1, 4)], 4)) is None
    assert realizes(table_of(graph_of([(1, 2), (2, 3), (3, 4)], 4)), CompletePlusEnd(3)) is None
    # complete graph missing one edge
    assert recognize_target(graph_of([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)], 4)) is None


def test_recognize_the_graph_on_no_vertex_is_in_neither_family():
    assert recognize_target(graph_of([], 0)) is None


def defined_recognition(graph):
    """The two families by definition: at least one vertex and every pair an
    edge, or every pair off one vertex p an edge, plus one edge {p, q}; the
    smallest such p wins."""
    vertices = range(1, graph.vertex_count + 1)
    if vertices and graph.edges == frozenset(itertools.combinations(vertices, 2)):
        return (CompleteK(graph.vertex_count), None, None)
    for p in vertices:
        rest = [u for u in vertices if u != p]
        for q in rest:
            if graph.edges == {*itertools.combinations(rest, 2), (min(p, q), max(p, q))}:
                return (CompletePlusEnd(graph.vertex_count - 1), p, q)
    return None


def test_recognize_matches_the_definition_on_every_small_graph():
    # nv = 0 included: the graph on no vertex is in neither family
    for nv in range(6):
        pairs = list(itertools.combinations(range(1, nv + 1), 2))
        for mask in range(1 << len(pairs)):
            graph = graph_of([pair for i, pair in enumerate(pairs) if mask >> i & 1], nv)
            assert recognize_target(graph) == defined_recognition(graph), graph


def test_target_to_graph_round_trip():
    for target in (CompleteK(1), CompleteK(4), CompletePlusEnd(3), CompletePlusEnd(5)):
        graph = target_to_graph(target)
        recognized(graph, target)
        assert realizes(table_of(graph), type(target)(target.n + 1)) is None  # wrong n
    # wrong family on the same four elements
    assert realizes(table_of(target_to_graph(CompleteK(4))), CompletePlusEnd(3)) is None


@pytest.fixture
def empty_memo(monkeypatch):
    """``realizes`` with no zero pattern recognized yet; the memo is returned."""
    memo = {}
    monkeypatch.setattr(graphs, "_recognitions", memo)
    return memo


def filtered_recognition(table, target):
    """``realizes`` by its definition: the recognizer's result, kept only for ``target``."""
    rec = recognize_target(build_zd_graph(table))
    return rec if rec is not None and rec.target == target else None


def test_realizes_equals_the_recognizer_filtered_by_target(empty_memo):
    pendant_table = table_of(target_to_graph(CompletePlusEnd(3)))
    moved = [permute_table(pendant_table, [0, *perm]) for perm in itertools.permutations(range(1, 5))]
    assert {filtered_recognition(t, CompletePlusEnd(3)).pendant for t in moved} == {1, 2, 3, 4}
    neither = [table_of(graph_of(edges, 4)) for edges in (
        [(1, 2), (2, 3), (3, 4)], [(1, 2), (2, 3), (3, 4), (1, 4)],
        [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)], [])]
    complete = table_of(target_to_graph(CompleteK(4)))
    targets = [CompleteK(4), CompletePlusEnd(3), CompleteK(3), CompletePlusEnd(4)]
    for order in (targets, targets[::-1]):
        empty_memo.clear()
        for table in [*moved, *neither, complete]:
            for target in order:
                assert realizes(table, target) == filtered_recognition(table, target), (table, target)
    # one table against each family, in both orders, each time from an empty memo
    for order in ([CompleteK(4), CompletePlusEnd(3)], [CompletePlusEnd(3), CompleteK(4)]):
        for table in (complete, moved[5]):
            empty_memo.clear()
            assert [realizes(table, t) for t in order] == [filtered_recognition(table, t) for t in order]


def test_realizes_tells_apart_tables_with_one_diagonal(empty_memo):
    # same size, same (all-zero) diagonal; only the pendant's neighbor differs
    first = table_of(graph_of([(1, 2), (1, 3), (2, 3), (1, 4)], 4))
    second = table_of(graph_of([(1, 2), (1, 3), (2, 3), (2, 4)], 4))
    assert [row[u] for u, row in enumerate(first.entries)] == [row[u] for u, row in enumerate(second.entries)]
    recs = [realizes(first, CompletePlusEnd(3)), realizes(second, CompletePlusEnd(3))]
    assert recs == [(CompletePlusEnd(3), 4, 1), (CompletePlusEnd(3), 4, 2)]
    assert len(empty_memo) == 2


def test_recognition_memo_stays_within_its_size(empty_memo):
    pairs = list(itertools.combinations(range(1, 7), 2))
    sizes = []
    for mask in range(RECOGNITION_MEMO_SIZE + 50):
        table = table_of(graph_of([pair for i, pair in enumerate(pairs) if mask >> i & 1], 6))
        assert realizes(table, CompleteK(6)) == filtered_recognition(table, CompleteK(6))
        sizes.append(len(empty_memo))
    # every pattern is new, so the memo fills to its size, is emptied and refills
    assert max(sizes) == RECOGNITION_MEMO_SIZE and sizes[-1] == 50


def test_dot_export_stable_and_labelled():
    g = target_to_graph(CompletePlusEnd(3))
    out = graph_to_dot(g, pendant=4)
    assert out == graph_to_dot(g, pendant=4)  # bit-exact
    assert "x1;" in out and "a1 -- x1;" in out
    lines = out.splitlines()
    assert lines[0] == "graph zero_divisor_graph {" and lines[-1] == "}"


def test_dot_vertex_order():
    out = graph_to_dot(target_to_graph(CompleteK(3)))
    body = [l.strip() for l in out.splitlines()[1:-1]]
    assert body[:3] == ["a1;", "a2;", "a3;"]
    assert body[3:] == ["a1 -- a2;", "a1 -- a3;", "a2 -- a3;"]
