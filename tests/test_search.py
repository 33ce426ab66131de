import itertools
import math
import os
import random
from functools import partial

import pytest

from zdsemigroups import classify, search
from zdsemigroups.classify import canonical_form
from zdsemigroups.counting import (
    clique_class_count,
    generate_pendant_square_other,
    generate_pendant_square_self,
)
from zdsemigroups.errors import BudgetError
from zdsemigroups.cli import main
from zdsemigroups.graphs import (
    CompleteK,
    CompletePlusEnd,
    Recognition,
    build_zd_graph,
    realizes,
    recognize_target,
    target_to_graph,
)
from zdsemigroups.search import (
    DESK_SCALE_LIMIT,
    assignment_count,
    enumerate_labeled,
    iter_candidate_tables,
    oracle_classes,
    seed_partial_table,
)
from zdsemigroups.tables import MulTable, is_zd_semigroup, permute_table, zero_divisors


def brute_force_k2_count():
    """Independent 9-combo check of the 2-clique labelled tables."""
    count = 0
    for s1, s2 in itertools.product(range(3), repeat=2):
        ent = [[0, 0, 0], [0, s1, 0], [0, 0, s2]]
        assoc = all(
            ent[ent[u][v]][w] == ent[u][ent[v][w]]
            for u in range(3) for v in range(3) for w in range(3)
        )
        zd = all(any(ent[u][v] == 0 for v in (1, 2)) for u in (1, 2))
        if assoc and zd:
            count += 1
    return count


def test_seed_complete_graphs():
    spec2 = seed_partial_table(CompleteK(2))
    assert len(spec2.slots) == 2
    assert all(len(d) == 3 for d in spec2.domains)
    spec3 = seed_partial_table(CompleteK(3))
    assert len(spec3.slots) == 3
    assert all(len(d) == 4 for d in spec3.domains)


def test_seed_pendant_census():
    # 2n free cells: pendant square, n-1 pendant products, n clique squares.
    spec = seed_partial_table(CompletePlusEnd(3))
    assert spec.slots == ((4, 4), (2, 4), (3, 4), (1, 1), (2, 2), (3, 3))
    assert [len(d) for d in spec.domains] == [5, 4, 4, 5, 5, 5]
    assert 0 not in spec.domains[1]  # pendant products exclude 0
    assert assignment_count(spec) == 10_000


def test_seed_slot_order_pendant_first():
    spec = seed_partial_table(CompletePlusEnd(4))
    m = 5
    assert spec.slots[0] == (m, m)
    assert spec.slots[1:4] == ((2, m), (3, m), (4, m))
    assert spec.slots[4:] == ((1, 1), (2, 2), (3, 3), (4, 4))


def test_enumerate_k2_labeled():
    expected = brute_force_k2_count()
    assert expected == 6
    assert enumerate_labeled(CompleteK(2)) == 6


def test_enumerate_k1():
    tables = []
    assert enumerate_labeled(CompleteK(1), tables.append) == 1
    assert tables[0].entries == (bytes([0, 0]), bytes([0, 0]))


def test_accepted_tables_are_valid():
    seen = []
    enumerate_labeled(CompletePlusEnd(3), seen.append)
    assert seen
    for t in seen:
        assert is_zd_semigroup(t)
        assert zero_divisors(t) == set(range(1, t.m + 1))
        rec = recognize_target(build_zd_graph(t))
        assert rec.target == CompletePlusEnd(3)


def test_pruning_soundness():
    for target in (CompleteK(2), CompleteK(3), CompletePlusEnd(3)):
        prune_free = sum(
            1
            for t in iter_candidate_tables(seed_partial_table(target))
            if is_zd_semigroup(t) and realizes(t, target) is not None
        )
        assert enumerate_labeled(target) == prune_free


def rescanning_search(target):
    """Reference DFS that rescans every multiset after every assignment.

    It compares all three pairings of every multiset, so it also checks
    that a diagonal slot's two-pairing check prunes what the three would.
    Returns the accepted tables' entries in visit order and the number of
    leaves reached.
    """
    spec = search.seed_partial_table(target)
    graph = target_to_graph(target)
    m = graph.vertex_count
    # The starting grid comes from the graph, not from the package's seed:
    # 0 on the zero row and column and on every edge, unset elsewhere.
    grid = [[0] * (m + 1)] + [[0] + [-1] * m for _ in range(m)]
    for u, v in graph.edges:
        grid[u][v] = grid[v][u] = 0
    multisets = list(itertools.combinations_with_replacement(range(1, m + 1), 3))
    accepted = []
    leaves = 0

    def product(x, y, z):
        """(xy)z, or None while a cell it reads is unset."""
        xy = grid[x][y]
        return None if xy < 0 or grid[xy][z] < 0 else grid[xy][z]

    def violated():
        for u, v, w in multisets:
            known = {product(u, v, w), product(v, w, u), product(u, w, v)} - {None}
            if len(known) > 1:
                return True
        return False

    def descend(depth):
        nonlocal leaves
        if depth == len(spec.slots):
            leaves += 1
            table = MulTable.from_rows(grid)
            if is_zd_semigroup(table):
                rec = recognize_target(build_zd_graph(table))
                if rec is not None and rec.target == target:
                    accepted.append(table.entries)
            return
        u, v = spec.slots[depth]
        for val in spec.domains[depth]:
            grid[u][v] = grid[v][u] = val
            if not violated():
                descend(depth + 1)
        grid[u][v] = grid[v][u] = -1

    descend(0)
    return accepted, leaves


@pytest.mark.parametrize(
    "target",
    [CompleteK(n) for n in range(1, 7)] + [CompletePlusEnd(n) for n in range(3, 6)],
    ids=str,
)
def test_cell_reader_index_prunes_like_a_full_rescan(monkeypatch, target):
    leaves = 0
    counted = search.is_zd_semigroup

    def counting(table):
        nonlocal leaves
        leaves += 1
        return counted(table)

    monkeypatch.setattr(search, "is_zd_semigroup", counting)
    accepted = []
    # The reference has no budget; kn1 n=5 is over it but takes under a second.
    enumerate_labeled(target, lambda t: accepted.append(t.entries), allow_long_run=True)
    assert (accepted, leaves) == rescanning_search(target)


def oracle_run(monkeypatch, target):
    """The oracle's accepted tables' entries in visit order and its leaves reached."""
    leaves = 0
    counted = search.is_zd_semigroup

    def counting(table):
        nonlocal leaves
        leaves += 1
        return counted(table)

    monkeypatch.setattr(search, "is_zd_semigroup", counting)
    accepted = []
    enumerate_labeled(target, lambda t: accepted.append(t.entries), allow_long_run=True)
    return accepted, leaves


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("target", [
    CompleteK(3), CompleteK(4), CompleteK(5), CompletePlusEnd(3), CompletePlusEnd(4),
    pytest.param(CompletePlusEnd(5), id="long_run_kn1_n5", marks=pytest.mark.skipif(
        not os.environ.get("ZDSG_LONG_RUN"),
        reason="the kn1 n=5 random-seed rescans run only under the long-run flag "
               "(set ZDSG_LONG_RUN=1)")),
], ids=str)
def test_forced_cells_prune_like_a_full_rescan_on_random_seeds(monkeypatch, target, seed):
    # The slots come in a random order, and each draws about 4/5 of 0..m in
    # a random order: pendant products may hold 0, a forced value may be
    # missing from its domain, and at kn1 two readers may force different
    # values.
    rng = random.Random(f"{target}-{seed}")
    spec = seed_partial_table(target)
    values = range(target.element_count + 1)
    slots = rng.sample(spec.slots, len(spec.slots))
    domains = tuple(tuple(x for x in rng.sample(values, len(values)) if rng.random() < 0.8)
                    for _ in slots)
    monkeypatch.setattr(search, "seed_partial_table",
                        lambda target: search.SearchSpec(tuple(slots), domains))
    # At every node, an off-diagonal slot's check, which compares only
    # through (uv)w, prunes what comparing all three pairings would; the
    # rescan below compares the leaves only.
    checked = search._partial_violation
    calls = 0

    def three_way(g, triples):
        nonlocal calls
        calls += 1
        violated = checked(g, triples)
        assert violated == any(
            len({g[g[x][y]][z] for x, y, z in ((u, v, w), (v, w, u), (u, w, v))
                 if g[x][y] >= 0 and g[g[x][y]][z] >= 0}) > 1 for u, v, w in triples)
        return violated

    monkeypatch.setattr(search, "_partial_violation", three_way)
    assert oracle_run(monkeypatch, target) == rescanning_search(target)
    assert (calls > 0) == isinstance(target, CompletePlusEnd)


@pytest.mark.skipif(
    not os.environ.get("ZDSG_LONG_RUN"),
    reason="the kn1 n=6 rescan runs only under the long-run flag (set ZDSG_LONG_RUN=1)",
)
def test_cell_reader_index_prunes_like_a_full_rescan_long_run_kn1_n6(monkeypatch):
    assert oracle_run(monkeypatch, CompletePlusEnd(6)) == rescanning_search(CompletePlusEnd(6))


def test_oracle_leaves_check_the_graph(monkeypatch):
    # A zero at (2, m) adds the edge 2 - m, so the leaves must refuse it.
    seed = search.seed_partial_table

    def widened(target):
        spec = seed(target)
        m = target.element_count
        domains = tuple((0, *domain) if slot == (2, m) else domain
                        for slot, domain in zip(spec.slots, spec.domains))
        return search.SearchSpec(spec.slots, domains)

    monkeypatch.setattr(search, "seed_partial_table", widened)
    assert enumerate_labeled(CompletePlusEnd(3)) == 36
    assert enumerate_labeled(CompletePlusEnd(4)) == 167


def test_visitor_order_deterministic():
    first, second = [], []
    enumerate_labeled(CompletePlusEnd(3), lambda t: first.append(t.entries))
    enumerate_labeled(CompletePlusEnd(3), lambda t: second.append(t.entries))
    assert first == second


def test_root_restriction_pendant_square_attach():
    # Pendant square fixed to the neighbor.  Independent recount: the
    # pendant products are forced to the neighbor and each remaining
    # square lies in {0, neighbor}, so 2^(n-1) labelled tables at n=3.
    # (The originally tabulated single table is the all-zero-squares one;
    # the workbench reports that deviation, see the attach-case finding.)
    seen = []
    enumerate_labeled(CompletePlusEnd(3), seen.append)
    seen = [t for t in seen if t.entries[4][4] == 1]
    assert len(seen) == 4
    for t in seen:
        assert t.entries[2][4] == t.entries[3][4] == 1
        assert t.entries[1][1] == 0
        assert t.entries[2][2] in (0, 1) and t.entries[3][3] in (0, 1)


def test_budget_refusal():
    assert assignment_count(seed_partial_table(CompletePlusEnd(5))) > DESK_SCALE_LIMIT
    with pytest.raises(BudgetError):
        enumerate_labeled(CompletePlusEnd(5))
    with pytest.raises(BudgetError):
        oracle_classes(CompletePlusEnd(5))


def test_budget_gate_at_n4000_builds_no_seed(monkeypatch, capsys):
    # the prune-free leaf count comes from the domain sizes alone
    def refuse(spec):
        raise AssertionError("the budget gate built the seed grid")

    monkeypatch.setattr(search, "_seed_grid", refuse)
    target = CompletePlusEnd(4000)
    assert not search.fits_budget(target)
    message = ("more than 10^28817 assignments for CompletePlusEnd(n=4000) exceeds the "
               f"desk-scale limit ({DESK_SCALE_LIMIT}); rerun with the long-run flag to proceed")
    with pytest.raises(BudgetError) as refusal:
        search.check_budget(target, allow_long_run=False)
    assert str(refusal.value) == message
    assert main(["count", "--graph", "kn1", "--n", "4000", "--method", "oracle"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("power, offset, text", [
    (100, -1, "9" * 100),
    (100, 0, "more than 10^99"),
    (100, 1, "more than 10^100"),
    # the float log10 rounds up to 5000 here, and the loop corrects it
    (5000, -1, "more than 10^4999"),
])
def test_leaf_count_text_is_decimal_or_the_largest_power_of_ten_below(power, offset, text):
    assert search._decimal(10**power + offset) == text


@pytest.mark.parametrize(
    "target",
    [CompleteK(n) for n in range(1, 7)] + [CompletePlusEnd(n) for n in range(2, 7)],
    ids=str,
)
def test_seed_zeros_are_the_target_edges(target):
    # every off-diagonal cell outside the slots holds 0, so those cells
    # must be exactly the target's edges
    spec = seed_partial_table(target)
    m = target.element_count
    free = {tuple(sorted(slot)) for slot in spec.slots}
    zeros = {(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)} - free
    assert zeros == target_to_graph(target).edges
    assert len(free) == len(spec.slots) == len(spec.domains)
    assert search._seed_grid(spec) == [
        [-1 if (min(u, v), max(u, v)) in free else 0 for v in range(m + 1)]
        for u in range(m + 1)
    ]


@pytest.mark.parametrize("target, recognition", [
    (CompleteK(3), Recognition(CompleteK(3), None, None)),
    (CompletePlusEnd(3), Recognition(CompletePlusEnd(3), 4, 1)),
])
def test_every_candidate_has_the_seed_graph(target, recognition):
    # every completion of a seed has the seed's labelled graph
    candidates = list(iter_candidate_tables(seed_partial_table(target)))
    assert len(candidates) == assignment_count(seed_partial_table(target))
    assert {realizes(t, target) for t in candidates} == {recognition}


def test_budget_allows_pendant_4():
    assert assignment_count(seed_partial_table(CompletePlusEnd(4))) <= DESK_SCALE_LIMIT


def test_iter_candidates_counts_all():
    spec = seed_partial_table(CompleteK(2))
    assert sum(1 for _ in iter_candidate_tables(spec)) == 9


def test_oracle_classes_k3():
    catalog = oracle_classes(CompleteK(3))
    assert catalog.class_count == 7
    assert catalog.labeled_count == enumerate_labeled(CompleteK(3))


@pytest.mark.parametrize("target, labelled", [
    (CompleteK(3), 23), (CompleteK(4), 104), (CompleteK(5), 537),
    (CompletePlusEnd(3), 36), (CompletePlusEnd(4), 167),
])
def test_oracle_classes_obey_orbit_stabilizer(target, labelled):
    # multiplicity * |Aut(T)| = |Aut(G)| per class, with |Aut(T)| counted by
    # brute force over all m! relabelings, so no canonical form is trusted
    m = target.element_count
    if isinstance(target, CompleteK):
        aut_g = math.factorial(target.n)
    else:
        aut_g = math.factorial(target.n - 1)
    total = 0
    for entry in oracle_classes(target).entries():
        rep = entry.representative
        aut_t = sum(
            permute_table(rep, (0, *perm)) == rep
            for perm in itertools.permutations(range(1, m + 1))
        )
        assert entry.multiplicity * aut_t == aut_g
        total += aut_g // aut_t
    assert total == labelled == enumerate_labeled(target)


# the streams that an OrbitKeyer keys: the oracle's and two generators'
ORBIT_KEYED_STREAMS = {
    **{str(target): partial(oracle_classes, target)
       for target in (CompleteK(4), CompleteK(5), CompletePlusEnd(3), CompletePlusEnd(4))},
    **{f"generate_pendant_square_self(n={n})": partial(generate_pendant_square_self, n)
       for n in (3, 4, 5)},
    **{f"generate_pendant_square_other(n={n})": partial(generate_pendant_square_other, n)
       for n in (3, 4, 5, 6)},
}


@pytest.mark.parametrize("stream", ORBIT_KEYED_STREAMS.values(), ids=ORBIT_KEYED_STREAMS)
def test_oracle_keys_one_table_per_class(monkeypatch, stream):
    # the keyer lists each whole orbit from its first table, so only that
    # table reaches canonical_form
    calls = 0
    real = classify.canonical_form

    def counted(table):
        nonlocal calls
        calls += 1
        return real(table)

    monkeypatch.setattr(classify, "canonical_form", counted)
    assert stream().class_count == calls


@pytest.mark.parametrize("target", [CompleteK(4), CompletePlusEnd(3), CompletePlusEnd(4)])
@pytest.mark.parametrize("fault", ["drop", "repeat", "repeat-first"])
def test_oracle_refuses_an_orbit_with_a_missing_or_repeated_table(monkeypatch, target, fault):
    # a later table dropped or repeated leaves its orbit open; the first
    # table of an orbit repeated is refused as soon as it comes again
    tables = []
    enumerate_labeled(target, tables.append)
    by_key = {}
    for table in tables:
        by_key.setdefault(canonical_form(table), []).append(table)
    first = fault == "repeat-first"
    odd = next(orbit[0 if first else 1] for orbit in by_key.values() if len(orbit) > 1)
    real = search.enumerate_labeled

    def faulty(target, visitor, **kwargs):
        def visit(table):
            for _ in range((0 if fault == "drop" else 2) if table == odd else 1):
                visitor(table)
        return real(target, visit, **kwargs)

    monkeypatch.setattr(search, "enumerate_labeled", faulty)
    with pytest.raises(RuntimeError, match="emitted twice" if first else "not closed under relabeling"):
        oracle_classes(target)


@pytest.mark.skipif(
    not os.environ.get("ZDSG_LONG_RUN"),
    reason="the kn n=8 oracle runs only under the long-run flag (set ZDSG_LONG_RUN=1)",
)
def test_oracle_kn8_long_run():
    catalog = oracle_classes(CompleteK(8), allow_long_run=True)
    assert catalog.class_count == clique_class_count(8) == 67
    assert catalog.labeled_count == 136_064
