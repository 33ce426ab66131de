import hashlib
import itertools
import math
import os
from collections import Counter

import pytest

from pendant_reference import class_key, pendant_reference
from zdsemigroups import counting, graphs, reports
from zdsemigroups.classify import ClassCatalog, canonical_form, key_to_hex
from zdsemigroups.counting import (
    TABULATED_COUNTS,
    check_clique_squares,
    clique_class_count,
    count_partitions_exact,
    fixed_points_formula,
    generate_clique_classes,
    generate_pendant_square_attach,
    generate_pendant_square_other,
    generate_pendant_square_self,
    generate_pendant_square_zero,
    iter_partitions_exact,
    pendant_case_breakdown,
    pendant_conditions_hold,
    pendant_square_case,
    pendant_self_formula,
    pendant_total_formula,
    self_stratum_counts,
)
from zdsemigroups.errors import UsageError
from zdsemigroups.graphs import CompleteK, CompletePlusEnd, build_zd_graph, recognize_target
from zdsemigroups.search import enumerate_labeled, iter_candidate_tables, seed_partial_table
from zdsemigroups.tables import MulTable, check_associativity, permute_table


def partitions_by_largest_part(total, parts):
    """Independent enumeration: weakly decreasing parts, largest first."""
    def rec(remaining, count, cap):
        if count == 0:
            return 1 if remaining == 0 else 0
        return sum(
            rec(remaining - first, count - 1, first)
            for first in range(1, min(cap, remaining) + 1)
        )
    return rec(total, parts, total)


def clique_table(diag):
    n = len(diag)
    grid = [[0] * (n + 1) for _ in range(n + 1)]
    for i, sq in enumerate(diag, start=1):
        grid[i][i] = sq
    return MulTable.from_rows(grid)


def test_partition_examples():
    assert count_partitions_exact(1, 1) == 1
    assert count_partitions_exact(4, 2) == 2  # 1+3, 2+2
    assert count_partitions_exact(3, 2) == 1  # 1+2


def test_partition_recurrence_vs_independent_enumeration():
    for total in range(1, 16):
        for parts in range(1, total + 1):
            assert count_partitions_exact(total, parts) == partitions_by_largest_part(total, parts)


def test_partition_iterator_matches_count():
    for total in range(1, 12):
        for parts in range(0, total + 1):
            listed = list(iter_partitions_exact(total, parts))
            assert len(listed) == count_partitions_exact(total, parts)
            for p in listed:
                assert sum(p) == total and len(p) == parts
                assert all(a <= b for a, b in zip(p, p[1:]))


def test_clique_class_count_values():
    assert clique_class_count(3) == 7
    assert clique_class_count(4) == 12
    # expand the double sum by hand at n=2: p(2,1) + p(1,1) + p(2,2) + 1
    assert clique_class_count(2) == 1 + 1 + 1 + 1 == 4
    assert clique_class_count(1) == 2


@pytest.mark.parametrize("refused", [clique_class_count, generate_clique_classes])
def test_clique_counts_refuse_size_0_with_their_own_message(refused):
    with pytest.raises(UsageError, match="clique size must be >= 1"):
        refused(0)


def test_clique_class_count_matches_listed_partitions_up_to_40():
    listed = {
        (total, parts): sum(1 for _ in iter_partitions_exact(total, parts))
        for total in range(1, 41)
        for parts in range(1, total + 1)
    }
    for n in range(1, 41):
        expected = 1 + sum(
            listed[n - t, k] for k in range(1, n + 1) for t in range(0, n - k + 1)
        )
        assert clique_class_count(n) == expected


def partition_numbers(limit):
    """p(0..limit) by Euler's pentagonal number recurrence, independent of parts."""
    p = [1] + [0] * limit
    for j in range(1, limit + 1):
        k = 1
        while (pentagonal := k * (3 * k - 1) // 2) <= j:
            sign = 1 if k % 2 else -1
            p[j] += sign * p[j - pentagonal]
            if pentagonal + k <= j:
                p[j] += sign * p[j - pentagonal - k]
            k += 1
    return p


def test_clique_class_count_at_large_n_needs_no_deep_recursion():
    # The double sum adds p(j) over 1 <= j <= n.  A recursive recurrence
    # overflows the interpreter's stack near n = 500.
    assert clique_class_count(600) == sum(partition_numbers(600)[1:]) + 1
    assert count_partitions_exact(600, 300) == partition_numbers(300)[300]


def test_clique_generator_matches_formula_up_to_8():
    for n in range(1, 9):
        assert generate_clique_classes(n).class_count == clique_class_count(n)


# sha256 of the newline-joined hex keys of generate_clique_classes(n): at
# n=12 and 13 as the canonical search gave them before it pruned by
# automorphisms, at n=9 and 10 as it gave them with an orbit cut and a
# jump-back cut.  The key is a minimum, so no pruning may change it.
CLIQUE_KEYS_SHA256 = {
    9: "573095562c1e3954d1e6787a7c397578a7e6dfd985cc5cb0fdcec3a562f88d08",
    10: "369a3b8679ca8b41677d6036ee2f074008b3bcbc0d5c6a0d3f41c3712042d8d9",
    12: "d75db80e36e796d211d4b9621d085b2992746483db041f64c978905d2ce55718",
    13: "23802f6a7aef2081703d5ea5c4d9f7b598510d0989fbe9f51e70cca035ef2c00",
}


def clique_keys_sha256(n):
    keys = "\n".join(map(key_to_hex, generate_clique_classes(n).keys()))
    return hashlib.sha256(keys.encode()).hexdigest()


@pytest.mark.parametrize("n", [9, 10])
def test_clique_generator_keys_are_unchanged(n):
    # about 0.3 s together, so a change to the canonical search fails tier-1
    assert clique_keys_sha256(n) == CLIQUE_KEYS_SHA256[n]


@pytest.mark.skipif(
    not os.environ.get("ZDSG_LONG_RUN"),
    reason="the n=12 and n=13 generators run only under the long-run flag (set ZDSG_LONG_RUN=1)",
)
@pytest.mark.parametrize("n", [12, 13])
def test_clique_generator_keys_are_unchanged_long_run(n):
    assert clique_keys_sha256(n) == CLIQUE_KEYS_SHA256[n]


@pytest.mark.skipif(
    not os.environ.get("ZDSG_LONG_RUN"),
    reason="the n=15 generator runs only under the long-run flag (set ZDSG_LONG_RUN=1)",
)
def test_clique_generator_matches_formula_long_run_n15():
    # 15 is the largest size that hex keys allow
    assert generate_clique_classes(15).class_count == clique_class_count(15) == 684


def test_clique_generator_matches_oracle():
    from zdsemigroups.search import oracle_classes

    for n in (2, 3, 4):
        assert generate_clique_classes(n).keys() == oracle_classes(CompleteK(n)).keys()


def clique_labelled_count(n):
    """Labelled kn tables in closed form: k nilpotents, t idempotents, and
    each of the other n-k-t elements squaring to one of the k nilpotents."""
    return sum(math.comb(n, k) * math.comb(n - k, t) * k ** (n - k - t)
               for k in range(n + 1) for t in range(n - k + 1))


def test_clique_labelled_count_closed_form_matches_oracle():
    # no canonical form on either side
    counts = [enumerate_labeled(CompleteK(n)) for n in range(2, 7)]
    assert counts == [clique_labelled_count(n) for n in range(2, 7)] == [6, 23, 104, 537, 3100]
    # at n=1 the closed form counts the all-idempotent table 1*1 = 1, which has no zero divisor
    assert (clique_labelled_count(1), enumerate_labeled(CompleteK(1))) == (2, 1)


def pendant_labelled_counts(n):
    """Labelled kn1 tables of each case in closed form, from the cases' conditions.

    zero and attach: each of the n-1 other clique elements squares to 0 or
    the neighbor.  x*x = j, for each of the n-1 choices of j: with j*x the
    neighbor or j, the n-2 others square freely; with j*x one of the n-2
    others, that one squares to 0.  x*x = x: r fixed elements, z of them
    squaring to 0 and the rest to themselves or one of the z; each of the
    n-1-r others is sent to one of the z and squares to 0 or the neighbor,
    and the neighbor squares to itself too when none of them does.
    """
    pointer = 2 ** (n - 1)
    self_count = sum(
        math.comb(n - 1, r) * math.comb(r, z) * (1 + z) ** (r - z)
        * ((2 * z) ** (n - 1 - r) + z ** (n - 1 - r))  # 0 ** 0 == 1
        for r in range(1, n) for z in range(r + 1))
    other = (n - 1) * (2 ** (n - 1) + (n - 2) * 2 ** (n - 3))
    return {"zero": pointer, "self": self_count, "attach": pointer, "other": other}


def oracle_labelled_counts(n):
    """The oracle's leaves counted by the pendant's square, with no classification."""
    m = n + 1
    squares = Counter()
    enumerate_labeled(CompletePlusEnd(n), lambda t: squares.update((t.entries[m][m],)),
                      allow_long_run=True)
    cases = {0: "zero", m: "self", 1: "attach"}
    counts = dict.fromkeys(("zero", "self", "attach", "other"), 0)
    for square, count in squares.items():
        counts[cases.get(square, "other")] += count
    return counts


PENDANT_LABELLED = {  # n: (zero, self, attach, other), total
    3: ((4, 18, 4, 10), 36), 4: ((8, 115, 8, 36), 167), 5: ((16, 880, 16, 112), 1024),
    6: ((32, 7969, 32, 320), 8353), 7: ((64, 83768, 64, 864), 84760),
}


def _assert_pendant_labelled_counts_match_oracle(n):
    counts = pendant_labelled_counts(n)
    assert oracle_labelled_counts(n) == counts
    per_case, total = PENDANT_LABELLED[n]
    assert tuple(counts.values()) == per_case and sum(per_case) == total


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_pendant_labelled_counts_closed_form_match_oracle(n):
    _assert_pendant_labelled_counts_match_oracle(n)


@pytest.mark.skipif(
    not os.environ.get("ZDSG_LONG_RUN"),
    reason="the kn1 n=7 oracle runs only under the long-run flag (set ZDSG_LONG_RUN=1)",
)
def test_pendant_labelled_counts_closed_form_match_oracle_long_run_n7():
    _assert_pendant_labelled_counts_match_oracle(7)


def automorphism_count(table):
    """|Aut(T)| by brute force: relabelings p of 1..m with p(uv) = p(u)p(v)."""
    ent, m = table.entries, table.m
    cells = [(u, v) for u in range(1, m + 1) for v in range(u, m + 1)]
    return sum(
        all(ent[p[u]][p[v]] == p[ent[u][v]] for u, v in cells)
        for p in ((0, *images) for images in itertools.permutations(range(1, m + 1)))
    )


@pytest.mark.parametrize("target, labelled", [
    *((CompleteK(n), count) for n, count in zip(range(2, 7), (6, 23, 104, 537, 3100))),
    *((CompletePlusEnd(n), count) for n, count in zip(range(3, 6), (36, 167, 1024))),
], ids=str)
def test_orbit_stabilizer_over_generator_classes_gives_the_labelled_count(target, labelled):
    # each class is one orbit of Aut(G) on the labelled tables, of size |Aut(G)| / |Aut(T)|;
    # Aut(G) is S_n for K_n and S_{n-1} for K_n plus a pendant (n >= 3)
    if isinstance(target, CompleteK):
        catalog, group_order = generate_clique_classes(target.n), math.factorial(target.n)
    else:
        catalog, group_order = pendant_case_breakdown(target.n).merged_catalog(), math.factorial(target.n - 1)
    orbit_sizes = [group_order // automorphism_count(e.representative) for e in catalog.entries()]
    # kn1 n=5 passes the budget gate only as a long run; its pruned search takes milliseconds
    assert sum(orbit_sizes) == enumerate_labeled(target, allow_long_run=True) == labelled


def test_clique_generator_checks_the_graph(monkeypatch):
    # associative, but its graph is the path 1 - 3 - 2, not the triangle
    path = MulTable.from_rows([[0, 0, 0, 0], [0, 1, 2, 0], [0, 2, 0, 0], [0, 0, 0, 0]])
    assert check_associativity(path) is None
    monkeypatch.setattr(counting, "_iter_clique_profile_tables", lambda n: iter([path]))
    with pytest.raises(RuntimeError, match="does not realize"):
        generate_clique_classes(3)


def test_clique_generator_checks_associativity(monkeypatch):
    # its graph is the triangle, but (1 * 1) * 2 = 2 while 1 * (1 * 2) = 0
    table = MulTable.from_cells(3, [((1, 1), 2), ((2, 2), 2)])
    monkeypatch.setattr(counting, "_iter_clique_profile_tables", lambda n: iter([table]))
    with pytest.raises(RuntimeError) as error:
        generate_clique_classes(3)
    assert "AssocWitness(u=1, v=1, w=2, lhs=2, rhs=0)" in str(error.value)


def test_check_clique_squares():
    assert check_clique_squares(clique_table([0, 0, 0]))
    assert check_clique_squares(clique_table([2, 0, 0]))
    bad = clique_table([2, 2, 0])  # 1 points at 2, but 2 is idempotent
    assert not check_clique_squares(bad)
    assert check_associativity(bad) is not None


def test_clique_equivalence_exhaustive_n3():
    # over the forced zero pattern: associative iff the square conditions hold
    spec = seed_partial_table(CompleteK(3))
    for table in iter_candidate_tables(spec):
        assert (check_associativity(table) is None) == check_clique_squares(table)


# ---------------------------------------------------------------------------
# pendant cases


def test_pendant_case_of_a_clique_table_is_a_usage_error():
    # K_4 is no complete graph plus a pendant, and K_2 (m = 2) is too small to be one
    for table in (clique_table([0, 0, 0, 0]), clique_table([0, 0])):
        with pytest.raises(UsageError, match="does not realize a complete graph with one pendant"):
            pendant_square_case(table)


def test_zero_case_counts_and_validity():
    for n in (3, 4):
        catalog = generate_pendant_square_zero(n)
        assert catalog.class_count == n
        for entry in catalog.entries():
            assert check_associativity(entry.representative) is None
            rec = recognize_target(build_zd_graph(entry.representative))
            assert rec.target == CompletePlusEnd(n)


def test_zero_case_requires_n3():
    with pytest.raises(UsageError):
        generate_pendant_square_zero(2)


def test_attach_case_counts():
    # corrected family: n classes, the all-nilpotent table being the
    # single originally tabulated class
    for n in (3, 4, 5):
        catalog = generate_pendant_square_attach(n)
        assert catalog.class_count == n
        for entry in catalog.entries():
            assert check_associativity(entry.representative) is None
    assert TABULATED_COUNTS["pendant_attach"] == 1  # the refuted claim


def test_attach_case_matches_oracle():
    from zdsemigroups.search import oracle_classes

    for n in (3, 4):
        oracle = oracle_classes(CompletePlusEnd(n))
        oracle_attach = {
            e.key for e in oracle.entries()
            if pendant_square_case(e.representative) == "attach"
        }
        assert set(generate_pendant_square_attach(n).keys()) == oracle_attach


def test_other_case_counts():
    for n in (3, 4, 5):
        catalog = generate_pendant_square_other(n)
        assert catalog.class_count == 3 * n - 4


def test_self_case_small_counts():
    result3 = generate_pendant_square_self(3)
    assert result3.by_fixed_points == {1: 3, 2: 8}
    assert result3.class_count == 11
    result4 = generate_pendant_square_self(4)
    assert result4.by_fixed_points == {1: 4, 2: 9, 3: 14}
    assert result4.class_count == 27


def test_self_case_strata_sum():
    for n in (3, 4, 5):
        result = generate_pendant_square_self(n)
        assert sum(result.by_fixed_points.values()) == result.class_count


def test_check_self_case_examples():
    # n=3, x*x = x, both clique elements fixed is not required: 3 -> 2
    def self_table(p2, p3, d1, d2, d3):
        grid = [[0] * 5 for _ in range(5)]
        grid[4][4] = 4
        grid[2][4] = grid[4][2] = p2
        grid[3][4] = grid[4][3] = p3
        grid[1][1], grid[2][2], grid[3][3] = d1, d2, d3
        table = MulTable.from_rows(grid)
        assert pendant_square_case(table) == "self"
        return table

    assert pendant_conditions_hold(self_table(2, 2, 0, 0, 0))
    # pendant product equal to the neighbor violates condition (1)
    assert not pendant_conditions_hold(self_table(1, 2, 0, 0, 0))
    # non-fixed target must square to zero
    assert not pendant_conditions_hold(self_table(3, 3, 0, 0, 3))


def test_check_zero_and_attach_cases():
    def pendant_table(case, xsq, products, diag):
        n = len(diag)
        grid = [[0] * (n + 2) for _ in range(n + 2)]
        m = n + 1
        grid[m][m] = xsq
        for i, p in zip(range(2, n + 1), products):
            grid[i][m] = grid[m][i] = p
        for i, d in enumerate(diag, start=1):
            grid[i][i] = d
        table = MulTable.from_rows(grid)
        assert pendant_square_case(table) == case
        return table

    assert pendant_conditions_hold(pendant_table("zero", 0, [1, 1], [0, 0, 1]))
    assert not pendant_conditions_hold(pendant_table("zero", 0, [1, 2], [0, 0, 0]))
    assert pendant_conditions_hold(pendant_table("attach", 1, [1, 1], [0, 1, 0]))
    assert not pendant_conditions_hold(pendant_table("attach", 1, [1, 1], [0, 2, 0]))


def _equivalence_by_definition(n):
    """Candidates of the n pendant pattern where associativity and the conditions disagree."""
    return [
        t for t in iter_candidate_tables(seed_partial_table(CompletePlusEnd(n)))
        if (check_associativity(t) is None) != pendant_conditions_hold(t)
    ]


def test_pendant_equivalence_exhaustive_n3():
    # over the forced pendant pattern at n=3: associative iff conditions
    assert reports._equivalence_counterexamples(3) == []


def test_equivalence_row_equals_its_definition_under_a_wrong_check(monkeypatch):
    # with the x*x = x check negated, the row lists the tables where associativity
    # and the conditions disagree, which are exactly the x*x = x candidates
    holds = counting._CASE_HOLDS["self"]
    monkeypatch.setitem(counting._CASE_HOLDS, "self", lambda *args: not holds(*args))
    definition = _equivalence_by_definition(3)
    candidates = iter_candidate_tables(seed_partial_table(CompletePlusEnd(3)))
    assert definition == [t for t in candidates if pendant_square_case(t) == "self"]
    assert reports._equivalence_counterexamples(3) == definition


def test_equivalence_row_recognizes_each_zero_pattern_once(monkeypatch):
    candidates = list(iter_candidate_tables(seed_partial_table(CompletePlusEnd(3))))
    patterns = {tuple(tuple(x == 0 for x in row) for row in t.entries) for t in candidates}
    calls = []

    def counted(graph):
        calls.append(graph)
        return recognize_target(graph)

    monkeypatch.setattr(graphs, "_recognitions", {})
    monkeypatch.setattr(graphs, "recognize_target", counted)
    assert reports._equivalence_counterexamples(3) == []
    assert len(candidates) == 10_000 and len(calls) == len(patterns) == 16


def test_equivalence_row_judges_each_candidate_by_its_own_graph(monkeypatch):
    seeded = reports.iter_candidate_tables
    # the same candidates again with the neighbor relabelled 2: still no counterexample
    relabelled = lambda spec: (permute_table(t, [0, 2, 1, 3, 4]) for t in seeded(spec))
    monkeypatch.setattr(reports, "iter_candidate_tables",
                        lambda spec: itertools.chain(seeded(spec), relabelled(spec)))
    assert reports._equivalence_counterexamples(3) == []
    # a candidate whose graph is K4, not a clique plus a pendant, is refused
    monkeypatch.setattr(reports, "iter_candidate_tables",
                        lambda spec: itertools.chain(seeded(spec), [MulTable.from_cells(4, [])]))
    with pytest.raises(UsageError, match="does not realize a complete graph with one pendant"):
        reports._equivalence_counterexamples(3)


def test_pendant_conditions_recognize_the_graph_once(monkeypatch):
    # every 7th candidate of n=3 covers all four cases, passing and failing;
    # the graph is recognized once per distinct zero pattern, not per table
    tables = list(itertools.islice(iter_candidate_tables(seed_partial_table(CompletePlusEnd(3))),
                                   0, None, 7))
    expected = [check_associativity(t) is None for t in tables]
    patterns = {tuple(tuple(x == 0 for x in row) for row in t.entries) for t in tables}
    calls = []

    def counted(graph):
        calls.append(graph)
        return recognize_target(graph)

    monkeypatch.setattr(graphs, "_recognitions", {})
    monkeypatch.setattr(graphs, "recognize_target", counted)
    assert [pendant_conditions_hold(t) for t in tables] == expected
    assert len(tables) == 1429 and len(calls) == len(patterns) < len(tables)


def _keyed_reference(n, key_of):
    """Self-case catalog and strata with every table keyed by ``key_of``."""
    catalog = ClassCatalog()
    key_fixed = {}
    for table, r in counting._iter_self_case_tables(n):
        key = key_of(table)
        catalog.insert(table, key=key)
        key_fixed[key] = r
    return catalog, dict(sorted(Counter(key_fixed.values()).items()))


@pytest.mark.parametrize("n", (3, 4, 5))
def test_self_orbit_keys_match_canonical_form(n):
    result = generate_pendant_square_self(n)
    got = [(e.key, e.multiplicity) for e in result.catalog.entries()]
    key_ofs = [canonical_form]
    if n <= 4:
        key_ofs.append(lambda t: class_key(t.entries))
    for key_of in key_ofs:
        catalog, by_fixed_points = _keyed_reference(n, key_of)
        assert got == [(e.key, e.multiplicity) for e in catalog.entries()]
        assert result.by_fixed_points == by_fixed_points


def test_self_generator_refuses_an_orbit_with_a_missing_table(monkeypatch):
    tables = list(counting._iter_self_case_tables(4))
    by_key = {}
    for index, (table, _) in enumerate(tables):
        by_key.setdefault(canonical_form(table), []).append(index)
    dropped = next(indexes[1] for indexes in by_key.values() if len(indexes) > 1)
    kept = tables[:dropped] + tables[dropped + 1:]
    monkeypatch.setattr(counting, "_iter_self_case_tables", lambda n: iter(kept))
    with pytest.raises(RuntimeError, match="not closed under relabeling"):
        generate_pendant_square_self(4)


@pytest.mark.parametrize("fault", ["drop", "repeat", "repeat-first"])
def test_other_generator_refuses_an_orbit_with_a_missing_or_repeated_table(monkeypatch, fault):
    # At n=4 with 2x = 1, the table with squares (2*2, 3*3, 4*4) = (0, 1, 0)
    # is listed after (0, 0, 1), its image under (3 4): the second table of
    # its orbit, so dropping it or listing it twice leaves the orbit open.
    # Listing the first table, (0, 0, 1), twice would count its class
    # twice (13 tables instead of 12), so the keyer refuses it at once.
    odd, copies = {"drop": ((0, 1, 0), 0), "repeat": ((0, 1, 0), 2),
                   "repeat-first": ((0, 0, 1), 2)}[fault]
    real = counting._listed

    def faulty(*args):
        for table in real(*args):
            squares = tuple(table.entries[i][i] for i in (2, 3, 4))
            for _ in range(copies if squares == odd else 1):
                yield table

    monkeypatch.setattr(counting, "_listed", faulty)
    error = ("a table was emitted twice" if fault == "repeat-first"
             else "x\\*x = 2 tables are not closed under relabeling")
    with pytest.raises(RuntimeError, match=error):
        generate_pendant_square_other(4)


def test_self_generator_refuses_a_fixed_point_count_that_varies_on_a_class(monkeypatch):
    tables = counting._iter_self_case_tables

    def shifted(n):
        for index, (table, r) in enumerate(tables(n)):
            yield table, r + (index > 0)

    monkeypatch.setattr(counting, "_iter_self_case_tables", shifted)
    with pytest.raises(RuntimeError, match="fixed-point count is not constant on a class"):
        generate_pendant_square_self(4)


def _assert_generators_list_the_oracle_leaves(monkeypatch, n, self_count, other_count):
    """Table by table, with no canonical form: every oracle leaf meets its
    case's conditions, the x*x = x iterator yields exactly the leaves with
    x*x = x, the other-case generator inserts exactly those with x*x = 2,
    and every table the zero and attach generators insert is a leaf."""
    m = n + 1
    leaves = []
    enumerate_labeled(CompletePlusEnd(n), leaves.append, allow_long_run=True)
    assert all(map(pendant_conditions_hold, leaves))
    leaf_codes = {table.code for table in leaves}
    assert len(leaf_codes) == len(leaves)

    def leaf_codes_with_square(square):
        return sorted(table.code for table in leaves if table.entries[m][m] == square)

    self_codes = sorted(table.code for table, _ in counting._iter_self_case_tables(n))
    assert len(self_codes) == self_count
    assert self_codes == leaf_codes_with_square(m)

    validated = counting._validated
    inserted = []
    monkeypatch.setattr(counting, "_validated",
                        lambda table, target: inserted.append(table.code) or validated(table, target))
    generate_pendant_square_other(n)
    assert len(inserted) == other_count
    assert sorted(inserted) == leaf_codes_with_square(2)
    inserted.clear()
    generate_pendant_square_zero(n)
    generate_pendant_square_attach(n)
    assert len(inserted) == 2 * n
    assert set(inserted) <= leaf_codes


@pytest.mark.parametrize("n, self_count, other_count", [(3, 18, 5), (4, 115, 12), (5, 880, 28)])
def test_generators_list_the_oracle_leaves_table_by_table(monkeypatch, n, self_count, other_count):
    _assert_generators_list_the_oracle_leaves(monkeypatch, n, self_count, other_count)


@pytest.mark.skipif(
    not os.environ.get("ZDSG_LONG_RUN"),
    reason="the kn1 n=6 oracle leaves are listed only under the long-run flag (set ZDSG_LONG_RUN=1)",
)
def test_generators_list_the_oracle_leaves_long_run_n6(monkeypatch):
    _assert_generators_list_the_oracle_leaves(monkeypatch, 6, 7969, 64)


# (count, sha256 of the newline-joined hex codes, sorted) of the tables each
# pendant generator passes to _validated, at n=6 and 7, as the generators
# gave them when they built each table from a list of cells.  Only the
# writer of the rows changed since, so no pin may move.
PENDANT_TABLES_SHA256 = {
    6: {
        "self": (7969, "e12256a18bebd590ddc63d23576d1068c7992e7eebde615b972e70965b59ae21"),
        "other": (64, "01f6c18bca6ecbcc2a7ef2219059b62a19e8f02f9988a200654af3cd98dc3b3c"),
        "zero": (6, "26cd6e2978087bc226fd3dc59b0f95f40df8c11f2f9867500094e01b360c5e79"),
        "attach": (6, "eaec7a260a219ad364d8aa2b366e892aa688950518268f3fbdc1814ce95cf1ba"),
    },
    7: {
        "self": (83768, "b051f8c09662e483202963a68762cb7c4299ac79e64d714fd21cdf0d10af32be"),
        "other": (144, "3d904f1ded11392d30708f5ef465e075f010cbc42a721a3562282f1f4854cb42"),
    },
}
PENDANT_GENERATORS = {
    "self": generate_pendant_square_self,
    "other": generate_pendant_square_other,
    "zero": generate_pendant_square_zero,
    "attach": generate_pendant_square_attach,
}


def pendant_tables_sha256(monkeypatch, case, n):
    validated = counting._validated
    codes = []
    monkeypatch.setattr(counting, "_validated",
                        lambda table, target: codes.append(table.code) or validated(table, target))
    PENDANT_GENERATORS[case](n)
    return len(codes), hashlib.sha256("\n".join(sorted(code.hex() for code in codes)).encode()).hexdigest()


@pytest.mark.parametrize("case", PENDANT_TABLES_SHA256[6])
def test_pendant_generator_tables_are_unchanged(monkeypatch, case):
    # about 0.2 s together, so a change to the row writer fails tier-1
    assert pendant_tables_sha256(monkeypatch, case, 6) == PENDANT_TABLES_SHA256[6][case]


@pytest.mark.skipif(
    not os.environ.get("ZDSG_LONG_RUN"),
    reason="the n=7 generators run only under the long-run flag (set ZDSG_LONG_RUN=1)",
)
@pytest.mark.parametrize("case", PENDANT_TABLES_SHA256[7])
def test_pendant_generator_tables_are_unchanged_long_run(monkeypatch, case):
    assert pendant_tables_sha256(monkeypatch, case, 7) == PENDANT_TABLES_SHA256[7][case]


def test_case_catalogs_pairwise_disjoint():
    for n in (3, 4):
        breakdown = pendant_case_breakdown(n)
        key_sets = [set(c.keys()) for c in breakdown.catalogs.values()]
        for a, b in itertools.combinations(key_sets, 2):
            assert not (a & b)


def test_breakdown_total_and_merged():
    breakdown = pendant_case_breakdown(3)
    assert breakdown.total == sum(breakdown.case_counts.values())
    assert breakdown.merged_catalog().class_count == breakdown.total


def test_fixed_points_formula_values():
    assert fixed_points_formula(4, 1) == 4
    assert fixed_points_formula(4, 2) == 9
    assert fixed_points_formula(4, 3) == 2 * clique_class_count(3) == 14
    # the conflicting pair at n=3, r=2: piecewise value preferred
    assert fixed_points_formula(3, 2) == 3
    with pytest.raises(UsageError):
        fixed_points_formula(4, 4)
    with pytest.raises(UsageError):
        fixed_points_formula(4, 0)


def r2_stratum_closed_form(n):
    """The r=2 stratum count of the ``counting`` docstring, with s = n - 3."""
    s = n - 3
    pairs = (math.comb(s + 3, 3) + (s % 2 == 0) * (s // 2 + 1)) // 2
    return 2 * s + 5 + s // 2 + pairs + (2 if n == 3 else 0)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_self_stratum_counts_match_generator(n):
    by_fixed_points = generate_pendant_square_self(n).by_fixed_points
    assert self_stratum_counts(n) == by_fixed_points
    assert by_fixed_points[2] == r2_stratum_closed_form(n)


def test_r2_stratum_closed_form_matches_the_block_count():
    assert [r2_stratum_closed_form(n) for n in (3, 4, 5, 6)] == [8, 9, 16, 22]
    for n in range(3, 41):
        assert self_stratum_counts(n)[2] == r2_stratum_closed_form(n), n


@pytest.mark.parametrize("n", [3, 4])
def test_self_stratum_counts_match_package_free_reference(n):
    assert self_stratum_counts(n) == pendant_reference(n)["strata"]


@pytest.mark.parametrize("n, total", [(4, 43), (5, 87)])
def test_pendant_total_formula_matches_oracle(n, total):
    from zdsemigroups.search import oracle_classes

    oracle = oracle_classes(CompletePlusEnd(n), allow_long_run=True)
    assert pendant_total_formula(n) == oracle.class_count == total


@pytest.mark.skipif(
    not os.environ.get("ZDSG_LONG_RUN"),
    reason="the n=7 generator runs only under the long-run flag (set ZDSG_LONG_RUN=1)",
)
def test_self_stratum_counts_long_run_n7():
    assert self_stratum_counts(7) == generate_pendant_square_self(7).by_fixed_points == {
        1: 7, 2: 34, 3: 68, 4: 91, 5: 78, 6: 60,
    }


def test_formula_functions_enter_no_generator(monkeypatch):
    def refuse(n):
        raise AssertionError("a formula function entered a generator")

    monkeypatch.setattr(counting, "generate_pendant_square_self", refuse)
    monkeypatch.setattr(counting, "pendant_case_breakdown", refuse)
    totals = {n: pendant_total_formula(n) for n in range(3, 9)}
    assert totals == {3: 17, 4: 43, 5: 87, 6: 173, 7: 359, 8: 753}
    for n in range(3, 9):
        strata = [fixed_points_formula(n, r) for r in range(1, n)]
        assert sum(strata) == pendant_self_formula(n)
    with pytest.raises(UsageError):
        pendant_self_formula(2)


def test_formula_methods_consistent_at_n4():
    assert pendant_self_formula(4) == 27
    assert pendant_total_formula(4) == pendant_case_breakdown(4).total == 43


def test_self_case_fixed_points_match_oracle():
    from zdsemigroups.counting import pendant_fixed_points
    from zdsemigroups.search import oracle_classes

    oracle = oracle_classes(CompletePlusEnd(3))
    by_r = {}
    for e in oracle.entries():
        if pendant_square_case(e.representative) == "self":
            r = pendant_fixed_points(e.representative)
            by_r[r] = by_r.get(r, 0) + 1
    assert by_r == generate_pendant_square_self(3).by_fixed_points
