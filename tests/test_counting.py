import itertools
import math
import os
from collections import Counter

import pytest

from pendant_reference import class_key, pendant_reference
from zdsemigroups import counting, graphs, reports
from zdsemigroups.classify import ClassCatalog, canonical_form
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
from zdsemigroups.tables import MulTable, check_associativity


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
    count_partitions_exact.cache_clear()
    assert clique_class_count(600) == sum(partition_numbers(600)[1:]) + 1
    assert count_partitions_exact(600, 300) == partition_numbers(300)[300]


def test_clique_generator_matches_formula_up_to_8():
    for n in range(1, 9):
        assert generate_clique_classes(n).class_count == clique_class_count(n)


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
    # over the forced pendant pattern at n=3: associative iff conditions;
    # the verify row, which recognizes the graph once, agrees table for table
    definition = _equivalence_by_definition(3)
    assert definition == []
    assert reports._equivalence_counterexamples(3) == definition


def test_equivalence_row_equals_its_definition_under_a_wrong_check(monkeypatch):
    holds = counting._CASE_HOLDS["self"]
    monkeypatch.setitem(counting._CASE_HOLDS, "self", lambda *args: not holds(*args))
    definition = _equivalence_by_definition(3)
    assert definition
    assert reports._equivalence_counterexamples(3) == definition


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


def test_self_generator_refuses_a_fixed_point_count_that_varies_on_a_class(monkeypatch):
    tables = counting._iter_self_case_tables

    def shifted(n):
        for index, (table, r) in enumerate(tables(n)):
            yield table, r + (index > 0)

    monkeypatch.setattr(counting, "_iter_self_case_tables", shifted)
    with pytest.raises(RuntimeError, match="fixed-point count is not constant on a class"):
        generate_pendant_square_self(4)


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
