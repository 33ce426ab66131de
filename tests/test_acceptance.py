"""Acceptance suite: one test per criterion, one printed line per criterion.

Where a previously tabulated class count is refuted (the pendant totals
40 and 76, the x*x = x count 59 and the single x*x = 1 class), the
criterion asserts the computed value, checks it against the
package-free reference search in ``pendant_reference.py``, and asserts
that the count report carries the tabulated value as a discrepancy
finding with its witness tables.  Run with ``-s`` to see the
per-criterion lines.
"""

import os
import random
import time

import pytest

from zdsemigroups.classify import ClassCatalog, canonical_form
from zdsemigroups.counting import (
    clique_class_count,
    count_partitions_exact,
    generate_clique_classes,
    pendant_case_breakdown,
    pendant_conditions_hold,
    pendant_square_case,
    pendant_self_formula,
    pendant_total_formula,
)
from zdsemigroups.graphs import CompleteK, CompletePlusEnd
from zdsemigroups.reports import build_count_report, run_verification
from zdsemigroups.search import enumerate_labeled, iter_candidate_tables, oracle_classes, seed_partial_table
from zdsemigroups.tables import check_associativity, permute_table

from pendant_reference import pendant_reference, square_case, squares_to_neighbor


def report(line):
    print(line)


# ---------------------------------------------------------------------------
# shared expensive artifacts


@pytest.fixture(scope="module")
def pendant_labeled():
    out = {}
    for n in (3, 4):
        tables = []
        enumerate_labeled(CompletePlusEnd(n), tables.append)
        out[n] = tables
    return out


@pytest.fixture(scope="module")
def oracle_pendant(pendant_labeled):
    out = {}
    for n, tables in pendant_labeled.items():
        catalog = ClassCatalog()
        for t in tables:
            catalog.insert(t)
        out[n] = catalog
    return out


@pytest.fixture(scope="module")
def breakdowns():
    return {n: pendant_case_breakdown(n) for n in (3, 4, 5)}


@pytest.fixture(scope="module")
def count_reports():
    # n=5 skips the oracle (over the desk-scale budget); the findings
    # come from the generator pipeline
    return {n: build_count_report("kn1", n, "all") for n in (3, 4, 5)}


@pytest.fixture(scope="module")
def reference():
    return {n: pendant_reference(n) for n in (3, 4)}


def oracle_case_keys(catalog, case):
    return {
        e.key for e in catalog.entries()
        if pendant_square_case(e.representative) == case
    }


def findings(rep, words):
    """The report's discrepancy records whose description contains ``words``."""
    return [d for d in rep.discrepancies if words in d.description]


def case_finding(rep, words):
    """(reference, computed, witness count, cases of the witnesses) per record."""
    return [
        (d.reference_value, d.computed_value, len(d.witnesses),
         {square_case(w["entries"]) for w in d.witnesses})
        for d in findings(rep, words)
    ]


def total_finding(rep):
    return [(d.reference_value, d.computed_value) for d in findings(rep, "tabulated total")]


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_clique_counts():
    t0 = time.time()
    f3, g3 = clique_class_count(3), generate_clique_classes(3).class_count
    o3 = oracle_classes(CompleteK(3)).class_count
    t3 = time.time() - t0
    t0 = time.time()
    f4, g4 = clique_class_count(4), generate_clique_classes(4).class_count
    o4 = oracle_classes(CompleteK(4)).class_count
    t4 = time.time() - t0
    report(f"criterion 1: clique counts n=3 {f3}/{g3}/{o3} ({t3:.2f}s), "
           f"n=4 {f4}/{g4}/{o4} ({t4:.2f}s)")
    assert f3 == g3 == o3 == 7
    assert f4 == g4 == o4 == 12
    assert t3 < 1.0 and t4 < 10.0


def test_criterion_2_partition_oracle():
    def by_largest_part(total, parts):
        def rec(remaining, count, cap):
            if count == 0:
                return 1 if remaining == 0 else 0
            return sum(
                rec(remaining - first, count - 1, first)
                for first in range(1, min(cap, remaining) + 1)
            )
        return rec(total, parts, total)

    pairs = [(j, i) for j in range(1, 26) for i in range(1, j + 1)]
    expected = {pair: by_largest_part(*pair) for pair in pairs}
    # time the recurrence alone
    t0 = time.time()
    computed = {pair: count_partitions_exact(*pair) for pair in pairs}
    elapsed = time.time() - t0
    assert computed == expected
    report(f"criterion 2: partition recurrence equals enumeration for j <= 25 ({elapsed:.2f}s)")
    assert elapsed < 1.0


def test_criterion_3_pendant_4_cross_validation(breakdowns, oracle_pendant, pendant_labeled,
                                                 count_reports, reference):
    t0 = time.time()
    oracle = oracle_classes(CompletePlusEnd(4))
    single_thread = time.time() - t0
    merged = breakdowns[4].merged_catalog()
    agree = set(merged.keys()) == set(oracle.keys())
    self_count = breakdowns[4].case_counts["self"]
    report(f"criterion 3: n=4 generator={merged.class_count} oracle={oracle.class_count} "
           f"reference={reference[4]['classes']} class-for-class={agree} x*x=x count={self_count} "
           f"({single_thread:.1f}s single-threaded)")
    assert single_thread < 300.0
    assert agree, "generator union and oracle must produce identical canonical-key sets"
    assert self_count == 27
    # The tabulated total 40 is refuted: the x*x = 1 case admits squares
    # equal to the neighbor (n classes, not 1), so the total is 43.  The
    # package-free search agrees, and the report must flag both values.
    assert oracle.class_count == reference[4]["classes"] == 43
    assert len(pendant_labeled[4]) == reference[4]["labelled"]
    rep = count_reports[4]
    assert total_finding(rep) == [(40, 43)]
    assert case_finding(rep, "tabulated x*x = 1") == [(1, 4, 4, {"attach"})]


def test_criterion_4_pendant_5_generator_counts(count_reports):
    t0 = time.time()
    self_count = pendant_self_formula(5)
    breakdown = pendant_case_breakdown(5)
    elapsed = time.time() - t0
    report(f"criterion 4: n=5 x*x=x count={breakdown.case_counts['self']} "
           f"(formula route {self_count}), total={breakdown.total} ({elapsed:.1f}s)")
    assert elapsed < 60.0
    assert self_count == breakdown.case_counts["self"]
    assert pendant_total_formula(5) == breakdown.total
    # The tabulated 59 and 76 are refuted (the long-run oracle and the
    # reference search agree with the generator); the report must flag
    # both.  One comparison, so every value is checked on every run.
    rep = count_reports[5]
    assert {
        "self": breakdown.case_counts["self"],
        "total": breakdown.total,
        "strata": breakdown.by_fixed_points,
        "self finding": case_finding(rep, "tabulated x*x = x"),
        "total finding": total_finding(rep),
    } == {
        "self": 66,
        "total": 87,
        "strata": {1: 5, 2: 16, 3: 21, 4: 24},
        "self finding": [(59, 66, 66, {"self"})],
        "total finding": [(76, 87)],
    }


@pytest.mark.skipif(
    not os.environ.get("ZDSG_LONG_RUN"),
    reason="n=5 oracle runs only under the long-run flag (set ZDSG_LONG_RUN=1)",
)
def test_criterion_4_long_run_oracle_matches():
    oracle = oracle_classes(CompletePlusEnd(5), allow_long_run=True)
    breakdown = pendant_case_breakdown(5)
    merged = breakdown.merged_catalog()
    ref = pendant_reference(5)
    report(f"criterion 4 (long run): n=5 oracle={oracle.class_count} "
           f"generator={merged.class_count} reference={ref['classes']}")
    assert set(oracle.keys()) == set(merged.keys())
    assert {
        "total": breakdown.total, "cases": breakdown.case_counts,
        "strata": breakdown.by_fixed_points,
    } == {"total": ref["classes"], "cases": ref["cases"], "strata": ref["strata"]}


def test_criterion_5_per_case_counts(breakdowns, oracle_pendant, count_reports, reference):
    lines = []
    for n in (3, 4, 5):
        cases = breakdowns[n].case_counts
        assert cases["zero"] == n
        assert cases["other"] == 3 * n - 4
        lines.append(f"n={n} zero={cases['zero']} attach={cases['attach']} "
                     f"other={cases['other']}")
    for n in (3, 4):
        for case in ("zero", "self", "attach", "other"):
            gen_keys = set(breakdowns[n].catalogs[case].keys())
            assert gen_keys == oracle_case_keys(oracle_pendant[n], case), (n, case)
    for n in (3, 4):
        assert {"cases": breakdowns[n].case_counts, "strata": breakdowns[n].by_fixed_points} == {
            "cases": reference[n]["cases"], "strata": reference[n]["strata"]}, n
    report("criterion 5: per-case counts " + "; ".join(lines)
           + " (all cases match the oracle and the reference search at n=3,4)")
    # The attach case was tabulated as a single class; the family has n
    # classes, one per number k of clique elements that square to the
    # neighbor, and the report must flag the tabulated 1 with those n
    # witnesses.  One comparison, so every n is checked on every run.
    got, want = {}, {}
    for n in (3, 4, 5):
        rep = count_reports[n]
        got[n] = (breakdowns[n].case_counts["attach"], case_finding(rep, "tabulated x*x = 1"),
                  sorted(squares_to_neighbor(w["entries"])
                         for d in findings(rep, "tabulated x*x = 1") for w in d.witnesses))
        want[n] = (n, [(1, n, n, {"attach"})], list(range(n)))
    assert got == want


def test_criterion_6_stratum_identities(breakdowns):
    by_n = {n: breakdowns[n].by_fixed_points for n in (3, 4, 5)}
    by_n[6] = pendant_case_breakdown(6).by_fixed_points
    report("criterion 6: fixed-point strata "
           + "; ".join(f"n={n}: {by_n[n]}" for n in (3, 4, 5, 6)))
    for n in (3, 4, 5, 6):
        assert by_n[n][1] == n
    for n in (4, 5, 6):
        assert by_n[n][n - 1] == 2 * clique_class_count(n - 1)
    assert by_n[4][2] == 9


def test_criterion_7_small_pendant_adjudication(breakdowns, oracle_pendant):
    merged = breakdowns[3].merged_catalog()
    oracle = oracle_pendant[3]
    agree = set(merged.keys()) == set(oracle.keys())
    rep = build_count_report("kn1", 3, "all")
    self_disc = findings(rep, "tabulated x*x = x")
    total_disc = findings(rep, "tabulated total")
    report(f"criterion 7: n=3 generator={merged.class_count} oracle={oracle.class_count} "
           f"agree={agree}; tabulated self=6 total=15 vs computed "
           f"{rep.strata['cases']['self']}/{rep.method_counts['oracle']}; "
           f"{len(rep.discrepancies)} discrepancy records")
    assert agree, "generator and oracle must agree exactly at n=3"
    assert rep.method_counts["generator"] == rep.method_counts["oracle"]
    # one deviation record exists exactly when the computed side departs
    # from the tabulated 6/15, and carries witness tables
    self_count = rep.strata["cases"]["self"]
    assert len(self_disc) == int(self_count != 6)
    assert len(total_disc) == int(rep.method_counts["oracle"] != 15)
    if self_disc:
        assert self_disc[0].reference_value == 6
        assert self_disc[0].computed_value == self_count
        assert len(self_disc[0].witnesses) > 0
    if total_disc:
        assert total_disc[0].reference_value == 15


def test_criterion_8_condition_equivalence(pendant_labeled, oracle_pendant, breakdowns):
    from zdsemigroups.counting import check_clique_squares

    clique_mismatches = sum(
        1
        for table in iter_candidate_tables(seed_partial_table(CompleteK(3)))
        if (check_associativity(table) is None) != check_clique_squares(table)
    )
    pendant_mismatches = sum(
        1
        for table in iter_candidate_tables(seed_partial_table(CompletePlusEnd(3)))
        if (check_associativity(table) is None) != pendant_conditions_hold(table)
    )
    # full oracle enumeration at n=4: every accepted table satisfies the
    # conditions, and the condition-generated classes cover the oracle
    accepted_violations = sum(
        1 for t in pendant_labeled[4] if not pendant_conditions_hold(t)
    )
    covered = set(breakdowns[4].merged_catalog().keys()) == set(oracle_pendant[4].keys())
    report(f"criterion 8: equivalence counterexamples n=3 clique={clique_mismatches} "
           f"pendant={pendant_mismatches}; n=4 accepted violations={accepted_violations}, "
           f"condition-coverage={covered}")
    assert clique_mismatches == 0
    assert pendant_mismatches == 0
    assert accepted_violations == 0
    assert covered


def test_criterion_9_canonicalization_invariance(pendant_labeled):
    rng = random.Random(20260808)
    pool = []
    for n in (2, 3, 4):
        enumerate_labeled(CompleteK(n), pool.append)
    pool.extend(pendant_labeled[3])
    pool.extend(pendant_labeled[4])
    t0 = time.time()
    for _ in range(1000):
        t = rng.choice(pool)
        perm = [0] + rng.sample(range(1, t.m + 1), t.m)
        assert canonical_form(permute_table(t, perm)) == canonical_form(t)
    elapsed = time.time() - t0

    tables = list(pendant_labeled[3])
    reference = None
    for _ in range(10):
        rng.shuffle(tables)
        catalog = ClassCatalog()
        for t in tables:
            catalog.insert(t)
        snapshot = [(e.key, e.multiplicity) for e in catalog.entries()]
        reference = snapshot if reference is None else reference
        assert snapshot == reference
    report(f"criterion 9: 1000 random permutation pairs invariant ({elapsed:.1f}s); "
           "catalog stable across 10 insertion orders")


def test_criterion_10_ideal_property(pendant_labeled):
    violations = 0
    for n in (3, 4):
        for t in pendant_labeled[n]:
            pendant = t.m  # construction pins the pendant to the last element
            clique = range(1, t.m)
            for u in clique:
                for v in range(1, t.m + 1):
                    if t.entries[u][v] == pendant:
                        violations += 1
    report(f"criterion 10: clique-ideal violations over accepted tables n=3,4: {violations}")
    assert violations == 0


def test_criterion_11_boundary_findings():
    rows, code = run_verification(1, 2)
    findings = [r for r in rows if r.status == "FINDING"]
    report(f"criterion 11: verify 1..2 exit={code} with {len(findings)} boundary findings")
    assert code == 0
    assert any("n=1" in r.label and "oracle=1 formula=2" in r.detail for r in findings)
    assert any("n=2" in r.label and "oracle=4 formula=4" in r.detail for r in findings)
