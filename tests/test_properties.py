"""Property tests: canonical keys, the associativity check, the zero-divisor
semigroup check, the zero-divisor graph and table JSON.

Hypothesis draws the tables.  The settings are fixed (derandomized, no
example database), so every run checks the same examples.
"""

import itertools
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from zdsemigroups.classify import canonical_form  # noqa: E402
from zdsemigroups.graphs import build_zd_graph  # noqa: E402
from zdsemigroups.tables import (  # noqa: E402
    MulTable,
    check_associativity,
    is_zd_semigroup,
    permute_table,
    table_from_json,
    table_to_json,
    zero_divisors,
)

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def tables(draw, max_m=6):
    """Symmetric tables with zero, associative or not.

    Values come from a small palette, so products often land in few
    elements.  Half the tables are zero off the diagonal, where many are
    associative.
    """
    m = draw(st.integers(1, max_m))
    palette = draw(st.lists(st.integers(0, m), min_size=1, max_size=3))
    diagonal_only = draw(st.booleans())
    grid = [[0] * (m + 1) for _ in range(m + 1)]
    for u in range(1, m + 1):
        for v in range(u, m + 1):
            if u == v or not diagonal_only:
                grid[u][v] = grid[v][u] = draw(st.sampled_from(palette))
    return MulTable.from_rows(grid)


@st.composite
def relabeled(draw):
    table = draw(tables())
    perm = [0, *draw(st.permutations(range(1, table.m + 1)))]
    return table, permute_table(table, perm)


@FIXED
@given(relabeled())
def test_canonical_key_is_invariant_under_relabeling(pair):
    table, image = pair
    assert canonical_form(image) == canonical_form(table)


@st.composite
def null_prefix_tables(draw, max_m=9):
    """Symmetric tables on 1..m whose elements 1..k multiply everything to 0.

    The rows of 1..k (k >= 1) pass the associative law, so a failing
    table fails first at some u > k.  The other products lie in
    {0, k+1, ..., m}, where about half the tables fail.
    """
    m = draw(st.integers(2, max_m))
    k = draw(st.integers(1, m - 1))
    palette = draw(st.lists(st.integers(k + 1, m), min_size=1, max_size=3))
    grid = [[0] * (m + 1) for _ in range(m + 1)]
    for u in range(k + 1, m + 1):
        for v in range(u, m + 1):
            grid[u][v] = grid[v][u] = draw(st.sampled_from([0, *palette]))
    return MulTable.from_rows(grid)


def first_failing_triple(table):
    ent = table.entries
    return next(
        (
            (u, v, w, ent[ent[u][v]][w], ent[u][ent[v][w]])
            for u, v, w in itertools.product(range(table.m + 1), repeat=3)
            if ent[ent[u][v]][w] != ent[u][ent[v][w]]
        ),
        None,
    )


@FIXED
@given(tables())
def test_associativity_check_matches_all_triples(table):
    assert check_associativity(table) == first_failing_triple(table)


@FIXED
@given(null_prefix_tables())
def test_associativity_witness_after_passing_rows_matches_all_triples(table):
    assert check_associativity(table) == first_failing_triple(table)


@FIXED
@given(tables())
def test_zd_semigroup_is_associative_with_every_element_a_zero_divisor(table):
    assert is_zd_semigroup(table) == (check_associativity(table) is None
                                      and zero_divisors(table) == set(range(1, table.m + 1)))


@FIXED
@given(tables())
def test_zd_graph_edges_are_the_zero_products_above_the_diagonal(table):
    ent = table.entries
    elements = range(1, table.m + 1)
    assert build_zd_graph(table).edges == {
        (u, v) for u in elements for v in elements if u < v and ent[u][v] == 0
    }


@FIXED
@given(tables())
def test_table_json_round_trip(table):
    assert table_from_json(json.loads(json.dumps(table_to_json(table)))) == table
