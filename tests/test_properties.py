"""Property tests: canonical keys, the associativity check and table JSON.

Hypothesis draws the tables.  The settings are fixed (derandomized, no
example database), so every run checks the same examples.
"""

import itertools
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from zdsemigroups.classify import canonical_form  # noqa: E402
from zdsemigroups.tables import (  # noqa: E402
    MulTable,
    check_associativity,
    permute_table,
    table_from_json,
    table_to_json,
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


@FIXED
@given(tables())
def test_associativity_check_matches_all_triples(table):
    ent = table.entries
    first_failure = next(
        (
            (u, v, w, ent[ent[u][v]][w], ent[u][ent[v][w]])
            for u, v, w in itertools.product(range(table.m + 1), repeat=3)
            if ent[ent[u][v]][w] != ent[u][ent[v][w]]
        ),
        None,
    )
    assert check_associativity(table) == first_failure


@FIXED
@given(tables())
def test_table_json_round_trip(table):
    assert table_from_json(json.loads(json.dumps(table_to_json(table)))) == table
