import json
import pickle
import random

import pytest

from zdsemigroups.classify import canonical_form, table_from_key
from zdsemigroups.errors import UsageError
from zdsemigroups.graphs import CompletePlusEnd
from zdsemigroups.search import enumerate_labeled, iter_candidate_tables, seed_partial_table
from zdsemigroups.tables import (
    AssocWitness,
    MulTable,
    check_associativity,
    is_zd_semigroup,
    mul,
    permute_table,
    table_from_json,
    table_to_json,
    zero_divisors,
)


def clique_table(diag):
    """Table with all off-diagonal products zero and the given squares."""
    n = len(diag)
    grid = [[0] * (n + 1) for _ in range(n + 1)]
    for i, sq in enumerate(diag, start=1):
        grid[i][i] = sq
    return MulTable.from_rows(grid)


K3_NULL = clique_table([0, 0, 0])


def test_mul_zero_absorbs():
    assert mul(K3_NULL, 0, 2) == 0
    assert mul(K3_NULL, 2, 0) == 0


def test_mul_examples():
    assert mul(K3_NULL, 1, 2) == 0
    pointed = clique_table([2, 0, 0])
    assert mul(pointed, 1, 1) == 2


def test_mul_out_of_range():
    with pytest.raises(UsageError):
        mul(K3_NULL, 0, 4)


def test_mul_symmetric():
    rng = random.Random(7)
    for _ in range(20):
        diag = [rng.randrange(4) for _ in range(3)]
        t = clique_table(diag)
        for u in range(4):
            for v in range(4):
                assert mul(t, u, v) == mul(t, v, u)


def test_associativity_null_semigroup():
    assert check_associativity(K3_NULL) is None


def test_associativity_witness_example():
    # 2-element table: 1*1 = 2, 2*2 = 2, 1*2 = 0.
    t = clique_table([2, 2])
    w = check_associativity(t)
    assert w == AssocWitness(1, 1, 2, 2, 0)
    # direct evaluation of the triple product
    assert t.entries[t.entries[1][1]][2] == 2
    assert t.entries[1][t.entries[1][2]] == 0


def test_associativity_third_case_ok():
    assert check_associativity(clique_table([2, 0, 0])) is None


def test_witness_is_lex_first():
    t = clique_table([2, 2])
    w = check_associativity(t)
    # no failing triple lexicographically before the witness
    for u in range(1, 3):
        for v in range(1, 3):
            for x in range(1, 3):
                if (u, v, x) >= (w.u, w.v, w.w):
                    break
                lhs = t.entries[t.entries[u][v]][x]
                rhs = t.entries[u][t.entries[v][x]]
                assert lhs == rhs


def test_permutation_equivariance_of_witnesses():
    rng = random.Random(3)
    for _ in range(50):
        diag = [rng.randrange(4) for _ in range(3)]
        t = clique_table(diag)
        perm = [0] + rng.sample([1, 2, 3], 3)
        pt = permute_table(t, perm)
        w = check_associativity(t)
        pw = check_associativity(pt)
        assert (w is None) == (pw is None)
        if w is not None:
            # the relabeled witness triple fails in the relabeled table
            u, v, x = perm[w.u], perm[w.v], perm[w.w]
            lhs = pt.entries[pt.entries[u][v]][x]
            rhs = pt.entries[u][pt.entries[v][x]]
            assert lhs == perm[w.lhs] and rhs == perm[w.rhs]


@pytest.mark.parametrize("perm", [[0, 1, 1], [0, True, 2], [1, 0, 2], [0, 2], [0, 2, 1, 3]])
def test_permute_table_refuses_what_is_not_a_permutation_of_0_to_m_fixing_0(perm):
    table = clique_table([2, 0])
    with pytest.raises(UsageError, match="perm must be a permutation of 0..m fixing 0"):
        permute_table(table, perm)
    assert permute_table(table, [0, 2, 1]) == clique_table([0, 1])


def test_zero_divisors():
    nilpotent = MulTable.from_rows([[0, 0], [0, 0]])
    idempotent = MulTable.from_rows([[0, 0], [0, 1]])
    assert zero_divisors(nilpotent) == {1}
    assert zero_divisors(idempotent) == set()
    assert zero_divisors(K3_NULL) == {1, 2, 3}


def test_is_zd_semigroup():
    assert not is_zd_semigroup(MulTable.from_rows([[0, 0], [0, 1]]))
    assert is_zd_semigroup(K3_NULL)
    assert not is_zd_semigroup(clique_table([2, 2]))


def test_accepted_tables_reassert_associativity():
    t = clique_table([2, 0, 1])
    if is_zd_semigroup(t):
        ent = t.entries
        for u in range(4):
            for v in range(4):
                for w in range(4):
                    assert ent[ent[u][v]][w] == ent[u][ent[v][w]]


def test_validation_rejects_bad_grids():
    with pytest.raises(UsageError):
        MulTable.from_rows([[0, 0], [0, 5]])  # out of range
    with pytest.raises(UsageError):
        MulTable.from_rows([[0, 1], [0, 0]])  # zero row violated
    with pytest.raises(UsageError):
        MulTable.from_rows([[0, 0, 0], [0, 0, 1], [0, 2, 0]])  # asymmetric


@pytest.mark.parametrize("rows, message", [
    ([[0]], "table needs the zero element and at least one nonzero element"),
    ([[0, 0], [0]], "table grid must be square"),
    ([[0, 0, 0], [0, 0], [0, 0, 0]], "table grid must be square"),
    ([[0, 0], [0, 5]], "entry 5 outside element range 0..1"),
    ([[0, 0], [0, -1]], "entry -1 outside element range 0..1"),
    ([[0, 1], [0, 0]], "zero row/column must be identically zero"),
    ([[0, 0], [1, 1]], "zero row/column must be identically zero"),
    ([[0, 0, 0], [0, 0, 1], [0, 2, 0]], "table is not symmetric at (1, 2)"),
    ([[0, 0, 0], [0, 1, 2], [0, 1, 2]], "table is not symmetric at (1, 2)"),
    # entries that do not fit a byte get the range message too
    ([[0, 0], [0, 256]], "entry 256 outside element range 0..1"),
    ([[0, 0, 0], [0, 5, 0], [0, 0, -1]], "entry 5 outside element range 0..2"),
    ([[0, 0, 0], [0, 0, 0], [0, 0, -1]], "entry -1 outside element range 0..2"),
    # bytes(3) would be three zero bytes, so a bare int is not a row
    ([[0, 0, 0], 3, [0, 0, 0]], "table grid must be square"),
    ([bytes(3), bytes([0, 0, 1]), bytes([0, 1, 3])], "entry 3 outside element range 0..2"),
    ([bytes(3), bytes(3), bytes(2)], "table grid must be square"),
    ([bytes(3), bytes([0, 1, 0]), bytes([0, 2, 1])], "table is not symmetric at (1, 2)"),
])
def test_from_rows_rejects_each_invalid_grid_with_its_message(rows, message):
    with pytest.raises(UsageError) as error:
        MulTable.from_rows(rows)
    assert str(error.value) == message


def test_table_size_is_capped_at_255_nonzero_elements():
    with pytest.raises(UsageError) as error:
        MulTable.from_cells(256, [])
    assert str(error.value) == "table has 256 nonzero elements; at most 255 are supported"
    null = MulTable.from_cells(255, [])
    assert null.m == 255
    assert check_associativity(null) is None
    # the largest element id, 255, as an idempotent beside 254 null elements
    assert check_associativity(MulTable.from_cells(255, [((255, 255), 255)])) is None


def test_associativity_witness_after_passing_element_rows():
    # Elements 1..3 annihilate everything, so their rows pass; 4 * 4 = 5
    # and 5 * 5 = 4 fail first at (4, 4, 5): (4 * 4) * 5 = 4, 4 * (4 * 5) = 0.
    table = MulTable.from_cells(5, [((4, 4), 5), ((5, 5), 4)])
    assert check_associativity(table) == AssocWitness(4, 4, 5, 4, 0)


def test_associativity_witness_when_every_failing_triple_holds_m():
    # 3 * 3 = 4 and 3 * 4 = 3: every failing triple holds 4, and the
    # check, which scans u < m only, finds the first of the full scan
    table = MulTable.from_cells(4, [((3, 3), 4), ((3, 4), 3)])
    ent = table.entries
    failing = [AssocWitness(u, v, w, ent[ent[u][v]][w], ent[u][ent[v][w]])
               for u in range(1, 5) for v in range(1, 5) for w in range(1, 5)
               if ent[ent[u][v]][w] != ent[u][ent[v][w]]]
    assert [f[:3] for f in failing] == [(3, 3, 4), (3, 4, 4), (4, 3, 3), (4, 4, 3)]
    assert check_associativity(table) == failing[0] == AssocWitness(3, 3, 4, 0, 4)


@pytest.mark.parametrize("entry", [1.5, 1.0, "1", None, True])
def test_from_rows_refuses_an_entry_that_is_not_an_int(entry):
    # from_rows once coerced entries with int(); now they must already be ints
    with pytest.raises(UsageError, match="table entries must be integers"):
        MulTable.from_rows([[0, 0], [0, entry]])


def test_from_rows_stores_a_bytes_grid():
    t = MulTable.from_rows([[0, 0], [0, 1]])
    assert t.entries == (bytes([0, 0]), bytes([0, 1]))
    assert type(t.entries) is tuple and all(type(row) is bytes for row in t.entries)
    assert type(t.entries[1][1]) is int
    assert repr(t) == "MulTable(entries=((0, 0), (0, 1)))"
    # rows given as bytes, or as a list grid passed to the constructor
    # directly, make the same table and are still checked
    assert MulTable([b"\0\0", b"\0\1"]) == MulTable(((0, 0), (0, 1))) == t
    assert MulTable([[0, 0, 0], [0, 0, 1], [0, 1, 0]]).m == 2
    with pytest.raises(UsageError, match=r"not symmetric at \(1, 2\)"):
        MulTable([[0, 0, 0], [0, 0, 1], [0, 2, 0]])


def test_from_cells_mirrors_listed_products():
    t = MulTable.from_cells(3, [((1, 3), 2), ((2, 2), 1), ((3, 3), 3)])
    assert t.entries == (bytes([0, 0, 0, 0]), bytes([0, 0, 0, 2]),
                         bytes([0, 0, 1, 0]), bytes([0, 2, 0, 3]))
    assert MulTable.from_cells(3, []) == K3_NULL
    for value in (5, 256, -1, True, 1.5):
        with pytest.raises(UsageError) as from_cells_error:
            MulTable.from_cells(1, [((1, 1), value)])
        with pytest.raises(UsageError) as from_rows_error:
            MulTable.from_rows([[0, 0], [0, value]])
        assert str(from_cells_error.value) == str(from_rows_error.value)


# unchecked, the first wraps onto (1, 1) and gives the null table, the
# second is an IndexError, the next two land on a zero-row and an
# asymmetric cell, refused for what they are not, True writes cell (1, 2)
# and a float index is a TypeError
@pytest.mark.parametrize("cells", [
    [((1, 1), 1), ((2, -3), 0)],
    [((1, 4), 1)],
    [((0, 2), 1)],
    [((2, -1), 1)],
    [((True, 2), 1)],
    [((1.0, 2), 1)],
    [((2, 3.0), 1)],
], ids=lambda cells: str(cells[-1][0]))
def test_from_cells_refuses_a_cell_outside_1_to_m(cells):
    with pytest.raises(UsageError) as error:
        MulTable.from_cells(3, cells)
    assert str(error.value) == f"cell {cells[-1][0]} outside 1..3"


def test_code_is_the_rows_joined_for_every_producer():
    pointed = clique_table([2, 0, 1])
    leaves = []
    enumerate_labeled(CompletePlusEnd(3), leaves.append)
    tables = {
        "from_rows list rows": pointed,
        "from_rows bytes rows": MulTable.from_rows(pointed.entries),
        "from_cells": MulTable.from_cells(3, [((1, 3), 2), ((2, 2), 1), ((3, 3), 3)]),
        "permute_table": permute_table(pointed, [0, 3, 1, 2]),
        "table_from_key": table_from_key(canonical_form(pointed)),
        "enumerate_labeled leaf": leaves[-1],
        "iter_candidate_tables": next(iter_candidate_tables(seed_partial_table(CompletePlusEnd(3)))),
        "pickle round trip": pickle.loads(pickle.dumps(pointed)),
    }
    for producer, table in tables.items():
        assert type(table.code) is bytes, producer
        assert table.code == b"".join(table.entries), producer


def test_json_round_trip():
    t = clique_table([2, 0, 1])
    blob = json.dumps(table_to_json(t))
    assert table_from_json(json.loads(blob)) == t


def test_json_rejects_asymmetric():
    obj = {"m": 2, "entries": [[0, 0, 0], [0, 0, 1], [0, 2, 0]]}
    with pytest.raises(UsageError):
        table_from_json(obj)


@pytest.mark.parametrize("obj", [
    {"m": 1, "entries": 5},
    {"m": "1", "entries": [[0, 0], [0, 0]]},
    {"m": 1, "entries": [[0, 0], [0, "a"]]},
    {"m": 1, "entries": [[0, 0], [0, None]]},
    {"m": 1, "entries": [[0, 0], 7]},
])
def test_json_rejects_malformed_fields(obj):
    with pytest.raises(UsageError):
        table_from_json(obj)


def test_json_rejects_wrong_size():
    with pytest.raises(UsageError):
        table_from_json({"m": 3, "entries": [[0, 0], [0, 0]]})
