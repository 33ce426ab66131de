import itertools
import random
import tracemalloc

import pytest

from pendant_reference import class_key
from zdsemigroups.classify import (
    ClassCatalog,
    OrbitKeyer,
    canonical_form,
    key_from_hex,
    key_to_hex,
    pendant_pinned_key,
    square_profile,
    table_from_key,
)
from zdsemigroups.errors import UsageError
from zdsemigroups.graphs import CompleteK, CompletePlusEnd
from zdsemigroups.search import enumerate_labeled, oracle_classes
from zdsemigroups.tables import MulTable, permute_table


def clique_table(diag):
    n = len(diag)
    grid = [[0] * (n + 1) for _ in range(n + 1)]
    for i, sq in enumerate(diag, start=1):
        grid[i][i] = sq
    return MulTable.from_rows(grid)


def explicitly_isomorphic(t1, t2):
    """Independent check: search all relabelings for an exact match."""
    m = t1.m
    for perm in itertools.permutations(range(1, m + 1)):
        full = (0, *perm)
        if permute_table(t1, full) == t2:
            return True
    return False


def test_swap_symmetry_example():
    t1 = clique_table([0, 1])  # 1*1 = 0, 2*2 = 1
    t2 = clique_table([2, 0])  # 1*1 = 2, 2*2 = 0
    assert canonical_form(t1) == canonical_form(t2)


def test_profiles_separate():
    t1 = clique_table([0, 0, 3])  # two nilpotents, one idempotent
    t2 = clique_table([0, 2, 3])  # one nilpotent, two idempotents
    assert canonical_form(t1) != canonical_form(t2)


def test_canonical_invariance_random():
    rng = random.Random(5)
    tables = []
    enumerate_labeled(CompleteK(3), tables.append)
    for _ in range(100):
        t = rng.choice(tables)
        perm = [0] + rng.sample(range(1, 4), 3)
        assert canonical_form(permute_table(t, perm)) == canonical_form(t)


def test_canonical_separates_k2_k3_orbits():
    # canonical keys agree exactly when an explicit relabeling exists
    for target in (CompleteK(2), CompleteK(3)):
        tables = []
        enumerate_labeled(target, tables.append)
        keys = [canonical_form(t) for t in tables]
        for (t1, k1), (t2, k2) in itertools.combinations(zip(tables, keys), 2):
            assert (k1 == k2) == explicitly_isomorphic(t1, t2)


def random_symmetric_table(rng, m):
    """Symmetric table with zero, not necessarily associative.

    Entries come from a random number of values, so that products often
    land among few elements and tables have many symmetries.
    """
    values = rng.sample(range(m + 1), rng.randint(1, m + 1))
    grid = [[0] * (m + 1) for _ in range(m + 1)]
    for u in range(1, m + 1):
        for v in range(u, m + 1):
            grid[u][v] = grid[v][u] = rng.choice(values)
    return MulTable.from_rows(grid)


def table_invariant_under(rng, m):
    """Random symmetric table with zero that a random permutation s of 1..m
    maps onto itself.

    s fixes a point and moves at least three, so the table has
    automorphisms that are not transpositions.  Each orbit of s on the
    cells {u, v} gets a value c, c = 0 or an element that s**L fixes (L
    the orbit's length), at its first cell, and s**i(c) at the i-th cell
    after it.
    """
    while True:
        s = [0] + rng.sample(range(1, m + 1), m)
        if 3 <= sum(s[u] != u for u in range(1, m + 1)) < m:
            break
    grid = [[0] * (m + 1) for _ in range(m + 1)]
    done = set()
    for u in range(1, m + 1):
        for v in range(u, m + 1):
            if (u, v) in done:
                continue
            orbit = [(u, v)]
            a, b = s[u], s[v]
            while {a, b} != {u, v}:
                orbit.append((a, b))
                a, b = s[a], s[b]
            power = list(range(m + 1))
            for _ in orbit:
                power = [s[e] for e in power]
            c = rng.choice([e for e in range(m + 1) if power[e] == e])
            for a, b in orbit:
                grid[a][b] = grid[b][a] = c
                done.add((min(a, b), max(a, b)))
                c = s[c]
    table = MulTable.from_rows(grid)
    assert permute_table(table, s) == table
    return table


def pinned_brute_force(table, pendant, neighbor):
    """Least flattened relabeling with the neighbor first and the pendant last."""
    m = table.m
    ent = table.entries
    middle = [u for u in range(1, m + 1) if u not in (pendant, neighbor)]
    cells = [(u, v) for u in range(1, m + 1) for v in range(u, m + 1)]
    keys = []
    for perm in itertools.permutations(middle):
        order = (neighbor, *perm, pendant)
        pos = [0] * (m + 1)
        for new, old in enumerate(order, 1):
            pos[old] = new
        keys.append(tuple(pos[ent[order[u - 1]][order[v - 1]]] for u, v in cells))
    return min(keys)


def test_canonical_form_matches_brute_force():
    # the partition search against the package-free minimum over all m!
    # relabelings: oracle tables, a relabeling of each, and random tables
    # that need not be associative
    rng = random.Random(6)
    tables = []
    for target in [CompleteK(n) for n in range(1, 6)] + [CompletePlusEnd(n) for n in (2, 3, 4)]:
        enumerate_labeled(target, tables.append)
    tables += [permute_table(t, [0] + rng.sample(range(1, t.m + 1), t.m)) for t in tables]
    tables += [random_symmetric_table(rng, rng.randint(1, 6)) for _ in range(2000)]
    for t in tables:
        assert canonical_form(t) == class_key(t.entries), t.entries
    for t in tables[-300:]:
        if t.m >= 2:
            pendant, neighbor = rng.sample(range(1, t.m + 1), 2)
            assert pendant_pinned_key(t, pendant, neighbor) == pinned_brute_force(
                t, pendant, neighbor
            ), t.entries


def test_canonical_form_matches_brute_force_on_symmetric_tables():
    # the search prunes by the automorphisms its ties reveal, so its key is
    # checked on tables that have automorphisms beyond transpositions,
    # each under ten relabelings: whether an unsound pruning shows
    # depends on the order in which the search meets the elements
    rng = random.Random(8)
    for m, count in ((4, 20), (5, 60), (6, 50)):
        for _ in range(count):
            table = table_invariant_under(rng, m)
            key = class_key(table.entries)
            for _ in range(10):
                relabeled = permute_table(table, [0] + rng.sample(range(1, m + 1), m))
                assert canonical_form(relabeled) == key, relabeled.entries


def test_key_shape_and_reconstruction():
    t = clique_table([0, 1, 0])
    key = canonical_form(t)
    assert len(key) == 3 * 4 // 2
    rep = table_from_key(key)
    assert canonical_form(rep) == key  # representative is its own key
    assert key_from_hex(key_to_hex(key)) == key


@pytest.mark.parametrize("key", [(0, 0), (0, 0, 0, 0), (0,) * 7])
def test_table_from_key_refuses_a_key_that_is_not_a_triangle(key):
    with pytest.raises(UsageError, match=f"key length {len(key)} is not a triangular number"):
        table_from_key(key)


def test_key_to_hex_refuses_a_value_above_15():
    # one hex digit per value: 16 would read back as two values
    assert key_to_hex((1, 15, 0)) == "1f0"
    with pytest.raises(UsageError, match="hex keys support at most 15 nonzero elements"):
        key_to_hex((1, 16, 0))


def test_catalog_insert_and_multiplicity():
    catalog = ClassCatalog()
    t = clique_table([0, 0])
    assert catalog.insert(t) is True
    assert catalog.insert(t) is False
    assert catalog.class_count == 1
    assert catalog.entries()[0].multiplicity == 2


def test_catalog_k2_classes():
    catalog = ClassCatalog()
    count = enumerate_labeled(CompleteK(2), catalog.insert)
    assert count == 6
    assert catalog.class_count == 4
    assert catalog.labeled_count == 6


def test_catalog_k3_classes():
    catalog = ClassCatalog()
    enumerate_labeled(CompleteK(3), catalog.insert)
    assert catalog.class_count == 7


def test_catalog_order_independent():
    tables = []
    enumerate_labeled(CompleteK(3), tables.append)
    rng = random.Random(1)
    reference = None
    for _ in range(5):
        rng.shuffle(tables)
        catalog = ClassCatalog()
        for t in tables:
            catalog.insert(t)
        snapshot = [(e.key, e.multiplicity) for e in catalog.entries()]
        if reference is None:
            reference = snapshot
        assert snapshot == reference


def test_catalog_merge_adds_multiplicities():
    a, b = ClassCatalog(), ClassCatalog()
    t = clique_table([0, 0])
    a.insert(t)
    b.insert(t)
    b.insert(clique_table([0, 2]))
    a.merge(b)
    assert a.class_count == 2
    assert a.labeled_count == 3


def test_catalog_json_round_trip():
    catalog = ClassCatalog()
    enumerate_labeled(CompleteK(2), catalog.insert)
    obj = catalog.to_json_obj()
    assert [item["key"] for item in obj] == sorted(item["key"] for item in obj)
    back = ClassCatalog.from_json_obj(obj)
    assert back.keys() == catalog.keys()
    assert back.labeled_count == catalog.labeled_count
    assert back == catalog


@pytest.mark.parametrize("spoil, message", [
    (lambda obj: obj.append(dict(obj[0])), "is listed twice"),
    (lambda obj: obj[0].update(multiplicity=0), "positive integer, got 0"),
    (lambda obj: obj[0].update(multiplicity=True), "positive integer, got True"),
    (lambda obj: obj[0].update(table=obj[1]["table"]), "a table other than its key's"),
], ids=["class-listed-twice", "multiplicity-0", "multiplicity-True", "another-class-table"])
def test_catalog_from_json_refuses_a_spoiled_entry(spoil, message):
    catalog = ClassCatalog()
    enumerate_labeled(CompleteK(2), catalog.insert)
    obj = catalog.to_json_obj()
    spoil(obj)
    with pytest.raises(ValueError, match=message):
        ClassCatalog.from_json_obj(obj)


def test_catalogs_are_equal_when_their_multiplicities_are():
    a, b = ClassCatalog(), ClassCatalog()
    t, u = clique_table([0, 0]), clique_table([0, 2])
    for table in (t, u, t):
        a.insert(table)
    for table in (u, t):
        b.insert(table)
    assert a != b  # the same classes, one multiplicity differs
    b.insert(t)
    assert a == b
    assert a != a._multiplicity


def test_square_profile_examples():
    p = square_profile(clique_table([0, 0, 0]))
    assert p.nilpotent_count == 3 and p.idempotent_count == 0
    assert p.block_sizes == (1, 1, 1)

    p = square_profile(clique_table([1, 0, 2]))
    assert p.nilpotents == frozenset({2})
    assert p.idempotents == frozenset({1})
    assert p.pointers == frozenset({3})
    assert p.nilpotent_count == 1 and p.idempotent_count == 1

    p = square_profile(clique_table([1, 2, 3]))
    assert p.nilpotent_count == 0 and p.idempotent_count == 3


def test_square_profile_rejects_non_clique():
    # pendant-shaped table: graph is not a complete graph
    grid = [[0] * 5 for _ in range(5)]
    grid[2][4] = grid[4][2] = 1
    grid[3][4] = grid[4][3] = 1
    with pytest.raises(UsageError):
        square_profile(MulTable.from_rows(grid))
    # complete graph but a square points at an idempotent
    with pytest.raises(UsageError):
        square_profile(clique_table([2, 2, 0]))


def test_profile_signature_matches_canonical_classes():
    # same canonical key exactly when same (nilpotents, idempotents, blocks)
    for n in (3, 4):
        tables = []
        enumerate_labeled(CompleteK(n), tables.append)
        keys = [canonical_form(t) for t in tables]
        signatures = [square_profile(t).signature for t in tables]
        for (k1, s1), (k2, s2) in itertools.combinations(zip(keys, signatures), 2):
            assert (k1 == k2) == (s1 == s2)


def test_pinned_key_groups_match_full_canonical():
    # prefilter validation: pinned grouping equals full-canonical grouping
    for n in (3, 4):
        m = n + 1
        tables = []
        enumerate_labeled(CompletePlusEnd(n), tables.append)
        by_pinned, by_full = {}, {}
        for t in tables:
            by_pinned.setdefault(pendant_pinned_key(t, m, 1), set()).add(t.entries)
            by_full.setdefault(canonical_form(t), set()).add(t.entries)
        assert sorted(by_pinned.values(), key=sorted) == sorted(by_full.values(), key=sorted)


def test_catalog_shortcut_matches_full_canonical():
    # ClassCatalog against the package-free brute-force key per table, on
    # oracle tables and relabelings that move the pendant off m
    def brute_catalog(tables):
        brute = ClassCatalog()
        for t in tables:
            brute.insert(t, key=class_key(t.entries))
        return [(e.key, e.multiplicity) for e in brute.entries()]

    rng = random.Random(3)
    for n in (3, 4):
        m = n + 1
        tables = []
        enumerate_labeled(CompletePlusEnd(n), tables.append)
        for t in list(tables):
            perm = [0] + rng.sample(range(1, m + 1), m)
            if perm[m] == m:
                j = rng.randrange(1, m)
                perm[m], perm[j] = perm[j], perm[m]
            tables.append(permute_table(t, perm))
        shortcut = ClassCatalog()
        for t in tables:
            shortcut.insert(t)
        assert [(e.key, e.multiplicity) for e in shortcut.entries()] == brute_catalog(tables)
    # the oracle's catalog, straight from the search
    for target in (CompletePlusEnd(3), CompletePlusEnd(4), CompleteK(3), CompleteK(4), CompleteK(5)):
        tables = []
        enumerate_labeled(target, tables.append)
        oracle = oracle_classes(target)
        assert [(e.key, e.multiplicity) for e in oracle.entries()] == brute_catalog(tables)


def test_orbit_keyer_memory_does_not_grow_with_the_group():
    # S_7 has 5,040 relabelings; the keyer keeps only its 6 adjacent swaps
    tracemalloc.start()
    try:
        OrbitKeyer(7, range(1, 8), ClassCatalog())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_orbit_keyer_refuses_an_orbit_left_open():
    keyer = OrbitKeyer(2, range(1, 3), ClassCatalog())
    keyer(clique_table([1, 0]))
    with pytest.raises(RuntimeError, match="not closed under relabeling: 1 never emitted"):
        keyer.check_closed("K2 tables")
    keyer(clique_table([0, 2]))  # the swap of 1 and 2 closes the orbit
    keyer.check_closed("K2 tables")
    assert keyer.catalog.class_count == 1 and keyer.catalog.labeled_count == 2


def test_orbit_keyer_refuses_a_repeated_table_alone_in_its_orbit():
    # both elements idempotent: the swap of 1 and 2 fixes the table, so its
    # orbit is itself, nothing is pending, and only the kept first code
    # shows the repeat
    keyer = OrbitKeyer(2, range(1, 3), ClassCatalog())
    keyer(clique_table([1, 2]))
    keyer.check_closed("K2 tables")
    with pytest.raises(RuntimeError, match="a table was emitted twice"):
        keyer(clique_table([1, 2]))
    assert keyer.catalog.labeled_count == 1
