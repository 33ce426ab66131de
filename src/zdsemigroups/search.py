"""Brute-force enumeration of labelled tables realizing a target graph.

The search space is seeded from the graph alone: edges force products to
zero, non-edges forbid them, and squares are free.  So the seed is its
free cells (slots) and their value domains, and every other cell is 0.
A depth-first scan assigns the free cells in a fixed order, pruning a
branch as soon as some fully determined triple breaks the associative
law.  Completed tables are re-validated from scratch: ``is_zd_semigroup``
checks associativity and zero-divisor membership, and
``graphs.realizes``, the graph check every generated table also passes,
checks the exact graph.  It recognizes each zero pattern once, and
8,353 leaves at kn1 n=6 have 96 patterns.  So the pruning is an
optimization only and nothing is trusted by construction.

For a commutative table the associative law for every ordered triple is
equivalent to, for each multiset {u, v, w}, the three products
(uv)w, (vw)u, (uw)v agreeing.  The search checks only the cell it has
just set, by one rule: a new cell can only disagree through the pairing
that reads it.  It prunes exactly the nodes a rescan comparing the
determined products of every multiset would.  A pairing (xy)z reads its
inner cell (x, y) and then its outer cell (xy, z), so slot (u, v) is an
inner cell of (uv)w for every w, and an outer cell of (ab)v for every
cell (a, b) whose value is u and of (ab)u for every cell whose value is
v.  ``readers`` lists the assigned free cells by value; the other cells
hold 0, and a product 0 reads only the zero row, so they never read a
free cell.  Before any value is tried, ``_forced_value`` takes each
reader (a, b) of value u, whose (ab)v is the slot.  Each other pairing
of {a, b, v}, (av)b or (bv)a, either does not read the slot and is
determined, and is then the only value tried (the node is pruned when
two readers force different values or the slot's domain lacks the
forced one); or does not read it and stays undetermined; or reads it,
and then u is a or b, so {a, b, v} is a direct triple, or its inner
product is u and its outer factor v, so it is (ab)v itself.  A reader of
value v is the same with u and v exchanged.  Once the slot is set,
``_partial_violation`` compares (uv)w of each direct triple with
whichever of (vw)u and (uw)v is determined, and reads neither while
(uv)w is undetermined, because those two then agree.  With w = u, (vw)u
is (uv)w itself, and with w = v, (uw)v is, so only one pairing is left.
If neither reads the slot, both were as they are before it was set, and
agreed then.  (vw)u reads the slot only through its outer cell, when
vw = v; then (v, w) is a reader of value v, so the forced value made the
slot, and so (vw)u, equal to a determined (uw)v.  uw = u is the same
with u and v exchanged, and if both read the slot, both equal it.  A
diagonal slot (u, u) checks its {u, u, w} by ``_diagonal_violation``,
whose second and third pairings are the same product (uw)u: it compares
(uu)w with (uw)u, and skips {u, u, u}, whose three pairings are all
(uu)u.  At the root every determined product is 0, so the seed violates
nothing, every node was checked before the search descended from it,
and a multiset's products change only through a cell they read.  The
nodes, the leaves and their order are therefore those of the rescan;
the forced value only skips trials that would fail (at kn1 n=6 the
diagonal slots take 52,277 value trials, not 84,960).

Classification uses the target's own automorphisms.  Two accepted tables
realize the same labelled graph G, so an isomorphism between them is an
automorphism of G, and every automorphism of G carries the seed, and so
the set of accepted tables, onto itself.  The accepted tables of one
class are therefore exactly one orbit of Aut(G): S_n on 1..n for K_n,
and S_{n-1} on 2..n for K_n plus a pendant, whose seed pins the neighbor
to 1 and the pendant to m.  ``oracle_classes`` hands the search's tables
to an ``OrbitKeyer`` over those elements, which runs ``canonical_form``
once per class and checks at the end that the tables it saw are closed
under Aut(G).  This is a fact about the target that the seed encodes;
nothing comes from the generators.  (K_2 plus a pendant is a path whose
automorphism also swaps 2 and m; there the keyer uses the trivial
subgroup, which keys every table by ``canonical_form``.)
"""

from __future__ import annotations

import itertools
from functools import partial
from math import log10, prod
from typing import Callable, Iterator, NamedTuple, Optional

from .classify import ClassCatalog, OrbitKeyer
from .errors import BudgetError
from .graphs import CompleteK, TargetGraph, realizes
from .tables import MulTable, is_zd_semigroup

# Leaf-count ceiling for runs without the long-run flag.  The pendant
# target at n=4 (~10^6 assignments) must fit; n=5 (~1.5*10^8) must not.
DESK_SCALE_LIMIT = 5_000_000

UNSET = -1
CONFLICT = -2


class SearchSpec(NamedTuple):
    """Free cells and their value domains; every other cell is 0."""

    slots: tuple[tuple[int, int], ...]
    domains: tuple[tuple[int, ...], ...]


def seed_partial_table(target: TargetGraph) -> SearchSpec:
    """The free cells of ``target``'s seed and their values.

    Every off-diagonal cell that is not a slot is an edge of the target,
    so it holds 0; the grid is built only by ``_seed_grid``.

    Complete graph on n vertices: the n diagonal cells, each free over
    all m+1 values.

    Complete graph plus pendant: additionally the cells (i, m) for
    i >= 2, free over the *nonzero* values (a zero there would add an
    edge); cell (1, m) is the pendant's one edge.  Slot order is pendant
    square first, then the pendant products ascending, then the diagonal
    ascending.
    """
    m = target.element_count
    n = target.n
    full_domain = tuple(range(m + 1))
    diagonal = tuple((i, i) for i in range(1, n + 1))
    if isinstance(target, CompleteK):
        return SearchSpec(diagonal, (full_domain,) * n)
    slots = ((m, m), *((i, m) for i in range(2, n + 1)), *diagonal)
    return SearchSpec(slots, (full_domain, *(full_domain[1:],) * (n - 1), *(full_domain,) * n))


def _seed_grid(spec: SearchSpec) -> list[list[int]]:
    """The seed as a mutable grid: ``UNSET`` at each slot, 0 elsewhere.

    (m, m) is a slot of every seed and the largest one.
    """
    m = max(spec.slots)[0]
    grid = [[0] * (m + 1) for _ in range(m + 1)]
    for u, v in spec.slots:
        grid[u][v] = grid[v][u] = UNSET
    return grid


def _automorphism_movable(target: TargetGraph) -> tuple[int, ...]:
    """The elements that Aut(target) permutes; it fixes the rest of 1..m.

    All of 1..n for the complete graph.  With a pendant, the seed above
    pins the neighbor to 1 and the pendant to m, so only 2..n move.
    """
    first = 1 if isinstance(target, CompleteK) else 2
    return tuple(range(first, target.n + 1))


def assignment_count(spec: SearchSpec) -> int:
    """Number of leaf assignments the prune-free search would visit."""
    return prod(len(d) for d in spec.domains)


def fits_budget(target: TargetGraph) -> bool:
    """True when the prune-free leaves of ``target`` are within the desk-scale limit."""
    return assignment_count(seed_partial_table(target)) <= DESK_SCALE_LIMIT


def _decimal(count: int) -> str:
    """``count`` in decimal, or past 100 digits as a power of ten it exceeds.

    The power is found without converting ``count`` to a string, which
    Python refuses past 4300 digits.
    """
    if count < 10**100:
        return str(count)
    exponent = int(log10(count))
    while 10**exponent >= count:
        exponent -= 1
    return f"more than 10^{exponent}"


def check_budget(target: TargetGraph, allow_long_run: bool) -> None:
    """Refuse a search of ``target`` whose prune-free leaves exceed the desk-scale limit."""
    if allow_long_run:
        return
    leaves = assignment_count(seed_partial_table(target))
    if leaves > DESK_SCALE_LIMIT:
        raise BudgetError(
            f"{_decimal(leaves)} assignments for {target} exceeds the desk-scale limit "
            f"({DESK_SCALE_LIMIT}); rerun with the long-run flag to proceed"
        )


def iter_candidate_tables(spec: SearchSpec) -> Iterator[MulTable]:
    """Every completion of the seed, with no validity filtering.

    All completions share the seed's labelled zero-divisor graph: the
    off-diagonal cells outside the slots hold 0 and are its edges, the
    free off-diagonal cells range over nonzero values only and so are
    never edges, and a free diagonal cell decides only a loop, which is
    not an edge.  The tables are yielded in ``itertools.product`` order of the
    domains.
    """
    grid = _seed_grid(spec)
    for values in itertools.product(*spec.domains):
        for (u, v), val in zip(spec.slots, values):
            grid[u][v] = grid[v][u] = val
        yield MulTable(tuple(map(bytes, grid)))


def _partial_violation(g: list[list[int]], triples) -> bool:
    """Does a determined (uv)w disagree with a determined (vw)u or (uw)v?

    In each triple (u, v, w), (u, v) is the cell just set, so (uv)w is
    the pairing that reads it.  Where (uv)w is undetermined the other two
    cannot disagree, so they are not read (see the module docstring).
    """
    for u, v, w in triples:
        a = g[g[u][v]][w]
        if a >= 0:
            q = g[v][w]
            b = g[q][u] if q >= 0 else UNSET
            r = g[u][w]
            c = g[r][v] if r >= 0 else UNSET
            if (b >= 0 and a != b) or (c >= 0 and a != c):
                return True
    return False


def _diagonal_violation(g: list[list[int]], u: int, others) -> bool:
    """Do (uu)w and (uw)u disagree for some w in ``others``, both determined?

    Cell (u, u) is set, so uu is known.  (uw)u is both the second and
    the third pairing of the multiset {u, u, w}.
    """
    row_u = g[u]
    row_uu = g[row_u[u]]
    for w in others:
        a = row_uu[w]
        q = row_u[w]
        if a >= 0 and q >= 0:
            b = g[q][u]
            if b >= 0 and a != b:
                return True
    return False


def _forced_value(g: list[list[int]], readers, u: int, v: int) -> int:
    """The value that the unset slot (u, v) must take, or ``UNSET``.

    A reader (a, b) of value u has (ab)v = the slot, so a determined (av)b
    or (bv)a is the value the slot must take; likewise with u and v
    exchanged for a reader of value v.  ``CONFLICT`` when two of them
    differ.  Once the slot is set the search checks only its direct
    triples, so this forcing is what keeps every reader triple in
    agreement and the pruning exact (see the module docstring).
    """
    forced = UNSET
    for cells, t in ((readers[u], v), (readers[v], u)) if u != v else ((readers[u], v),):
        row_t = g[t]
        for a, b in cells:
            p = row_t[a]
            q = row_t[b]
            for value in (g[p][b] if p >= 0 else UNSET, g[q][a] if q >= 0 else UNSET):
                if value >= 0:
                    if forced != value and forced >= 0:
                        return CONFLICT
                    forced = value
    return forced


def enumerate_labeled(
    target: TargetGraph,
    visitor: Optional[Callable[[MulTable], None]] = None,
    *,
    allow_long_run: bool = False,
) -> int:
    """Depth-first enumeration of every labelled table realizing ``target``.

    ``visitor`` receives each accepted table in deterministic slot order.
    Returns the number of accepted tables.
    """
    check_budget(target, allow_long_run)
    spec = seed_partial_table(target)
    m = target.element_count
    grid = _seed_grid(spec)
    slots = spec.slots
    domains = spec.domains
    depth_max = len(slots)
    # Each slot's check of the triples that read its cell (u, v) directly,
    # {u, v, w} for every w; ``_forced_value`` has decided the triples that
    # read it through another cell.  A diagonal slot checks only the w != u
    # of its {u, u, w}, by ``_diagonal_violation``; {u, u, u} has a single
    # product.
    direct = [partial(_partial_violation, grid, tuple((u, v, w) for w in range(1, m + 1)))
              if u != v else partial(_diagonal_violation, grid, u,
                                     tuple(w for w in range(1, m + 1) if w != u))
              for u, v in slots]
    # readers[p]: the assigned slot cells whose value is p.
    readers: list[list[tuple[int, int]]] = [[] for _ in range(m + 1)]
    accepted = 0

    def descend(depth: int) -> None:
        nonlocal accepted
        if depth == depth_max:
            table = MulTable(tuple(map(bytes, grid)))
            if is_zd_semigroup(table) and realizes(table, target) is not None:
                accepted += 1
                if visitor is not None:
                    visitor(table)
            return
        u, v = slots[depth]
        # Every value but a forced one breaks its reader's triple; the
        # forcing stands in for checking those triples (see the module
        # docstring).
        forced = _forced_value(grid, readers, u, v)
        if forced == CONFLICT:
            return
        values = domains[depth]
        if forced >= 0:
            values = (forced,) if forced in values else ()
        row_u = grid[u]
        row_v = grid[v]
        violated = direct[depth]
        for val in values:
            row_u[v] = val
            row_v[u] = val
            if not violated():
                reading = readers[val]
                reading.append((u, v))
                descend(depth + 1)
                reading.pop()
        row_u[v] = UNSET
        row_v[u] = UNSET

    descend(0)
    return accepted


def oracle_classes(target: TargetGraph, *, allow_long_run: bool = False) -> ClassCatalog:
    """Enumerate labelled tables and classify them up to isomorphism.

    One serial search inserts every accepted table into one catalog, in
    slot order; ``enumerate_labeled`` applies the budget check.  The
    accepted tables of a class are one orbit of Aut(target) (see the
    module docstring), so an ``OrbitKeyer`` keys the first table of each
    orbit with ``canonical_form`` and the rest by lookup.  It raises
    ``RuntimeError`` if the accepted tables are not closed under
    Aut(target), which would mean a table was dropped or repeated.
    """
    catalog = ClassCatalog()
    keyer = OrbitKeyer(target.element_count, _automorphism_movable(target), catalog)
    enumerate_labeled(target, keyer, allow_long_run=allow_long_run)
    keyer.check_closed(f"oracle tables of {target}")
    return catalog
