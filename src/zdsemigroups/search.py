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
(uv)w, (vw)u, (uw)v agreeing; the pruner compares whichever of the
three are already determined.  On a multiset {u, u, w} the second and
third pairings are the same product (uw)u, so two determined values
there disagree exactly when (uu)w and (uw)u are both determined and
differ.  A diagonal slot (u, u) therefore checks its direct multisets
{u, u, w} by comparing those two products only, and skips {u, u, u},
whose three pairings are all (uu)u; it prunes what the three-way
comparison would.

The pruning is incremental.  Evaluating a multiset reads the cells of
its pairs and then, for each pair product p, the cell (p, third
element).  So cell (u, v) is read by {u, v, w} for every w, by
{a, b, v} for every cell (a, b) whose value is u, and by {a, b, u} for
every cell whose value is v.  After setting (u, v) the search rechecks
just those multisets, finding the last two kinds through ``readers``,
the assigned free cells listed by value.  The other cells hold 0, and a
product 0 reads only the zero row, so they never read a free cell and
``readers`` leaves them out.  This prunes exactly the nodes a rescan of
every multiset would: at the root every determined product is 0, so the
seed violates nothing, every node was checked before the search
descended from it, and a multiset's three products change only through
a cell they read.

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
    if allow_long_run or fits_budget(target):
        return
    leaves = assignment_count(seed_partial_table(target))
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
    """Do two determined parenthesizations of some multiset disagree?"""
    for u, v, w in triples:
        p = g[u][v]
        a = g[p][w] if p >= 0 else UNSET
        q = g[v][w]
        b = g[q][u] if q >= 0 else UNSET
        r = g[u][w]
        c = g[r][v] if r >= 0 else UNSET
        if a >= 0:
            if (b >= 0 and a != b) or (c >= 0 and a != c):
                return True
        elif b >= 0 and c >= 0 and b != c:
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
    # Triples that read a slot's cell (u, v) directly: {u, v, w} for every w.
    # A diagonal slot lists only the w != u of its {u, u, w}, for
    # ``_diagonal_violation``; {u, u, u} has a single product.
    direct = [tuple((u, v, w) for w in range(1, m + 1)) if u != v
              else tuple(w for w in range(1, m + 1) if w != u) for u, v in slots]
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
        row_u = grid[u]
        row_v = grid[v]
        # A cell (a, b) whose value is u reads (u, v) in {a, b, v}, and
        # one whose value is v reads it in {a, b, u}.
        triples = tuple((a, b, v) for a, b in readers[u])
        if u == v:
            diagonal = direct[depth]
        else:
            diagonal = ()
            triples = direct[depth] + triples + tuple((a, b, u) for a, b in readers[v])
        for val in domains[depth]:
            row_u[v] = val
            row_v[u] = val
            if diagonal and _diagonal_violation(grid, u, diagonal):
                continue
            if not _partial_violation(grid, triples):
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
