"""Closed counting formulas and condition-based generators.

For the complete graph on n vertices, a table with all off-diagonal
products zero is an admissible semigroup exactly when every diagonal
entry is 0, the element itself, or a *different* element that squares
to 0.  Classes correspond to a choice of k nilpotents, t idempotents,
and a partition of n - t into exactly k parts (each nilpotent grouped
with the pointers into it), giving the class count

    sum_{k=1..n} sum_{t=0..n-k} p(n - t, k)  +  1

where p(j, i) counts partitions of j into exactly i parts and the +1 is
the all-idempotent table.

For the complete graph with one pendant vertex x (attached to element 1,
so x kills only element 1), the structure splits into four cases by the
value of x*x, which is an isomorphism invariant:

    "zero"    x*x = 0      exactly n classes
    "self"    x*x = x      a block count per fixed-point stratum (below)
    "attach"  x*x = 1      exactly n classes (see below)
    "other"   x*x = j>=2   exactly 3n - 4 classes

In the attach case the only constraints forced by associativity are
i*x = 1 and i*i in {0, 1} for every clique element i: squaring to the
neighbor is admissible, exactly as in the zero case.  The brute-force
search confirms this family, so the attach case contributes n classes
even though it was originally tabulated as a single class; the old
value is kept in ``TABULATED_COUNTS`` and reported as a discrepancy.

The "self" case is stratified by r, the number of clique elements i >= 2
with i*x = i (the elements fixed by the pendant).  Its conditions (1)-(4)
(see ``_self_choices``) fix a class by three things, in the same way the
square profile fixes a clique class:

- t idempotent fixed points;
- a multiset of blocks (a, b0, b1), one per fixed element z that squares
  to 0: a fixed elements square to z, and the pendant sends b0 + b1
  non-fixed elements to z, of which b0 square to 0 and b1 square to the
  neighbor;
- the neighbor's square, 0 or the neighbor; the neighbor only when
  every b1 is 0.

An isomorphism keeps the pendant and the neighbor and only relabels
2..n, which leaves all three unchanged, and any two tables with the same
three are relabelings of each other.  So stratum r counts the choices
with t + sum(1 + a) = r and sum(b0 + b1) = n - 1 - r, where a choice with
every b1 = 0 counts twice, once per square of the neighbor.  That is the
coefficient of x^r y^(n-1-r) in

    1/(1-x) prod_(a,b0,b1) 1/(1 - x^(1+a) y^(b0+b1))
      + 1/(1-x) prod_(a,b0) 1/(1 - x^(1+a) y^b0)

which ``self_stratum_counts`` computes.

For r = 2 that coefficient has a closed form.  With s = n - 3 the
y-degree is s, and the x-degree 2 is made as follows:

- two idempotent fixed points and no block, only at n = 3: once in each
  series, so 2;
- one idempotent fixed point and one block with a = 0, or none and one
  block with a = 1: in each, s + 1 splits b0 + b1 = s in the first
  series and one in the second, so 2(s + 2) together;
- two blocks with a = 0.  In the first series that is an unordered pair
  of splits (b0, b1), (b0', b1') with b0 + b1 + b0' + b1' = s: of the
  C(s + 3, 3) ordered pairs, s/2 + 1 pair a split with itself when s is
  even, so there are (C(s + 3, 3) + [s even](s/2 + 1))/2 unordered ones.
  In the second series it is a pair {b, s - b}: floor(s/2) + 1 of them.

So stratum 2 counts 2s + 5 + floor(s/2) + (C(s + 3, 3) + [s even](s/2 + 1))/2
classes, plus 2 more at n = 3; the tests check this against
``self_stratum_counts`` up to n = 40.

Each listing case states its conditions once, as the pendant products
and squares it allows each clique element other than the neighbor:
``_self_choices`` states (1)-(3) of x*x = x given the fixed elements and
those that square to 0, ``_neighbor_squares`` states (4), and
``_other_choices`` states the x*x = j sub-cases given j*x.  The checks
(``_self_holds``, ``_other_holds``) read those choices off a table and
test it against the statement; the generators (``_iter_self_case_tables``,
``generate_pendant_square_other``) write every table it allows, row
by row, through ``_listed``.  The tests tie both to the brute-force
search, table by table.

The formula method prefers the stated ``STRATUM_RULES`` where they
cover a stratum, so a wrong stated value shows as a deviation from the
enumerated count.  Previously tabulated values for small cases are kept
in ``TABULATED_COUNTS`` purely as cross-checks: where a computed count
disagrees, the computation wins and the deviation is surfaced as a
discrepancy finding.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Callable, Iterator, NamedTuple

from .classify import ClassCatalog, OrbitKeyer
from .errors import UsageError
from .graphs import CompleteK, CompletePlusEnd, Recognition, TargetGraph, realizes, recognition
from .tables import MulTable, check_associativity

# Class counts reported in earlier tabulations of these families, kept
# only for cross-checking: where a computed count disagrees, the
# computation wins and the deviation is surfaced, never suppressed.
# Keys: clique size n.  "pendant_attach" records the claim that the
# x*x = 1 case has a single class; the enumerations here refute it
# (the family admits squares equal to the neighbor, giving n classes).
TABULATED_COUNTS = {
    "clique": {3: 7, 4: 12},
    "pendant_self": {3: 6, 4: 27, 5: 59},
    "pendant_total": {3: 15, 4: 40, 5: 76},
    "pendant_attach": 1,
}


def pendant_case_formula(case: str, n: int) -> int:
    """Closed class count of a pendant case other than x*x = x (attach corrected)."""
    return {"zero": n, "attach": n, "other": 3 * n - 4}[case]


def historical_pendant_total(n: int, self_count: int) -> int:
    """The historical total rule, reported but never used: it undercounts by n - 1."""
    return self_count + 4 * n - 3


class StratumRule(NamedTuple):
    """A stated closed count for one fixed-point stratum of the x*x = x case."""

    label: str
    stratum: Callable[[int], int]  # the r it covers at clique size n
    value: Callable[[int], int]
    proven: Callable[[int], bool]  # a theorem at n: a mismatch is a bug


# Listed in order of preference where two rules cover one stratum.  That
# happens at n = 3, r = 2, where they conflict (piecewise 3, doubling 8).
STRATUM_RULES = (
    StratumRule("r=1 rule (n)", lambda n: 1, lambda n: n, lambda n: True),
    StratumRule("r=2 piecewise rule", lambda n: 2,
                lambda n: {3: 3, 4: 9}.get(n, 4 * (n - 1)), lambda n: n == 4),
    StratumRule("r=n-1 doubling rule (2*clique count)", lambda n: n - 1,
                lambda n: 2 * clique_class_count(n - 1), lambda n: n >= 4),
)


# ---------------------------------------------------------------------------
# partitions


def _partition_columns(total: int, parts: int) -> Iterator[list[int]]:
    """Columns i = 0..parts of p(j, i), each listed for j = 0..total.

    p(j, i) counts the partitions of j into exactly i positive parts.
    Column i follows from column i-1 and its own lower entries by
    p(j, i) = p(j-1, i-1) + p(j-i, i), with p(0, 0) = 1, so two columns
    are held at a time.
    """
    col = [1] + [0] * total
    yield col
    for i in range(1, parts + 1):
        prev, col = col, [0] * (total + 1)
        for j in range(i, total + 1):
            col[j] = prev[j - 1] + col[j - i]
        yield col


def count_partitions_exact(total: int, parts: int) -> int:
    """Number of partitions of ``total`` into exactly ``parts`` positive parts.

    Recurrence: p(j, i) = p(j-1, i-1) + p(j-i, i), with p(0, 0) = 1.
    """
    if total < 0 or parts < 0:
        return 0
    for col in _partition_columns(total, parts):
        pass
    return col[total]


def iter_partitions_exact(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Weakly increasing tuples of ``parts`` positive integers summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return

    def rec(remaining: int, k: int, minimum: int) -> Iterator[tuple[int, ...]]:
        if k == 1:
            if remaining >= minimum:
                yield (remaining,)
            return
        for first in range(minimum, remaining // k + 1):
            for rest in rec(remaining - first, k - 1, first):
                yield (first, *rest)

    yield from rec(total, parts, 1)


# ---------------------------------------------------------------------------
# complete graph


def clique_class_count(n: int) -> int:
    """Closed class count for the complete graph on n vertices."""
    if n < 1:
        raise UsageError("clique size must be >= 1")
    return (
        sum(
            col[n - t]
            for k, col in enumerate(_partition_columns(n, n))
            if k >= 1
            for t in range(0, n - k + 1)
        )
        + 1
    )


def check_clique_squares(table: MulTable) -> bool:
    """Diagonal conditions for a table with all off-diagonal products zero.

    Every square must be 0, the element itself, or a different element
    whose own square is 0.
    """
    ent = table.entries
    m = table.m
    for i in range(1, m + 1):
        sq = ent[i][i]
        if sq == 0 or sq == i:
            continue
        if sq > m or ent[sq][sq] != 0:
            return False
    return True


def _clique_table(n: int, squares: list[int]) -> MulTable:
    """The table on 1..n whose only nonzero products are i*i = squares[i - 1]."""
    return MulTable.from_cells(n, (((i, i), sq) for i, sq in enumerate(squares, start=1)))


def _iter_clique_profile_tables(n: int) -> Iterator[MulTable]:
    # The all-idempotent table (the "+1" class).
    yield _clique_table(n, list(range(1, n + 1)))
    for k in range(1, n + 1):
        for t in range(0, n - k + 1):
            for blocks in iter_partitions_exact(n - t, k):
                # k nilpotents, t idempotents, then each nilpotent's pointers.
                pointers = [nil for nil, size in enumerate(blocks, start=1)
                            for _ in range(size - 1)]
                yield _clique_table(n, [0] * k + list(range(k + 1, k + t + 1)) + pointers)


def generate_clique_classes(n: int) -> ClassCatalog:
    """One representative per square profile, re-validated and cataloged."""
    if n < 1:
        raise UsageError("clique size must be >= 1")
    catalog = ClassCatalog()
    for table in _iter_clique_profile_tables(n):
        catalog.insert(_validated(table, CompleteK(n)))
    return catalog


# ---------------------------------------------------------------------------
# pendant layout helpers


def _pendant_layout(table: MulTable) -> Recognition:
    """(target, pendant id, neighbor id); raises unless the graph is a
    clique of size >= 2 plus one pendant, which is when its recognition
    names a pendant."""
    rec = recognition(table)
    if rec is None or rec.pendant is None:
        raise UsageError("table does not realize a complete graph with one pendant")
    return rec


def _square_case(ent, pendant: int, neighbor: int) -> str:
    sq = ent[pendant][pendant]
    if sq == 0:
        return "zero"
    if sq == pendant:
        return "self"
    if sq == neighbor:
        return "attach"
    return "other"


def pendant_square_case(table: MulTable) -> str:
    """Which of the four pendant-square cases a table belongs to."""
    _, pendant, neighbor = _pendant_layout(table)
    return _square_case(table.entries, pendant, neighbor)


def pendant_fixed_points(table: MulTable) -> int:
    """Number of clique elements other than the neighbor fixed by the pendant."""
    _, pendant, neighbor = _pendant_layout(table)
    ent = table.entries
    return sum(
        1
        for i in range(1, table.m + 1)
        if i not in (pendant, neighbor) and ent[i][pendant] == i
    )


# ---------------------------------------------------------------------------
# pendant case statements and checks (on tables with the forced zero pattern)
#
# A statement lists, for each clique element i other than the neighbor,
# the pendant products and squares it allows: ``(i, products, squares)``.
# ``_allows`` checks a table against one, and ``_listed`` writes every
# table it allows, so the checks and the generators read the same one.


def _allows(ent, pendant: int, statement: list) -> bool:
    """Whether each element's pendant product and square are among those allowed."""
    return all(ent[i][pendant] in products and ent[i][i] in squares
               for i, products, squares in statement)


def _listed(
    pendant_square: int,
    statement: list,
    neighbor_squares: Callable[[tuple], tuple] = lambda squares: (0,),
) -> Iterator[MulTable]:
    """Every table that a statement allows, written row by row.

    The pendant is m = n + 1, its neighbor is 1 and every clique product
    is 0, so a table has three kinds of row.  Row i, for i in 2..n, holds
    only i's square (column i) and its pendant product (column m).  The
    neighbor's row holds only its square, each of ``neighbor_squares(squares)``
    for the squares of 2..n.  The pendant's row is 0, 0, the products of
    2..n, ``pendant_square``.  Each element's rows are written once, one per
    product and square its statement allows, and every choice of one row
    per element is one table, which ``MulTable`` still checks.
    """
    m = len(statement) + 2

    def row(u: int, square: int, product: int) -> bytes:
        cells = bytearray(m + 1)
        cells[u], cells[m] = square, product
        return bytes(cells)

    choices = [[(row(i, square, product), product, square)
                for product in products for square in squares]
               for i, products, squares in sorted(statement)]
    zero = bytes(m + 1)
    neighbor_rows = {square: row(1, square, 0) for square in (0, 1)}  # (4): 0 or the neighbor
    for choice in itertools.product(*choices):
        rows, products, squares = zip(*choice)
        pendant_row = bytes((0, 0, *products, pendant_square))
        for neighbor_square in neighbor_squares(squares):
            yield MulTable((zero, neighbor_rows[neighbor_square], *rows, pendant_row))


def _self_choices(others, fixed, zeros: tuple, neighbor: int) -> list:
    """x*x = x, given the fixed elements F and the subset Z of F that squares to 0.

    (3) a fixed element is its own pendant product, and squares to 0 if
    it is in Z, otherwise to itself or an element of Z; (2) any other
    element is sent into Z and squares to 0 or the neighbor.  (1) follows,
    as Z is empty unless an element is fixed.
    """
    return [(i, (i,), (0,) if i in zeros else (i, *zeros)) if i in fixed
            else (i, zeros, (0, neighbor)) for i in others]


def _neighbor_squares(squares, neighbor: int) -> tuple:
    """(4) the neighbor squares to 0, or to itself when no other element does."""
    return (0,) if neighbor in squares else (0, neighbor)


def _other_choices(others, j: int, jx: int, neighbor: int) -> list:
    """x*x = j, given jx = j*x: j squares to 0 when jx is the neighbor and
    to itself when jx = j, and otherwise to the neighbor while jx squares
    to 0; every other element is sent to the neighbor and squares to 0 or
    the neighbor."""
    return [(j, (jx,), (0,) if jx == neighbor else (j,) if jx == j else (neighbor,))] + [
        (i, (neighbor,), (0,) if i == jx else (0, neighbor)) for i in others if i != j]


def _pointer_family_holds(ent, pendant: int, neighbor: int, others: list) -> bool:
    """x*x = 0 and x*x = neighbor cases: the neighbor squares to 0, and the
    pendant sends every other clique element to the neighbor; each of those
    squares to 0 or the neighbor."""
    return ent[neighbor][neighbor] == 0 and _allows(
        ent, pendant, [(i, (neighbor,), (0, neighbor)) for i in others])


def _self_holds(ent, pendant: int, neighbor: int, others: list) -> bool:
    """x*x = x case: F and Z read off the table meet ``_self_choices`` and
    ``_neighbor_squares``."""
    fixed = {i for i in others if ent[i][pendant] == i}
    zeros = tuple(i for i in others if i in fixed and ent[i][i] == 0)
    return _allows(ent, pendant, _self_choices(others, fixed, zeros, neighbor)) and (
        ent[neighbor][neighbor] in _neighbor_squares({ent[i][i] for i in others}, neighbor))


def _other_holds(ent, pendant: int, neighbor: int, others: list) -> bool:
    """x*x = j for a clique element j: the neighbor squares to 0, jx = j*x is
    the neighbor or a clique element, and the table meets ``_other_choices``."""
    j = ent[pendant][pendant]
    jx = ent[j][pendant]
    return (ent[neighbor][neighbor] == 0 and (jx == neighbor or jx in others)
            and _allows(ent, pendant, _other_choices(others, j, jx, neighbor)))


_CASE_HOLDS = {
    "zero": _pointer_family_holds,
    "self": _self_holds,
    "attach": _pointer_family_holds,
    "other": _other_holds,
}


def pendant_conditions_hold(table: MulTable) -> bool:
    """Run the case check chosen by the pendant's square on the table's own
    layout; ``UsageError`` unless its graph is a clique plus one pendant."""
    _, pendant, neighbor = _pendant_layout(table)
    ent = table.entries
    others = [i for i in range(1, table.m + 1) if i not in (pendant, neighbor)]
    return _CASE_HOLDS[_square_case(ent, pendant, neighbor)](ent, pendant, neighbor, others)


# ---------------------------------------------------------------------------
# pendant case generators (pendant is element m = n+1, neighbor is element 1)


def _validated(table: MulTable, target: TargetGraph) -> MulTable:
    """Return a generated table after checking it from scratch.

    Every generator passes its tables through here: ``RuntimeError``
    unless the table is associative and ``realizes`` its target graph.
    """
    witness = check_associativity(table)
    if witness is not None:
        raise RuntimeError(f"generated table of {target} failed associativity: {witness}")
    if realizes(table, target) is None:
        raise RuntimeError(f"generated table does not realize {target}")
    return table


def _require_pendant_size(n: int) -> None:
    if n < 3:
        raise UsageError("pendant structure results need clique size >= 3")


def _generate_pointer_family(n: int, square: int) -> ClassCatalog:
    """Shared body of the zero and attach generators, keyed on the pendant's square.

    Each table is a statement with one product and one square per element,
    written by ``_listed``, so the catalog holds one table per class.
    """
    _require_pendant_size(n)
    catalog = ClassCatalog()
    target = CompletePlusEnd(n)
    for pointer_count in range(n):  # elements 2..pointer_count + 1 square to 1
        statement = [(i, (1,), (1,) if i <= pointer_count + 1 else (0,)) for i in range(2, n + 1)]
        for table in _listed(square, statement):
            catalog.insert(_validated(table, target))
    return catalog


def generate_pendant_square_zero(n: int) -> ClassCatalog:
    """x*x = 0 family: choose how many of elements 2..n square to 1."""
    return _generate_pointer_family(n, 0)


def generate_pendant_square_attach(n: int) -> ClassCatalog:
    """x*x = 1 family: choose how many of elements 2..n square to 1.

    Same shape as the zero family with the pendant square moved to the
    neighbor, hence n classes (the all-nilpotent table is the
    originally tabulated single class).
    """
    return _generate_pointer_family(n, 1)


def generate_pendant_square_other(n: int) -> ClassCatalog:
    """x*x = 2 family: every labelled table ``_other_choices`` allows, for
    each jx = 2x: the neighbor, 2 itself, or another clique element.
    ``_listed`` writes each table from the statement, with the neighbor
    squaring to 0.

    An isomorphism between two of these tables keeps the pendant m, its
    neighbor 1 and the pendant's square 2, so it relabels only 3..n, and
    the choices do not depend on those labels.  So the tables of one class
    are one orbit of those (n-2)! relabelings, and an ``OrbitKeyer`` over
    3..n keys them with one ``canonical_form`` per class; its closure
    check raises if the tables are not closed under those relabelings.
    """
    _require_pendant_size(n)
    m = n + 1
    catalog = ClassCatalog()
    keyer = OrbitKeyer(m, range(3, n + 1), catalog)
    target = CompletePlusEnd(n)
    others = range(2, n + 1)
    for jx in (1, *others):
        for table in _listed(2, _other_choices(others, 2, jx, 1)):
            keyer(_validated(table, target))
    keyer.check_closed("x*x = 2 tables")
    return catalog


class PendantSelfResult(NamedTuple):
    """Classes of the x*x = x case plus their fixed-point stratification."""

    catalog: ClassCatalog
    by_fixed_points: dict[int, int]

    @property
    def class_count(self) -> int:
        return self.catalog.class_count


def _iter_self_case_tables(n: int) -> Iterator[tuple[MulTable, int]]:
    """All labelled tables meeting the x*x = x conditions, with their r.

    For each choice of the r fixed elements among 2..n and of the subset
    Z of them that squares to 0, ``_listed`` writes a table for every
    product and square ``_self_choices`` allows and every neighbor's
    square ``_neighbor_squares`` then allows; so every table built is
    yielded, once.
    """
    m = n + 1
    others = range(2, n + 1)
    for r in range(1, n):
        for fixed in itertools.combinations(others, r):
            for zeros in itertools.chain.from_iterable(
                    itertools.combinations(fixed, k) for k in range(r + 1)):
                for table in _listed(m, _self_choices(others, fixed, zeros, 1),
                                     lambda squares: _neighbor_squares(squares, 1)):
                    yield table, r


def generate_pendant_square_self(n: int) -> PendantSelfResult:
    """Enumerate the x*x = x case from its conditions and classify.

    The tables come from ``_iter_self_case_tables``, which writes, row by
    row through ``_listed``, what ``_self_choices`` and
    ``_neighbor_squares``, conditions (1)-(4), allow.

    Every emitted table puts the pendant at m and its neighbor at 1, and an
    isomorphism between two such tables must keep both, so it relabels
    only 2..n.  The conditions do not depend on the labels of 2..n, so
    the tables of one class are exactly one orbit of those (n-1)!
    relabelings, and an ``OrbitKeyer`` over 2..n keys them with one
    ``canonical_form`` per class.  Every table is still validated and
    inserted once, and the fixed-point count r is checked to be constant
    on each class.  If the case were not closed under relabeling, the
    keyer's closure check would raise instead of miscounting.
    """
    _require_pendant_size(n)
    catalog = ClassCatalog()
    keyer = OrbitKeyer(n + 1, range(2, n + 1), catalog)
    key_fixed: dict[tuple, int] = {}
    target = CompletePlusEnd(n)
    for table, r in _iter_self_case_tables(n):
        key = keyer(_validated(table, target))
        if key_fixed.setdefault(key, r) != r:
            raise RuntimeError("fixed-point count is not constant on a class")
    keyer.check_closed("x*x = x tables")
    return PendantSelfResult(catalog, dict(sorted(Counter(key_fixed.values()).items())))


# ---------------------------------------------------------------------------
# pendant case bookkeeping


PENDANT_CASES = ("zero", "self", "attach", "other")


class PendantBreakdown(NamedTuple):
    """Per-case catalogs for one pendant target."""

    catalogs: dict[str, ClassCatalog]
    by_fixed_points: dict[int, int]

    @property
    def case_counts(self) -> dict[str, int]:
        return {case: self.catalogs[case].class_count for case in PENDANT_CASES}

    @property
    def total(self) -> int:
        return sum(c.class_count for c in self.catalogs.values())

    def merged_catalog(self) -> ClassCatalog:
        merged = ClassCatalog()
        for case in PENDANT_CASES:
            merged.merge(self.catalogs[case])
        return merged


def pendant_case_breakdown(n: int) -> PendantBreakdown:
    self_result = generate_pendant_square_self(n)
    catalogs = {
        "zero": generate_pendant_square_zero(n),
        "self": self_result.catalog,
        "attach": generate_pendant_square_attach(n),
        "other": generate_pendant_square_other(n),
    }
    return PendantBreakdown(catalogs, self_result.by_fixed_points)


def self_stratum_counts(n: int) -> dict[int, int]:
    """Class count of each x*x = x stratum r = 1..n-1, from the block structure.

    Sums the coefficients of x^r y^(n-1-r) in the two series of the
    module docstring.  ``coef[i][j]`` counts the choices of x-degree i
    and y-degree j.  It starts from the idempotent fixed points alone, one
    choice per i, and takes in each block shape x^u y^b, u = 1 + a, once
    per split b = b0 + b1 (only b1 = 0 in the second series).  Taking in
    one shape is an unbounded knapsack pass, in place and in increasing
    order, as in ``_partition_columns``.
    """
    _require_pendant_size(n)
    size = n - 1
    counts = dict.fromkeys(range(1, n), 0)
    for b1_zero in (False, True):
        coef = [[1] + [0] * size for _ in range(size + 1)]
        for u in range(1, size + 1):
            for b in range(size - u + 1):
                for _ in range(1 if b1_zero else b + 1):
                    for i in range(u, size + 1):
                        for j in range(b, size - i + 1):
                            coef[i][j] += coef[i - u][j - b]
        for r in counts:
            counts[r] += coef[r][size - r]
    return counts


def _formula_strata(n: int) -> dict[int, int]:
    """Each stratum's formula value: the first stated rule covering it, else the block count.

    The rules are laid over the block count in reverse, so that where two
    cover one stratum the first wins.
    """
    return self_stratum_counts(n) | {rule.stratum(n): rule.value(n)
                                     for rule in reversed(STRATUM_RULES)}


def fixed_points_formula(n: int, r: int) -> int:
    """Formula value of one x*x = x stratum: a stated rule, else the block count.

    The stated values are the ``STRATUM_RULES``; strata that no rule
    covers take ``self_stratum_counts``.  No generator runs.  Kept on
    purpose as the public per-stratum entry point (the package exports
    it): the report pipelines sum all strata through
    ``pendant_self_formula`` instead.
    """
    _require_pendant_size(n)
    if not 1 <= r <= n - 1:
        raise UsageError(f"fixed-point count must lie in 1..{n - 1}")
    return _formula_strata(n)[r]


def pendant_self_formula(n: int) -> int:
    """x*x = x class count: the sum of ``fixed_points_formula`` over every stratum.

    The block count is computed once for all strata, and no generator runs.
    """
    return sum(_formula_strata(n).values())


def pendant_total_formula(n: int) -> int:
    """Formula-method total: stated strata plus the closed per-case counts.

    Where a stated stratum value is wrong (r = 2 at n = 3, and the r = 2
    piecewise rule from n = 6) this deviates from the enumerated total;
    the reports surface that.
    """
    return pendant_self_formula(n) + sum(
        pendant_case_formula(case, n) for case in PENDANT_CASES if case != "self"
    )
