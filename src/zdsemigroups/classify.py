"""Isomorphism classification of tables on the same ground set.

Two tables are isomorphic when some permutation of the nonzero elements
(0 stays put) carries one onto the other.  The canonical form of a table
is the lexicographically smallest flattened upper triangle over all m!
such relabelings.

The minimum is found by a search over ordered partitions of 1..m.  The
blocks take consecutive positions in order, and a partition stands for
every order that puts each block's elements, in any order, at that
block's positions.  The search reads the key cells (u, v) in order.  A
cell is fixed when every allowed order gives it one value: all pairs of
elements that can stand at u and v have product 0, or all have one
product that is alone in its block.  Since all earlier cells are fixed,
an order reaches the minimal key only if it takes the first unfixed cell
to its least value, so each of the three moves made there keeps every
such order:

- force: all pairs have one product p, and p's block holds neither u
  nor v.  The cell is least exactly when p leads its block, so p is
  moved to the front of it.
- split: the element at u is fixed, and the least value of the cell lies
  in the range of 0 or of a block other than v's block B.  The elements
  of B whose products reach that range are moved to the front of B.
  Ranges of different blocks never overlap, and exchanging two elements
  of B moves no product in that range, so an order that puts another
  element of B ahead of them is beaten by a swap.
- branch: otherwise the search puts one element at the front of the
  block of u (or of v, once u is fixed), once for each element that
  lets the cell reach its least value.  When the least value lies
  inside B itself, a swap inside B moves the product too, so splitting
  would be wrong there.  Of elements whose transposition is a table
  automorphism (twins) only one is tried, because both give the same
  keys.  A transposition is a twin when it maps the table's code, its
  byte rows joined, onto itself under ``tables._relabeling``.

Each move keeps a subset of the orders, so the search visits at most m!
leaves, as brute force would, and returns the same key.

The search also prunes by automorphisms, as nauty and Traces do (McKay
and Piperno, J. Symbolic Comput. 60 (2014) 94-112).  When a leaf's key
ties the best key, the map g that sends each element of the leaf's order
to the element at its position in the best leaf's order is an
automorphism.  The moves read only products, blocks and positions, so g
maps the subtree of a node whose blocks it keeps onto that of the image
node, key for key.  At a branch, x is therefore skipped when a recorded
g keeps every block of the node and maps x onto an element already
tried there: g keeps the node, so it maps x's child onto that element's
child, whose subtree is searched already, and x's subtree holds only
keys seen there.  Twins are the transposition case.

``ClassCatalog`` keys a table with ``canonical_form`` unless its caller
passes the key.  ``OrbitKeyer`` is such a caller for a stream of tables
in which each class is one orbit of a known symmetric group of
relabelings: it runs ``canonical_form`` once per orbit, closes that
table's code under two generators of the group, a transposition and a
cycle, each a ``tables._relabeling``, to list the rest of the orbit,
and keys those tables by lookup.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import combinations_with_replacement
from typing import NamedTuple, Optional, Sequence

from .errors import UsageError
from .graphs import CompleteK, realizes
from .tables import MulTable, _relabeling, _swap, table_from_json, table_to_json

CanonicalKey = tuple  # flat upper triangle of the minimal relabeling
MAX_HEX_ELEMENTS = 15  # one hex digit per key value


def _least_position(p: int, x: int, y: int, u: int, v: int, of: list[int], start: list[int]) -> int:
    """Least position of product p once x stands at u and y at v.

    u and v lead their blocks, or v follows u in u's block.  That holds at
    the first unfixed cell: a cell further inside the same blocks sees
    the same pairs as an earlier cell, so it is fixed when that one is.
    """
    if p == 0:
        return 0
    if p == x:
        return u
    if p == y:
        return v
    pos = start[of[p]]
    while pos == u or pos == v:
        pos += 1
    return pos


def _least_key(table: MulTable, blocks: list[list[int]]) -> CanonicalKey:
    """Least flattened relabeling over the orders that ``blocks`` allows.

    ``blocks`` is an ordered partition of 1..m; see the module docstring
    for the search and its pruning by the automorphisms in ``autos``,
    each a list that maps an element (and 0) to its image.
    """
    ent = table.entries
    code = table.code
    m = table.m
    cells = [(u, v) for u in range(1, m + 1) for v in range(u, m + 1)]
    best: list[int] = []
    leader: list[list[int]] = []  # the best leaf's blocks
    autos: list[list[int]] = []  # one per tie: element -> image

    @cache
    def twin(z: int, w: int) -> bool:
        """True when exchanging z and w maps the table onto itself."""
        return _swap(m, z, w)(code) == code

    def descend(blocks: list[list[int]], prefix: list[int]) -> None:
        """Search below a node."""
        tight = bool(best) and best[: len(prefix)] == prefix
        while True:
            of = [0] * (m + 1)  # element -> block index
            at = [0]  # position -> block index
            start: list[int] = []  # block index -> first position
            for k, block in enumerate(blocks):
                start.append(len(at))
                for e in block:
                    of[e] = k
                    at.append(k)
            for c in range(len(prefix), len(cells)):
                u, v = cells[c]
                row, col = blocks[at[u]], blocks[at[v]]
                if u == v:
                    prods = {ent[x][x] for x in row}
                else:
                    prods = {ent[x][y] for x in row for y in col if x != y}
                if len(prods) == 1:
                    (p,) = prods
                    if p == 0 or len(blocks[of[p]]) == 1:
                        val = start[of[p]] if p else 0
                        if tight:
                            if val > best[c]:
                                return
                            tight = val == best[c]
                        prefix.append(val)
                        continue
                    if of[p] not in (at[u], at[v]):
                        k = of[p]
                        parts = [[p], [e for e in blocks[k] if e != p]]  # force
                        break
                if len(row) > 1:
                    k = at[u]
                    if u == v:
                        lows = {x: _least_position(ent[x][x], x, x, u, v, of, start) for x in row}
                    else:
                        lows = {
                            x: min(
                                _least_position(ent[x][y], x, y, u, v, of, start)
                                for y in col
                                if y != x
                            )
                            for x in row
                        }
                else:
                    k = at[v]
                    a = row[0]
                    lows = {y: _least_position(ent[a][y], a, y, u, v, of, start) for y in col}
                low = min(lows.values())
                reach = [e for e in blocks[k] if lows[e] == low]
                if len(row) == 1 and not v <= low < v + len(col) and len(reach) < len(col):
                    parts = [reach, [e for e in col if lows[e] != low]]  # split
                    break
                tried: list[int] = []  # branch, skipping automorphic images
                for x in reach:
                    if any(twin(x, r) for r in tried) or any(
                        g[x] in tried and all(of[g[e]] == of[e] for e in range(1, m + 1))
                        for g in autos
                    ):
                        continue
                    tried.append(x)
                    rest = [e for e in blocks[k] if e != x]
                    descend(blocks[:k] + [[x], rest] + blocks[k + 1 :], list(prefix))
                return
            else:  # every cell is fixed: a leaf
                if tight:  # a tie: record the automorphism, from the orders with 0 first
                    pairs = zip(sum(blocks, [0]), sum(leader, [0]))
                    autos.append([image for _, image in sorted(pairs)])
                else:
                    best[:] = prefix
                    leader[:] = blocks
                return
            blocks = blocks[:k] + parts + blocks[k + 1 :]  # block k refined

    descend([block for block in blocks if block], [])
    del descend  # it refers to itself: free the search's state now, not at a gc pass
    return tuple(best)


def canonical_form(table: MulTable) -> CanonicalKey:
    """Canonical key: minimum flattened table over all m! relabelings."""
    return _least_key(table, [list(range(1, table.m + 1))])


def pendant_pinned_key(table: MulTable, pendant: int, neighbor: int) -> CanonicalKey:
    """Minimum over relabelings that pin the pendant to m and its neighbor to 1.

    Nothing in the package calls it; perfbench's tracer binds it by name.
    """
    middle = [u for u in range(1, table.m + 1) if u not in (pendant, neighbor)]
    return _least_key(table, [[neighbor], middle, [pendant]])


def table_from_key(key: CanonicalKey) -> MulTable:
    """Rebuild the canonical representative from its key."""
    length = len(key)
    m = int((-1 + (1 + 8 * length) ** 0.5) / 2)
    if m * (m + 1) // 2 != length:
        raise UsageError(f"key length {length} is not a triangular number")
    return MulTable.from_cells(m, zip(combinations_with_replacement(range(1, m + 1), 2), key))


def key_to_hex(key: CanonicalKey) -> str:
    if any(v > MAX_HEX_ELEMENTS for v in key):
        raise UsageError(f"hex keys support at most {MAX_HEX_ELEMENTS} nonzero elements")
    return "".join(format(v, "x") for v in key)


def key_from_hex(text: str) -> CanonicalKey:
    return tuple(int(ch, 16) for ch in text)


class ClassEntry(NamedTuple):
    key: CanonicalKey
    multiplicity: int

    @property
    def representative(self) -> MulTable:
        """The canonical table, rebuilt from the key."""
        return table_from_key(self.key)


class ClassCatalog:
    """Isomorphism classes as a map from canonical key to multiplicity.

    A class is its key: its representative is the canonical table that
    ``table_from_key`` rebuilds from the key, so it is never stored.
    Multiplicities count the labelled tables inserted, so the catalog
    doubles as an orbit-size bookkeeper.  Two catalogs are equal when
    they hold the same keys with the same multiplicities.
    """

    __slots__ = ("_multiplicity",)

    def __init__(self) -> None:
        self._multiplicity: Counter = Counter()

    def __repr__(self) -> str:
        return f"ClassCatalog(classes={self.class_count}, labeled={self.labeled_count})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._multiplicity == other._multiplicity

    def insert(self, table: MulTable, key: Optional[CanonicalKey] = None) -> bool:
        """Insert one labelled table; True when a new class was created."""
        if key is None:
            key = canonical_form(table)
        new = key not in self._multiplicity
        self._multiplicity[key] += 1
        return new

    @property
    def class_count(self) -> int:
        return len(self._multiplicity)

    @property
    def labeled_count(self) -> int:
        return sum(self._multiplicity.values())

    def keys(self) -> list[CanonicalKey]:
        return sorted(self._multiplicity)

    def entries(self) -> list[ClassEntry]:
        return [ClassEntry(k, self._multiplicity[k]) for k in self.keys()]

    def add_entry(self, entry: ClassEntry) -> None:
        self._multiplicity[entry.key] += entry.multiplicity

    def merge(self, other: "ClassCatalog") -> None:
        self._multiplicity.update(other._multiplicity)

    def to_json_obj(self) -> list[dict]:
        return [
            {
                "key": key_to_hex(e.key),
                "multiplicity": e.multiplicity,
                "table": table_to_json(e.representative),
            }
            for e in self.entries()
        ]

    @classmethod
    def from_json_obj(cls, obj: list[dict]) -> "ClassCatalog":
        catalog = cls()
        for item in obj:
            key = key_from_hex(item["key"])
            if key in catalog._multiplicity:
                raise ValueError(f"class {item['key']} is listed twice")
            multiplicity = item["multiplicity"]
            if type(multiplicity) is not int or multiplicity < 1:
                raise ValueError(f"multiplicity must be a positive integer, got {multiplicity!r}")
            if table_from_json(item["table"]) != table_from_key(key):
                raise ValueError(f"class {key_to_hex(key)} stores a table other than its key's")
            catalog._multiplicity[key] = multiplicity
        return catalog


class OrbitKeyer:
    """Key and insert tables whose classes are orbits of relabelings of ``movable``.

    The relabelings permute ``movable`` among themselves and fix the
    other elements of 1..m.  A caller may use the keyer when the tables
    it emits of one class are exactly one orbit of these relabelings,
    each table emitted once.  Calling the keyer on a table keys it,
    inserts it into ``catalog`` and returns the key.  The first table of
    an orbit is keyed by ``canonical_form``, and the codes (flattened
    grids as ``bytes``) of the rest of its orbit wait in a pending dict
    with that key; the orbit's other tables pop their key from there.

    The keyer stores only two generators of the group, the
    transposition (a1 a2) and the cycle (a1 a2 ... ak) of ``movable`` =
    a1..ak, each as the ``_relabeling`` that maps a code to the code of
    the relabeled table.  For k = 2 the cycle is the transposition and
    is left out, and for k <= 1 there is no generator.  The orbit of a
    new table is the closure of its code under the generators, found by
    a work-list search, so memory grows with the orbits emitted, not
    with the group.

    A table emitted twice never lets a miscount through.  When it is the
    first of its orbit (or alone in it), its code is not pending but kept,
    so the keyer raises ``RuntimeError`` at once.  Any other table emitted
    twice is keyed again and lists its orbit again, which leaves the first
    code pending.  A code left pending at the end names a relabeling that
    was never emitted, or such a repeat, so ``check_closed`` raises.
    """

    def __init__(self, m: int, movable: Sequence[int], catalog: ClassCatalog):
        self.catalog = catalog
        a = list(movable)
        # (a1 a2) and (a1 a2 ... ak); k = 2 needs only the first, k <= 1 neither
        moves = [dict(zip(a[:2], a[1::-1])), dict(zip(a, a[1:] + a[:1]))][:max(len(a) - 1, 0)]
        self._generators = [_relabeling([g.get(u, u) for u in range(m + 1)]) for g in moves]
        self._pending: dict[bytes, CanonicalKey] = {}
        self._firsts: set[bytes] = set()

    def __call__(self, table: MulTable) -> CanonicalKey:
        code = table.code
        key = self._pending.pop(code, None)
        if key is None:
            if code in self._firsts:
                raise RuntimeError("a table was emitted twice, so its class would be miscounted")
            self._firsts.add(code)
            key = canonical_form(table)
            orbit = {code}
            work = [code]
            for seen in work:
                for generator in self._generators:
                    image = generator(seen)
                    if image not in orbit:
                        orbit.add(image)
                        work.append(image)
            self._pending.update(dict.fromkeys(work[1:], key))
        self.catalog.insert(table, key=key)
        return key

    def check_closed(self, tables: str) -> None:
        """Raise unless every relabeling of every keyed table was keyed."""
        if self._pending:
            raise RuntimeError(
                f"{tables} are not closed under relabeling: {len(self._pending)} never emitted"
            )


class SquareProfile(NamedTuple):
    """Square structure of a table whose graph is a complete graph.

    The nonzero elements split into nilpotents (square 0), idempotents
    (square self) and pointers (square equal to a *different* nilpotent).
    Grouping each nilpotent with the pointers into it partitions the
    non-idempotent elements into blocks; ``block_sizes`` lists those
    block sizes in weakly increasing order.  The triple
    (#nilpotents, #idempotents, block_sizes) determines the table up to
    isomorphism.
    """

    nilpotents: frozenset[int]
    idempotents: frozenset[int]
    pointers: frozenset[int]
    block_sizes: tuple[int, ...]

    @property
    def nilpotent_count(self) -> int:
        return len(self.nilpotents)

    @property
    def idempotent_count(self) -> int:
        return len(self.idempotents)

    @property
    def signature(self) -> tuple:
        return (self.nilpotent_count, self.idempotent_count, self.block_sizes)


def square_profile(table: MulTable) -> SquareProfile:
    """Profile of a complete-graph table; raises for other shapes."""
    if realizes(table, CompleteK(table.m)) is None:
        raise UsageError("square profiles are defined for complete-graph tables only")
    ent = table.entries
    m = table.m
    nilpotents = frozenset(i for i in range(1, m + 1) if ent[i][i] == 0)
    idempotents = frozenset(i for i in range(1, m + 1) if ent[i][i] == i)
    pointers = frozenset(range(1, m + 1)) - nilpotents - idempotents
    counts = {i: 1 for i in nilpotents}
    for c in pointers:
        target = ent[c][c]
        if target not in nilpotents:
            raise UsageError(f"element {c} squares to {target}, which is not nilpotent")
        counts[target] += 1
    return SquareProfile(
        nilpotents, idempotents, pointers, tuple(sorted(counts.values()))
    )
