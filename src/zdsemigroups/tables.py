"""Dense multiplication tables for finite commutative semigroups with zero.

A table lives on the ground set {0, 1, ..., m}: index 0 is the absorbing
zero element (0x = 0 for every x) and indices 1..m are the nonzero
elements.  The full (m+1) x (m+1) grid is stored, so lookups are plain
indexing.  Symmetry and the zero row/column are enforced at construction,
which makes every ``MulTable`` commutative with absorbing zero *by
construction*; associativity is a separate property checked on demand.
A table has at most 255 nonzero elements, so every entry fits in a byte.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import UsageError

# ``bool`` is refused too: a table entry is an element id, not a truth value.
_INT_ONLY = frozenset({int})

# Entries are stored and compared as bytes, so an element id is at most 255.
MAX_ELEMENTS = 255


@lru_cache(maxsize=None)
def _element_range(size: int) -> frozenset[int]:
    """The element ids 0..size-1 of a table with ``size`` rows."""
    return frozenset(range(size))


class AssocWitness(NamedTuple):
    """First failing triple of the associative law, in lexicographic order.

    ``lhs`` is (uv)w and ``rhs`` is u(vw) as read off the table.
    """

    u: int
    v: int
    w: int
    lhs: int
    rhs: int


def read_only(self, name: str, *value) -> None:
    """``__setattr__`` and ``__delattr__`` of a class whose fields are set once."""
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


class MulTable:
    """Immutable symmetric multiplication table with absorbing zero."""

    __slots__ = ("entries",)
    entries: tuple[tuple[int, ...], ...]
    __setattr__ = __delattr__ = read_only

    def __init__(self, entries: tuple[tuple[int, ...], ...]):
        ent = entries
        size = len(ent)
        if size < 2:
            raise UsageError("table needs the zero element and at least one nonzero element")
        m = size - 1
        if m > MAX_ELEMENTS:
            raise UsageError(f"table has {m} nonzero elements; at most {MAX_ELEMENTS} are supported")
        if set(map(len, ent)) != {size}:
            raise UsageError("table grid must be square")
        if not _INT_ONLY.issuperset(map(type, chain.from_iterable(ent))):
            raise UsageError("table entries must be integers")
        if not _element_range(size).issuperset(chain.from_iterable(ent)):
            val = next(v for v in chain.from_iterable(ent) if not 0 <= v <= m)
            raise UsageError(f"entry {val} outside element range 0..{m}")
        columns = tuple(zip(*ent))
        if any(ent[0]) or any(columns[0]):
            raise UsageError("zero row/column must be identically zero")
        # A grid of lists never equals its tuple transpose, so rescan before refusing.
        if ent != columns:
            asymmetric = next(((u, v) for u in range(size) for v in range(u + 1, size)
                               if ent[u][v] != ent[v][u]), None)
            if asymmetric is not None:
                raise UsageError(f"table is not symmetric at {asymmetric}")
        object.__setattr__(self, "entries", entries)

    def __repr__(self) -> str:
        return f"MulTable(entries={self.entries!r})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __reduce__(self):
        return type(self), (self.entries,)

    @property
    def m(self) -> int:
        """Number of nonzero elements."""
        return len(self.entries) - 1

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "MulTable":
        """Table from a grid of ints; any other entry, even ``1.0``, is refused."""
        return cls(tuple(map(tuple, rows)))

    @classmethod
    def from_cells(cls, m: int, cells: Iterable[tuple[tuple[int, int], int]]) -> "MulTable":
        """Table on 0..m with each listed ``((u, v), value)`` product written
        at (u, v) and (v, u); every other product is 0."""
        grid = [[0] * (m + 1) for _ in range(m + 1)]
        for (u, v), value in cells:
            grid[u][v] = grid[v][u] = value
        return cls.from_rows(grid)


def mul(table: MulTable, u: int, v: int) -> int:
    """Product of two elements; raises ``UsageError`` on out-of-range ids."""
    m = table.m
    if not (0 <= u <= m and 0 <= v <= m):
        raise UsageError(f"element ids must lie in 0..{m}, got ({u}, {v})")
    return table.entries[u][v]


def check_associativity(table: MulTable) -> Optional[AssocWitness]:
    """Check all nonzero triples (u, v, w) in lexicographic order.

    Returns ``None`` when (uv)w = u(vw) for every triple, otherwise the
    first failing witness.  Triples involving 0 hold trivially (both
    sides are 0).

    Each element u is decided in one step over every pair (v, w), with
    the rows as bytes and the grid as their v-major concatenation.
    u(vw) is the grid renamed by row u (``bytes.translate`` maps each
    product vw to u(vw)), and (uv)w is the rows of the products uv,
    v = 0..m, joined; the two agree exactly when u satisfies the law
    with every v and w.  Only the first u where they differ is scanned:
    its rows are compared one v at a time, again by renaming, then the
    first differing row over w, so the witness is the lex-first triple.
    """
    rows = list(map(bytes, table.entries))
    grid = b"".join(rows)
    elements = range(1, len(rows))
    for u in elements:
        row_u = rows[u]
        rename = row_u.ljust(256, b"\0")
        if b"".join(itemgetter(*row_u)(rows)) == grid.translate(rename):
            continue
        for v in elements:
            lhs_row = rows[row_u[v]]
            rhs_row = rows[v].translate(rename)
            if lhs_row != rhs_row:
                for w in elements:
                    if lhs_row[w] != rhs_row[w]:
                        return AssocWitness(u, v, w, lhs_row[w], rhs_row[w])
    return None


def zero_divisors(table: MulTable) -> set[int]:
    """Nonzero elements u with uv = 0 for some nonzero v (v = u allowed)."""
    ent = table.entries
    return {u for u in range(1, table.m + 1) if 0 in ent[u][1:]}


def is_zd_semigroup(table: MulTable) -> bool:
    """True iff the table is associative and every nonzero element is a zero divisor."""
    if check_associativity(table) is not None:
        return False
    return zero_divisors(table) == set(range(1, table.m + 1))


def permute_table(table: MulTable, perm: Sequence[int]) -> MulTable:
    """Relabel nonzero elements by ``perm`` (perm[u] = new id of u, perm[0] = 0)."""
    m = table.m
    if len(perm) != m + 1 or perm[0] != 0 or sorted(perm) != list(range(m + 1)):
        raise UsageError("perm must be a permutation of 0..m fixing 0")
    ent = table.entries
    return MulTable.from_cells(m, (((perm[u], perm[v]), perm[ent[u][v]])
                                   for u in range(1, m + 1) for v in range(u, m + 1)))


def table_to_json(table: MulTable) -> dict:
    """JSON form ``{"m": ..., "entries": [[...]]}`` with the full grid."""
    return {"m": table.m, "entries": [list(row) for row in table.entries]}


def table_from_json(obj: dict) -> MulTable:
    """Parse and validate the JSON form; rejects malformed grids."""
    if not (isinstance(obj, dict) and type(obj.get("m")) is int
            and isinstance(obj.get("entries"), list)
            and all(isinstance(row, list) and all(type(v) is int for v in row)
                    for row in obj["entries"])):
        raise UsageError("table JSON needs an integer 'm' and 'entries', a list of integer rows")
    if len(obj["entries"]) != obj["m"] + 1:
        raise UsageError("entries grid does not match declared element count")
    return MulTable.from_rows(obj["entries"])
