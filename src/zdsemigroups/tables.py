"""Dense multiplication tables for finite commutative semigroups with zero.

A table lives on the ground set {0, 1, ..., m}: index 0 is the absorbing
zero element (0x = 0 for every x) and indices 1..m are the nonzero
elements.  A table has at most 255 nonzero elements, so the full
(m+1) x (m+1) grid is stored as one ``bytes`` row per element, and
``entries[u][v]`` is a plain int lookup.  The rows joined are the
table's code, its grid flattened row by row, which the constructor
builds once to validate the rows and keeps as ``code``; every reader
takes the rows or the code as they are, with no conversion or join of
its own.  Symmetry and the zero row/column are enforced at
construction, which makes every ``MulTable`` commutative with absorbing
zero *by construction*; associativity is a separate property checked on
demand.

Relabeling is one operation on codes, ``_relabeling``: a gather reads
the old product that lands on each cell and ``bytes.translate`` renames
it.  ``permute_table``, ``classify.OrbitKeyer`` and the canonical
search's twin test all use it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import UsageError

# ``bool`` is refused too: a table entry is an element id, not a truth value.
_INT_ONLY = frozenset({int})
# A row is stored as bytes; a grid of ints may give its rows as lists or tuples.
_ROW_TYPES = frozenset({bytes, list, tuple})

# Entries are stored and compared as bytes, so an element id is at most 255.
MAX_ELEMENTS = 255

# Every byte value in order; its first ``size`` bytes are the element ids of a table.
_BYTE_VALUES = bytes(range(256))


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


def _entry_error(values: Sequence, m: int) -> UsageError:
    """The refusal of a non-``int`` among ``values``, else of the first outside 0..m."""
    if not _INT_ONLY.issuperset(map(type, values)):
        return UsageError("table entries must be integers")
    val = next(v for v in values if not 0 <= v <= m)
    return UsageError(f"entry {val} outside element range 0..{m}")


def _rows(code: bytes, size: int) -> tuple[bytes, ...]:
    """The rows of a code, the flattened grid of a table with ``size`` rows."""
    return tuple(code[u * size:(u + 1) * size] for u in range(size))


class MulTable:
    """Immutable symmetric multiplication table with absorbing zero."""

    __slots__ = ("entries", "code")
    entries: tuple[bytes, ...]
    code: bytes  # the rows joined, kept from validation
    __setattr__ = __delattr__ = read_only

    def __init__(self, entries: Sequence[bytes]):
        """Table from its rows as ``bytes``; rows given as lists or tuples of
        ints are converted.

        Refusals, in order: fewer than two rows or more than 256, a row
        that is not a ``bytes``, list or tuple of length m+1, a non-``int``
        entry, an entry outside 0..m, a nonzero entry in the zero row or
        column, an asymmetric pair.
        """
        size = len(entries)
        if size < 2:
            raise UsageError("table needs the zero element and at least one nonzero element")
        m = size - 1
        if m > MAX_ELEMENTS:
            raise UsageError(f"table has {m} nonzero elements; at most {MAX_ELEMENTS} are supported")
        kinds = set(map(type, entries))
        if not kinds <= _ROW_TYPES or set(map(len, entries)) != {size}:
            raise UsageError("table grid must be square")
        if kinds != {bytes}:  # int rows are checked before bytes() reads True as 1
            values = list(chain.from_iterable(entries))
            if not _INT_ONLY.issuperset(map(type, values)) or min(values) < 0 or max(values) > m:
                raise _entry_error(values, m)
            entries = tuple(map(bytes, entries))
        code = b"".join(entries)
        # Deleting every element id leaves only the entries out of range.
        if code.translate(None, _BYTE_VALUES[:size]):
            raise _entry_error(code, m)
        if any(entries[0]) or any(code[::size]):
            raise UsageError("zero row/column must be identically zero")
        if code != b"".join([code[v::size] for v in range(size)]):
            asymmetric = next((u, v) for u in range(size) for v in range(u + 1, size)
                              if entries[u][v] != entries[v][u])
            raise UsageError(f"table is not symmetric at {asymmetric}")
        object.__setattr__(self, "entries", tuple(entries))
        object.__setattr__(self, "code", code)

    def __repr__(self) -> str:
        return f"MulTable(entries={tuple(map(tuple, self.entries))!r})"

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
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "MulTable":
        """Table from a grid of int rows; any other entry, even ``1.0``, is refused."""
        return cls(tuple(rows))

    @classmethod
    def from_cells(cls, m: int, cells: Iterable[tuple[tuple[int, int], int]]) -> "MulTable":
        """Table on 0..m with each listed ``((u, v), value)`` product written
        at (u, v) and (v, u); every other product is 0.

        The products are written into one flat byte grid, so a cell that is
        not a pair of ``int`` in 1..m, or a value that is not an ``int`` or
        does not fit a byte, is refused as it is met.
        """
        size = m + 1
        code = bytearray(size * size)
        for (u, v), value in cells:
            if not (type(u) is type(v) is int and 0 < u <= m and 0 < v <= m):
                raise UsageError(f"cell {(u, v)} outside 1..{m}")
            if type(value) is not int or not 0 <= value <= MAX_ELEMENTS:
                raise _entry_error([value], m)
            code[u * size + v] = code[v * size + u] = value
        return cls(_rows(bytes(code), size))


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

    Each element u is decided in one step over every pair (v, w), on the
    stored rows and the code, their v-major concatenation.  u(vw) is the
    code renamed by row u (``bytes.translate`` maps each product vw to
    u(vw)), and (uv)w is the rows of the products uv, v = 0..m, joined;
    the two agree exactly when u satisfies the law with every v and w.
    Only the first u where they differ is scanned, v by v and then w by w,
    with row v renamed by row u as before, so the witness is the
    lex-first triple.

    The last element m is not scanned.  The table is symmetric, so
    (mv)w = w(vm) and m(vw) = (wv)m: the triple (m, v, w) fails exactly
    when (w, v, m) does, which comes first for w < m, and (m, v, m) never
    fails.  So the lex-first failing triple has u < m.
    """
    rows = table.entries
    code = table.code
    elements = range(1, len(rows))
    for u in range(1, len(rows) - 1):
        row_u = rows[u]
        rename = row_u.ljust(256, b"\0")
        if b"".join(itemgetter(*row_u)(rows)) == code.translate(rename):
            continue
        for v in elements:
            lhs_row, rhs_row = rows[row_u[v]], rows[v].translate(rename)
            for w in elements:
                if lhs_row[w] != rhs_row[w]:
                    return AssocWitness(u, v, w, lhs_row[w], rhs_row[w])
    return None


def zero_divisors(table: MulTable) -> set[int]:
    """Nonzero elements u with uv = 0 for some nonzero v (v = u allowed)."""
    return {u for u, row in enumerate(table.entries) if u and 0 in row[1:]}


def is_zd_semigroup(table: MulTable) -> bool:
    """True iff the table is associative and every nonzero element is a zero divisor."""
    return check_associativity(table) is None and all(0 in row[1:] for row in table.entries[1:])


def _relabeling(perm: Sequence[int]) -> Callable[[bytes], bytes]:
    """The map from a table's code to the code of its relabeling by ``perm``.

    ``perm[u]`` is the new id of u, and ``perm[0] = 0``.  The new table
    holds perm(uv) at (perm[u], perm[v]), so the gather reads, for each
    new cell in order, the old product that lands there, and
    ``bytes.translate`` gives that product its new id.
    """
    size = len(perm)
    old = sorted(range(size), key=perm.__getitem__)  # old[perm[u]] = u
    gather = itemgetter(*(u * size + v for u in old for v in old))
    rename = bytes(perm).ljust(256, b"\0")
    return lambda code: bytes(gather(code)).translate(rename)


@lru_cache(maxsize=256)
def _swap(m: int, a: int, b: int) -> Callable[[bytes], bytes]:
    """The ``_relabeling`` that exchanges elements a and b of 0..m.

    Cached, because the canonical search tests the same few swaps on
    table after table of one size; 256 entries hold every swap at one m <= 22.
    """
    return _relabeling([b if i == a else a if i == b else i for i in range(m + 1)])


def permute_table(table: MulTable, perm: Sequence[int]) -> MulTable:
    """Relabel nonzero elements by ``perm`` (perm[u] = new id of u, perm[0] = 0)."""
    m = table.m
    if sorted(perm) != list(range(m + 1)) or perm[0] != 0 or not _INT_ONLY.issuperset(map(type, perm)):
        raise UsageError("perm must be a permutation of 0..m fixing 0")
    return MulTable(_rows(_relabeling(perm)(table.code), m + 1))


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
