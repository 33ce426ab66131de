"""Isomorphism classification of tables on the same ground set.

Two tables are isomorphic when some permutation of the nonzero elements
(0 stays put) carries one onto the other.  The canonical form of a table
is the lexicographically smallest flattened upper triangle over all such
relabelings; at desk scale (m <= 8) minimizing over all m! permutations
with early-exit comparison is fast enough and leaves nothing to argue
about.

``ClassCatalog`` does all classification.  For a table whose graph has
a pendant it runs the full minimization only for a pendant-pinned key
(the minimum over the (m-2)! relabelings fixing pendant and neighbor)
it has not seen, so each class costs one full canonicalization.  Equal
pinned keys mean the tables relabel onto one table, so this is sound
for any input.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import permutations
from typing import Iterator, Optional

from .errors import UsageError
from .graphs import CompleteK, build_zd_graph, recognize_target
from .tables import MulTable, table_from_json, table_to_json

CanonicalKey = tuple  # flat upper triangle of the minimal relabeling


def _upper_cells(m: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(1, m + 1) for v in range(u, m + 1)]


def _minimize(table: MulTable, orders: Iterator[tuple[int, ...]]) -> tuple[int, ...]:
    """Smallest flattened relabeling over the given element orderings.

    ``order[i]`` is the old element placed at new position i+1.
    """
    ent = table.entries
    m = table.m
    cells = _upper_cells(m)
    best: Optional[list[int]] = None
    for order in orders:
        pos = [0] * (m + 1)
        for new_id, old in enumerate(order, 1):
            pos[old] = new_id
        if best is None:
            best = [pos[ent[order[u - 1]][order[v - 1]]] for u, v in cells]
            continue
        cand: list[int] = []
        improved = False
        rejected = False
        for idx, (u, v) in enumerate(cells):
            val = pos[ent[order[u - 1]][order[v - 1]]]
            if not improved:
                ref = best[idx]
                if val > ref:
                    rejected = True
                    break
                if val < ref:
                    improved = True
            cand.append(val)
        if improved and not rejected:
            best = cand
    assert best is not None
    return tuple(best)


def canonical_form(table: MulTable) -> CanonicalKey:
    """Canonical key: minimum flattened table over all m! relabelings."""
    m = table.m
    return _minimize(table, permutations(range(1, m + 1)))


def pendant_pinned_key(table: MulTable, pendant: int, neighbor: int) -> CanonicalKey:
    """Minimum over relabelings that pin the pendant to m and its neighbor to 1.

    Tables with equal pinned keys are isomorphic; ``ClassCatalog`` uses
    this to canonicalize once per class.  For clique size >= 3 every
    isomorphism preserves the pendant, so each class has one pinned key.
    """
    m = table.m
    middle = [u for u in range(1, m + 1) if u not in (pendant, neighbor)]

    def orders():
        for perm in permutations(middle):
            yield (neighbor, *perm, pendant)

    return _minimize(table, orders())


def table_from_key(key: CanonicalKey) -> MulTable:
    """Rebuild the canonical representative from its key."""
    length = len(key)
    m = int((-1 + (1 + 8 * length) ** 0.5) / 2)
    if m * (m + 1) // 2 != length:
        raise UsageError(f"key length {length} is not a triangular number")
    grid = [[0] * (m + 1) for _ in range(m + 1)]
    idx = 0
    for u in range(1, m + 1):
        for v in range(u, m + 1):
            grid[u][v] = grid[v][u] = key[idx]
            idx += 1
    return MulTable.from_rows(grid)


def key_to_hex(key: CanonicalKey) -> str:
    if any(v > 15 for v in key):
        raise UsageError("hex keys support at most 15 nonzero elements")
    return "".join(format(v, "x") for v in key)


def key_from_hex(text: str) -> CanonicalKey:
    return tuple(int(ch, 16) for ch in text)


@dataclass
class ClassEntry:
    key: CanonicalKey
    representative: MulTable
    multiplicity: int


@dataclass(repr=False)
class ClassCatalog:
    """Isomorphism classes keyed by canonical form.

    Representatives are stored in canonical labeling (they reproduce
    their own key); multiplicities count the labelled tables inserted,
    so the catalog doubles as an orbit-size bookkeeper.
    """

    _classes: dict[CanonicalKey, ClassEntry] = field(default_factory=dict)
    # pendant-pinned key -> canonical key, so each class is minimized once
    _pinned: dict[CanonicalKey, CanonicalKey] = field(default_factory=dict, compare=False)

    def __repr__(self) -> str:
        return f"ClassCatalog(classes={self.class_count}, labeled={self.labeled_count})"

    def key_of(self, table: MulTable) -> CanonicalKey:
        """Canonical key, fully minimized at most once per pendant-pinned key."""
        rec = recognize_target(build_zd_graph(table))
        if rec is None or rec.pendant is None:
            return canonical_form(table)
        pinned = pendant_pinned_key(table, rec.pendant, rec.neighbor)
        key = self._pinned.get(pinned)
        if key is None:
            key = self._pinned[pinned] = canonical_form(table)
        return key

    def insert(self, table: MulTable, key: Optional[CanonicalKey] = None) -> bool:
        """Insert one labelled table; True when a new class was created."""
        if key is None:
            key = self.key_of(table)
        entry = self._classes.get(key)
        if entry is not None:
            entry.multiplicity += 1
            return False
        self._classes[key] = ClassEntry(key, table_from_key(key), 1)
        return True

    @property
    def class_count(self) -> int:
        return len(self._classes)

    @property
    def labeled_count(self) -> int:
        return sum(e.multiplicity for e in self._classes.values())

    def keys(self) -> list[CanonicalKey]:
        return sorted(self._classes)

    def entries(self) -> list[ClassEntry]:
        return [self._classes[k] for k in self.keys()]

    def add_entry(self, entry: ClassEntry) -> None:
        existing = self._classes.get(entry.key)
        if existing is None:
            self._classes[entry.key] = replace(entry)
        else:
            existing.multiplicity += entry.multiplicity

    def merge(self, other: "ClassCatalog") -> None:
        for entry in other.entries():
            self.add_entry(entry)

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
            catalog._classes[key] = ClassEntry(
                key, table_from_json(item["table"]), int(item["multiplicity"])
            )
        return catalog


@dataclass(frozen=True)
class SquareProfile:
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
    rec = recognize_target(build_zd_graph(table))
    if rec is None or not isinstance(rec.target, CompleteK) or rec.target.n != table.m:
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
