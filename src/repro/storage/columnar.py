"""Columnar id-encoded mirrors of relation extensions.

A :class:`BatchStore` holds a relation's tuples as parallel columns of
interned term ids (:mod:`repro.datalog.intern`) plus hash buckets over
column subsets mapping a key to the *row indices* holding it.  The batch
join steps (:mod:`repro.engine.batch`) probe those buckets and gather
output columns with list comprehensions — the whole point is that every
per-row operation in the join loop works on small ints, not term objects.

Stores are maintained *incrementally*: :class:`~repro.storage.relation`
appends each newly inserted row to the live store (and to every bucket
map already built), so a semi-naive workspace never re-encodes its
accumulated extension between rounds.  Removal does not try to be clever:
the owner drops its store on ``remove``/``clear`` and the next batch join
rebuilds from the surviving rows — retract is rare, joins are hot.
"""

from __future__ import annotations

from typing import Iterable

from ..datalog.intern import TermInterner
from ..datalog.terms import Term

Row = tuple[Term, ...]


class BatchStore:
    """Interned columns + row-index buckets for one extension."""

    __slots__ = ("interner", "columns", "length", "_buckets")

    def __init__(self, interner: TermInterner, arity: int | None = None):
        self.interner = interner
        #: One list of ids per column; None until the first row fixes arity.
        self.columns: list[list[int]] | None = (
            [[] for _ in range(arity)] if arity is not None else None
        )
        self.length = 0
        #: positions tuple -> {key: [row indices]}.  A key is the bare id
        #: for single-position buckets, a tuple of ids otherwise (and the
        #: empty tuple for the zero-position "all rows" bucket).
        self._buckets: dict[tuple[int, ...], dict[object, list[int]]] = {}

    def append(self, row: Row) -> None:
        """Encode and append one tuple, updating every built bucket map."""
        columns = self.columns
        if columns is None:
            columns = self.columns = [[] for _ in row]
        id_of = self.interner.id_of
        ids = [id_of(t) for t in row]
        for column, ident in zip(columns, ids):
            column.append(ident)
        index = self.length
        self.length = index + 1
        for positions, buckets in self._buckets.items():
            if len(positions) == 1:
                key: object = ids[positions[0]]
            else:
                key = tuple(ids[p] for p in positions)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [index]
            else:
                bucket.append(index)

    def extend(self, rows: Iterable[Row]) -> None:
        if self._buckets:
            # built bucket maps must see every row
            for row in rows:
                self.append(row)
            return
        # Nothing to maintain yet (a fresh mirror, a per-round delta
        # encode): one pass per column instead of per-row bookkeeping.
        if not isinstance(rows, (list, tuple, set, frozenset)):
            rows = list(rows)
        if not rows:
            return
        if self.columns is None:
            self.columns = [[] for _ in next(iter(rows))]
        id_of = self.interner.id_of
        encoded = [
            [id_of(row[position]) for row in rows]
            for position in range(len(self.columns))
        ]
        for column, ids in zip(self.columns, encoded):
            column.extend(ids)
        self.length += len(rows)

    def buckets_for(self, positions: tuple[int, ...]) -> dict[object, list[int]]:
        """Row-index buckets keyed on *positions* (built lazily, then
        maintained by :meth:`append`)."""
        buckets = self._buckets.get(positions)
        if buckets is not None:
            return buckets
        buckets = {}
        if self.length:
            if len(positions) == 1:
                keys: Iterable[object] = self.columns[positions[0]]
            elif positions:
                keys = zip(*(self.columns[p] for p in positions))
            else:
                keys = ((),) * self.length
            for index, key in enumerate(keys):
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = [index]
                else:
                    bucket.append(index)
        self._buckets[positions] = buckets
        return buckets

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        width = len(self.columns) if self.columns is not None else "?"
        return f"BatchStore({self.length} rows, width {width}, {len(self._buckets)} bucket maps)"


def store_from_rows(
    rows: Iterable[Row], interner: TermInterner, arity: int | None = None
) -> BatchStore:
    """One-shot encode of an iterable extension (per-call, not cached)."""
    store = BatchStore(interner, arity)
    store.extend(rows)
    return store
