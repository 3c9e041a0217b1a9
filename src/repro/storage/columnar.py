"""Columnar id-encoded relation extensions.

A :class:`BatchStore` holds a relation's tuples as parallel columns of
interned term ids (:mod:`repro.datalog.intern`) plus hash buckets over
column subsets mapping a key to the *row indices* holding it.  The
lowered join steps (:mod:`repro.engine.batch`) probe those buckets and
gather output columns with list comprehensions — the whole point is that
every per-row operation in the join loop works on small ints, not term
objects.

Two owners:

* a base :class:`~repro.storage.relation.Relation` keeps a
  :class:`BatchStore` as a *mirror* of its term rows, appending each
  newly inserted row to it; removal drops the mirror and the next join
  rebuilds it from the surviving rows — retract is rare, joins are hot;
* a derived predicate's extension on the compiled query path *is* an
  :class:`IdRelation` — the store plus the set of its id rows, so new
  rows are found by one set difference and appended in bulk.  It is
  never held as term rows; :meth:`IdRelation.decoded` is the boundary a
  term-space consumer reads it through.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable

from ..datalog.intern import TermInterner
from ..datalog.terms import Term

Row = tuple[Term, ...]
IdRow = tuple[int, ...]


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
        #: positions tuple -> [{key: [row indices]}, rows indexed so far].
        #: A key is the bare id for single-position buckets, a tuple of
        #: ids otherwise (and the empty tuple for the zero-position "all
        #: rows" bucket).
        self._buckets: dict[tuple[int, ...], list] = {}

    def append(self, row: Row) -> None:
        """Encode and append one tuple."""
        self.extend((row,))

    def extend(self, rows: Iterable[Row]) -> None:
        """Encode and append term rows, one pass per column."""
        if not isinstance(rows, (list, tuple, set, frozenset)):
            rows = list(rows)
        id_of = self.interner.id_of
        self._extend_columns(
            [list(map(id_of, column)) for column in zip(*rows)], len(rows)
        )

    def extend_ids(self, id_rows: "set[IdRow] | list[IdRow]") -> None:
        """Append rows that are already interned ids."""
        self._extend_columns(list(zip(*id_rows)), len(id_rows))

    def _extend_columns(self, new_columns: list, count: int) -> None:
        if not count:
            return
        if self.columns is None:
            self.columns = [[] for _ in new_columns]
        for column, ids in zip(self.columns, new_columns):
            column.extend(ids)
        self.length += count

    def buckets_for(self, positions: tuple[int, ...]) -> dict[object, list[int]]:
        """Row-index buckets keyed on *positions*: built on the first
        call, then brought up to date with the rows appended since the
        last one — a map nobody probes again costs nothing to keep.  Not
        to be held across an append."""
        entry = self._buckets.get(positions)
        if entry is None:
            entry = self._buckets[positions] = [{}, 0]
        buckets, done = entry
        if done < self.length:
            if len(positions) == 1:
                keys: Iterable[object] = self.columns[positions[0]][done:]
            elif positions:
                keys = zip(*(self.columns[p][done:] for p in positions))
            else:
                keys = repeat((), self.length - done)
            for index, key in enumerate(keys, done):
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = [index]
                else:
                    bucket.append(index)
            entry[1] = self.length
        return buckets

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        width = len(self.columns) if self.columns is not None else "?"
        return (
            f"{type(self).__name__}({self.length} rows, width {width}, "
            f"{len(self._buckets)} bucket maps)"
        )


class IdRelation(BatchStore):
    """A duplicate-free extension held in id space: the set of its id
    rows, and the same rows as columns with bucket maps.

    This is what the compiled query path passes around between a stored
    relation and ``to_python()``: a fixpoint's workspace entry and its
    per-round delta, a plan node's result, the key set's target when a
    bound filter probes instead of scanning.
    """

    __slots__ = ("rows", "_decoded", "_decoded_length")

    def __init__(
        self,
        interner: TermInterner,
        arity: int | None = None,
        rows: "set[IdRow] | None" = None,
    ):
        """*rows*, when given, becomes the relation's own set (not copied)."""
        super().__init__(interner, arity)
        self.rows: set[IdRow] = rows if rows is not None else set()
        self._decoded = None
        self._decoded_length = 0
        self.extend_ids(self.rows)

    def absorb(self, produced: "set[IdRow]") -> "set[IdRow]":
        """Add the rows of *produced* not held yet; returns exactly those."""
        new = produced - self.rows
        if new:
            self.rows |= new
            self.extend_ids(new)
        return new

    def select(
        self, positions: tuple[int, ...], keys: "frozenset[IdRow]", probe: bool = True
    ) -> "IdRelation":
        """The rows whose *positions* fields equal one of *keys* — a
        bucket probe per key, not a scan, for a store that lives on and
        is selected from again; with *probe* off one pass over the rows,
        for an extension about to be dropped, whose bucket map would be
        built for this one selection.  With no position to compare, any
        key selects the relation itself (results are read-only)."""
        if not positions and keys:
            return self
        arity = len(self.columns) if self.columns is not None else None
        if not probe:
            if len(positions) == 1:
                at, = positions
                wanted = {key[0] for key in keys}
                rows = {row for row in self.rows if row[at] in wanted}
            else:
                rows = {
                    row for row in self.rows
                    if tuple(row[p] for p in positions) in keys
                }
            return IdRelation(self.interner, arity, rows)
        buckets = self.buckets_for(positions)
        if len(positions) == 1:
            keys = (key[0] for key in keys)
        picked: list[int] = []
        for key in keys:
            bucket = buckets.get(key)
            if bucket:
                picked.extend(bucket)
        if self.columns:
            rows = set(zip(*([column[i] for i in picked] for column in self.columns)))
        else:  # arity 0, or nothing stored yet
            rows = {()} if picked else set()
        return IdRelation(self.interner, arity, rows)

    def decoded(self):
        """The extension as term rows, for a term-space consumer (a rule
        or plan node on the reference operators): a
        :class:`~repro.storage.relation.DerivedRelation` whose persistent
        indexes survive across reads, brought up to date by decoding only
        the rows appended since the last read."""
        from .relation import DerivedRelation

        view = self._decoded
        if view is None:
            view = self._decoded = DerivedRelation()
        start = self._decoded_length
        if start < self.length:
            decode = self.interner.terms.__getitem__
            if self.columns:
                view.update(zip(*(map(decode, column[start:]) for column in self.columns)))
            else:
                view.add(())
            self._decoded_length = self.length
        return view
