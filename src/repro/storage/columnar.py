"""Columnar id-encoded relation extensions.

An :class:`IdRelation` holds a duplicate-free extension in id space: the
set of its rows as tuples of interned term ids
(:mod:`repro.datalog.intern`), the same rows as parallel columns, and
hash buckets over column subsets mapping a key to the *row indices*
holding it.  The lowered join steps (:mod:`repro.engine.batch`) probe
those buckets and gather output columns with list comprehensions — the
whole point is that every per-row operation in the join loop works on
small ints, not term objects.  The reference operators
(:mod:`repro.engine.operators`) probe the same buckets with the ids of
a key's terms and decode only the rows the key selects.

One class, two owners:

* a base :class:`~repro.storage.relation.Relation` owns one as its only
  stored form;
* a derived predicate's extension on the compiled query path *is* one —
  a fixpoint's workspace entry, a plan node's result, a maintained view.

Either way new rows are found by one set difference and appended in
bulk, a removed row's slot is filled by the last row with the bucket
maps patched (:meth:`IdRelation.discard`).  Neither is held as term
rows: a term-space reader decodes the rows it selects.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Iterable, Sequence

from ..datalog.intern import TermInterner
from ..errors import SchemaError

IdRow = tuple[int, ...]


def encode_checked(
    name: str, arity: int, rows: Sequence[Sequence[object]], interner: TermInterner
) -> "set[IdRow]":
    """The id rows of *rows* bound for relation *name*, a field being a
    ground term or a plain Python value (lifted as
    :func:`~repro.datalog.terms.term_from_python` lifts it), interned by
    :meth:`TermInterner.encode_rows` row by row.

    Every row is checked before any is stored: a row of the wrong arity
    or with a non-ground field raises :class:`SchemaError` and the
    caller's relation is left as it was.
    """
    for row in rows:
        if len(row) != arity:
            raise SchemaError(
                f"relation {name!r}: tuple of arity {len(row)} into arity {arity}"
            )
    try:
        return interner.encode_rows(rows)
    except ValueError as err:  # a variable somewhere in a field
        raise SchemaError(f"relation {name!r}: {err}") from None


class IdRelation:
    """A duplicate-free extension held in id space: the set of its id
    rows, and the same rows as columns with bucket maps.

    This is what the compiled query path passes around between
    ``kb.facts`` and ``to_python()``: a base relation's stored form, a
    fixpoint's workspace entry and its per-round delta, a plan node's
    result, the key set's target when a bound filter probes instead of
    scanning.
    """

    __slots__ = ("interner", "rows", "columns", "length", "_buckets")

    def __init__(
        self,
        interner: TermInterner,
        arity: int | None = None,
        rows: "set[IdRow] | None" = None,
    ):
        """*rows*, when given, becomes the relation's own set (not copied)."""
        self.interner = interner
        self.rows: set[IdRow] = rows if rows is not None else set()
        self._lay_out(arity)

    def _lay_out(self, arity: int | None) -> None:
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
        self._extend(self.rows)

    def _extend(self, id_rows: "set[IdRow]") -> None:
        count = len(id_rows)
        if not count:
            return
        if self.columns is None:
            self.columns = [[] for _ in next(iter(id_rows))]
        # a column at a time, not ``zip(*id_rows)``: a bulk load would
        # hold a second copy of every column while it is appended
        for position, column in enumerate(self.columns):
            column.extend(map(itemgetter(position), id_rows))
        self.length += count

    def absorb(self, produced: "set[IdRow]") -> "set[IdRow]":
        """Add the rows of *produced* not held yet; returns exactly those."""
        # into an empty relation everything is new: a bulk load is not copied
        new = produced - self.rows if self.rows else produced
        if new:
            self.rows |= new
            self._extend(new)
        return new

    def discard(self, gone: "set[IdRow]") -> "set[IdRow]":
        """Take out the rows of *gone* that are held; returns exactly
        those.  The columns stay dense and the bucket maps stay valid, for
        work that follows the smaller of *gone* and what survives: each
        removed row is found through the narrowest bucket map, the last
        row moves into its slot, and every map is patched at the two keys
        involved — nothing is laid out again unless most rows go.
        Columns and buckets are edited in place, so neither may be held
        across a removal (a join's batch aliases columns only while it
        runs; a result that outlives its evaluation copies)."""
        gone = gone & self.rows
        if gone:
            self.rows -= gone
            if not self.columns or 2 * len(gone) >= self.length:
                self._lay_out(len(self.columns))
            else:
                self._swap_out(gone)
        return gone

    def _key_at(self, positions: tuple[int, ...], index: int) -> object:
        """The bucket key (of :meth:`buckets_for`) of the row at *index*."""
        if len(positions) == 1:
            return self.columns[positions[0]][index]
        return tuple(self.columns[p][index] for p in positions)

    def _swap_out(self, gone: "set[IdRow]") -> None:
        columns = self.columns
        # every row in one bucket: patching it is a scan per removed row
        self._buckets.pop((), None)
        maps = [(positions, self.buckets_for(positions)) for positions in self._buckets]
        if maps:
            positions, buckets = max(maps, key=lambda entry: len(entry[0]))
            indices = [
                index
                for row in gone
                for index in buckets[
                    row[positions[0]] if len(positions) == 1
                    else tuple(row[p] for p in positions)
                ]
                if all(column[index] == field for column, field in zip(columns, row))
            ]
        else:
            indices = [index for index, row in enumerate(zip(*columns)) if row in gone]
        # from the back, so the row that fills a slot is one that stays
        for index in sorted(indices, reverse=True):
            last = self.length - 1
            for positions, buckets in maps:
                key = self._key_at(positions, index)
                bucket = buckets[key]
                if len(bucket) == 1:
                    del buckets[key]  # an anti-join asks ``key in buckets``
                else:
                    bucket.remove(index)
                if index != last:
                    bucket = buckets[self._key_at(positions, last)]
                    bucket[bucket.index(last)] = index
            for column in columns:
                field = column.pop()
                if index != last:
                    column[index] = field
            self.length = last
        for entry in self._buckets.values():
            entry[1] = self.length

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

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        width = len(self.columns) if self.columns is not None else "?"
        return (
            f"IdRelation({self.length} rows, width {width}, "
            f"{len(self._buckets)} bucket maps)"
        )


#: The name the ledger's tracer targets (``BatchStore.buckets_for``);
#: nothing in the engine uses it.
BatchStore = IdRelation
