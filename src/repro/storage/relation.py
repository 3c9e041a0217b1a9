"""In-memory relations over ground terms.

A :class:`Relation` is the storage unit of the fact base: a named set of
fixed-arity tuples whose fields are *ground terms* — atomic
:class:`~repro.datalog.terms.Constant` values or complex ground
:class:`~repro.datalog.terms.Struct` terms (LDL stores hierarchies and
lists directly in relations).

Tuples are deduplicated (set semantics, as required by fixpoint
evaluation).  Relations maintain any number of hash indexes over column
subsets; indexes are kept in sync on insert and are what the
index-nested-loop join and the magic-set seeds use.

The class intentionally exposes *physical* operations only (scan, indexed
lookup, insert); algebraic operations live in :mod:`repro.engine`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from ..datalog.terms import Term, is_ground, term_from_python
from ..errors import SchemaError
from .index import HashIndex

#: A stored tuple: ground terms, one per column.
Row = tuple[Term, ...]

#: Maps a row to a sortable key for the merge join's order cache; supplied
#: by the engine so storage stays free of term-ordering policy.
SortKeyFn = Callable[[Row], tuple]


class SortedOrderCache:
    """Cached ``(sort_key, row)`` orders per key-position tuple.

    Merge joins repeatedly sort a relation's extension on the same bound
    positions; an unchanged relation can hand back the previous sort.  The
    cache is validated against the owner's ``_version`` counter, which
    every insert/remove/clear bumps — stale orders are silently rebuilt.
    """

    def __init__(self) -> None:
        self._orders: dict[tuple[int, ...], tuple[int, list[tuple[tuple, Row]]]] = {}

    def lookup(
        self,
        positions: tuple[int, ...],
        version: int,
        rows: Iterable[Row],
        key_fn: SortKeyFn,
    ) -> tuple[list[tuple[tuple, Row]], bool]:
        """Return ``(sorted_keyed_rows, was_cached)`` for *positions*."""
        hit = self._orders.get(positions)
        if hit is not None and hit[0] == version:
            return hit[1], True
        keyed = sorted(((key_fn(row), row) for row in rows), key=lambda pair: pair[0])
        self._orders[positions] = (version, keyed)
        return keyed, False


class Relation:
    """A named, fixed-arity, duplicate-free set of ground-term tuples."""

    def __init__(
        self,
        name: str,
        arity: int,
        columns: Sequence[str] | None = None,
    ):
        if arity < 0:
            raise SchemaError(f"relation {name!r}: arity must be >= 0, got {arity}")
        if columns is not None and len(columns) != arity:
            raise SchemaError(
                f"relation {name!r}: {len(columns)} column names for arity {arity}"
            )
        self.name = name
        self.arity = arity
        self.columns = tuple(columns) if columns is not None else tuple(f"c{i}" for i in range(arity))
        self._rows: set[Row] = set()
        self._indexes: dict[tuple[int, ...], HashIndex] = {}
        self._version = 0
        self._sorted = SortedOrderCache()
        self._batch = None  # BatchStore, built lazily by batch_store()

    # -- loading ---------------------------------------------------------------

    def _check_row(self, row: Sequence[Term]) -> Row:
        if len(row) != self.arity:
            raise SchemaError(
                f"relation {self.name!r}: tuple of arity {len(row)} into arity {self.arity}"
            )
        out = tuple(row)
        for field in out:
            if not is_ground(field):
                raise SchemaError(
                    f"relation {self.name!r}: non-ground field {field} in {out}"
                )
        return out

    def insert(self, row: Sequence[Term]) -> bool:
        """Insert one tuple of ground terms; returns True if it was new."""
        checked = self._check_row(row)
        if checked in self._rows:
            return False
        self._rows.add(checked)
        self._version += 1
        for index in self._indexes.values():
            index.add(checked)
        if self._batch is not None:
            self._batch.append(checked)
        return True

    def insert_values(self, values: Sequence[object]) -> bool:
        """Insert a tuple of plain Python values (lifted into terms).

        >>> r = Relation("up", 2)
        >>> r.insert_values(("a", "b"))
        True
        """
        return self.insert(tuple(term_from_python(v) for v in values))

    def load(self, rows: Iterable[Sequence[object]]) -> int:
        """Bulk-insert plain-value rows; returns the number actually added."""
        added = 0
        for row in rows:
            if self.insert_values(tuple(row)):
                added += 1
        return added

    def remove(self, row: Sequence[Term]) -> bool:
        """Remove one tuple; returns True if it was present."""
        checked = tuple(row)
        if checked not in self._rows:
            return False
        self._rows.discard(checked)
        self._version += 1
        for index in self._indexes.values():
            index.remove(checked)
        # The columnar mirror is append-only; drop it and let the next
        # batch join rebuild from the surviving rows.
        self._batch = None
        return True

    def remove_values(self, values: Sequence[object]) -> bool:
        """Remove a tuple given as plain Python values."""
        return self.remove(tuple(term_from_python(v) for v in values))

    def clear(self) -> None:
        self._rows.clear()
        self._version += 1
        for index in self._indexes.values():
            index.clear()
        self._batch = None

    def txn_restore(self, version: int) -> None:
        """Rewind the version counter after a transaction rollback.

        The undo log replays through :meth:`insert`/:meth:`remove`, so
        rows and hash indexes are already back to their pre-transaction
        state — but every replayed mutation bumped ``_version``.  Restoring
        the old counter keeps the result-cache version vector stable, and
        therefore the derived caches keyed on it must be dropped: a
        :class:`SortedOrderCache` or columnar mirror built *inside* the
        aborted transaction would otherwise validate against the reused
        version number while describing discarded rows.
        """
        self._version = version
        self._batch = None
        self._sorted = SortedOrderCache()

    # -- access ----------------------------------------------------------------

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, row: Sequence[Term]) -> bool:
        return tuple(row) in self._rows

    @property
    def rows(self) -> frozenset[Row]:
        return frozenset(self._rows)

    @property
    def version(self) -> int:
        """Monotone change counter: bumped by every insert/remove/clear.

        The cross-query result cache keys on the database's version
        vector, so retracts must advance this exactly as inserts do.
        """
        return self._version

    # -- indexing ----------------------------------------------------------------

    def ensure_index(self, positions: Sequence[int]) -> HashIndex:
        """Create (or return) a hash index on the given column positions."""
        key = tuple(positions)
        for position in key:
            if not 0 <= position < self.arity:
                raise SchemaError(
                    f"relation {self.name!r}: index position {position} out of range"
                )
        index = self._indexes.get(key)
        if index is None:
            index = HashIndex(key)
            index.extend(self._rows)
            self._indexes[key] = index
        return index

    def index_on(self, positions: Sequence[int]) -> HashIndex | None:
        """An existing index on exactly these positions, if any."""
        return self._indexes.get(tuple(positions))

    def sorted_by(
        self, positions: Sequence[int], key_fn: SortKeyFn
    ) -> tuple[list[tuple[tuple, Row]], bool]:
        """The extension sorted on *positions*, with a per-positions cache.

        Returns ``(keyed_rows, was_cached)``; *key_fn* maps a row to its
        sort key over the positions and must be consistent across calls
        for a given positions tuple.
        """
        return self._sorted.lookup(tuple(positions), self._version, self._rows, key_fn)

    def lookup(self, positions: Sequence[int], key: Sequence[Term]) -> Iterator[Row]:
        """Tuples whose *positions* columns equal *key* (index-accelerated).

        Falls back to a scan when no index exists; callers that care
        should :meth:`ensure_index` first.
        """
        index = self._indexes.get(tuple(positions))
        if index is not None:
            yield from index.get(tuple(key))
            return
        wanted = tuple(key)
        for row in self._rows:
            if tuple(row[p] for p in positions) == wanted:
                yield row

    def batch_store(self, interner) -> "BatchStore":
        """The columnar id-encoded mirror of this relation (lazy, then
        maintained incrementally by :meth:`insert`)."""
        store = self._batch
        if store is None or store.interner is not interner:
            from .columnar import BatchStore

            store = BatchStore(interner, self.arity)
            store.extend(self._rows)
            self._batch = store
        return store

    # -- misc --------------------------------------------------------------------

    def copy(self, name: str | None = None) -> "Relation":
        """A deep-enough copy (rows are immutable; indexes are rebuilt lazily)."""
        out = Relation(name or self.name, self.arity, self.columns)
        out._rows = set(self._rows)
        return out

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, arity={self.arity}, {len(self._rows)} tuples)"


class DerivedRelation:
    """An index-maintaining term-space extension for derived predicates.

    Used where derived rows are consumed as terms: the materialized
    views of :mod:`repro.engine.maintenance`, and the decoded view a
    rule or plan node on the reference operators reads a compiled
    extension through (:meth:`~repro.storage.columnar.IdRelation.decoded`).
    A plain ``set[Row]`` would force every hash/index join against it to
    rebuild its buckets from scratch on each call; this class keeps the
    set semantics (``add`` returns newness) while maintaining persistent
    :class:`HashIndex`es and a :class:`SortedOrderCache` incrementally
    as rows arrive.

    Rows are assumed ground and of consistent arity — the engine derives
    them from already-checked data, so no per-insert validation is done.
    """

    __slots__ = (
        "name", "_rows", "_indexes", "_sorted", "_version",
        "_frozen", "_frozen_version",
    )

    def __init__(self, name: str = "", rows: Iterable[Row] = ()):
        self.name = name
        self._rows: set[Row] = set(tuple(r) for r in rows)
        self._indexes: dict[tuple[int, ...], HashIndex] = {}
        self._sorted = SortedOrderCache()
        self._version = 0
        self._frozen: frozenset[Row] | None = None
        self._frozen_version = -1

    # -- set-like surface (what the fixpoint workspace uses) -------------------

    def add(self, row: Row) -> bool:
        """Insert one tuple; returns True if it was new (delta membership)."""
        if row in self._rows:
            return False
        self._rows.add(row)
        self._version += 1
        for index in self._indexes.values():
            index.add(row)
        return True

    def discard(self, row: Row) -> bool:
        """Remove one tuple; returns True if it was present.

        Invalidates exactly what :meth:`add` maintains: the version
        counter (which the sorted-order cache and the result cache key
        on) and every persistent index.
        """
        if row not in self._rows:
            return False
        self._rows.discard(row)
        self._version += 1
        for index in self._indexes.values():
            index.remove(row)
        return True

    def update(self, rows: Iterable[Row]) -> int:
        """Insert many tuples; returns how many were new."""
        added = 0
        for row in rows:
            if self.add(row):
                added += 1
        return added

    def __contains__(self, row: object) -> bool:
        return row in self._rows

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> frozenset[Row]:
        """The extension as a frozenset (cached until the next insert)."""
        if self._frozen is None or self._frozen_version != self._version:
            self._frozen = frozenset(self._rows)
            self._frozen_version = self._version
        return self._frozen

    @property
    def version(self) -> int:
        """Monotone change counter (see :attr:`Relation.version`)."""
        return self._version

    # -- physical access (what the join operators use) ---------------------------

    def ensure_index(self, positions: Sequence[int]) -> HashIndex:
        """Create (or return) a persistent hash index on *positions*.

        Unlike a per-call hash build, the index survives across fixpoint
        rounds and is extended tuple-by-tuple as deltas are inserted.
        """
        key = tuple(positions)
        index = self._indexes.get(key)
        if index is None:
            index = HashIndex(key)
            index.extend(self._rows)
            self._indexes[key] = index
        return index

    def sorted_by(
        self, positions: Sequence[int], key_fn: SortKeyFn
    ) -> tuple[list[tuple[tuple, Row]], bool]:
        """The extension sorted on *positions* (see :meth:`Relation.sorted_by`)."""
        return self._sorted.lookup(tuple(positions), self._version, self._rows, key_fn)

    def __repr__(self) -> str:
        return f"DerivedRelation({self.name!r}, {len(self._rows)} tuples, {len(self._indexes)} indexes)"


def relation_from_rows(name: str, rows: Iterable[Sequence[object]], arity: int | None = None) -> Relation:
    """Build a relation from plain-value rows, inferring arity if needed."""
    rows = [tuple(r) for r in rows]
    if arity is None:
        if not rows:
            raise SchemaError(f"relation {name!r}: cannot infer arity from no rows")
        arity = len(rows[0])
    relation = Relation(name, arity)
    relation.load(rows)
    return relation
