"""In-memory relations over ground terms.

A :class:`Relation` is the storage unit of the fact base: a named set of
fixed-arity tuples whose fields are *ground terms* — atomic
:class:`~repro.datalog.terms.Constant` values or complex ground
:class:`~repro.datalog.terms.Struct` terms (LDL stores hierarchies and
lists directly in relations).

Tuples are deduplicated (set semantics, as required by fixpoint
evaluation) and stored once, in id space: a relation owns a
:class:`~repro.storage.columnar.IdRelation` — the set of its rows as
interned ids, the columns and the bucket maps the lowered join steps
probe (:meth:`Relation.batch_store`).  Its term face — iteration,
``rows``, hash indexes over column subsets for the index-nested-loop
join and the magic-set seeds, sorted orders for the merge join — is the
store's :class:`DerivedRelation` view, decoded on the first use by a
term-space reader and kept in step with the writes after that; a
knowledge base whose rules all lower never builds it.

The class intentionally exposes *physical* operations only (scan, indexed
lookup, insert); algebraic operations live in :mod:`repro.engine`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from ..datalog.intern import INTERNER
from ..datalog.terms import Term
from ..errors import SchemaError
from .columnar import IdRelation, IdRow, encode_checked
from .index import HashIndex

#: A stored tuple: ground terms, one per column.
Row = tuple[Term, ...]

#: Maps a row to a sortable key for the merge join's order cache; supplied
#: by the engine so storage stays free of term-ordering policy.
SortKeyFn = Callable[[Row], tuple]


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
        #: whose ids the stored rows are
        self.interner = INTERNER
        self._ids = IdRelation(INTERNER, arity)
        self._version = 0

    # -- row-level writes --------------------------------------------------------

    def load(self, rows: Iterable[Sequence[object]]) -> int:
        """Bulk-insert rows of ground terms or plain values — all of
        them, or none when one is malformed; returns the number added."""
        rows = rows if isinstance(rows, (list, tuple)) else list(rows)
        return len(self.add_ids(encode_checked(self.name, self.arity, rows, self.interner)))

    def insert(self, row: Sequence[object]) -> bool:
        """Insert one tuple of ground terms or plain Python values
        (lifted into terms); returns True if it was new.

        >>> r = Relation("up", 2)
        >>> r.insert_values(("a", "b"))
        True
        """
        return bool(self.load((row,)))

    def remove(self, row: Sequence[object]) -> bool:
        """Remove one tuple; returns True if it was present."""
        ids = self.interner.lookup_row(row)
        return ids is not None and bool(self.discard_ids({ids}))

    insert_values = insert
    remove_values = remove

    def _index_key(self, positions: Sequence[int]) -> tuple[int, ...]:
        key = tuple(positions)
        for position in key:
            if not 0 <= position < self.arity:
                raise SchemaError(
                    f"relation {self.name!r}: index position {position} out of range"
                )
        return key

    # -- id face (what the fact base and the lowered steps use) ----------------

    def add_ids(self, id_rows: set[IdRow]) -> set[IdRow]:
        """Add already-checked id rows; returns the ones that were new."""
        new = self._ids.absorb(id_rows)
        if new:
            self._version += 1
        return new

    def discard_ids(self, id_rows: set[IdRow]) -> set[IdRow]:
        """Remove id rows; returns the ones that were present."""
        gone = self._ids.discard(id_rows)
        if gone:
            self._version += 1
        return gone

    def batch_store(self, interner) -> IdRelation:
        """The relation's id store, for a lowered step to probe.  Its ids
        are the process-wide table's; a caller working in another
        interner's ids cannot be served."""
        if interner is not self.interner:
            raise ValueError(f"relation {self.name!r} is not interned in {interner!r}")
        return self._ids

    def clear(self) -> None:
        self._ids = IdRelation(INTERNER, self.arity)
        self._version += 1

    def txn_restore(self, version: int) -> None:
        """Rewind the version counter after a rollback, whose replay
        bumped it: the result cache's version vector must come back
        exactly.  Nothing else is keyed on it (the term view validates
        its sorted orders against its own counter)."""
        self._version = version

    # -- term face (the decoded view) ------------------------------------------

    def _view(self) -> "DerivedRelation":
        return self._ids.decoded()

    def __iter__(self) -> Iterator[Row]:
        return iter(self._view())

    def __len__(self) -> int:
        return len(self._ids.rows)

    def __contains__(self, row: Sequence[Term]) -> bool:
        # by lookup: asking after a row nobody stored interns nothing
        ids = self.interner.lookup_row(row)
        return ids is not None and ids in self._ids.rows

    @property
    def rows(self) -> frozenset[Row]:
        """The extension as a frozenset (cached until the next write)."""
        return self._view().rows

    @property
    def version(self) -> int:
        """Monotone change counter: bumped by every insert/remove/clear.

        The cross-query result cache keys on the database's version
        vector, so retracts must advance this exactly as inserts do.
        """
        return self._version

    def ensure_index(self, positions: Sequence[int]) -> HashIndex:
        """Create (or return) a hash index on the given column positions."""
        return self._view().ensure_index(self._index_key(positions))

    def index_on(self, positions: Sequence[int]) -> HashIndex | None:
        """An existing index on exactly these positions, if any."""
        return self._view().index_on(positions)

    def sorted_by(
        self, positions: Sequence[int], key_fn: SortKeyFn
    ) -> tuple[list[tuple[tuple, Row]], bool]:
        """The extension sorted on *positions*, with a per-positions cache.

        Returns ``(keyed_rows, was_cached)``; *key_fn* maps a row to its
        sort key over the positions and must be consistent across calls
        for a given positions tuple.
        """
        return self._view().sorted_by(positions, key_fn)

    def lookup(self, positions: Sequence[int], key: Sequence[Term]) -> Iterator[Row]:
        """Tuples whose *positions* columns equal *key* (index-accelerated).

        Falls back to a scan when no index exists; callers that care
        should :meth:`ensure_index` first.
        """
        return self._view().lookup(positions, key)

    # -- misc --------------------------------------------------------------------

    def copy(self, name: str | None = None) -> "Relation":
        """A deep-enough copy (rows are immutable; indexes are rebuilt lazily)."""
        out = Relation(name or self.name, self.arity, self.columns)
        out._ids = IdRelation(INTERNER, self.arity, set(self._ids.rows))
        return out

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, arity={self.arity}, {len(self)} tuples)"


class DerivedRelation:
    """An index-maintaining term-space extension for derived predicates.

    Used where rows are consumed as terms: the decoded view a term-space
    reader gets of an id-space extension, stored or derived
    (:meth:`~repro.storage.columnar.IdRelation.decoded` — a
    :class:`Relation`'s whole term face is one of these).
    A plain ``set[Row]`` would force every hash/index join against it to
    rebuild its buckets from scratch on each call; this class keeps the
    set semantics (``add`` returns newness) while maintaining persistent
    :class:`HashIndex`es and per-position sorted orders incrementally
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
        #: positions -> (version sorted at, the ``(sort_key, row)`` order)
        self._sorted: dict[tuple[int, ...], tuple[int, list[tuple[tuple, Row]]]] = {}
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

    def index_on(self, positions: Sequence[int]) -> HashIndex | None:
        """An existing index on exactly these positions, if any."""
        return self._indexes.get(tuple(positions))

    def lookup(self, positions: Sequence[int], key: Sequence[Term]) -> Iterator[Row]:
        """Tuples whose *positions* columns equal *key*: a bucket of the
        index on exactly those positions when one exists, else a scan."""
        index = self._indexes.get(tuple(positions))
        if index is not None:
            return iter(index.get(key))
        wanted = tuple(key)
        return (row for row in self._rows if tuple(row[p] for p in positions) == wanted)

    def sorted_by(
        self, positions: Sequence[int], key_fn: SortKeyFn
    ) -> tuple[list[tuple[tuple, Row]], bool]:
        """The extension sorted on *positions* (see :meth:`Relation.sorted_by`).

        Merge joins sort an extension on the same bound positions again
        and again; an unchanged one hands back the previous order.  An
        order is kept with the ``_version`` it was sorted at, which every
        add/discard bumps — a stale one is silently rebuilt.
        """
        positions = tuple(positions)
        hit = self._sorted.get(positions)
        if hit is not None and hit[0] == self._version:
            return hit[1], True
        keyed = sorted(((key_fn(row), row) for row in self._rows), key=lambda pair: pair[0])
        self._sorted[positions] = (self._version, keyed)
        return keyed, False

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
