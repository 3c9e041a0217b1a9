"""The fact base: a catalog of named relations with statistics.

Section 2: "The knowledge base consists of a rule base and a database
(also known as fact base)."  :class:`Database` is that fact base — the
relations the ``Bi`` base predicates scan — plus the statistics interface
the cost model consumes.  A relation's statistics are collected on its
first read and then follow its writes: a write logs the rows it changed
and the next read folds them in
(:class:`~repro.storage.statistics.LiveStatistics`).  Declared overrides
let benchmarks pin statistics independently of the stored data.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence

from ..datalog.intern import INTERNER
from ..datalog.terms import Term
from ..errors import SchemaError, TransactionError
from .columnar import IdRow, encode_checked
from .relation import Relation
from .statistics import LiveStatistics, RelationStats


class _Txn:
    """Bookkeeping for one open transaction.

    Every relation gets an *undo log* — one entry per changing call,
    reversed on rollback through the same write routine — plus a
    version snapshot per touched relation so the database's version
    vector is byte-identical after a rollback.
    """

    __slots__ = ("undo", "versions", "created", "dropped", "stats_overrides")

    def __init__(self, db: "Database"):
        #: (relation, whether the rows were added, the id rows that changed)
        self.undo: list[tuple[Relation, bool, set[IdRow]]] = []
        self.versions: dict[int, tuple[Relation, int]] = {}
        self.created: list[str] = []
        self.dropped: dict[str, Relation] = {}
        self.stats_overrides = dict(db._stats_overrides)


class Database:
    """A mutable catalog of relations, with statistics that follow the writes."""

    def __init__(self) -> None:
        self._relations: dict[str, Relation] = {}
        #: name -> the statistics following that relation's writes
        self._stats: dict[str, LiveStatistics] = {}
        self._stats_overrides: dict[str, RelationStats] = {}
        self._txn: _Txn | None = None

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Roll back an open transaction, so close never persists a
        half-applied group.  Idempotent; the database stays usable."""
        if self._txn is not None:
            self.rollback_transaction()

    # -- transactions --------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._txn is not None

    def begin_transaction(self) -> None:
        """Open a transaction: all inserts/retracts through this Database
        until commit/rollback apply atomically.  No nesting."""
        if self._txn is not None:
            raise TransactionError("transaction already open on this Database")
        self._txn = _Txn(self)

    def commit_transaction(self) -> None:
        """Keep the group: the writes are already applied, so committing
        drops the undo log."""
        if self._txn is None:
            raise TransactionError("no open transaction to commit")
        self._txn = None

    def rollback_transaction(self) -> None:
        """Restore the fact base to its state at ``begin_transaction`` —
        rows, versions, schema, and statistics all included."""
        txn = self._txn
        if txn is None:
            raise TransactionError("no open transaction to roll back")
        self._txn = None
        # Replay the undo log in reverse through the write routine (the
        # term views and the statistics' logs stay in step), then pin the
        # versions back, the statistics' with their relations'.
        for relation, added, id_rows in reversed(txn.undo):
            self._write(relation, id_rows, adding=not added)
        for relation, version in txn.versions.values():
            live = self._stats.get(relation.name)
            if live is not None and live.follows(relation):
                live.version = version
            relation.txn_restore(version)
        for name in txn.created:
            self._relations.pop(name, None)
            self._stats.pop(name, None)
        for name, relation in txn.dropped.items():
            self._relations[name] = relation
        self._stats_overrides = dict(txn.stats_overrides)

    @contextmanager
    def transaction(self):
        """``with db.transaction():`` — commit on normal exit, roll back
        (restoring the database byte-identically) on any exception."""
        self.begin_transaction()
        try:
            yield self
        except BaseException:
            self.rollback_transaction()
            raise
        else:
            self.commit_transaction()

    # -- schema ------------------------------------------------------------

    def create(self, name: str, arity: int, columns: Sequence[str] | None = None) -> Relation:
        """Create an empty relation; error if the name is taken."""
        return self.add_relation(Relation(name, arity, columns))

    def add_relation(self, relation: Relation) -> Relation:
        """Register a relation object under its own name; error if the
        name is taken.  Inside a transaction a rollback unregisters it."""
        if relation.name in self._relations:
            raise SchemaError(f"relation {relation.name!r} already exists")
        self._relations[relation.name] = relation
        if self._txn is not None:
            self._txn.created.append(relation.name)
        return relation

    def drop(self, name: str) -> None:
        dropped = self._relations.pop(name, None)
        self._stats.pop(name, None)
        self._stats_overrides.pop(name, None)
        if self._txn is not None and dropped is not None and name not in self._txn.created:
            self._txn.dropped.setdefault(name, dropped)

    # -- access ------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def get(self, name: str) -> Relation | None:
        return self._relations.get(name)

    @property
    def names(self) -> frozenset[str]:
        return frozenset(self._relations)

    def version_vector(self) -> tuple[tuple[str, int], ...]:
        """Sorted ``(name, version)`` pairs over every relation.

        Any insert, retract, or clear anywhere in the fact base changes
        the vector (relations bump their version on every mutation, and
        creating a relation adds an entry), so it is a sound freshness
        key for cross-query result caching.
        """
        return tuple(
            (name, self._relations[name].version)
            for name in sorted(self._relations)
        )

    def resident_tuples(self) -> int:
        """Tuples stored across the whole fact base."""
        return sum(len(relation) for relation in self._relations.values())

    # -- loading -----------------------------------------------------------

    def _write(self, relation: Relation, id_rows: set[IdRow], adding: bool) -> set[IdRow]:
        """The one place a stored extension changes: add (or remove)
        *id_rows*, returning those that were new (present).  A call that
        changes something logs them once for the relation's statistics
        and, inside a transaction, leaves one undo entry; a no-op call —
        every row a duplicate, or absent — leaves versions, statistics
        and the log exactly as they were."""
        txn = self._txn
        version = relation.version
        if txn is not None and id(relation) not in txn.versions:
            txn.versions[id(relation)] = (relation, version)
        changed = relation.add_ids(id_rows) if adding else relation.discard_ids(id_rows)
        if changed:
            live = self._stats.get(relation.name)
            if live is not None and live.relation is relation and not live.note(version, changed, adding):
                del self._stats[relation.name]
            if txn is not None:
                txn.undo.append((relation, adding, changed))
        return changed

    def add(self, name: str, rows: Iterable[Sequence[object]]) -> set[IdRow]:
        """Bulk-insert tuples of ground terms or plain values, creating
        the relation on demand; returns the id rows that were actually
        new.  Every row is checked before the first is stored, so a call
        that raises has changed nothing."""
        rows = rows if isinstance(rows, (list, tuple)) else list(rows)
        relation = self._relations.get(name)
        if relation is None and not rows:
            raise SchemaError(f"cannot infer arity of new relation {name!r} from no rows")
        arity = relation.arity if relation is not None else len(rows[0])
        id_rows = encode_checked(name, arity, rows, INTERNER)
        if relation is None:
            relation = self.create(name, arity)
        return self._write(relation, id_rows, adding=True)

    def remove(self, name: str, rows: Iterable[Sequence[object]]) -> set[IdRow]:
        """Remove tuples of ground terms or plain values from *name*;
        returns the id rows that were present.  A tuple with a field no
        fact ever held is absent without being interned."""
        relation = self.relation(name)
        id_rows = set(map(INTERNER.lookup_row, rows))
        id_rows.discard(None)
        return self._write(relation, id_rows, adding=False)

    def insert(self, name: str, row: Sequence[Term]) -> bool:
        """Insert one ground-term tuple, creating the relation on demand."""
        return bool(self.add(name, (row,)))

    def load(self, name: str, rows: Iterable[Sequence[object]]) -> int:
        """Bulk-load plain-value rows, creating the relation on demand."""
        return len(self.add(name, rows))

    def retract(self, name: str, rows: Iterable[Sequence[object]]) -> int:
        """Remove plain-value tuples from *name*; returns how many existed."""
        return len(self.remove(name, rows))

    # -- statistics ----------------------------------------------------------

    def declare_stats(self, name: str, stats: RelationStats) -> None:
        """Pin statistics for *name*, overriding collection from data."""
        self._stats_overrides[name] = stats

    def stats_for(self, name: str) -> RelationStats | None:
        """Statistics for *name*: the declared override, else the
        relation's own, collected on the first read and then folded
        forward from its write log (afresh when a write went past it)."""
        override = self._stats_overrides.get(name)
        if override is not None:
            return override
        relation = self._relations.get(name)
        if relation is None:
            return None
        live = self._stats.get(name)
        if live is None or not live.follows(relation):
            live = self._stats[name] = LiveStatistics(relation)
        return live.read()

    def invalidate_stats(self, name: str | None = None) -> None:
        """Drop statistics, the maintained state included (all of them
        when *name* is None): the next read collects afresh."""
        if name is None:
            self._stats.clear()
        else:
            self._stats.pop(name, None)

    def __repr__(self) -> str:
        parts = ", ".join(f"{r.name}({len(r)})" for r in self._relations.values())
        return f"Database[{parts}]"
