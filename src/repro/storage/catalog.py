"""The fact base: a catalog of named relations with statistics.

Section 2: "The knowledge base consists of a rule base and a database
(also known as fact base)."  :class:`Database` is that fact base — the
relations the ``Bi`` base predicates scan — plus the statistics interface
the cost model consumes.  Statistics are collected lazily from the data
and cached; loading new facts invalidates the cache.  Declared overrides
let benchmarks pin statistics independently of the stored data.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence

from ..datalog.intern import INTERNER
from ..datalog.terms import Term
from ..errors import SchemaError, TransactionError
from .backend import StorageBackend, make_backend
from .columnar import IdRow, encode_checked
from .relation import Relation
from .statistics import RelationStats, collect_statistics


class _Txn:
    """Bookkeeping for one open transaction.

    Memory relations get an *undo log* — one entry per changing call,
    reversed on rollback through the same write routine — plus a
    version snapshot per touched relation so the database's version
    vector is byte-identical after a rollback.  Spilled relations use
    SQLite's own BEGIN/ROLLBACK through their ``txn_*`` hooks.  Spill
    migration is deferred to commit so a relation's physical class never
    changes inside a transaction.
    """

    __slots__ = (
        "undo", "versions", "spilled", "created", "dropped",
        "pending_spill", "stats_cache", "stats_overrides",
    )

    def __init__(self, db: "Database"):
        #: (relation, whether the rows were added, the id rows that changed)
        self.undo: list[tuple[Relation, bool, set[IdRow]]] = []
        self.versions: dict[int, tuple[Relation, int]] = {}
        self.spilled: dict[int, tuple[object, tuple]] = {}
        self.created: list[str] = []
        self.dropped: dict[str, object] = {}
        self.pending_spill: set[str] = set()
        self.stats_cache = dict(db._stats_cache)
        self.stats_overrides = dict(db._stats_overrides)


class Database:
    """A mutable catalog of relations, with cached statistics.

    The physical representation of each relation is the *backend*'s
    business (:mod:`repro.storage.backend`): ``"memory"`` (default) keeps
    every relation a resident :class:`Relation`; ``"sqlite"`` spills any
    relation that grows past *spill_threshold* tuples to a temporary
    on-disk columnar store.  ``spill_threshold=None`` disables both
    spilling and resident-tuple accounting — the pre-backend behaviour.
    """

    def __init__(
        self,
        backend: "str | StorageBackend" = "memory",
        spill_threshold: int | None = None,
    ) -> None:
        self.backend = make_backend(backend)
        self.spill_threshold = spill_threshold
        self._relations: dict[str, Relation] = {}
        self._stats_cache: dict[str, RelationStats] = {}
        self._stats_overrides: dict[str, RelationStats] = {}
        self._txn: _Txn | None = None

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (spilled temp files).  An open
        transaction is rolled back first, so close never persists a
        half-applied group.  Idempotent."""
        if self._txn is not None:
            self.rollback_transaction()
        self.backend.close()

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
        """Make the group durable: flush spilled-relation SQL transactions
        and run the spill migrations deferred during the transaction."""
        txn = self._txn
        if txn is None:
            raise TransactionError("no open transaction to commit")
        self._txn = None
        for relation, _snapshot in txn.spilled.values():
            relation.txn_commit()
        for name in sorted(txn.pending_spill):
            if name in self._relations:
                self._maybe_spill(name)

    def rollback_transaction(self) -> None:
        """Restore the fact base to its state at ``begin_transaction`` —
        rows, versions, schema, and statistics caches all included."""
        txn = self._txn
        if txn is None:
            raise TransactionError("no open transaction to roll back")
        self._txn = None
        # Memory relations: replay the undo log in reverse through the
        # write routine (the term views stay in step), then pin the
        # versions back.
        for relation, added, id_rows in reversed(txn.undo):
            self._write(relation, id_rows, adding=not added)
        for relation, version in txn.versions.values():
            relation.txn_restore(version)
        # Spilled relations: real SQL ROLLBACK plus bookkeeping restore.
        for relation, snapshot in txn.spilled.values():
            relation.txn_rollback(snapshot)
        for name in txn.created:
            self._relations.pop(name, None)
        for name, relation in txn.dropped.items():
            self._relations[name] = relation
        self._stats_cache = dict(txn.stats_cache)
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

    def _txn_touch(self, relation) -> bool:
        """Record first contact with *relation* inside the open
        transaction.  Returns True when mutations must be undo-logged
        (memory relation); False when SQLite's rollback covers them."""
        txn = self._txn
        key = id(relation)
        if isinstance(relation, Relation):
            if key not in txn.versions:
                txn.versions[key] = (relation, relation.version)
            return True
        if key not in txn.spilled:
            txn.spilled[key] = (relation, relation.txn_begin())
        return False

    # -- schema ------------------------------------------------------------

    def create(self, name: str, arity: int, columns: Sequence[str] | None = None) -> Relation:
        """Create an empty relation; error if the name is taken."""
        if name in self._relations:
            raise SchemaError(f"relation {name!r} already exists")
        relation = self.backend.create_relation(name, arity, columns)
        self._relations[name] = relation
        if self._txn is not None:
            self._txn.created.append(name)
        return relation

    def add_relation(self, relation: Relation) -> Relation:
        """Register an existing relation object under its own name."""
        if relation.name in self._relations:
            raise SchemaError(f"relation {relation.name!r} already exists")
        self._relations[relation.name] = relation
        return relation

    def drop(self, name: str) -> None:
        dropped = self._relations.pop(name, None)
        self._stats_cache.pop(name, None)
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

    # -- loading -----------------------------------------------------------

    def _write(self, relation, id_rows: set[IdRow], adding: bool) -> set[IdRow]:
        """The one place a stored extension changes: add (or remove)
        *id_rows*, returning those that were new (present).  A call that
        changes something drops the relation's cached statistics once
        and, inside a transaction, leaves one undo entry; a no-op call —
        every row a duplicate, or absent — leaves versions, statistics
        and the log exactly as they were."""
        txn = self._txn
        log_undo = txn is not None and self._txn_touch(relation)
        changed = relation.add_ids(id_rows) if adding else relation.discard_ids(id_rows)
        if changed:
            self._stats_cache.pop(relation.name, None)
            if log_undo:
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
        new = self._write(relation, id_rows, adding=True)
        if new:
            if self._txn is None:
                self._maybe_spill(name)
            else:
                self._txn.pending_spill.add(name)
        return new

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

    def _maybe_spill(self, name: str) -> None:
        """Let the backend migrate a grown relation to its cold tier."""
        if self.spill_threshold is None:
            return
        relation = self._relations[name]
        migrated = self.backend.maybe_spill(relation, self.spill_threshold)
        if migrated is not relation:
            self._relations[name] = migrated

    def resident_tuples(self) -> int:
        """Tuples the backend holds in process memory across the whole
        fact base (spilled tuples count zero) — what the engine charges
        against the governor's memory budget when a spill threshold is
        configured."""
        backend = self.backend
        return sum(
            backend.resident_tuples(relation)
            for relation in self._relations.values()
        )

    # -- statistics ----------------------------------------------------------

    def declare_stats(self, name: str, stats: RelationStats) -> None:
        """Pin statistics for *name*, overriding collection from data."""
        self._stats_overrides[name] = stats

    def stats_for(self, name: str) -> RelationStats | None:
        """Statistics for *name*: declared override, else collected+cached."""
        override = self._stats_overrides.get(name)
        if override is not None:
            return override
        cached = self._stats_cache.get(name)
        if cached is not None:
            return cached
        relation = self._relations.get(name)
        if relation is None:
            return None
        stats = collect_statistics(relation)
        self._stats_cache[name] = stats
        return stats

    def invalidate_stats(self, name: str | None = None) -> None:
        """Drop cached statistics (all of them when *name* is None)."""
        if name is None:
            self._stats_cache.clear()
        else:
            self._stats_cache.pop(name, None)

    def __repr__(self) -> str:
        parts = ", ".join(f"{r.name}({len(r)})" for r in self._relations.values())
        return f"Database[{parts}]"
