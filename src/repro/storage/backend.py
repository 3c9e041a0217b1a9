"""Pluggable storage backends: in-memory relations vs disk-backed columns.

The fact base defaults to :class:`~repro.storage.relation.Relation` — a
Python set of interned-id tuples with its columns and bucket maps (and,
once a term-space reader asks, a decoded view with its indexes), all
resident.  That caps the engine at RAM.  This module makes the physical
representation pluggable behind the :class:`StorageBackend` protocol and
adds the out-of-core implementation the roadmap's data-scale goal needs:

* :class:`MemoryBackend` — the status quo, now explicit.  Every relation
  stays a :class:`Relation`; ``resident_tuples`` counts all of them.
* :class:`SqliteBackend` — relations start in memory and **spill** to a
  temporary SQLite database once they cross the spill threshold.  A
  spilled relation stores one INTEGER column of interned term ids
  (:mod:`repro.datalog.intern`) per field — the on-disk twin of
  :class:`~repro.storage.columnar.IdRelation` — so the batch tier's
  probe/gather becomes a SQL join over ids and a full scan becomes a
  chunked id stream, decoded back to terms only at the head.

Spilling is per-relation and one-way (facts bases grow; a spilled
relation stays spilled), and it preserves the whole logical surface:
set semantics with newness on insert, retract, version counters for the
result cache, iteration, :meth:`~SpilledRelation.lookup` for the SLD
engine.  The reference operators see a spilled relation as a plain
iterable (they type-check for ``Relation``/``DerivedRelation`` before
using persistent indexes), so every strategy stays correct — but the
lowered rule executor (:mod:`repro.engine.batch`) is the one that stays
out-of-core: its join, anti-join and driving-scan steps reach the disk
through :class:`SpilledStore` and never materialize the extension.

Memory-budget accounting: when a spill threshold is configured, the
:class:`~repro.storage.catalog.Database` reports its **resident** tuple
count (tuples held in Python memory; spilled tuples count zero) and the
engine charges it against the governor's ``max_memory_bytes`` once per
query.  That is what makes the acceptance scenario deterministic: the
same over-RAM workload aborts with ``MemoryBudgetExceeded`` on the
memory backend and completes on the SQLite backend, under the governor's
coarse bytes-per-tuple model rather than allocator noise.
"""

from __future__ import annotations

import atexit
import os
import sqlite3
import tempfile
import weakref
from typing import Iterable, Iterator, Protocol, Sequence, runtime_checkable

from ..datalog.intern import INTERNER, TermInterner
from ..datalog.terms import Term
from ..errors import SchemaError, StorageError
from .relation import Relation, Row, SortKeyFn, StoredRelation

#: Rows per executemany slab when loading / migrating into SQLite.
_WRITE_CHUNK = 8192

#: Rows per fetchmany slab when scanning or joining.
_READ_CHUNK = 8192

#: Every live spilled relation, so the atexit hook (and tests) can close
#: stragglers whose owning Database was never explicitly closed.
_LIVE_SPILLS: "weakref.WeakSet[SpilledRelation]" = weakref.WeakSet()


def _dispose_spill(conn: sqlite3.Connection, path: str) -> None:
    """Close the connection and delete the backing temp file.  Shared by
    :meth:`SpilledRelation.close`, garbage collection, and the atexit
    sweep — every exit path deletes the file, none may raise."""
    try:
        conn.close()
    except Exception:  # pragma: no cover - interpreter-teardown noise
        pass
    try:
        os.unlink(path)
    except OSError:
        pass


def close_all_spills() -> None:
    """Close every live spilled relation (the atexit path; also handy in
    tests asserting no temp files survive)."""
    for relation in list(_LIVE_SPILLS):
        relation.close()


atexit.register(close_all_spills)


@runtime_checkable
class StorageBackend(Protocol):
    """How the fact base physically stores one relation.

    ``create_relation`` builds the hot (in-memory) representation;
    ``maybe_spill`` gets every relation after a bulk mutation and may
    migrate it to a colder representation; ``resident_tuples`` prices
    what the relation keeps in process memory for the governor's
    deterministic memory model.
    """

    name: str

    def create_relation(
        self, name: str, arity: int, columns: Sequence[str] | None = None
    ): ...

    def maybe_spill(self, relation, threshold: int | None): ...

    def resident_tuples(self, relation) -> int: ...

    def close(self) -> None: ...


class MemoryBackend:
    """Everything stays a :class:`Relation`; spilling never happens."""

    name = "memory"

    def create_relation(
        self, name: str, arity: int, columns: Sequence[str] | None = None
    ) -> Relation:
        return Relation(name, arity, columns)

    def maybe_spill(self, relation, threshold: int | None):
        return relation

    def resident_tuples(self, relation) -> int:
        return len(relation)

    def close(self) -> None:
        """Nothing to release: memory relations die with their Database."""


class SqliteBackend:
    """Relations spill to temp-file SQLite once they cross the threshold."""

    name = "sqlite"

    def __init__(self, interner: TermInterner = INTERNER):
        self.interner = interner
        self._spilled: list[SpilledRelation] = []

    def create_relation(
        self, name: str, arity: int, columns: Sequence[str] | None = None
    ) -> Relation:
        # Hot relations are identical to the memory backend's; only size
        # moves them to disk (maybe_spill).
        return Relation(name, arity, columns)

    def maybe_spill(self, relation, threshold: int | None):
        if (
            threshold is None
            or not isinstance(relation, Relation)
            or relation.arity == 0  # nothing to spill; stays a set of ()
            or len(relation) < threshold
        ):
            return relation
        spilled = SpilledRelation.from_relation(relation, self.interner)
        self._spilled.append(spilled)
        return spilled

    def resident_tuples(self, relation) -> int:
        if isinstance(relation, SpilledRelation):
            return 0
        return len(relation)

    def close(self) -> None:
        """Close every relation this backend spilled and delete their
        temp database files.  Idempotent; called from
        :meth:`~repro.storage.catalog.Database.close` and the module's
        atexit sweep."""
        for relation in self._spilled:
            relation.close()
        self._spilled.clear()


def make_backend(backend: "str | StorageBackend") -> StorageBackend:
    """Resolve a backend spec (``"memory"``/``"sqlite"`` or an instance)."""
    if isinstance(backend, str):
        if backend == "memory":
            return MemoryBackend()
        if backend == "sqlite":
            return SqliteBackend()
        raise SchemaError(f"unknown storage backend {backend!r}")
    return backend


class _SqlIndex:
    """Adapter giving a spilled relation the index surface the SLD
    engine's base-literal resolver expects (``get(key) -> rows``)."""

    __slots__ = ("_relation", "_positions")

    def __init__(self, relation: "SpilledRelation", positions: tuple[int, ...]):
        self._relation = relation
        self._positions = positions

    def get(self, key: tuple[Term, ...]) -> list[Row]:
        return list(self._relation.lookup(self._positions, key))

    def get_bucket(self, key: tuple[Term, ...]) -> list[Row]:
        return self.get(key)


class SpilledRelation(StoredRelation):
    """A relation whose extension lives in a temporary SQLite database.

    One INTEGER column of interned ids per field, a unique index over the
    full width for set semantics, and on-demand single-position indexes
    for joins.  Logically interchangeable with :class:`Relation`; the
    batch tier reaches the disk directly through :meth:`batch_store`
    (a :class:`SpilledStore`), everything else decodes through the
    interner on the way out.
    """

    spilled = True

    def __init__(
        self,
        name: str,
        arity: int,
        columns: Sequence[str] | None = None,
        interner: TermInterner = INTERNER,
    ):
        if arity < 1:
            raise SchemaError(f"relation {name!r}: cannot spill arity {arity}")
        super().__init__(name, arity, columns, interner)
        # A *named* temp file (not sqlite3.connect("")): the path is known
        # so close()/atexit can delete it deterministically, and tests can
        # assert nothing survives a spill + close cycle.
        fd, path = tempfile.mkstemp(prefix="repro-spill-", suffix=".db")
        os.close(fd)
        self.path = path
        self._conn = sqlite3.connect(path)
        self._conn.execute("PRAGMA synchronous = OFF")
        # MEMORY (not OFF): ROLLBACK is undefined without a journal, and
        # Database.transaction() needs a real rollback path on disk.
        self._conn.execute("PRAGMA journal_mode = MEMORY")
        cols = ", ".join(f"c{i} INTEGER" for i in range(arity))
        self._conn.execute(f"CREATE TABLE t ({cols})")
        allcols = ", ".join(f"c{i}" for i in range(arity))
        self._conn.execute(f"CREATE UNIQUE INDEX uq ON t ({allcols})")
        self._count = 0
        self._version = 0
        self._sql_indexes: set[tuple[int, ...]] = set()
        self._insert_sql = (
            f"INSERT OR IGNORE INTO t ({allcols}) VALUES "
            f"({', '.join('?' * arity)})"
        )
        self._store: SpilledStore | None = None
        self.closed = False
        self._finalizer = weakref.finalize(self, _dispose_spill, self._conn, path)
        _LIVE_SPILLS.add(self)

    @classmethod
    def from_relation(
        cls, relation: Relation, interner: TermInterner = INTERNER
    ) -> "SpilledRelation":
        """Migrate a hot relation to disk, carrying its version forward
        (the result cache's version vector must keep advancing, never
        reset, across the migration)."""
        out = cls(relation.name, relation.arity, relation.columns, interner)
        # the id rows as they are: nothing is decoded or encoded again
        out._conn.executemany(out._insert_sql, relation.batch_store(interner).rows)
        out._conn.commit()
        out._count = len(relation)
        out._version = relation.version + 1  # the migration is a change
        return out

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Close the connection and delete the backing temp file.
        Idempotent; also runs via GC and the atexit sweep."""
        self.closed = True
        self._store = None
        self._finalizer()

    # -- transactions ----------------------------------------------------------

    def txn_begin(self) -> tuple[int, int, set[tuple[int, ...]]]:
        """Commit pending autocommit work so a later ROLLBACK undoes only
        the transaction's writes, and snapshot the Python-side bookkeeping
        SQL cannot restore."""
        try:
            self._conn.commit()
        except sqlite3.Error as err:
            raise StorageError(f"relation {self.name!r}: begin failed: {err}") from err
        return (self._count, self._version, set(self._sql_indexes))

    def txn_rollback(self, snapshot: tuple[int, int, set[tuple[int, ...]]]) -> None:
        """Undo every write since :meth:`txn_begin` and restore counters.
        Index DDL also rolls back, so the recorded index set is restored
        from the snapshot too."""
        try:
            self._conn.rollback()
        except sqlite3.Error as err:
            raise StorageError(f"relation {self.name!r}: rollback failed: {err}") from err
        self._count, self._version, self._sql_indexes = (
            snapshot[0],
            snapshot[1],
            set(snapshot[2]),
        )
        self._store = None

    def txn_commit(self) -> None:
        try:
            self._conn.commit()
        except sqlite3.Error as err:
            raise StorageError(f"relation {self.name!r}: commit failed: {err}") from err

    # -- loading (the row-level entries are StoredRelation's) ---------------

    def _change(self, sql: str, id_rows, step: int, what: str) -> set[tuple[int, ...]]:
        """Run *sql* once per id row; the rows it applied to."""
        changed = set()
        try:
            for ids in id_rows:
                if self._conn.execute(sql, ids).rowcount == 1:
                    changed.add(ids)
        except sqlite3.Error as err:
            raise StorageError(f"relation {self.name!r}: {what} failed: {err}") from err
        finally:
            if changed:
                self._count += step * len(changed)
                self._version += 1
                self._store = None
        return changed

    def add_ids(self, id_rows) -> set[tuple[int, ...]]:
        """Add already-checked id rows; returns the ones that were new."""
        return self._change(self._insert_sql, id_rows, 1, "insert")

    def discard_ids(self, id_rows) -> set[tuple[int, ...]]:
        """Remove id rows; returns the ones that were present."""
        where = " AND ".join(f"c{i} = ?" for i in range(self.arity))
        return self._change(f"DELETE FROM t WHERE {where}", id_rows, -1, "retract")

    def clear(self) -> None:
        try:
            self._conn.execute("DELETE FROM t")
        except sqlite3.Error as err:
            raise StorageError(f"relation {self.name!r}: clear failed: {err}") from err
        self._count = 0
        self._version += 1
        self._store = None

    # -- access --------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def __contains__(self, row: Sequence[Term]) -> bool:
        ids = self.interner.lookup_row(row)
        if ids is None or len(ids) != self.arity:
            return False
        where = " AND ".join(f"c{i} = ?" for i in range(self.arity))
        try:
            cursor = self._conn.execute(f"SELECT 1 FROM t WHERE {where} LIMIT 1", ids)
            return cursor.fetchone() is not None
        except sqlite3.Error as err:
            raise StorageError(f"relation {self.name!r}: read failed: {err}") from err

    def __iter__(self) -> Iterator[Row]:
        """Stream-decode the extension; never materializes the whole set."""
        terms = self.interner.terms
        try:
            cursor = self._conn.execute("SELECT * FROM t")
            while True:
                block = cursor.fetchmany(_READ_CHUNK)
                if not block:
                    return
                for ids in block:
                    yield tuple(terms[i] for i in ids)
        except sqlite3.Error as err:
            raise StorageError(f"relation {self.name!r}: scan failed: {err}") from err

    @property
    def rows(self) -> frozenset[Row]:
        """The extension as a frozenset — the reference operators'
        compatibility path; it materializes, which the lowered rule
        executor never does."""
        return frozenset(self)

    @property
    def version(self) -> int:
        return self._version

    # -- physical access ------------------------------------------------------

    def ensure_sql_index(self, positions: tuple[int, ...]) -> None:
        if positions in self._sql_indexes or not positions:
            return
        name = "ix_" + "_".join(map(str, positions))
        cols = ", ".join(f"c{p}" for p in positions)
        self._conn.execute(f"CREATE INDEX IF NOT EXISTS {name} ON t ({cols})")
        self._sql_indexes.add(positions)

    def lookup(self, positions: Sequence[int], key: Sequence[Term]) -> Iterator[Row]:
        positions = tuple(positions)
        self.ensure_sql_index(positions)
        ids = self.interner.lookup_row(key)
        if ids is None:
            return  # a term no fact holds (a non-ground one included) matches nothing
        where = " AND ".join(f"c{p} = ?" for p in positions) or "1"
        terms = self.interner.terms
        try:
            cursor = self._conn.execute(f"SELECT * FROM t WHERE {where}", ids)
            while True:
                block = cursor.fetchmany(_READ_CHUNK)
                if not block:
                    return
                for row_ids in block:
                    yield tuple(terms[i] for i in row_ids)
        except sqlite3.Error as err:
            raise StorageError(f"relation {self.name!r}: lookup failed: {err}") from err

    def ensure_index(self, positions: Sequence[int]) -> _SqlIndex:
        positions = self._index_key(positions)
        self.ensure_sql_index(positions)
        return _SqlIndex(self, positions)

    def index_on(self, positions: Sequence[int]) -> _SqlIndex | None:
        positions = tuple(positions)
        if positions in self._sql_indexes:
            return _SqlIndex(self, positions)
        return None

    def sorted_by(
        self, positions: Sequence[int], key_fn: SortKeyFn
    ) -> tuple[list[tuple[tuple, Row]], bool]:
        """Merge-join compatibility: materialize and sort (never cached —
        a spilled relation is too big to want this path; the batch tier
        is the intended one)."""
        keyed = sorted(((key_fn(row), row) for row in self), key=lambda pair: pair[0])
        return keyed, False

    def batch_store(self, interner) -> "SpilledStore":
        store = self._store
        if store is None or store.interner is not interner:
            store = SpilledStore(self, interner)
            self._store = store
        return store

    def __repr__(self) -> str:
        return f"SpilledRelation({self.name!r}, arity={self.arity}, {self._count} tuples on disk)"


class SpilledStore:
    """The disk-side analogue of :class:`~repro.storage.columnar.IdRelation`.

    Deliberately *not* a subclass: the batch join kernel
    dispatches on the type (``isinstance(store, BatchStore)``) and routes
    non-BatchStore extensions through :func:`spilled_batch_join`, which
    turns the probe pass into a SQL join and the full scan into a chunked
    id stream.
    """

    __slots__ = ("relation", "interner", "name")

    def __init__(self, relation: SpilledRelation, interner: TermInterner):
        self.relation = relation
        self.interner = interner
        self.name = relation.name

    @property
    def length(self) -> int:
        return len(self.relation)

    def __len__(self) -> int:
        return len(self.relation)

    def scan_chunks(
        self, positions: tuple[int, ...], chunk_rows: int = _READ_CHUNK
    ) -> Iterator[tuple[list[list[int]], int]]:
        """Yield ``(columns, length)`` id chunks of the *positions*
        projection, in storage order — the streaming driver for the batch
        tier's out-of-core scans."""
        select = ", ".join(f"c{p}" for p in positions) or "1"
        width = len(positions)
        try:
            cursor = self.relation._conn.execute(f"SELECT {select} FROM t")
            while True:
                block = cursor.fetchmany(chunk_rows)
                if not block:
                    return
                if width:
                    yield [list(column) for column in zip(*block)], len(block)
                else:
                    yield [], len(block)
        except sqlite3.Error as err:
            raise StorageError(f"relation {self.name!r}: scan failed: {err}") from err


def spilled_batch_join(
    step, columns: list[list[int]], length: int, store: SpilledStore, profiler, governor
) -> tuple[list[list[int]], int]:
    """One batch-join step whose extension side lives on disk.

    The in-memory kernel's bucket probe becomes a SQL join: ship the
    input key column(s) into a temp probe table, join against the spilled
    id columns (indexed on demand on the bound positions), and gather the
    matches back as selection vectors.  Tuple counters are identical to
    the in-memory kernel — ``probes`` per input row, ``examined`` and
    ``produced`` per match — and the governor is ticked per fetch slab,
    so budget totals match serial exactly (tick *granularity* is the
    disk tier's documented deviation).

    The ``spill:<relation>`` checkpoint at entry is the fault-injection
    site for simulated disk failures (chaos harness); a real
    ``sqlite3.Error`` anywhere in the join surfaces as a typed
    :class:`~repro.errors.StorageError` instead of a raw driver
    exception.
    """
    if governor is not None:
        governor.checkpoint(f"spill:{store.name}")
    try:
        return _spilled_batch_join(step, columns, length, store, profiler, governor)
    except sqlite3.Error as err:
        raise StorageError(f"relation {store.name!r}: batch join failed: {err}") from err


def spilled_absent_keys(store: SpilledStore, keys: Iterable[object], governor) -> set:
    """The distinct *keys* with no row on disk — the anti-join step's
    membership test against a spilled extension.

    A key is a full-width row in the batch tier's bucket-key shape (a
    tuple of ids; the bare id for arity 1).  Each distinct key costs one
    probe of the relation's unique index (:meth:`SpilledRelation.__contains__`,
    which raises :class:`~repro.errors.StorageError` on a driver error);
    the extension is never read back.  Fires the same ``spill:<relation>``
    checkpoint as :func:`spilled_batch_join`.
    """
    if governor is not None:
        governor.checkpoint(f"spill:{store.name}")
    relation = store.relation
    decode = store.interner.terms.__getitem__
    if relation.arity == 1:
        return {key for key in set(keys) if (decode(key),) not in relation}
    return {key for key in set(keys) if tuple(map(decode, key)) not in relation}


def _spilled_batch_join(
    step, columns: list[list[int]], length: int, store: SpilledStore, profiler, governor
) -> tuple[list[list[int]], int]:
    relation = store.relation
    conn = relation._conn

    if not columns and not step.bound_positions:
        # Unit-input full scan.  The in-memory kernel aliases the store's
        # columns; here they must be read back, chunk by chunk.
        matches = store.length
        profiler.bump_probes(1)
        profiler.bump_examined(matches)
        profiler.bump_produced(matches)
        if matches == 0:
            return [], 0
        out_columns: list[list[int]] = [[] for __ in step.free_out]
        for chunk_columns, chunk_length in store.scan_chunks(step.free_out):
            if governor is not None:
                governor.tick(chunk_length)
            for out_column, chunk_column in zip(out_columns, chunk_columns):
                out_column.extend(chunk_column)
        return out_columns, matches

    profiler.bump_probes(length)
    relation.ensure_sql_index(step.bound_positions)
    free_select = ", ".join(f"s.c{p}" for p in step.free_out)

    conditions: list[str] = []
    params: list[int] = []
    probe_slots: list[int] = []
    for position, slot, const in zip(
        step.bound_positions, step.key_slots, step.key_const_ids
    ):
        if slot is None:
            conditions.append(f"s.c{position} = ?")
            params.append(const)
        else:
            conditions.append(f"s.c{position} = p.k{len(probe_slots)}")
            probe_slots.append(slot)

    left: list[int] = []
    free_columns: list[list[int]] = [[] for __ in step.free_out]

    if not probe_slots:
        # Constant-only (or empty) key: every input row matches the same
        # extension rows, so fetch them once and replicate.
        where = " AND ".join(c.replace("s.", "") for c in conditions) or "1"
        select = ", ".join(f"c{p}" for p in step.free_out) or "1"
        cursor = conn.execute(f"SELECT {select} FROM t WHERE {where}", params)
        matched_free: list[list[int]] = [[] for __ in step.free_out]
        per_row = 0
        while True:
            block = cursor.fetchmany(_READ_CHUNK)
            if not block:
                break
            per_row += len(block)
            if step.free_out:
                for column, values in zip(matched_free, zip(*block)):
                    column.extend(values)
        matches = length * per_row
        if governor is not None and matches:
            charged = 0
            while charged < matches:
                slab = min(matches - charged, _READ_CHUNK)
                governor.tick(slab)
                charged += slab
        profiler.bump_examined(matches)
        profiler.bump_produced(matches)
        if matches == 0:
            return [], 0
        left = [i for i in range(length) for __ in range(per_row)]
        free_columns = [column * length for column in matched_free]
    else:
        probe_cols = ", ".join(f"k{i}" for i in range(len(probe_slots)))
        conn.execute("DROP TABLE IF EXISTS temp.probe")
        conn.execute(f"CREATE TEMP TABLE probe (idx INTEGER, {probe_cols})")
        insert = (
            f"INSERT INTO probe (idx, {probe_cols}) VALUES "
            f"({', '.join('?' * (len(probe_slots) + 1))})"
        )
        key_columns = [columns[slot] for slot in probe_slots]
        batch = []
        for i, key in enumerate(zip(*key_columns)):
            batch.append((i, *key))
            if len(batch) >= _WRITE_CHUNK:
                conn.executemany(insert, batch)
                batch.clear()
        if batch:
            conn.executemany(insert, batch)
        select = f"p.idx{', ' + free_select if free_select else ''}"
        on = " AND ".join(conditions)
        cursor = conn.execute(f"SELECT {select} FROM probe p JOIN t s ON {on}", params)
        while True:
            block = cursor.fetchmany(_READ_CHUNK)
            if not block:
                break
            if governor is not None:
                governor.tick(len(block))
            rotated = list(zip(*block))
            left.extend(rotated[0])
            for column, values in zip(free_columns, rotated[1:]):
                column.extend(values)
        conn.execute("DROP TABLE IF EXISTS temp.probe")
        matches = len(left)
        profiler.bump_examined(matches)
        profiler.bump_produced(matches)
        if matches == 0:
            return [], 0

    out_columns = [[column[i] for i in left] for column in columns]
    out_columns.extend(free_columns)
    return out_columns, matches
