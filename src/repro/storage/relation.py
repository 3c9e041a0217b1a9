"""In-memory relations over ground terms.

A :class:`Relation` is the storage unit of the fact base: a named set of
fixed-arity tuples whose fields are *ground terms* — atomic
:class:`~repro.datalog.terms.Constant` values or complex ground
:class:`~repro.datalog.terms.Struct` terms (LDL stores hierarchies and
lists directly in relations).

Tuples are deduplicated (set semantics, as required by fixpoint
evaluation) and stored once, in id space: a relation owns a
:class:`~repro.storage.columnar.IdRelation` — the set of its rows as
interned ids, the columns and the bucket maps every join probes, lowered
or not (:meth:`Relation.batch_store`).  Its term face — iteration and
``rows`` — decodes the id set on each read; nothing is kept in term
space.

The class intentionally exposes *physical* operations only (scan,
insert, remove); algebraic operations live in :mod:`repro.engine`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from ..datalog.intern import INTERNER
from ..datalog.terms import Term
from ..errors import SchemaError
from .columnar import IdRelation, IdRow, encode_checked

#: A stored tuple: ground terms, one per column.
Row = tuple[Term, ...]


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
        """The relation's id store, for a join to probe.  Its ids
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
        exactly.  Nothing else is keyed on it."""
        self._version = version

    # -- term face (decoded on each read) -------------------------------------

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self._ids.rows)

    def __contains__(self, row: Sequence[Term]) -> bool:
        # by lookup: asking after a row nobody stored interns nothing
        ids = self.interner.lookup_row(row)
        return ids is not None and ids in self._ids.rows

    @property
    def rows(self) -> frozenset[Row]:
        """The extension as a frozenset of term rows, decoded now."""
        return self.interner.decode_rows(self._ids.rows)

    @property
    def version(self) -> int:
        """Monotone change counter: bumped by every insert/remove/clear.

        The cross-query result cache keys on the database's version
        vector, so retracts must advance this exactly as inserts do.
        """
        return self._version

    # -- misc --------------------------------------------------------------------

    def copy(self, name: str | None = None) -> "Relation":
        """A deep-enough copy (rows are immutable; bucket maps are rebuilt
        on the first probe)."""
        out = Relation(name or self.name, self.arity, self.columns)
        out._ids = IdRelation(INTERNER, self.arity, set(self._ids.rows))
        return out

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, arity={self.arity}, {len(self)} tuples)"


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
